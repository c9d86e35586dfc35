"""The merged PBW worklist and the mod-p coprimality certificate of QRat,
each against a reference that is written here: the per-path worklist that
rewrote every path to a word separately, and the exact Euclidean reduction."""

import itertools
import random
from fractions import Fraction

import pytest

from qsl2r import ncpoly
from qsl2r.ncpoly import (NcPoly, QCoeff, QRat, cancel_word, format_expr,
                          identity_sides, pbw_normal_form, relation_sides,
                          substitute_j)

PRIME = ncpoly._CERT_PRIME


# -- the termination measure ----------------------------------------------------

def key(w):
    # (X/Y letters, pairs out of the order Y < X < Z), by brute force
    rank = {"Y": 0, "X": 1, "Z": 2, "z": 2}
    inversions = sum(1 for i, j in itertools.combinations(range(len(w)), 2)
                     if rank[w[i]] > rank[w[j]])
    return sum(ch in "XY" for ch in w), inversions


def all_words(max_len):
    for n in range(max_len + 1):
        for t in itertools.product("XYZz", repeat=n):
            yield "".join(t)


def test_every_rewrite_lowers_the_key():
    one = QCoeff.one()
    rewritten = 0
    for w in all_words(6):
        assert ncpoly._pbw_key(w) == key(w), w
        steps = ncpoly._rewrite(w, one)
        if steps is None:
            continue
        rewritten += 1
        for nw, _ in steps:
            assert key(nw) < key(w), (w, nw)
    assert rewritten > 4000


def test_inversions_alone_can_rise():
    # X Y -> Z Z turns one inversion into two, so the X/Y count leads the key
    assert key("XYX")[1] == 1 and key("ZZX")[1] == 2
    assert "ZZX" in [nw for nw, _ in ncpoly._rewrite("XYX", QCoeff.one())]


# -- the merged worklist against the per-path one ---------------------------------

_SWAPS = {"ZX": -2, "ZY": 2, "zX": 2, "zY": -2}
_QC_XY = QCoeff.of(QRat.q_pow(1) / (QRat.q_pow(1) - QRat.q_pow(-1)))


def pbw_per_path(p):
    # the worklist before the merge: each path to a word is rewritten alone
    out = {}
    work = list(p.terms.items())
    while work:
        w, c = work.pop()
        for i in range(len(w) - 1):
            pair = w[i:i + 2]
            k = _SWAPS.get(pair)
            if k is not None:
                work.append((cancel_word(w[:i] + pair[1] + pair[0] + w[i + 2:]),
                             c * QCoeff.q_pow(k)))
                break
            if pair == "XY":
                work.append((cancel_word(w[:i] + "YX" + w[i + 2:]), c * QCoeff.q_pow(2)))
                mid = c * _QC_XY
                work.append((cancel_word(w[:i] + "ZZ" + w[i + 2:]), mid))
                work.append((cancel_word(w[:i] + w[i + 2:]), -mid))
                break
        else:
            s = out.get(w)
            c = c if s is None else s + c
            if c.is_zero():
                out.pop(w, None)
            else:
                out[w] = c
    return NcPoly(out, _canonical=True)


def assert_same_normal_form(p):
    new, ref = pbw_normal_form(p), pbw_per_path(p)
    assert new == ref
    assert format_expr(new) == format_expr(ref)


def seeded_corpus(n, seed=20260601):
    rng = random.Random(seed)
    coeffs = [QCoeff.one(), QCoeff.q_pow(3), QCoeff.of(Fraction(-2, 3)),
              QCoeff.of(QRat.q_pow(1) + QRat.one()), QCoeff.y_pow(1, QRat.q_pow(-1))]
    for _ in range(n):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            w = "".join(rng.choice("XYZz") for _ in range(rng.randint(0, 8)))
            terms[w] = rng.choice(coeffs)
        yield NcPoly(terms)


def test_merged_worklist_matches_per_path_on_corpus():
    for p in seeded_corpus(300):
        assert_same_normal_form(p)


def test_merged_worklist_matches_per_path_on_cancelling_input():
    # X Y and its expansion cancel only after the contributions are summed
    xy = NcPoly.word("XY")
    assert_same_normal_form(xy - pbw_normal_form(xy))
    assert_same_normal_form(NcPoly.word("ZXY") + NcPoly.word("XZY", QCoeff.q_pow(2)))


def test_merged_worklist_matches_per_path_on_relations_and_identity():
    polys = []
    for which in ("defining", "zj"):
        for lhs, rhs in relation_sides(which).values():
            polys += [substitute_j(lhs), substitute_j(rhs), substitute_j(lhs - rhs)]
    polys += [substitute_j(side) for side in identity_sides()]
    for p in polys:
        assert_same_normal_form(p)


def test_confluence_of_xy_power():
    half = pbw_normal_form(NcPoly.word("XY" * 4))
    assert pbw_normal_form(NcPoly.word("XY" * 8)) == pbw_normal_form(half * half)


# -- the coprimality certificate against exact Euclid -------------------------------

def _divmod(a, b):
    a = list(a)
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    for k in range(len(a) - 1, len(b) - 2, -1):
        c = a[k] / b[-1]
        quot[k - len(b) + 1] = c
        for i, bc in enumerate(b):
            a[k - len(b) + 1 + i] -= c * bc
    rem = a[:len(b) - 1] or [Fraction(0)]
    while len(rem) > 1 and not rem[-1]:
        rem.pop()
    return quot, rem


def exact_canonical(num, den):
    # reduce by the exact gcd over Q, shift onto den and make den monic
    ln, ld = min(num), min(den)
    nd = [Fraction(num.get(e, 0)) for e in range(ln, max(num) + 1)]
    dd = [Fraction(den.get(e, 0)) for e in range(ld, max(den) + 1)]
    a, b = nd, dd
    while any(b):
        a, b = b, _divmod(a, b)[1]
    if len(a) > 1:
        nd, dd = _divmod(nd, a)[0], _divmod(dd, a)[0]
    lead = dd[-1]
    return ({e + ln - ld: c / lead for e, c in enumerate(nd) if c},
            {e: c / lead for e, c in enumerate(dd) if c})


def poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def random_poly(rng, lo, hi):
    while True:
        out = {e: Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
               for e in range(lo, rng.randint(lo, hi) + 1)}
        out = {e: c for e, c in out.items() if c}
        if out:
            return out


@pytest.fixture
def gcd_calls(monkeypatch):
    calls = []
    exact = ncpoly._poly_gcd

    def counted(a, b):
        calls.append((a, b))
        return exact(a, b)
    monkeypatch.setattr(ncpoly, "_poly_gcd", counted)
    return calls


def test_certificate_matches_exact_euclid_on_random_pairs(gcd_calls):
    rng = random.Random(7)
    pairs = 0
    for i in range(300):
        num, den = random_poly(rng, -3, 4), random_poly(rng, 0, 4)
        if i % 3 == 0:
            common = random_poly(rng, 0, 2)
            num, den = poly_mul(num, common), poly_mul(den, common)
        if not den or set(den) == {0} and den[0] == 1:
            continue
        pairs += 1
        r = QRat(num, den)
        ref_num, ref_den = exact_canonical(num, den)
        assert (r.num, r.den) == (ref_num, ref_den)
        assert list(r.num) == sorted(r.num) == list(ref_num)
        assert list(r.den) == sorted(r.den) == list(ref_den)
    # both the certified path and the exact fallback were taken
    assert 0 < len(gcd_calls) < pairs


def test_certified_pair_skips_euclid(gcd_calls):
    q2m1 = {0: Fraction(-1), 2: Fraction(1)}
    r = QRat({1: Fraction(1)}, poly_mul(q2m1, q2m1))
    assert not gcd_calls
    assert r.den == {0: 1, 2: -2, 4: 1}


def test_common_factor_reduces(gcd_calls):
    q2m1 = {0: Fraction(-1), 2: Fraction(1)}
    r = QRat(poly_mul(q2m1, {0: Fraction(2), 1: Fraction(1)}), poly_mul(q2m1, q2m1))
    assert gcd_calls
    assert (r.num, r.den) == ({0: 2, 1: 1}, {0: -1, 2: 1})


def test_unlucky_prime_falls_back(gcd_calls):
    # q + 1 and q + 1 + p share a root mod p, yet are coprime over Q
    r = QRat({0: Fraction(1), 1: Fraction(1)}, {0: Fraction(1 + PRIME), 1: Fraction(1)})
    assert gcd_calls
    assert (r.num, r.den) == ({0: 1, 1: 1}, {0: 1 + PRIME, 1: 1})
    assert list(r.den) == [0, 1]


def test_denominator_divisible_by_p_falls_back(gcd_calls):
    num = {0: Fraction(1, PRIME), 1: Fraction(1)}
    den = {0: Fraction(-1), 1: Fraction(1)}
    r = QRat(num, den)
    assert gcd_calls
    assert (r.num, r.den) == exact_canonical(num, den)


def test_leading_coefficient_divisible_by_p_falls_back(gcd_calls):
    # the common factor p q + 1 maps to the constant 1, so the images of
    # (p q + 1) / ((p q + 1)(q + 2)) have a constant gcd mod p
    num = {0: Fraction(1), 1: Fraction(PRIME)}
    den = poly_mul(num, {0: Fraction(2), 1: Fraction(1)})
    r = QRat(num, den)
    assert gcd_calls
    assert (r.num, r.den) == ({0: 1}, {0: 2, 1: 1})
