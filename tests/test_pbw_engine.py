"""The closed-form PBW engine and the mod-p coprimality certificate of QRat,
each against a reference that is written here: the per-path worklist that
rewrites every path to a word separately with the five rules, and the exact
Euclidean reduction."""

import itertools
import random
from fractions import Fraction

import pytest

from qsl2r import ncpoly
from qsl2r.ncpoly import (NcPoly, QCoeff, QRat, cancel_word, format_expr,
                          identity_sides, parse_expr, pbw_normal_form,
                          relation_sides, substitute_j)

PRIME = ncpoly._CERT_PRIME


def all_words(max_len):
    for n in range(max_len + 1):
        for t in itertools.product("XYZz", repeat=n):
            yield "".join(t)


# -- the engine against the per-path worklist ------------------------------------

_SWAPS = {"ZX": -2, "ZY": 2, "zX": 2, "zY": -2}
_QC_XY = QCoeff.of(QRat.q_pow(1) / (QRat.q_pow(1) - QRat.q_pow(-1)))


def pbw_per_path(p):
    # the reference: each path to a word is rewritten alone by the five rules
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


_WORDS = {}


def normal_forms_up_to_6():
    # every word of length <= 6 over X, Y, Z, Zi (5,461 of them), reduced once
    if not _WORDS:
        _WORDS.update((w, pbw_normal_form(NcPoly.word(w))) for w in all_words(6))
    return _WORDS


def test_every_word_up_to_length_6_matches_per_path():
    forms = normal_forms_up_to_6()
    assert len(forms) == 5461
    for w, nf in forms.items():
        ref = pbw_per_path(NcPoly.word(w))
        assert nf == ref, w
        assert format_expr(nf) == format_expr(ref), w


@pytest.mark.parametrize("b", range(11))
def test_x_power_times_y_matches_per_path(b):
    assert_same_normal_form(NcPoly.word("X" * b + "Y"))


def _divides(den, root):
    # den / (q - root), or None when root is no root of den
    coeffs = [den.get(e, Fraction(0)) for e in range(max(den) + 1)]
    out, carry = [], Fraction(0)
    for c in reversed(coeffs):
        carry = carry * root + c
        out.append(carry)
    return None if out.pop() else {e: c for e, c in enumerate(reversed(out)) if c}


def test_denominators_are_powers_of_q_minus_1_and_q_plus_1():
    # the coefficients lie in Z[q, q^-1, 1/(q^2 - 1)], so the normal form
    # specializes at every q with q^2 != 1
    seen = set()
    for w, nf in normal_forms_up_to_6().items():
        for coeff in nf.terms.values():
            for r in coeff.terms.values():
                den, i, j = r.den, 0, 0
                while (d := _divides(den, 1)) is not None:
                    den, i = d, i + 1
                while (d := _divides(den, -1)) is not None:
                    den, j = d, j + 1
                assert den == {0: 1}, (w, r)
                assert all(c.denominator == 1 for c in r.num.values()), (w, r)
                seen.add((i, j))
    assert (0, 0) in seen and (1, 1) in seen and (3, 3) in seen


@pytest.mark.parametrize("k", range(9))
def test_j_power_factor_by_factor_matches_the_expansion(k):
    p = parse_expr(f"J^{k}")
    assert pbw_normal_form(p) == pbw_normal_form(substitute_j(p))


@pytest.mark.parametrize("expr", ["J*Z*J*Zi*J", "X*J*Y*Zi*J*Z - q^3*J*J*X",
                                  "(J - y)*Z*(J - y^-1)*Zi*J*X*Y + 1/(q + 2)*J*Y"])
def test_mixed_words_factor_by_factor_match_the_expansion(expr):
    p = parse_expr(expr)
    new, ref = pbw_normal_form(p), pbw_normal_form(substitute_j(p))
    assert new == ref
    assert format_expr(new) == format_expr(ref)


def test_j_words_keep_the_word_cap():
    assert len(pbw_normal_form(parse_expr("J^5*Zi^54")).terms) > 0
    with pytest.raises(ncpoly.WordLengthError):
        pbw_normal_form(parse_expr("J^33"))
    with pytest.raises(ncpoly.WordLengthError):
        substitute_j(parse_expr("J^5*Zi^55"))
    with pytest.raises(ncpoly.WordLengthError):
        pbw_normal_form(parse_expr("J^5*Zi^55"))


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
