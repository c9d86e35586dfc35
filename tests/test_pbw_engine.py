"""The closed-form PBW engine and the canonical form of QRat, each against a
reference that is written here: the per-path worklist that rewrites every
path to a word separately with the five rules, and the exact Euclidean
reduction.  QRat reduces by two rules: a numerator nonzero at q = +-1 over
exactly (q^2 - 1)^k is coprime already, and every other pair runs the exact
gcd."""

import itertools
import random
from fractions import Fraction

import pytest

from qsl2r import ncpoly
from qsl2r.ncpoly import (NcPoly, QRat, cancel_word, format_expr,
                          identity_sides, parse_expr, pbw_normal_form, qrat_str,
                          relation_sides, substitute_j)

PRIME = 2 ** 61 - 1   # the inputs below are traps for a coprimality test mod PRIME


def all_words(max_len):
    for n in range(max_len + 1):
        for t in itertools.product("XYZz", repeat=n):
            yield "".join(t)


# -- the engine against the per-path worklist ------------------------------------

_SWAPS = {"ZX": -2, "ZY": 2, "zX": 2, "zY": -2}
_KAPPA = QRat.q_pow(1) / (QRat.q_pow(1) - QRat.q_pow(-1))


def pbw_per_path(p):
    # the reference: each path to a word is rewritten alone by the five rules
    out = {}
    work = list(p.terms.items())
    while work:
        (w, e), c = work.pop()
        for i in range(len(w) - 1):
            pair = w[i:i + 2]
            k = _SWAPS.get(pair)
            if k is not None:
                work.append(((cancel_word(w[:i] + pair[1] + pair[0] + w[i + 2:]), e),
                             c * QRat.q_pow(k)))
                break
            if pair == "XY":
                work.append(((cancel_word(w[:i] + "YX" + w[i + 2:]), e), c * QRat.q_pow(2)))
                mid = c * _KAPPA
                work.append(((cancel_word(w[:i] + "ZZ" + w[i + 2:]), e), mid))
                work.append(((cancel_word(w[:i] + w[i + 2:]), e), -mid))
                break
        else:
            s = out.get((w, e))
            c = c if s is None else s + c
            if c.is_zero():
                out.pop((w, e), None)
            else:
                out[w, e] = c
    return NcPoly(out, _canonical=True)


def assert_same_normal_form(p):
    new, ref = pbw_normal_form(p), pbw_per_path(p)
    assert new == ref
    assert format_expr(new) == format_expr(ref)


def seeded_corpus(n, seed=20260601):
    rng = random.Random(seed)
    # (y-power, coefficient) pairs
    coeffs = [(0, QRat.one()), (0, QRat.q_pow(3)), (0, Fraction(-2, 3)),
              (0, QRat.q_pow(1) + QRat.one()), (1, QRat.q_pow(-1))]
    for _ in range(n):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            w = "".join(rng.choice("XYZz") for _ in range(rng.randint(0, 8)))
            terms[w] = rng.choice(coeffs)
        yield NcPoly({(w, e): c for w, (e, c) in terms.items()})


def test_merged_worklist_matches_per_path_on_corpus():
    for p in seeded_corpus(300):
        assert_same_normal_form(p)


def test_merged_worklist_matches_per_path_on_cancelling_input():
    # X Y and its expansion cancel only after the contributions are summed
    xy = NcPoly.word("XY")
    assert_same_normal_form(xy - pbw_normal_form(xy))
    assert_same_normal_form(NcPoly.word("ZXY") + NcPoly.word("XZY", QRat.q_pow(2)))
    # one word under three powers of y, reduced once and scaled three times
    assert_same_normal_form(parse_expr("(1 + y - q*y^-2)*X*Y*Z*X*Y*Y - y*Y*X"))


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
        for r in nf.terms.values():
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


# -- the canonical form against exact Euclid -----------------------------------------

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


def test_certificate_matches_exact_euclid_on_random_pairs():
    rng = random.Random(7)
    for i in range(300):
        num, den = random_poly(rng, -3, 4), random_poly(rng, 0, 4)
        if i % 3 == 0:
            common = random_poly(rng, 0, 2)
            num, den = poly_mul(num, common), poly_mul(den, common)
        if not den or set(den) == {0} and den[0] == 1:
            continue
        r = QRat(num, den)
        ref_num, ref_den = exact_canonical(num, den)
        assert (r.num, r.den) == (ref_num, ref_den)
        assert list(r.num) == sorted(r.num) == list(ref_num)
        assert list(r.den) == sorted(r.den) == list(ref_den)


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


# -- the +-1 shortcut for PBW output coefficients -----------------------------------

def _value_at(n, s):
    # n(s) for s = +-1
    return sum(v * (s if e % 2 else 1) for e, v in n.items())


def _shortcut_matches_generic(n, k):
    r, generic = ncpoly._pbw_coefficient(n, k), QRat(n, ncpoly._den_power(k))
    assert (r.num, r.den) == (generic.num, generic.den), (n, k)
    assert r.key() == generic.key()


def test_engine_numerators_never_vanish_at_plus_or_minus_one(monkeypatch):
    # at q = +-1 every path to one output term carries the same sign (the key
    # fixes how many kappa A_b, kappa B_b and J choices it took), so the
    # numerators of one word never vanish there and the shortcut always
    # holds; they are recorded per word, before the sum across input words
    terms = []
    word_terms = ncpoly._word_terms

    def recorded(w):
        out = word_terms(w)
        terms.extend((dict(n), k) for n, k in out.values())
        return out
    monkeypatch.setattr(ncpoly, "_word_terms", recorded)
    corpus = [NcPoly.word(w) for w in ("XY" * 5, "XXYY" * 2, "XXXYYY", "XYYX" * 2,
                                       "ZXYzXY", "XXYXYYZ")]
    corpus += [parse_expr("J^6"), parse_expr("X*J*Y*Zi*J*Z - q^3*J*J*X")]
    corpus += list(seeded_corpus(100))
    for p in corpus:
        pbw_normal_form(p)
    monkeypatch.undo()
    assert sum(1 for _, k in terms if k) > 200
    for n, k in terms:
        assert _value_at(n, 1) and _value_at(n, -1), (n, k)
        _shortcut_matches_generic(n, k)


# numerators that vanish at q = 1, at q = -1 or at both, with a cofactor that
# does not, so only the generic reduction gets them right
_Q_MINUS_1, _Q_PLUS_1, _COFACTOR = {0: -1, 1: 1}, {0: 1, 1: 1}, {-1: 2, 0: 1, 3: 1}


@pytest.mark.parametrize("factors", [[_Q_MINUS_1], [_Q_PLUS_1], [_Q_MINUS_1, _Q_PLUS_1],
                                     [_Q_MINUS_1] * 3 + [_Q_PLUS_1], [_Q_PLUS_1] * 2])
@pytest.mark.parametrize("k", range(4))
def test_pbw_coefficient_shortcut_on_numerators_vanishing_at_one_or_minus_one(factors, k):
    n = _COFACTOR
    for f in factors:
        n = poly_mul(n, f)
    assert _value_at(_COFACTOR, 1) and _value_at(_COFACTOR, -1)
    assert not _value_at(n, 1) or not _value_at(n, -1)
    _shortcut_matches_generic(n, k)


# Laurent denominators that shift to exactly (q^2 - 1)^k, k = 1, 2, 3
_LAURENT_POWERS = [({1: 1, -1: -1}, 1),                 # q - q^-1
                   ({0: 1, -2: -2, -4: 1}, 2),          # (1 - q^-2)^2
                   ({3: 1, 1: -3, -1: 3, -3: -1}, 3)]   # (q - q^-1)^3


@pytest.mark.parametrize("den,k", _LAURENT_POWERS)
@pytest.mark.parametrize("factors", [[], [_Q_MINUS_1], [_Q_PLUS_1], [_Q_MINUS_1, _Q_PLUS_1]])
def test_constructor_reduces_laurent_powers_by_the_plus_minus_one_rule(den, k, factors,
                                                                       gcd_calls):
    # 1/(q - q^-1), q^-3/(1 - q^-2)^2 and the like: the exact gcd runs exactly
    # when the numerator vanishes at q = 1 or q = -1
    for n in ({-3: 1}, _COFACTOR, {0: Fraction(1, 2), 1: Fraction(-3, 4)}):
        for f in factors:
            n = poly_mul(n, f)
        calls = len(gcd_calls)
        r = QRat(n, den)
        assert (r.num, r.den) == exact_canonical(n, den), (n, den)
        coprime = bool(_value_at(n, 1) and _value_at(n, -1))
        assert (len(gcd_calls) > calls) == (not coprime), (n, den)
        assert (r.den == ncpoly._den_power(k)) == coprime


# -- the running-sum kernel for X^b Y ------------------------------------------------

@pytest.mark.parametrize("b", range(1, 9))
def test_kappa_kernel_matches_the_full_product(b):
    # kappa A_b and -kappa B_b have numerators q^2 A_b and -q^2 B_b over q^2 - 1
    a_num = {2 - 2 * i: 1 for i in range(b)}
    b_num = {2 + 2 * i: -1 for i in range(b)}
    rng = random.Random(b)
    for trial in range(40):
        lo = rng.randint(-9, 5)
        exps = range(lo, lo + rng.randint(0, 12))
        if trial % 2:   # one parity class, as the engine's numerators are
            exps = [e for e in exps if (e - lo) % 2 == 0]
        t = {e: rng.choice((rng.randint(-5, 5), Fraction(rng.randint(-5, 5), rng.randint(1, 4))))
             for e in exps}
        t = {e: v for e, v in t.items() if v} or {lo: 1}
        ta = ncpoly._times_kappa_a(t, b)
        assert ta == ncpoly._conv(t, a_num), (t, b)
        assert {e + 2 * b - 2: -v for e, v in ta.items()} == ncpoly._conv(t, b_num), (t, b)


# -- (q^2 - 1)^k fast paths of QRat against the generic constructor -----------------

def _generic_sum(a, b):
    return QRat(ncpoly._plus(ncpoly._conv(a.num, b.den), ncpoly._conv(b.num, a.den)),
                ncpoly._conv(a.den, b.den))


def _generic_product(a, b):
    return QRat(ncpoly._conv(a.num, b.num), ncpoly._conv(a.den, b.den))


def _same(r, ref):
    assert (r.num, r.den) == (ref.num, ref.den)
    assert r.key() == ref.key()
    assert qrat_str(r) == qrat_str(ref)


def _power_rat(rng, lo, hi, k, shift=None):
    # a canonical n / (q^2 - 1)^k: n random (plus `shift`) until n(1) n(-1) != 0
    while True:
        n = random_poly(rng, lo, hi)
        if shift is not None:
            n = ncpoly._plus(shift, poly_mul(rng.choice((_Q_MINUS_1, _Q_PLUS_1)), n))
        if n and _value_at(n, 1) and _value_at(n, -1):
            return ncpoly._pbw_coefficient(n, k)


def _power_pairs(seed, n):
    # canonical n / (q^2 - 1)^i, unequal and equal powers, int and Fraction
    # numerators, and partners whose sum or product vanishes at q = 1 or -1
    rng = random.Random(seed)
    for t in range(n):
        i, j = rng.randint(0, 3), rng.randint(0, 3)
        a = _power_rat(rng, -3, 4, i)
        kind = t % 4
        if kind == 0:     # random partner
            b = _power_rat(rng, -2, 5, j)
        elif kind == 1:   # same power, the sum vanishes at q = 1 or q = -1
            b = _power_rat(rng, -2, 3, i, {e: -c for e, c in a.num.items()})
        elif kind == 2:   # no denominator, a numerator vanishing at +-1: the
            # product with a power of q^2 - 1 cancels
            b = QRat(poly_mul(rng.choice((_Q_MINUS_1, _Q_PLUS_1, poly_mul(_Q_MINUS_1, _Q_PLUS_1))),
                              random_poly(rng, -2, 2)))
        else:             # unequal powers
            b = _power_rat(rng, -2, 2, i + 1)
        yield (a, b) if rng.random() < 0.5 else (b, a)


def test_power_fast_paths_match_the_generic_constructor(gcd_calls):
    reduced = 0
    for a, b in _power_pairs(11, 400):
        assert ncpoly._den_exponent(a.den) is not None
        assert ncpoly._den_exponent(b.den) is not None
        _same(a + b, _generic_sum(a, b))
        _same(a - b, _generic_sum(a, -b))
        _same(a * b, _generic_product(a, b))
        reduced += ncpoly._den_exponent((a + b).den) is None
    # some sums lost a factor q -+ 1, which only the exact gcd removes
    assert reduced and gcd_calls


def test_power_fast_paths_skip_the_certificate(gcd_calls):
    # n(+-1) != 0 on both sides and on the result: no gcd work at all
    a = ncpoly._pbw_coefficient({0: 3, 1: Fraction(1, 2)}, 2)
    b = ncpoly._pbw_coefficient({-1: 1, 2: -4}, 1)
    for r in (a + b, a - b, a * b, b * b, a + QRat.q_pow(3), a * QRat.integer(7) + b):
        assert ncpoly._den_exponent(r.den) is not None
    assert not gcd_calls


def test_other_denominators_keep_the_generic_path(gcd_calls):
    a = ncpoly._pbw_coefficient({0: 3, 1: 1}, 2)
    c = QRat({0: 1}, {0: 2, 1: 1})                     # 1 / (q + 2)
    d = QRat({1: 1}, {0: 1, 1: 1})                     # q / (q + 1)
    for r, ref in ((a + c, _generic_sum(a, c)), (a * c, _generic_product(a, c)),
                   (c + d, _generic_sum(c, d)), (a * d, _generic_product(a, d))):
        _same(r, ref)
    assert ncpoly._den_exponent(c.den) is None and ncpoly._den_exponent(d.den) is None
    assert gcd_calls
    # (q + 1)^-1 times (q^2 - 1)^-2 is not a power of q^2 - 1
    assert ncpoly._den_exponent((a * d).den) is None


def test_cross_word_cancellation_is_reduced():
    # X Y = q^2 Y X + kappa (Z^2 - 1), kappa = q^2 / (q^2 - 1): the constant
    # term cancels its denominator only once summed with the scalar
    p = parse_expr("X*Y + q^2/(q^2-1) - q + 1")
    nf = pbw_normal_form(p)
    assert format_expr(nf) == "(-q + 1) + q^2*Y*X + (q^2)/(q^2 - 1)*Z*Z"
    assert_same_normal_form(p)


@pytest.mark.parametrize("expr", ["(X*Y*Zi + 1/(q+1)*Y*J)^3 + X*Y + q^2/(q^2-1) - q + 1"
                                  " - 3/4*Z*J*Z/(q-1)",
                                  "1/(q+2)*X*Y + (q - 1)/(q^2 - 1)*Y*X*X*Y - 1/(q + 2)*Y*X"])
def test_mixed_denominators_sum_per_word(expr):
    # powers of q^2 - 1, Fractions and other denominators in one input
    p = parse_expr(expr)
    new, ref = pbw_normal_form(p), pbw_normal_form(substitute_j(p))
    assert new == ref == pbw_per_path(substitute_j(p))
    assert format_expr(new) == format_expr(ref)
