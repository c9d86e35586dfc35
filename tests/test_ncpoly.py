import random
from fractions import Fraction

import pytest

from qsl2r.ncpoly import (HOPF_CHECKS, NcPoly, ParseError, QCoeff, QRat,
                          WordLengthError, antipode, bracket_shift,
                          cancel_word, coproduct, counit, defining_relations,
                          format_expr, hopf_symbolic_check,
                          identity_coefficients, identity_contracts,
                          j_expansion, lemma_check, lemma_v, parse_expr,
                          pbw_normal_form, substitute_j, tensor, TensorPoly)

P = parse_expr  # shorthand used throughout


# -- coefficients ------------------------------------------------------------

def test_qrat_reduction_and_normalization():
    num = QRat({2: Fraction(1)}) - QRat.one()          # q^2 - 1
    den = QRat({1: Fraction(1)}) - QRat({0: Fraction(1)})  # q - 1
    r = num / den
    assert r == QRat({1: Fraction(1)}) + QRat.one()    # q + 1
    # denominators normalize monic with nonzero constant term
    s = QRat.one() / (QRat.q_pow(1) - QRat.q_pow(-1))
    assert s.den == {0: Fraction(-1), 2: Fraction(1)}
    assert s.num == {1: Fraction(1)}
    assert (s * (QRat.q_pow(1) - QRat.q_pow(-1))) == QRat.one()


def test_qrat_field_laws_random():
    rng = random.Random(3)

    def rand():
        num = {rng.randint(-3, 3): Fraction(rng.randint(-4, 4)) for _ in range(3)}
        den = {rng.randint(0, 2): Fraction(rng.randint(1, 4)) for _ in range(2)}
        den[0] = Fraction(rng.randint(1, 4))
        return QRat(num, den)

    for _ in range(60):
        a, b, c = rand(), rand(), rand()
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        if not b.is_zero():
            assert (a / b) * b == a


def test_qcoeff_y_layers():
    a = bracket_shift(2)
    b = bracket_shift(-2)
    prod = a * b
    assert set(prod.terms) == {2, 0, -2}
    with pytest.raises(ZeroDivisionError):
        (a + QCoeff.one()).inverse()
    assert QCoeff.y_pow(3).inverse() == QCoeff.y_pow(-3)


# -- words and ring operations -------------------------------------------------

def test_cancel_word():
    assert cancel_word("Zz") == ""
    assert cancel_word("ZZzz") == ""
    assert cancel_word("XZzY") == "XY"
    assert cancel_word("zZzZ") == ""
    with pytest.raises(WordLengthError):
        cancel_word("X" * 65)


def test_nc_arith_examples():
    assert P("Z*Zi") == NcPoly.one()
    assert P("X*Y") == NcPoly.word("XY")
    assert P("J + 0") == NcPoly.word("J")
    assert (NcPoly.word("J") + NcPoly.zero()) == NcPoly.word("J")
    assert P("X")*P("Y") - P("X*Y") == NcPoly.zero()


def test_scale_and_scalar_embedding():
    p = NcPoly.word("XZ").scale(QRat.q_pow(-2))
    assert p == P("q^-2*X*Z")
    assert 2 * NcPoly.word("X") == P("2*X")


# -- the sparse sums: ring laws ------------------------------------------------

def _rand_qcoeff(rng):
    def qrat():
        num = {rng.randint(-2, 2): Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2)))}
        den = {0: Fraction(1), rng.randint(1, 2): Fraction(rng.choice((-1, 2)))}
        return QRat(num) if rng.random() < 0.5 else QRat(num, den)
    return QCoeff({rng.randint(-2, 2): qrat() for _ in range(rng.randint(1, 3))})


def _rand_word(rng):
    return "".join(rng.choice("XYZz") for _ in range(rng.randint(0, 3)))


def _rand_ncpoly(rng):
    return NcPoly({_rand_word(rng): _rand_qcoeff(rng) for _ in range(rng.randint(1, 3))})


def _rand_tensor(rng):
    return TensorPoly({(_rand_word(rng), _rand_word(rng)): _rand_qcoeff(rng)
                       for _ in range(rng.randint(1, 3))})


@pytest.mark.parametrize("make", [_rand_qcoeff, _rand_ncpoly, _rand_tensor])
def test_sparse_sum_ring_laws(make):
    rng = random.Random(make.__name__)
    one = type(make(rng)).one()
    for _ in range(8):
        a, b = make(rng), make(rng)
        c = make(rng) - a            # cancels every term of a in a + c
        assert not (a - a).terms and (a - a).is_zero() and not (a - a)
        assert (a + c).terms == (c + a).terms == (c - (-a)).terms
        assert ((a + c) - c).terms == a.terms and ((a + c) - a).terms == c.terms
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a * one == a == one * a
        assert 2 * a == a * 2 == a + a
        assert (a * 0).is_zero() and (0 * a).is_zero()
        for p in (a, b, c, a * b, a + c):
            # canonical: no zero coefficient is ever stored
            assert all(not v.is_zero() for v in p.terms.values())


# -- PBW ----------------------------------------------------------------------

def test_pbw_spec_examples():
    assert pbw_normal_form(P("Z*X")) == P("q^-2*X*Z")
    assert pbw_normal_form(P("X*Y")) == P("q^2*Y*X + (q^2)/(q^2 - 1)*Z*Z - (q^2)/(q^2 - 1)")
    # q^-1 X Y - q Y X - (Z^2 - 1)/(q - q^-1) -> 0
    rel = P("q^-1*X*Y - q*Y*X - (Z*Z - 1)/(q - q^-1)")
    assert pbw_normal_form(rel).is_zero()


def test_pbw_all_defining_relations_vanish():
    for name, rel in defining_relations().items():
        assert pbw_normal_form(rel).is_zero(), name


def test_pbw_idempotent_and_fixed_points():
    p = pbw_normal_form(P("X*Y*X*Y + Z*X*Zi*Y - 3*Zi*X"))
    assert pbw_normal_form(p) == p
    # ordered monomials are fixed points
    for w in ("", "YYXZZ", "YXz", "XXZ", "Y", "zz"):
        assert pbw_normal_form(NcPoly.word(w)) == NcPoly.word(w)


def test_pbw_local_confluence_random_products():
    rng = random.Random(42)
    letters = "XYZz"
    for _ in range(500):
        wa = "".join(rng.choice(letters) for _ in range(rng.randint(0, 6)))
        wb = "".join(rng.choice(letters) for _ in range(rng.randint(0, 6)))
        a, b = NcPoly.word(wa), NcPoly.word(wb)
        assert pbw_normal_form(a * b) == \
            pbw_normal_form(pbw_normal_form(a) * pbw_normal_form(b))


# -- substitution ---------------------------------------------------------------

def test_substitute_j_examples():
    assert substitute_j(NcPoly.word("J")) == P("q*X*Zi - q^-1*Y*Zi")
    assert substitute_j(NcPoly.one()) == NcPoly.one()
    assert substitute_j(NcPoly.word("JZ")) == P("q*X - q^-1*Y")
    assert j_expansion() == P("q*X*Zi - q^-1*Y*Zi")


# -- the cubic ladder identity ----------------------------------------------------

def test_identity_coefficients_support():
    c = identity_coefficients()
    assert sorted(c) == [-2, -1, 0, 1, 2]
    assert not c[2].is_zero() and not c[0].is_zero()


def test_identity_coefficients_returns_a_fresh_dict():
    first = identity_coefficients()
    want = dict(first)
    first[0] = NcPoly.zero()
    del first[2]
    again = identity_coefficients()
    assert again == want and again is not first


def test_identity_contracts_zero_residual():
    res = identity_contracts()
    for name, r in res.items():
        assert r.is_zero(), f"{name}: {format_expr(r)}"


def test_identity_c1_antisymmetry():
    c = identity_coefficients()
    assert (c[1] + c[-1]).is_zero()
    assert c[2] == c[-2]


def test_identity_mutation_detected():
    # flip (q^2 + q^-2) to (q^2 - q^-2) in the degree-one target
    c = identity_coefficients()
    d = QRat.q_pow(1) - QRat.q_pow(-1)
    delta2 = QCoeff.of(d * d)
    wrong_mid = QCoeff.of(QRat.q_pow(2) - QRat.q_pow(-2))
    bad_target = -NcPoly.word("JZZ") + NcPoly.word("ZJZ", wrong_mid) - NcPoly.word("ZZJ")
    assert not (c[2] * delta2 - bad_target).is_zero()


# -- anticommutation certificate ---------------------------------------------------

def test_lemma_check_passes_with_consequences():
    rep = lemma_check()
    assert rep.ok
    assert rep.residual.is_zero()
    assert rep.consequence_ok
    assert set(rep.pieces) == {"R1", "R2", "ZV+VZ"}


def test_lemma_v_vanishes_in_the_algebra():
    assert pbw_normal_form(substitute_j(lemma_v())).is_zero()


def test_lemma_mutation_detected():
    from qsl2r.ncpoly import _two_bracket_sq
    bad_v = lemma_v() - NcPoly.word("J", _two_bracket_sq()) * 2  # sign flip on [2]^2 J
    rep = lemma_check(bad_v, consequence_depth=0)
    assert not rep.ok
    assert not rep.residual.is_zero()


# -- Hopf checks ---------------------------------------------------------------

@pytest.mark.parametrize("which", HOPF_CHECKS)
def test_hopf_symbolic_checks(which):
    rep = hopf_symbolic_check(which)
    assert rep.ok, f"{which}: {rep.residual}"


def test_delta_j_closed_form():
    jx = substitute_j(NcPoly.word("J"))
    assert coproduct(jx) == tensor(NcPoly.word("z"), jx) + tensor(jx, NcPoly.one())


def test_counit_j_is_zero_not_one():
    val = counit(substitute_j(NcPoly.word("J")))
    assert val.is_zero()
    note = hopf_symbolic_check("counitJ").note
    assert "eps(J) = 0" in note


def test_counit_axiom_on_x():
    d = coproduct(NcPoly.word("X"))
    assert d == tensor(NcPoly.one(), NcPoly.word("X")) + tensor(NcPoly.word("X"), NcPoly.word("Z"))
    applied = NcPoly.zero()
    for (w1, w2), c in d.terms.items():
        if all(ch in "Zz" for ch in w1):
            applied = applied + NcPoly({w2: c})
    assert applied == NcPoly.word("X")


def test_antipode_is_an_antihomomorphism_on_relations():
    # S maps every defining relation into the ideal
    for name, rel in defining_relations().items():
        assert pbw_normal_form(antipode(rel)).is_zero(), name


def test_tensor_poly_multiplication_is_legwise():
    a = tensor(NcPoly.word("Z"), NcPoly.word("X"))
    b = tensor(NcPoly.word("z"), NcPoly.word("Y"))
    assert a * b == tensor(NcPoly.one(), NcPoly.word("XY"))
    assert (a - a).is_zero()


# -- grammar ---------------------------------------------------------------------

ROUND_TRIP_CORPUS = [
    "0",
    "1",
    "X",
    "-X",
    "q^2*Y*X + (q^2)/(q^2 - 1)*Z*Z - (q^2)/(q^2 - 1)",
    "q*X*Zi - q^-1*Y*Zi",
    "1/2*X + 3/4",
    "(q^4 - 2*q^2 + 1)/(q^2 + 1)*X*Y*Zi",
    "J*Z*J + Z*J*Z - 2*J",
    "y*Z - y^-1*Zi + (q - q^-1)*J",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
def test_parse_format_round_trip(text):
    p = parse_expr(text)
    assert parse_expr(format_expr(p)) == p


def test_format_parse_fixed_point():
    p = parse_expr("q^2*Y*X + Z*Z*J - 1/3")
    s = format_expr(p)
    assert format_expr(parse_expr(s)) == s


def test_parse_powers_of_z():
    assert parse_expr("Z^-2") == NcPoly.word("zz")
    assert parse_expr("Zi^-1") == NcPoly.word("Z")
    assert parse_expr("Z^3") == NcPoly.word("ZZZ")
    assert parse_expr("(q - q^-1)^2") == NcPoly.scalar(
        QCoeff.of((QRat.q_pow(1) - QRat.q_pow(-1)) * (QRat.q_pow(1) - QRat.q_pow(-1))))


@pytest.mark.parametrize("text", ["X + q*Y*Zi - 2", "Z*X + y*J", "q - q^-1", "Zi"])
def test_powers_match_repeated_products(text):
    base = parse_expr(text)
    acc = NcPoly.one()
    for k in range(8):
        assert base ** k == acc, k
        assert parse_expr(f"({text})^{k}") == acc, k
        acc = acc * base
    inv = parse_expr("1/(2*q)")
    assert parse_expr("(2*q)^-5") == inv * inv * inv * inv * inv


def test_large_scalar_powers_parse_at_once():
    assert parse_expr("q^1000000*X") == NcPoly.word("X", QCoeff.q_pow(1000000))
    assert parse_expr("(-q)^-999999") == NcPoly.scalar(-QCoeff.q_pow(-999999))


@pytest.mark.parametrize("bad", ["X +", "W", "q^", "(X", "X^-1", "1/X", "X ? Y"])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_expr(bad)


def test_random_round_trip_corpus():
    rng = random.Random(9)
    letters = "XYZzJ"
    for _ in range(100):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            w = "".join(rng.choice(letters) for _ in range(rng.randint(0, 4)))
            num = {rng.randint(-3, 3): Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                   for _ in range(2)}
            terms[w] = QCoeff.y_pow(rng.randint(-1, 1), QRat(num))
        p = NcPoly(terms)
        assert parse_expr(format_expr(p)) == p
