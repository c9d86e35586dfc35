import random
from fractions import Fraction

import pytest

from qsl2r import ncpoly
from qsl2r.ncpoly import (HOPF_CHECKS, NcPoly, ParseError, QRat,
                          WordLengthError, antipode, bracket_shift,
                          cancel_word, coproduct, counit, defining_relations,
                          format_expr, hopf_symbolic_check,
                          identity_coefficients, identity_contracts,
                          j_expansion, lemma_check, lemma_v, parse_expr,
                          pbw_normal_form, qrat_str, relation_differences,
                          substitute_j, tensor, TensorPoly)
from qsl2r.scalar import RootContext

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


def test_subs_q_does_not_depend_on_how_a_qrat_was_built():
    # equal QRats built in different orders hold their terms in different
    # dict orders; the float value must not depend on it
    q = RootContext(2, 7).q_complex
    rng = random.Random(1)
    for _ in range(100):
        a, b = (QRat({e: rng.randint(-9, 9) for e in range(-4, 5)},
                     ncpoly._den_power(rng.randint(0, 3))) for _ in range(2))
        for r, s in ((a + b, b + a), (a * b, b * a),
                     (a, QRat(dict(reversed(a.num.items())), dict(reversed(a.den.items()))))):
            assert r == s
            assert r.subs_q(q) == s.subs_q(q)


def test_scalars_in_y():
    # y is a key of the sum: a scalar in y lives on the empty word
    a = bracket_shift(2)
    b = bracket_shift(-2)
    prod = a * b
    assert set(prod.terms) == {("", 2), ("", 0), ("", -2)}
    assert prod == b * a
    with pytest.raises(ZeroDivisionError, match="only monomial"):
        ncpoly._scalar_inverse(a + 1)
    with pytest.raises(ZeroDivisionError, match="division by zero"):
        ncpoly._scalar_inverse(NcPoly.zero())
    with pytest.raises(ParseError, match="only defined by scalar"):
        ncpoly._scalar_inverse(P("y*X"))
    assert ncpoly._scalar_inverse(P("y^3")) == P("y^-3")
    assert ncpoly._scalar_inverse(P("2*q*y^3")) * P("2*q*y^3") == NcPoly.one()
    assert P("X/(q*y^2)") == P("q^-1*y^-2*X") == P("X*(q*y^2)^-1")
    for bad, message in (("X/(y + 1)", "only monomial"), ("X/(y - y)", "division by zero"),
                         ("(y + q)^-2", "only monomial")):
        with pytest.raises(ZeroDivisionError, match=message):
            parse_expr(bad)


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

def _rand_qrat(rng):
    num = {rng.randint(-2, 2): Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2)))}
    den = {0: Fraction(1), rng.randint(1, 2): Fraction(rng.choice((-1, 2)))}
    return QRat(num) if rng.random() < 0.5 else QRat(num, den)


def _rand_word(rng):
    return "".join(rng.choice("XYZz") for _ in range(rng.randint(0, 3)))


def _rand_sum(cls, rng, words):
    # 1-3 random words, each with a random coefficient in Q(q)[y, y^-1]
    terms = {}
    for _ in range(rng.randint(1, 3)):
        w = words()
        for _ in range(rng.randint(1, 3)):
            terms[w + (rng.randint(-2, 2),)] = _rand_qrat(rng)
    return cls(terms)


def _rand_y_scalar(rng):
    return _rand_sum(NcPoly, rng, lambda: ("",))


def _rand_ncpoly(rng):
    return _rand_sum(NcPoly, rng, lambda: (_rand_word(rng),))


def _rand_tensor(rng):
    return _rand_sum(TensorPoly, rng, lambda: (_rand_word(rng), _rand_word(rng)))


@pytest.mark.parametrize("make", [_rand_y_scalar, _rand_ncpoly, _rand_tensor])
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
    # each relation is a nonzero polynomial, Z Zi - 1 and Zi Z - 1 as raw
    # words, so its reduction to zero checks something
    for name, rel in defining_relations().items():
        assert not rel.is_zero(), name
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
    delta2 = d * d
    wrong_mid = QRat.q_pow(2) - QRat.q_pow(-2)
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
    for (w1, w2, e), c in d.terms.items():
        if all(ch in "Zz" for ch in w1):
            applied = applied + NcPoly({(w2, e): c})
    assert applied == NcPoly.word("X")


def test_hopf_maps_keep_y():
    # y is central and grouplike: S(y p) = y S(p), eps(y p) = y eps(p),
    # Delta(y p) = y Delta(p), on either leg
    y = P("y")
    ys = (tensor(y, NcPoly.one()), tensor(NcPoly.one(), y))
    assert ys[0] == ys[1]
    for p in (P("X"), P("Z"), P("X*Y*Zi - q*Y"), P("y^-2*Z*X + (y + q)*Y")):
        assert antipode(y * p) == y * antipode(p)
        assert counit(y * p) == y * counit(p)
        assert coproduct(y * p) == ys[0] * coproduct(p) == coproduct(p) * ys[1]
    assert counit(y * P("Z")) == y
    assert antipode(y * P("X")) == -y * P("X*Zi")
    assert coproduct(y * P("X")) == (tensor(NcPoly.one(), y * P("X"))
                                     + tensor(y * P("X"), P("Z")))
    assert counit(P("y*Z + q*y^-1*Zi*Zi + 2*X")) == P("y + q*y^-1")


def test_hopf_maps_refuse_j_and_extend_their_tables():
    # one extension rule: multiplicative for Delta and eps, reversed for S
    for f, name in ((coproduct, "coproduct"), (antipode, "antipode"), (counit, "counit")):
        with pytest.raises(ValueError, match=f"^substitute_j before taking the {name}$"):
            f(P("X + Z*J"))
    w = P("X*Zi*Y*Z")
    assert coproduct(w) == coproduct(P("X")) * coproduct(P("Zi")) * coproduct(P("Y")) \
        * coproduct(P("Z"))
    assert antipode(w) == antipode(P("Z")) * antipode(P("Y")) * antipode(P("Zi")) \
        * antipode(P("X"))
    assert counit(P("2*Z*Zi*Z - q*Y*Z")) == P("2")


def test_defining_relations_are_the_defining_differences_inverse_first():
    rels = defining_relations()
    assert list(rels) == ["Z Zi = 1", "Zi Z = 1", "Z X = q^-2 X Z", "Z Y = q^2 Y Z",
                          "q^-1 X Y - q Y X = (Z^2 - 1)/(q - q^-1)"]
    assert rels == relation_differences("defining")
    rels.clear()    # a fresh dict: the cached set is untouched
    assert len(defining_relations()) == 5


def test_tensor_poly_repr_groups_by_word_pair_as_format_expr():
    # one chunk per pair of words, with its coefficients and powers of y
    assert repr(tensor(P("X + 2*y*X"), P("Z"))) == "TensorPoly((2*y + 1)*(X)(x)(Z))"
    assert (repr(tensor(P("1 - q/y*J"), P("Z + Y")))
            == "TensorPoly((1)(x)(Y) + (1)(x)(Z) + -q*y^-1*(J)(x)(Y) + -q*y^-1*(J)(x)(Z))")
    assert repr(tensor(P("X"), P("0"))) == "TensorPoly(0)"


def test_antipode_is_an_antihomomorphism_on_relations():
    # S maps every defining relation into the ideal
    for name, rel in defining_relations().items():
        assert pbw_normal_form(antipode(rel)).is_zero(), name


def test_tensor_poly_multiplication_is_legwise():
    a = tensor(NcPoly.word("Z"), NcPoly.word("X"))
    b = tensor(NcPoly.word("z"), NcPoly.word("Y"))
    assert a * b == tensor(NcPoly.one(), NcPoly.word("XY"))
    assert (a - a).is_zero()
    # two pairs of terms land on X (x) Z with y^0
    a, b = P("X + y*X"), P("Z + y^-1*Z")
    assert tensor(a, b) == tensor(a, NcPoly.one()) * tensor(NcPoly.one(), b)


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
    "(y^2 - q*y + 1/2*y^-1)*X*Y + (y + q) - y^-3*Z",
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
        (QRat.q_pow(1) - QRat.q_pow(-1)) * (QRat.q_pow(1) - QRat.q_pow(-1)))


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
    assert parse_expr("q^1000000*X") == NcPoly.word("X", QRat.q_pow(1000000))
    assert parse_expr("(-q)^-999999") == NcPoly.scalar(-QRat.q_pow(-999999))


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
            terms[w] = rng.randint(-1, 1), QRat(num)
        p = NcPoly({(w, e): c for w, (e, c) in terms.items()})
        assert parse_expr(format_expr(p)) == p


# -- exact coefficients: int or Fraction, never float ----------------------------

def _coefficients(x):
    # every numerator and denominator coefficient inside x
    if isinstance(x, QRat):
        yield from x.num.values()
        yield from x.den.values()
    elif isinstance(x, (NcPoly, TensorPoly)):
        for c in x.terms.values():
            yield from _coefficients(c)
    elif isinstance(x, dict):
        for v in x.values():
            yield from _coefficients(v)


def _coefficient_types(*values):
    return {type(c) for x in values for c in _coefficients(x)}


def test_symbolic_results_have_exact_coefficients():
    report = lemma_check()
    values = [identity_contracts(), identity_coefficients(), report.residual, report.pieces,
              relation_differences("defining"), relation_differences("zj"),
              pbw_normal_form(parse_expr("J^8"))]
    values += [hopf_symbolic_check(which).residual for which in HOPF_CHECKS]
    assert _coefficient_types(*values) <= {int, Fraction}
    assert int in _coefficient_types(*values)


def test_rational_expression_and_its_normal_form_have_exact_coefficients():
    p = parse_expr("1/2*X*Y*J - 3/4*Z*J*Z/(q-1)")
    nf = pbw_normal_form(p)
    assert _coefficient_types(p) == _coefficient_types(nf) == {int, Fraction}
    assert parse_expr(format_expr(nf)) == nf


def test_gcd_and_division_on_int_lists_are_exact():
    # a float equals the Fraction it rounds to, so the types are checked too
    results = {
        "(q^2 - 1) / (2 q + 1)": (ncpoly._poly_divmod([-1, 0, 1], [1, 2]),
                                  ([Fraction(-1, 4), Fraction(1, 2)], [Fraction(-3, 4)])),
        "(6 q^3 + 3 q) / (3 q)": (ncpoly._poly_divmod([0, 3, 0, 6], [0, 3]),
                                  ([1, 0, 2], [0])),
        "gcd(2 q^2 - 2, 3 q - 3)": (ncpoly._poly_gcd([-2, 0, 2], [-3, 3]), [-1, 1]),
        "gcd(4, 6)": (ncpoly._poly_gcd([4], [6]), [1]),
    }
    for name, (got, want) in results.items():
        assert got == want, name
        flat = got[0] + got[1] if isinstance(got, tuple) else got
        assert all(type(c) in (int, Fraction) for c in flat), (name, flat)


@pytest.mark.parametrize("num,den", [
    ({1: 2, -1: -3}, {0: -1, 2: 1}),           # canonical as given
    ({0: -1, 2: 1}, {0: 1, 1: 1}),             # reduces to q - 1
    ({0: 2, 1: 4}, {0: 6, 1: 3}),              # leading coefficient 3, not 1
    ({3: 5}, None),
])
def test_int_built_qrat_equals_the_fraction_built_one(num, den):
    a = QRat(num, den)
    b = QRat({e: Fraction(c) for e, c in num.items()},
             None if den is None else {e: Fraction(c) for e, c in den.items()})
    assert a == b and (a.num, a.den) == (b.num, b.den)
    assert a.key() == b.key()
    assert qrat_str(a) == qrat_str(b)
    assert _coefficient_types(a, b) <= {int, Fraction}
