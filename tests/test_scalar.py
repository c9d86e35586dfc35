import cmath
import importlib
import importlib.util
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

import numpy as np

from qsl2r.scalar import (CycloNum, GaussCyclo, RootContext, _as_int,
                          cyclotomic_polynomial, gauss_i, is_close, q_number,
                          q_power, scalar_from_json, scalar_to_json,
                          to_complex)
from qsl2r.ncpoly import NcPoly, QRat, parse_expr


def test_cyclotomic_known_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_polynomial(15) == (1, -1, 0, 1, -1, 1, 0, -1, 1)


@pytest.mark.parametrize("n", [3, 5, 7, 9, 15, 21, 45])
def test_cyclotomic_divides_xn_minus_1(n):
    phi = cyclotomic_polynomial(n)
    # multiply Phi_d over all d | n back together; must give x^n - 1
    prod = [1]
    for d in range(1, n + 1):
        if n % d == 0:
            phid = cyclotomic_polynomial(d)
            out = [0] * (len(prod) + len(phid) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(phid):
                    out[i + j] += a * b
            prod = out
    assert prod == [-1] + [0] * (n - 1) + [1]
    assert phi[-1] == 1  # monic


@pytest.mark.parametrize("P,Q,msg", [
    (1, 4, "odd"), (1, 2, "at least 3"), (0, 5, "1..Q-1"),
    (5, 5, "1..Q-1"), (3, 9, "coprime"),
])
def test_context_validation(P, Q, msg):
    with pytest.raises(ValueError, match=msg):
        RootContext(P, Q)


def test_q_power_examples():
    c3 = RootContext(1, 3)
    assert q_power(c3, 0) == c3.one()
    c5 = RootContext(1, 5)
    assert q_power(c5, 5) == c5.one()
    got = to_complex(q_power(RootContext(2, 5), 1))
    assert is_close(got, cmath.exp(4j * math.pi / 5))
    assert abs(got - complex(-0.809017, 0.587785)) < 1e-5


def test_q_power_backend_selection():
    ctx = RootContext(2, 7)
    assert isinstance(q_power(ctx, 3), CycloNum)
    assert isinstance(q_power(ctx, -11), CycloNum)
    assert isinstance(q_power(ctx, 2.0), CycloNum)       # integral value
    assert isinstance(q_power(ctx, 0.5), complex)
    assert isinstance(q_power(ctx, 1 + 1j), complex)


@pytest.mark.parametrize("P,Q", [(1, 3), (2, 5), (3, 7), (2, 9)])
def test_q_power_group_law_exact(P, Q):
    ctx = RootContext(P, Q)
    rng = random.Random(11)
    for _ in range(50):
        x = rng.randint(-30, 30)
        y = rng.randint(-30, 30)
        assert q_power(ctx, x) * q_power(ctx, y) == q_power(ctx, x + y)
        assert q_power(ctx, x) * q_power(ctx, -x) == ctx.one()


_INF, _NAN = math.inf, math.nan


@pytest.mark.parametrize("x,want", [
    (True, None), (False, None), (7, 7), (-3, -3), (np.int64(-4), -4), (np.float64(5.0), 5),
    (np.float64(5.5), None), (Fraction(12, 4), 3), (Fraction(1, 2), None), (6.0, 6),
    (6.5, None), (2 + 0j, 2), (2 + 1j, None), (2.5 + 0j, None), (-0.0, 0),
    (_NAN, None), (_INF, None), (-_INF, None), (complex(_INF, 0), None),
    (complex(0, _INF), None), (complex(_NAN, 0), None), (complex(1, _NAN), None),
    (complex(-_INF, _NAN), None)])
def test_as_int_takes_integral_values_and_never_raises(x, want):
    got = _as_int(x)
    assert got == want and type(got) is type(want), (x, got)


@pytest.mark.parametrize("x", [_NAN, _INF, -_INF, complex(1, _INF), complex(_NAN, 0),
                               np.float64(_NAN)])
def test_q_power_and_q_number_refuse_a_value_that_is_not_finite(x):
    ctx = RootContext(2, 7)
    for f in (q_power, q_number):
        with pytest.raises(ValueError, match="finite") as err:
            f(ctx, x)
        assert repr(x) in str(err.value)


def test_q_number_examples():
    ctx = RootContext(1, 3)
    assert q_number(ctx, 0) == ctx.zero()
    assert q_number(ctx, 1) == ctx.one()
    assert q_number(ctx, 2) == ctx.from_int(-1)
    assert q_number(ctx, 3) == ctx.zero()


@pytest.mark.parametrize("P,Q", [(1, 3), (2, 5), (3, 7), (4, 9)])
def test_q_number_symmetries(P, Q):
    ctx = RootContext(P, Q)
    for x in range(-12, 13):
        assert q_number(ctx, -x) == -q_number(ctx, x)
        assert q_number(ctx, x + Q) == q_number(ctx, x)
        # [x]_q is a real algebraic number: fixed by conjugation
        v = q_number(ctx, x)
        assert v.conjugate() == v
        assert abs(to_complex(v).imag) < 1e-12


def test_q_number_three_term_identity_complex():
    # [x+2][x-2] = [x]^2 - [2]^2, the one-dimensional shadow of the
    # cubic ladder identity, on a random complex sample
    rng = random.Random(7)
    for P, Q in [(1, 3), (2, 5), (3, 7)]:
        ctx = RootContext(P, Q)
        two = to_complex(q_number(ctx, 2))
        for _ in range(200):
            x = complex(rng.uniform(-5, 5), rng.uniform(-1, 1))
            lhs = q_number(ctx, x + 2) * q_number(ctx, x - 2)
            rhs = q_number(ctx, x) ** 2 - two ** 2
            assert is_close(lhs, rhs, rtol=1e-9)


def test_cyclo_ops_examples():
    ctx = RootContext(1, 3)
    z = ctx.zeta(1)
    assert z * ctx.zeta(2) == ctx.one()          # zeta^3 reduced via Phi_3
    a = ctx.from_fraction(Fraction(7, 3)) + z
    assert a + ctx.zero() == a
    assert z / z == ctx.one()
    with pytest.raises(ZeroDivisionError):
        a / ctx.zero()


def test_no_implicit_mixing_with_floats():
    ctx = RootContext(1, 3)
    with pytest.raises(TypeError):
        ctx.one() + 0.5
    with pytest.raises(TypeError):
        ctx.zeta(1) * (1 + 2j)


def test_to_complex_examples():
    ctx = RootContext(1, 3)
    assert to_complex(ctx.one()) == 1.0 + 0.0j
    assert is_close(to_complex(ctx.zeta(1)), complex(-0.5, math.sqrt(3) / 2))
    assert is_close(to_complex(ctx.zeta(1) + ctx.zeta(2)), -1.0)


@pytest.mark.parametrize("P,Q", [(1, 3), (2, 5), (2, 9), (4, 15)])
def test_field_axioms_and_embedding_agreement(P, Q):
    ctx = RootContext(P, Q)
    rng = random.Random(101)

    def rand_elem():
        return CycloNum(ctx, [rng.randint(-9, 9) for _ in range(ctx.degree)],
                        rng.randint(1, 7))

    for _ in range(40):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a - a).is_zero()
        if not a.is_zero():
            assert a * a.inverse() == ctx.one()
        # the embedding is a ring homomorphism within float tolerance
        for op in ("add", "mul", "sub"):
            exact = {"add": a + b, "mul": a * b, "sub": a - b}[op]
            approx = {"add": to_complex(a) + to_complex(b),
                      "mul": to_complex(a) * to_complex(b),
                      "sub": to_complex(a) - to_complex(b)}[op]
            assert is_close(to_complex(exact), approx, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("Q", [7, 15, 45])
def test_galois_maps_match_the_embedding_at_zeta_k(Q):
    ctx = RootContext(1, Q)
    rng = random.Random(Q)
    elems = [CycloNum(ctx, [rng.randint(-5, 5) for _ in range(ctx.degree)], rng.randint(1, 6))
             for _ in range(4)] + [ctx.zeta(2) + ctx.from_int(3), ctx.from_fraction(Fraction(-2, 3))]
    for a in elems:
        assert a.conjugate() == a._galois(-1) == a._galois(Q - 1)
        for k in range(1, Q):
            if math.gcd(k, Q) != 1:
                continue
            g = a._galois(k)
            h = CycloNum(ctx, g.coeffs, g.den)   # gcd-reduced again
            assert (g.coeffs, g.den) == (h.coeffs, h.den)
            want = sum(c * cmath.exp(2j * math.pi * k * e / Q)
                       for e, c in enumerate(a.coeffs)) / a.den
            assert is_close(complex(g), want, rtol=1e-10, atol=1e-10), (a, k)
        assert a._galois(1) == a


def test_conjugation_matches_complex_conjugate():
    ctx = RootContext(2, 7)
    rng = random.Random(5)
    for _ in range(25):
        a = CycloNum(ctx, [rng.randint(-5, 5) for _ in range(ctx.degree)], rng.randint(1, 4))
        assert is_close(to_complex(a.conjugate()), to_complex(a).conjugate())


def test_gauss_cyclo_arithmetic():
    ctx = RootContext(1, 5)
    i = gauss_i(ctx)
    assert i * i == GaussCyclo.from_scalar(-1, ctx)
    rng = random.Random(23)
    for _ in range(25):
        a = GaussCyclo(CycloNum(ctx, [rng.randint(-4, 4)] * ctx.degree, 1),
                       CycloNum(ctx, [rng.randint(-4, 4) for _ in range(ctx.degree)], 2))
        b = GaussCyclo(ctx.zeta(rng.randrange(5)), ctx.from_int(rng.randint(-3, 3)))
        assert is_close(to_complex(a * b), to_complex(a) * to_complex(b), rtol=1e-10)
        assert is_close(to_complex(a + b), to_complex(a) + to_complex(b), rtol=1e-10)
        if not a.is_zero():
            assert a * a.inverse() == GaussCyclo.from_scalar(1, ctx)
        assert is_close(to_complex(a.conjugate()), to_complex(a).conjugate())
    # cyclotomic scalars promote on contact
    assert ctx.zeta(1) * i == GaussCyclo(ctx.zero(), ctx.zeta(1))


def test_scalar_json_round_trip():
    ctx = RootContext(2, 5)
    a = CycloNum(ctx, [1, -2, 0, 5], 6)
    assert scalar_from_json(scalar_to_json(a), ctx) == a
    g = GaussCyclo(a, ctx.zeta(3))
    assert scalar_from_json(scalar_to_json(g), ctx) == g
    z = 1.25 - 3.5j
    assert scalar_from_json(scalar_to_json(z), ctx) == z
    # wire format: decimal string pairs for exact, [re, im] doubles for complex
    enc = scalar_to_json(a)
    assert all(isinstance(p, list) and len(p) == 2 and all(isinstance(s, str) for s in p)
               for p in enc)
    assert scalar_to_json(z) == [1.25, -3.5]


def _decoder_cases():
    ctx = RootContext(2, 5)
    a = scalar_to_json(CycloNum(ctx, [1, -2, 0, 5], 6))
    return ctx, [
        ([["1", "0"]] + a[1:], None),         # a zero denominator
        ({"re": a}, None),                    # a Gaussian entry without "im"
        ({"re": a, "im": [1.0, 0.0]}, None),  # an "im" that is not cyclotomic
        ([1.0, 2.0], "exact"),                # a floating entry in an exact payload
        (a, "approx"),                        # an exact entry in a floating payload
        ({"re": a, "im": a}, "approx"),
        ([[1, 2]] + a[1:], None),             # numbers where strings belong
        (a[:3], None),                        # too few coefficients
        (["1", "2"], None), ([], None), (None, "exact"), ([1.0, "2"], "approx"),
    ]


@pytest.mark.parametrize("case", range(len(_decoder_cases()[1])))
def test_scalar_from_json_refuses_a_malformed_entry_with_value_error(case):
    ctx, cases = _decoder_cases()
    obj, backend = cases[case]
    with pytest.raises(ValueError):
        scalar_from_json(obj, ctx, backend)


def test_scalar_from_json_keeps_each_kind_to_its_backend():
    ctx = RootContext(2, 5)
    a = CycloNum(ctx, [1, -2, 0, 5], 6)
    for value, backend in ((a, "exact"), (GaussCyclo(a, ctx.zeta(3)), "exact"),
                           (1.25 - 3.5j, "approx")):
        assert scalar_from_json(scalar_to_json(value), ctx, backend) == value
    # a reducible encoding decodes to the reduced number
    assert scalar_from_json([["2", "4"], ["0", "1"], ["3", "-6"], ["0", "7"]], ctx) \
        == CycloNum(ctx, [1, 0, -1, 0], 2)


# -- the shared derived operators ---------------------------------------------

def _operands(kind):
    """(a, b) of one type, neither zero nor a unit, so that no product or
    inverse takes a table lookup."""
    ctx = RootContext(2, 7)
    a = CycloNum(ctx, [3, -1, 0, 2, 0, 5], 2)
    b = CycloNum(ctx, [1, 1, 0, 0, -4, 0], 3)
    if kind == "CycloNum":
        return a, b
    if kind == "GaussCyclo":
        return GaussCyclo(a, b), GaussCyclo(b, ctx.one())
    if kind == "QRat":
        return QRat({1: 2, -1: 1}, {0: 1, 1: 3}), QRat({0: 1, 2: -1})
    return parse_expr("X*Y + q*Zi - 2"), parse_expr("J*Z/(q + 1) + 3*y")


@pytest.mark.parametrize("kind", ["CycloNum", "GaussCyclo", "QRat", "NcPoly"])
def test_derived_operators_follow_from_the_ring_operations(kind):
    a, b = _operands(kind)
    assert a - b == a + (-b) and b - a == b + (-a)
    assert 1 - a == (-a) + 1 and Fraction(1, 3) - b == (-b) + Fraction(1, 3)
    if kind != "NcPoly":    # only a scalar NcPoly has an inverse
        assert a / b == a * b.inverse() and 2 / a == 2 * a.inverse()
        assert (a / b) * b == a
    for v in (a, b, a - a, 0 * b):
        assert bool(v) == (not v.is_zero())
    assert not a - a and a
    for op in (lambda: a - "x", lambda: "x" - a, lambda: a / "x", lambda: "x" / a):
        with pytest.raises(TypeError):
            op()
    if kind == "NcPoly":
        assert a ** 5 == a * a * a * a * a and a ** 0 == NcPoly.one()
        with pytest.raises(ValueError):
            a ** -1


def test_every_counted_operator_is_an_entry_of_its_own_class():
    """perfbench/tracing.py wraps cls.__dict__[name] for each operator it
    counts, so an operator inherited from a base would break the traced
    bench run; this finds it in Tier-1 already."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    counted = 0
    for modname, clsname, attrs, _ in tracing.COUNTERS.values():
        if clsname is not None:
            cls = getattr(importlib.import_module(modname), clsname)
            for attr in attrs:
                assert attr in cls.__dict__, f"{clsname}.{attr}"
                counted += 1
    assert counted, "COUNTERS names no class operator"
