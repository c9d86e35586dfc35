"""The sparse exact kernels against their naive definitions: matrix
products, products, inverses and powers of units, powers of other
scalars, q-numbers as sums of powers, direct subtraction, exact
comparisons that still report the residual of a mismatch, and the
embedding into complex arrays, bit for bit."""

import math
import random
from fractions import Fraction

import pytest

import numpy as np

from qsl2r import reps, scalar
from qsl2r.reps import (Representation, _close, build_family1, build_family2,
                        ex_entries, ex_kron, ex_lincomb, ex_mul, ex_residual, ex_scale,
                        ex_sub, ex_to_complex, ex_zeros, j_matrix, tensor_rep)
from qsl2r.scalar import CycloNum, GaussCyclo, RootContext, q_number, q_power, to_complex
from qsl2r.spectral import _identity_matrices, verify_identity


def _random_entry(ctx, rng, density):
    if rng.random() > density:
        return ctx.zero()
    coeffs = [rng.randint(-3, 3) for _ in range(ctx.degree)]
    if not any(coeffs):
        coeffs[0] = 1
    return CycloNum(ctx, coeffs, rng.choice((1, 1, 2, 3)))


def _random_matrix(ctx, rng, n, m, density=0.4, zero_rows=(), zero_cols=()):
    return [[ctx.zero() if i in zero_rows or j in zero_cols
             else _random_entry(ctx, rng, density) for j in range(m)]
            for i in range(n)]


def _naive_mul(A, B):
    zero = A[0][0].ctx.zero()
    out = []
    for i in range(len(A)):
        row = []
        for j in range(len(B[0])):
            acc = zero
            for t in range(len(B)):
                acc = acc + A[i][t] * B[t][j]
            row.append(acc)
        out.append(row)
    return out


@pytest.mark.parametrize("n,k,m", [(1, 1, 1), (4, 4, 4), (3, 5, 2), (2, 6, 5), (6, 1, 3)])
def test_ex_mul_matches_the_triple_loop(n, k, m):
    ctx = RootContext(2, 7)
    rng = random.Random(1000 * n + 10 * k + m)
    for _ in range(5):
        A = _random_matrix(ctx, rng, n, k, zero_rows={0}, zero_cols={k - 1})
        B = _random_matrix(ctx, rng, k, m, zero_rows={k // 2}, zero_cols={m // 2})
        assert ex_mul(A, B) == _naive_mul(A, B)


def test_ex_mul_with_cancellation_and_gauss_entries():
    ctx = RootContext(1, 5)
    z, one, i = ctx.zero(), ctx.one(), GaussCyclo(ctx.zero(), ctx.one())
    A = [[one, one], [i, z]]
    B = [[one, z], [-one, i]]
    got = ex_mul(A, B)
    assert got == _naive_mul(A, B)
    assert got[0][0].is_zero() and got[1][1].is_zero()


@pytest.mark.parametrize("Q", [3, 5, 7, 9, 15, 21, 25, 31])
def test_unit_inverses_by_lookup(Q):
    ctx = RootContext(1, Q)
    # -1 is not a Q-th root of unity, so the 2Q units are distinct vectors
    assert len(ctx._units) == 2 * Q
    for e in range(Q):
        for u in (ctx.zeta(e), -ctx.zeta(e)):
            inv = u.inverse()
            assert u * inv == ctx.one()
            assert inv == (ctx.zeta(-e) if u == ctx.zeta(e) else -ctx.zeta(-e))


def _powers_match_repeated_products(u, one, n_max):
    inv = u.inverse()
    up = down = one
    for n in range(n_max + 1):
        assert u ** n == up and u ** -n == down, (u, n)
        up, down = up * u, down * inv


@pytest.mark.parametrize("Q", [3, 9, 15, 31])
def test_unit_powers_by_lookup(Q):
    ctx = RootContext(2 if Q != 3 else 1, Q)
    for e in range(Q):
        for u in (ctx.zeta(e), -ctx.zeta(e)):
            _powers_match_repeated_products(u, ctx.one(), 2 * Q)
    # a non-unit, an integral one and one over a denominator, by squaring
    for u in (ctx.from_int(2) + ctx.zeta(1), CycloNum(ctx, ctx.zeta(2).coeffs, 3)):
        assert u.den != 1 or u.coeffs not in ctx._units
        _powers_match_repeated_products(u, ctx.one(), 2 * Q)


@pytest.mark.parametrize("Q", [3, 7, 15])
def test_gauss_powers_match_repeated_products(Q):
    ctx = RootContext(1, Q)
    one = GaussCyclo.from_scalar(1, ctx)
    for u in (GaussCyclo(ctx.zeta(2), ctx.zero()), GaussCyclo(-ctx.zeta(1), ctx.zeta(3)),
              GaussCyclo(ctx.zero(), ctx.from_int(2)), GaussCyclo(ctx.from_int(2), ctx.zero())):
        _powers_match_repeated_products(u, one, Q + 2)


@pytest.mark.parametrize("Q", [3, 9, 15, 21, 25, 31, 45, 63])
def test_non_unit_inverses_through_the_norm(Q):
    ctx = RootContext(2 if Q != 3 else 1, Q)
    rng = random.Random(Q)
    cases = [ctx.from_int(2), ctx.zeta(1) + ctx.one(), ctx.from_fraction(Fraction(3, 7))]
    cases += [_random_entry(ctx, rng, 1.0) for _ in range(4)]
    for a in cases:
        assert a * a.inverse() == ctx.one(), a


def test_sub_equals_adding_the_negation():
    ctx = RootContext(2, 9)
    rng = random.Random(9)
    for _ in range(20):
        a, b = _random_entry(ctx, rng, 1.0), _random_entry(ctx, rng, 1.0)
        a = CycloNum(ctx, a.coeffs, 2)
        b = CycloNum(ctx, b.coeffs, 3)
        assert a - b == a + (-b)
        assert b - a == b + (-a)
        assert 1 - a == ctx.one() + (-a)
        assert a - Fraction(1, 6) == a + ctx.from_fraction(Fraction(-1, 6))


def test_exact_close_reports_a_one_entry_mismatch():
    rep = build_family1(RootContext(1, 7), 4, 1)
    assert _close(rep.X, [list(row) for row in rep.X], True, 0.0) == (True, 0.0, "")
    bumped = [list(row) for row in rep.X]
    delta = rep.ctx.zeta(3)
    bumped[2][3] = bumped[2][3] + delta
    ok, residual, detail = _close(rep.X, bumped, True, 0.0)
    assert not ok and residual == pytest.approx(abs(to_complex(delta)))
    assert detail == "first nonzero entry (2, 3) of LHS - RHS, magnitude 1"
    assert residual == ex_residual(ex_sub(rep.X, bumped))


@pytest.mark.parametrize("name,i,j", [("X", 1, 0), ("Z", 1, 1)])
def test_sparse_identity_sum_matches_the_dense_sum(name, i, j):
    # a bumped X[1][0] leaves the largest entry in C_0 alone; a bumped Z[1][1]
    # gives all five C_k overlapping support, so the residual moves with x
    good = build_family1(RootContext(1, 5), 2, 1)
    mats = {"X": good.X, "Y": good.Y, "Z": good.Z, "Zinv": good.Zinv}
    bumped = [list(row) for row in mats[name]]
    bumped[i][j] += 1
    mats[name] = bumped
    rep = Representation(good.ctx, good.dim, 1, {}, "exact",
                         mats["X"], mats["Y"], mats["Z"], mats["Zinv"])
    C = _identity_matrices(rep)
    for x in range(-6, 7):
        dense = ex_lincomb([(rep.ctx.zeta((rep.ctx.P * k * x) % rep.ctx.Q), M)
                            for k, M in C.items()], rep.ctx, rep.dim)
        report = verify_identity(rep, x)
        assert report.residual == ex_residual(dense) and not report.ok, x


def _convolution_product(a, b):
    """a * b by the dense convolution, reduced by long division by Phi_Q and
    gcd-reduced by the CycloNum constructor."""
    ctx = a.ctx
    deg = ctx.degree
    conv = [0] * (2 * deg - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            conv[i + j] += x * y
    for k in range(len(conv) - 1, deg - 1, -1):
        c = conv[k]
        if c:
            for i, p in enumerate(ctx.phi_q):
                conv[k - deg + i] -= c * p
    return CycloNum(ctx, conv[:deg], a.den * b.den)


@pytest.mark.parametrize("Q", [3, 5, 7, 9, 15, 21, 25, 31, 63])
def test_unit_products_match_the_convolution(Q):
    ctx = RootContext(2 if Q != 3 else 1, Q)
    rng = random.Random(100 + Q)
    units = [u for e in range(Q) for u in (ctx.zeta(e), -ctx.zeta(e))]
    others = [_random_entry(ctx, rng, 1.0) for _ in range(4)]
    # a content the denominator does not share, and denominators > 1
    others += [CycloNum(ctx, [6 * rng.randint(-3, 3) for _ in range(ctx.degree)], 5),
               CycloNum(ctx, [4] + [0] * (ctx.degree - 1), 1),
               ctx.from_fraction(Fraction(-7, 3)), ctx.zero()]
    for u in units:
        for a in others + units[:4]:
            want = _convolution_product(u, a)
            for got in (u * a, a * u):
                assert (got.coeffs, got.den) == (want.coeffs, want.den), (u, a)
    minus_one = ctx.from_int(-1)
    for a in others:
        want, got = _convolution_product(minus_one, a), -a
        assert (got.coeffs, got.den) == (want.coeffs, want.den), a


@pytest.mark.parametrize("Q", [3, 5, 7, 9, 15, 21, 25, 31])
def test_general_products_match_the_convolution(Q):
    ctx = RootContext(1, Q)
    rng = random.Random(200 + Q)
    for _ in range(6):
        a, b = _random_entry(ctx, rng, 1.0), _random_entry(ctx, rng, 1.0)
        want = _convolution_product(a, b)
        for got in (a * b, b * a):
            assert (got.coeffs, got.den) == (want.coeffs, want.den), (a, b)


@pytest.mark.parametrize("P,Q", [(P, Q) for Q in (3, 5, 7, 9, 15) for P in range(1, Q)
                                 if math.gcd(P, Q) == 1]
                         + [(1, 21), (10, 21), (2, 25), (3, 31), (15, 31)])
def test_q_numbers_match_the_division_formula(P, Q):
    ctx = RootContext(P, Q)
    inv_delta = (q_power(ctx, 1) - q_power(ctx, -1)).inverse()
    for x in range(-Q, Q + 1):
        want = (q_power(ctx, x) - q_power(ctx, -x)) * inv_delta
        got = q_number(ctx, x)
        assert (got.coeffs, got.den) == (want.coeffs, want.den), x


def _naive_kron(A, B):
    return [[a * b for a in row_a for b in row_b] for row_a in A for row_b in B]


def test_kernels_treat_cancelled_zeros_as_zeros():
    # a - a is zero but not the shared ctx.zero() object, so the kernels'
    # identity test misses it and is_zero() must catch it
    ctx = RootContext(2, 7)
    rng = random.Random(7)
    for _ in range(5):
        A = _random_matrix(ctx, rng, 4, 3, density=0.7)
        B = _random_matrix(ctx, rng, 3, 4, density=0.7)
        for M in (A, B):
            for i, row in enumerate(M):
                j = (i + 1) % len(row)
                a = _random_entry(ctx, rng, 1.0)
                row[j] = a - a
                assert row[j] is not ctx.zero() and row[j].is_zero()
        assert ex_entries(A) == [(i, j, a) for i, row in enumerate(A)
                                 for j, a in enumerate(row) if not a.is_zero()]
        assert ex_kron(A, B) == _naive_kron(A, B)
        assert ex_mul(A, B) == _naive_mul(A, B)
        assert ex_to_complex(A).tolist() == [[complex(a) for a in row] for row in A]
        s = _random_entry(ctx, rng, 1.0)
        assert ex_scale(A, s) == [[s * a for a in row] for row in A]
        C = ex_mul(A, B)
        assert ex_sub(C, C) == [[ctx.zero()] * 4 for _ in range(4)]
        dense = [[s * x + y for x, y in zip(rx, ry)] for rx, ry in zip(C, ex_mul(A, B))]
        assert ex_lincomb([(s, C), (ctx.one(), ex_mul(A, B))], ctx, 4) == dense


def test_residual_is_zero_on_zeros_else_the_largest_entry_magnitude():
    ctx = RootContext(2, 7)
    rng = random.Random(11)
    assert ex_residual(ex_zeros(ctx, 3, 4)) == 0.0
    A = _random_matrix(ctx, rng, 3, 4, density=0.7)
    cancelled = [[a - a for a in row] for row in A]
    assert all(a is not ctx.zero() for row in cancelled for a in row)
    assert ex_residual(cancelled) == 0.0
    f2 = build_family2(RootContext(2, 9), -RootContext(2, 9).zeta(4), 1, 2, backend="exact")
    for M in (A, j_matrix(f2)):
        # np.abs and abs() of a complex may round apart by an ulp
        want = max(abs(complex(a)) for row in M for a in row)
        assert want > 0 and ex_residual(M) == pytest.approx(want, rel=1e-15, abs=0)


# -- the embedding, bit for bit ---------------------------------------------------


def _entrywise(A):
    return np.array([[complex(a) for a in row] for row in A], dtype=complex)


def _assert_embeds_bit_for_bit(*mats):
    for A in mats:
        got = ex_to_complex(A)
        assert got.shape == (len(A), len(A[0]))
        assert got.tobytes() == _entrywise(A).tobytes()


def _assert_rep_embeds_bit_for_bit(rep):
    """Each letter's matrix, by `ex_to_complex` and by `rep.embedded`."""
    mats = [rep.matrix(letter) for letter in "XYZzJ"]
    _assert_embeds_bit_for_bit(*mats)
    for letter, A in zip("XYZzJ", mats):
        assert rep.embedded(letter).tobytes() == _entrywise(A).tobytes(), letter


@pytest.mark.parametrize("Q", range(3, 32, 2))
def test_first_family_generators_and_j_embed_as_their_entries(Q):
    ctx = RootContext((Q - 1) // 2, Q)   # coprime to Q, and a different P per Q
    for r in range(Q):
        for sign in (1, -1):
            _assert_rep_embeds_bit_for_bit(build_family1(ctx, r, sign))


def test_exact_second_family_and_tensor_reps_embed_as_their_entries():
    ctx = RootContext(2, 9)
    f2 = build_family2(ctx, -ctx.zeta(4), 1, 2, backend="exact")
    assert isinstance(f2.X[0][1], GaussCyclo)   # entry by entry
    _assert_rep_embeds_bit_for_bit(f2)
    _assert_rep_embeds_bit_for_bit(tensor_rep(build_family1(ctx, 3, 1),
                                              build_family1(ctx, 2, -1)))
    # denominators, packed (random CycloNums) and entry by entry (J at rational a, b)
    f2 = build_family2(ctx, ctx.zeta(2), Fraction(1, 3), Fraction(5, 7), backend="exact")
    _assert_embeds_bit_for_bit(_random_matrix(ctx, random.Random(9), 5, 4, density=0.6),
                               j_matrix(f2))


def test_a_coefficient_beyond_int64_embeds_entry_by_entry(monkeypatch):
    ctx = RootContext(3, 7)
    zero = ctx.zero()
    huge = CycloNum(ctx, [2 ** 70 + 1, -3 ** 50, 0, 5, 0, 1], 7)
    A = [[huge, zero, ctx.zeta(3)], [zero, zero, zero], [-ctx.one(), huge * huge, zero]]
    assert scalar.pack([huge], ctx)[0].dtype == object
    assert scalar.pack([ctx.zeta(3)], ctx)[0].dtype == np.int64
    seen = []
    monkeypatch.setattr(reps, "to_complex", lambda a: seen.append(a) or complex(a))
    _assert_embeds_bit_for_bit(A)
    assert seen == [huge, ctx.zeta(3), -ctx.one(), huge * huge]
