"""The sparse exact kernels against their naive definitions: products and
powers, unit inverses by lookup, direct subtraction, and exact comparisons
that still report the residual of a mismatch."""

import random
from fractions import Fraction

import pytest

from qsl2r.reps import (Representation, _close, build_family1, ex_eye, ex_lincomb,
                        ex_mul, ex_pow, ex_residual, ex_sub)
from qsl2r.scalar import CycloNum, GaussCyclo, RootContext, to_complex
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


@pytest.mark.parametrize("Q", [5, 7])
def test_ex_pow_matches_repeated_products(Q):
    ctx = RootContext(1, Q)
    rng = random.Random(Q)
    for A in (_random_matrix(ctx, rng, 3, 3, density=0.6), build_family1(ctx, Q - 2, -1).X,
              build_family1(ctx, Q - 1, 1).Z):
        power = ex_eye(ctx, len(A))
        for n in range(Q + 1):
            got = ex_pow(A, n, ctx)
            assert got == power, n
            assert got is not A
            power = ex_mul(power, A)


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


@pytest.mark.parametrize("Q", [3, 9, 15, 21])
def test_non_unit_inverses_take_the_euclidean_path(Q):
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
    assert _close(rep.X, [list(row) for row in rep.X], True, 0.0) == (True, 0.0)
    bumped = [list(row) for row in rep.X]
    delta = rep.ctx.zeta(3)
    bumped[2][3] = bumped[2][3] + delta
    ok, residual = _close(rep.X, bumped, True, 0.0)
    assert not ok and residual == pytest.approx(abs(to_complex(delta)))
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
    C, _ = _identity_matrices(rep, True)
    for x in range(-6, 7):
        dense = ex_lincomb([(rep.ctx.zeta((rep.ctx.P * k * x) % rep.ctx.Q), M)
                            for k, M in C.items()], rep.ctx, rep.dim)
        report = verify_identity(rep, x)
        assert report.residual == ex_residual(dense) and not report.ok, x
