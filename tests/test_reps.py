import json
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from qsl2r.scalar import (CycloNum, GaussCyclo, RootContext, gauss_i, q_number, q_power,
                          scalar_to_json, to_complex)
from qsl2r import reps
from qsl2r.reps import (Representation, build_family1, build_family2, ex_entries, ex_eye,
                        ex_is_zero, ex_mul, ex_residual, ex_scale, ex_sub, intersection_check,
                        j_matrix, recover_xy, representation_from_json,
                        representation_to_json, tensor_j_formula_residual,
                        tensor_rep, verify_relations)

C3 = RootContext(1, 3)

GRID_PQ = [(P, Q) for Q in (3, 5, 7, 9) for P in range(1, Q) if gcd(P, Q) == 1]


def test_family1_trivial_rep():
    rep = build_family1(C3, 0, 1)
    assert rep.dim == 1
    assert rep.Z[0][0] == C3.one()
    assert rep.X[0][0].is_zero() and rep.Y[0][0].is_zero()


def test_family1_r1_matrices():
    rep = build_family1(C3, 1, 1)
    q = C3.zeta(1)
    assert rep.Z[0][0] == q and rep.Z[1][1] == q.inverse()
    assert rep.X[1][0] == C3.from_int(-1)
    assert rep.Y[0][1] == C3.one()
    assert rep.X[0][0].is_zero() and rep.X[0][1].is_zero() and rep.X[1][1].is_zero()


def test_family1_r2_z_diagonal():
    rep = build_family1(C3, 2, 1)
    assert [rep.Z[j][j] for j in range(3)] == [C3.zeta(2), C3.one(), C3.zeta(1)]


def test_family1_param_validation():
    with pytest.raises(ValueError, match="0..Q-1"):
        build_family1(C3, 3, 1)
    with pytest.raises(ValueError, match="sign"):
        build_family1(C3, 1, 2)


@pytest.mark.parametrize("r,sign", [(True, 1), (1, True), (True, True), (1.0, 1), (1, -1.0),
                                    ("1", 1)])
def test_family1_refuses_a_bool_or_non_integer_r_or_sign(r, sign):
    with pytest.raises(ValueError, match="r and sign must be integers"):
        build_family1(RootContext(1, 5), r, sign)


def test_representation_from_json_refuses_bool_family1_params():
    data = representation_to_json(build_family1(RootContext(1, 5), 1, 1))
    assert representation_from_json(data).params == {"r": 1, "sign": 1}
    data["params"] = {"r": True, "sign": True}
    with pytest.raises(ValueError, match='"family" is 1, .*"params" is '):
        representation_from_json(data)


@pytest.mark.parametrize("P,Q", GRID_PQ)
def test_family1_relations_exact_zero(P, Q):
    ctx = RootContext(P, Q)
    for r in range(Q):
        for sign in (1, -1):
            rep = build_family1(ctx, r, sign)
            for which in ("defining", "zj"):
                report = verify_relations(rep, which)
                assert report.ok and report.max_residual == 0.0, (r, sign, which)


def test_family2_wraparound_zeros():
    rep = build_family2(C3, 1.0, 0.0, 0.0)
    assert rep.X[2, 0] == 0 and rep.Y[0, 2] == 0
    # lambda = 1 also kills the interior X entry at j = 1
    assert rep.X[0, 1] == 0


def test_family2_lambda_zero_rejected():
    with pytest.raises(ValueError, match="nonzero"):
        build_family2(C3, 0.0, 1.0, 1.0)


@pytest.mark.parametrize("P,Q", [(1, 3), (2, 5), (3, 7)])
def test_family2_random_relations(P, Q):
    ctx = RootContext(P, Q)
    rng = random.Random(100 * P + Q)
    for _ in range(100):
        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) or 1.0
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        rep = build_family2(ctx, lam, a, b)
        for which in ("defining", "zj"):
            report = verify_relations(rep, which, tol=1e-9)
            assert report.ok, (lam, a, b, which, report.max_residual)


def test_family2_exact_backend():
    ctx = RootContext(2, 5)
    rep = build_family2(ctx, ctx.zeta(3), 1, 2, backend="exact")
    for which in ("defining", "zj"):
        report = verify_relations(rep, which)
        assert report.ok and report.max_residual == 0.0, which


def test_j_matrix_examples():
    rep0 = build_family1(C3, 0, 1)
    assert j_matrix(rep0)[0][0].is_zero()
    rep1 = build_family1(C3, 1, 1)
    J = rep1.embedded("J")
    assert np.allclose(J, np.array([[0, -1], [-1, 0]]), atol=1e-12)


def _second_j_form(rep):
    """Z^-1 (q^-1 X - q Y), the paper's other form of J, on an exact rep."""
    q, qi = q_power(rep.ctx, 1), q_power(rep.ctx, -1)
    return ex_mul(rep.Zinv, ex_sub(ex_scale(rep.X, qi), ex_scale(rep.Y, q)))


def test_j_matrix_both_forms_agree_exactly():
    C5 = RootContext(2, 5)
    exact_reps = [build_family1(C3, r, -1) for r in range(3)] + [
        build_family2(C5, C5.zeta(3), 1, 2, backend="exact"),
        tensor_rep(build_family1(C3, 1, 1), build_family1(C3, 2, -1)),
        tensor_rep(build_family1(C3, 1, 1),
                   build_family2(C3, C3.zeta(1), 1, 0, backend="exact"))]
    for rep in exact_reps:
        assert rep.backend == "exact"
        assert ex_is_zero(ex_sub(j_matrix(rep), _second_j_form(rep))), rep


def _product_j(rep):
    """(q X - q^-1 Y) Z^-1 by two scalings, a subtraction and a product."""
    q, qi = q_power(rep.ctx, 1), q_power(rep.ctx, -1)
    return ex_mul(ex_sub(ex_scale(rep.X, q), ex_scale(rep.Y, qi)), rep.Zinv)


def _assert_j_is_the_product(rep):
    J, want = j_matrix(rep), _product_j(rep)
    assert J == want, rep
    assert [[type(a) for a in row] for row in J] == [[type(a) for a in row] for row in want]
    assert all(a is rep.ctx.zero() for row in J for a in row if a.is_zero())
    assert rep.entries("J") == ex_entries(J)
    for letter in "XYZz":
        assert rep.entries(letter) == ex_entries(rep.matrix(letter))
        assert rep.entries(letter) is rep.entries(letter)


@pytest.mark.parametrize("P,Q", [(3, 31), (2, 21)])
def test_j_per_entry_is_the_product_on_the_first_family(P, Q):
    ctx = RootContext(P, Q)
    for r in range(Q):
        for sign in (1, -1):
            _assert_j_is_the_product(build_family1(ctx, r, sign))


def test_j_per_entry_is_the_product_on_family2_and_tensor_reps():
    for P, Q in ((2, 9), (2, 31)):
        ctx = RootContext(P, Q)
        _assert_j_is_the_product(build_family2(ctx, q_power(ctx, 2), 1, 2, backend="exact"))
    ctx = RootContext(2, 9)
    _assert_j_is_the_product(tensor_rep(build_family1(ctx, 3, 1),
                                        build_family2(ctx, ctx.zeta(1), 1, 0, backend="exact")))


def test_j_per_entry_takes_a_zero_column_and_refuses_an_off_diagonal_zinv():
    good = build_family1(RootContext(2, 7), 5, -1)
    zinv = [list(row) for row in good.Zinv]
    a = zinv[3][3]
    zinv[1][1], zinv[3][3] = good.ctx.zero(), a - a    # shared and cancelled zeros
    rep = Representation(good.ctx, good.dim, 1, {}, "exact", good.X, good.Y, good.Z, zinv)
    _assert_j_is_the_product(rep)
    assert all(row[j].is_zero() for row in j_matrix(rep) for j in (1, 3))
    # q X[0][1] = q^-1 Y[0][1]: J's entry there cancels to the shared zero
    X = [list(row) for row in good.X]
    X[0][1] = q_power(good.ctx, -2) * good.Y[0][1]
    rep = Representation(good.ctx, good.dim, 1, {}, "exact", X, good.Y, good.Z, good.Zinv)
    _assert_j_is_the_product(rep)
    assert j_matrix(rep)[0][1] is good.ctx.zero()
    zinv = [list(row) for row in good.Zinv]
    zinv[0][2] = good.ctx.one()
    rep = Representation(good.ctx, good.dim, 1, {}, "exact", good.X, good.Y, good.Z, zinv)
    with pytest.raises(ValueError, match="diagonal Z\\^-1"):
        j_matrix(rep)


def test_recover_xy_round_trip_exact():
    for P, Q in [(1, 3), (2, 5), (3, 7), (2, 9)]:
        ctx = RootContext(P, Q)
        for r in range(Q):
            for sign in (1, -1):
                rep = build_family1(ctx, r, sign)
                Xp, Yp = recover_xy(rep)
                assert ex_is_zero(ex_sub(Xp, rep.X))
                assert ex_is_zero(ex_sub(Yp, rep.Y))


def test_recover_xy_family2_numeric():
    ctx = RootContext(1, 5)
    rep = build_family2(ctx, 1 + 1j, 2.0, -1.0)
    Xp, Yp = recover_xy(rep)
    assert float(np.max(np.abs(Xp - rep.X))) < 1e-9
    assert float(np.max(np.abs(Yp - rep.Y))) < 1e-9


def test_central_scalars():
    rep = build_family1(C3, 2, 1)
    report = verify_relations(rep, "central")
    assert report.ok
    assert report.extra["scalar"] == [1.0, 0.0]
    repm = build_family1(C3, 2, -1)
    assert verify_relations(repm, "central").extra["scalar"] == [-1.0, 0.0]
    f2 = build_family2(C3, 2.0, 1.0, 1.0)
    rep2 = verify_relations(f2, "central")
    assert rep2.ok
    assert abs(complex(*rep2.extra["scalar"]) - 8.0) < 1e-9


@pytest.mark.parametrize("P,Q", [(1, 3), (2, 5), (3, 7), (2, 9)])
def test_central_scalar_matches_prediction(P, Q):
    ctx = RootContext(P, Q)
    rng = random.Random(P + Q)
    for sign in (1, -1):
        rep = build_family1(ctx, rng.randrange(Q), sign)
        scalar = complex(*verify_relations(rep, "central").extra["scalar"])
        assert abs(scalar - sign) < 1e-9
    lam = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
    f2 = build_family2(ctx, lam, 0.5, 0.25)
    scalar = complex(*verify_relations(f2, "central").extra["scalar"])
    assert abs(scalar - lam ** Q) < 1e-9 * max(1, abs(lam) ** Q)
    # exact second family at lambda = +-q^k: Z^Q = lambda^Q = +-1
    for sign in (1, -1):
        lam = sign * q_power(ctx, rng.randrange(1, Q))
        f2 = build_family2(ctx, lam, 1, Fraction(1, 2), backend="exact")
        report = verify_relations(f2, "central")
        assert report.ok and report.max_residual == 0.0
        assert abs(complex(*report.extra["scalar"]) - sign) < 1e-9


def _central_reference(rep):
    """The central report's (name, ok, residual, detail) per check and its
    scalar, from Z^Q by repeated products and full differences."""
    ZQ = rep.Z
    for _ in range(rep.ctx.Q - 1):
        ZQ = ex_mul(ZQ, rep.Z)
    scalar = ZQ[0][0]
    sides = [(f"Z^Q {name} = {name} Z^Q", ex_mul(ZQ, M), ex_mul(M, ZQ))
             for name, M in (("X", rep.X), ("Y", rep.Y), ("J", j_matrix(rep)))]
    sides.append(("Z^Q is scalar", ZQ, ex_scale(ex_eye(rep.ctx, rep.dim), scalar)))
    checks = []
    for name, A, B in sides:
        D = ex_sub(A, B)
        first = next(((i, j) for i, row in enumerate(D) for j, a in enumerate(row)
                      if not a.is_zero()), None)
        detail = "" if first is None else (
            f"first nonzero entry {first} of LHS - RHS, "
            f"magnitude {abs(to_complex(D[first[0]][first[1]])):.6g}")
        checks.append((name, first is None, ex_residual(D), detail))
    return checks, [to_complex(scalar).real, to_complex(scalar).imag]


def _with_z(rep, Z):
    return Representation(rep.ctx, rep.dim, rep.family, rep.params, rep.backend,
                          rep.X, rep.Y, Z, rep.Zinv)


def _assert_central_matches_reference(rep):
    report = verify_relations(rep, "central")
    checks, scalar = _central_reference(rep)
    assert [(c.name, c.ok, c.residual, c.detail) for c in report.checks] == checks
    assert report.extra["scalar"] == scalar
    return report


@pytest.mark.parametrize("P,Q,r", [(1, 5, 4), (3, 7, 5), (2, 15, 13)])
@pytest.mark.parametrize("bump", ["plus one", "times q"])
def test_central_reports_a_bumped_z_as_the_products_do(P, Q, r, bump):
    ctx = RootContext(P, Q)
    for sign in (1, -1):
        rep = build_family1(ctx, r, sign)
        for k in (0, r // 2, r):
            Z = [list(row) for row in rep.Z]
            Z[k][k] = Z[k][k] + 1 if bump == "plus one" else Z[k][k] * q_power(ctx, 1)
            report = _assert_central_matches_reference(_with_z(rep, Z))
            # (q z)^Q = z^Q, so Z^Q does not see a factor q
            assert report.ok == (bump == "times q")


def test_central_reports_a_bumped_exact_family2_z_as_the_products_do():
    ctx = RootContext(2, 7)
    rep = build_family2(ctx, q_power(ctx, 2), 1, 2, backend="exact")
    assert _assert_central_matches_reference(rep).ok
    for k in (0, 3, 6):
        Z = [list(row) for row in rep.Z]
        Z[k][k] = Z[k][k] * 2
        assert not _assert_central_matches_reference(_with_z(rep, Z)).ok


def test_exact_central_refuses_an_off_diagonal_z():
    ctx = RootContext(2, 5)
    rep = build_family1(ctx, 3, 1)
    Z = [list(row) for row in rep.Z]
    Z[0][1] = CycloNum(ctx, (0,) * ctx.degree)   # a zero that is not the shared one
    assert verify_relations(_with_z(rep, Z), "central").ok
    Z[0][1] = ctx.one()
    with pytest.raises(ValueError, match="diagonal Z"):
        verify_relations(_with_z(rep, Z), "central")


def test_exact_central_forms_no_matrix_product(monkeypatch):
    ctx = RootContext(2, 7)
    good = [build_family1(ctx, 5, -1), build_family2(ctx, -q_power(ctx, 3), 1, 2, backend="exact")]
    Z = [list(row) for row in good[0].Z]
    Z[2][2] = Z[2][2] + 1
    cases = good + [_with_z(good[0], Z)]
    for rep in cases:
        j_matrix(rep)

    def refuse(A, B):
        raise AssertionError("ex_mul called")

    monkeypatch.setattr(reps, "ex_mul", refuse)
    assert [verify_relations(rep, "central").ok for rep in cases] == [True, True, False]


def test_star_original_fails_beyond_dimension_one():
    # the unmodified involution is realized only in dimension 1
    assert verify_relations(build_family1(C3, 0, 1), "star_original").ok
    for r in (1, 2):
        for sign in (1, -1):
            report = verify_relations(build_family1(C3, r, sign), "star_original")
            assert not report.ok


def test_tensor_rep_exact_relations():
    a = build_family1(C3, 1, 1)
    t = tensor_rep(a, a)
    assert t.dim == 4 and t.backend == "exact"
    report = verify_relations(t, "defining")
    assert report.ok and report.max_residual == 0.0


def test_tensor_counit_like_factor():
    # r=0 factor acts trivially: X of the product is the block X of the right factor
    a = build_family1(C3, 0, 1)
    b = build_family1(C3, 1, 1)
    t = tensor_rep(a, b)
    assert np.allclose(t.embedded("X"), b.embedded("X"), atol=1e-12)


def test_tensor_j_coproduct_formula():
    reps = [build_family1(C3, r, 1) for r in range(3)]
    for a in reps:
        for b in reps:
            t = tensor_rep(a, b)
            report = verify_relations(t, "defining")
            assert report.ok and report.max_residual == 0.0
            assert tensor_j_formula_residual(a, b, t) < 1e-12


def _kron_entry(A, B, i, j):
    # (A (x) B)[i][j], or None where it is a structural zero
    nb = len(B)
    a, b = A[i // nb][j // nb], B[i % nb][j % nb]
    return None if a.is_zero() or b.is_zero() else a * b


def _coproduct_by_index(a, b):
    """X, Y, Z and Z^-1 of a (x) b by the coproduct, entry by entry:
    1 (x) X + X (x) Z, 1 (x) Y + Y (x) Z, Z (x) Z, Z^-1 (x) Z^-1."""
    ctx, d = a.ctx, a.dim * b.dim
    eye = ex_eye(ctx, a.dim)
    out = {}
    for g, parts in (("X", [(eye, b.X), (a.X, b.Z)]), ("Y", [(eye, b.Y), (a.Y, b.Z)]),
                     ("Z", [(a.Z, b.Z)]), ("z", [(a.Zinv, b.Zinv)])):
        M = [[ctx.zero()] * d for _ in range(d)]
        for i in range(d):
            for j in range(d):
                for A, B in parts:
                    e = _kron_entry(A, B, i, j)
                    if e is not None:
                        M[i][j] = M[i][j] + e
        out[g] = M
    return out


@pytest.mark.parametrize("P,Q,left,right", [
    (1, 3, (1, 1), (2, -1)), (2, 5, (3, -1), (1, 1)), (1, 3, "exact family 2", (1, -1))],
    ids=["V1xV2-at-1-3", "V3xV1-at-2-5", "family2xV1-at-1-3"])
def test_exact_tensor_rep_is_the_coproduct_entry_by_entry(P, Q, left, right):
    ctx = RootContext(P, Q)
    a = (build_family2(ctx, q_power(ctx, 1), 1, 2, backend="exact")
         if left == "exact family 2" else build_family1(ctx, *left))
    b = build_family1(ctx, *right)
    t = tensor_rep(a, b)
    assert t.backend == "exact" and t.dim == a.dim * b.dim
    for g, M in _coproduct_by_index(a, b).items():
        assert t.matrix(g) == M, g


@pytest.mark.parametrize("left", ["exact family 1", "floating family 2"])
def test_tensor_rep_floating_path(left):
    ctx = RootContext(1, 3)
    a = (build_family1(ctx, 2, -1) if left == "exact family 1"
         else build_family2(ctx, 0.5 + 1j, 1.0, -0.5j))
    b = build_family2(ctx, 1.5 - 0.5j, 1.0, 2.0)
    t = tensor_rep(a, b)
    assert t.backend == "approx" and t.dim == a.dim * b.dim
    for which in ("defining", "zj"):
        assert verify_relations(t, which).ok, which
    assert tensor_j_formula_residual(a, b, t) < 1e-12
    # the coproduct in numpy, on the factors' embedded matrices
    A, B = a.embedded, b.embedded
    eye = np.eye(a.dim)
    want = {"X": np.kron(eye, B("X")) + np.kron(A("X"), B("Z")),
            "Y": np.kron(eye, B("Y")) + np.kron(A("Y"), B("Z")),
            "Z": np.kron(A("Z"), B("Z")),
            "z": np.kron(A("z"), B("z"))}
    for name, M in want.items():
        assert float(np.max(np.abs(t.matrix(name) - M))) < 1e-12, name


def test_tensor_triple_associativity_on_z():
    a = build_family1(C3, 1, 1)
    ab_c = tensor_rep(tensor_rep(a, a), a)
    a_bc = tensor_rep(a, tensor_rep(a, a))
    for name in "XYZz":
        assert ex_is_zero(ex_sub(ab_c.matrix(name), a_bc.matrix(name)))


def test_tensor_context_mismatch():
    with pytest.raises(ValueError, match="root contexts"):
        tensor_rep(build_family1(C3, 1, 1), build_family1(RootContext(1, 5), 1, 1))


def test_intersection_z_spectrum_explicit():
    # Q=3: Z1 = diag(q^2, 1, q^-2) and Z2 = diag(q^-2, 1, q^2) on the exact
    # second-family point, so the index reversal j <-> 2 - j matches them
    rep1 = build_family1(C3, 2, 1)
    rep2 = build_family2(C3, q_power(C3, -2), 0, 0, backend="exact")
    assert [rep1.Z[j][j] for j in range(3)] == [q_power(C3, e) for e in (2, 0, -2)]
    assert all(rep1.Z[j][j] == rep2.Z[2 - j][2 - j] for j in range(3))


# one coprime P per Q; the checks are exact, so Q = 45 and 63 pass too
INTERSECTION_P = {3: 1, 5: 2, 7: 1, 11: 3, 21: 10, 45: 1, 63: 1}


@pytest.mark.parametrize("Q", sorted(INTERSECTION_P))
@pytest.mark.parametrize("sign", [1, -1])
def test_intersection_check(Q, sign):
    report = intersection_check(RootContext(INTERSECTION_P[Q], Q), sign)
    assert report.ok, report
    assert [c.name for c in report.checks] == ["pattern", "Z", "XY"]
    assert report.max_residual == 0.0
    assert set(report.to_json()) == {"which", "ok", "max_residual", "checks", "sign"}
    assert report.to_json()["sign"] == sign


def _raw(s):
    """An exact entry as its stored coefficients and denominators."""
    return (s.re.coeffs, s.re.den, s.im.coeffs, s.im.den)


@pytest.mark.parametrize("params", ["intersection", "generic"])
@pytest.mark.parametrize("sign", [1, -1])
def test_exact_family2_matches_the_per_column_inverse_formulas(params, sign):
    # the builder inverts lambda once; the formulas below invert lam q^2j and
    # lam again in every column, as Z^-1 = 1 / Z and q^(1-j) / lam
    ctx, Q = RootContext(3, 31), 31
    if params == "intersection":
        lam, a, b = sign * q_power(ctx, 1 - Q), 0, 0
    else:
        lam = GaussCyclo(sign * q_power(ctx, 4) + Fraction(1, 3), ctx.from_int(2))
        a, b = q_power(ctx, 7) * 3, gauss_i(ctx) + Fraction(1, 2)
    rep = build_family2(ctx, lam, a, b, backend="exact")
    lam, a, b = (GaussCyclo.from_scalar(v, ctx) for v in (lam, a, b))
    qp, qn, mi = (lambda k: q_power(ctx, k)), (lambda k: q_number(ctx, k)), -gauss_i(ctx)
    delta = qp(1) - qp(-1)
    for j in range(Q):
        zj = lam * qp(2 * j)
        assert _raw(rep.Z[j][j]) == _raw(zj)
        assert _raw(rep.Zinv[j][j]) == _raw(1 / zj)
        if j:
            core = a * b - qn(j) * (lam * qp(j - 1) - qp(1 - j) / lam) / delta
            assert _raw(rep.X[j - 1][j]) == _raw(mi * qp(j - 1) * core)
        if j != Q - 1:
            assert _raw(rep.Y[j + 1][j]) == _raw(mi * lam * qp(j + 1))
    assert _raw(rep.X[Q - 1][0]) == _raw(mi * a / qp(1))
    assert _raw(rep.Y[0][Q - 1]) == _raw(mi * lam * b)
    if params == "intersection":
        report = intersection_check(ctx, sign)
        assert report.ok and report.max_residual == 0.0, report
        assert [c.name for c in report.checks] == ["pattern", "Z", "XY"]


def _tampered(monkeypatch, builder, edit):
    """Make reps.<builder> apply edit(rep) to every representation it
    returns, so intersection_check meets the edited matrices."""
    orig = getattr(reps, builder)

    def wrapped(*args, **kwargs):
        rep = orig(*args, **kwargs)
        edit(rep)
        return rep

    monkeypatch.setattr(reps, builder, wrapped)


def _bump(name, i, j):
    def edit(rep):
        M = getattr(rep, name)
        M[i][j] = M[i][j] + 1
    return edit


# Q = 5, k = 4 - j: Y1[2][3] sits at j = 3, Y2[3][2] at k = 2, so j = 2
@pytest.mark.parametrize("builder,edit,check,detail", [
    ("build_family1", _bump("Y", 2, 3), "XY", "first mismatch at j = 3"),
    ("build_family2", _bump("Y", 3, 2), "XY", "first mismatch at j = 2"),
    ("build_family1", _bump("Z", 1, 1), "Z", "first mismatch at j = 1"),
    ("build_family2", _bump("Z", 1, 1), "Z", "first mismatch at j = 3"),
    ("build_family1", _bump("X", 0, 0), "pattern", "X1[0][0] is off the band"),
])
@pytest.mark.parametrize("sign", [1, -1])
def test_intersection_check_catches_tampering(monkeypatch, builder, edit, check,
                                              detail, sign):
    _tampered(monkeypatch, builder, edit)
    report = intersection_check(RootContext(2, 5), sign)
    failed = {c.name: c for c in report.checks if not c.ok}
    assert set(failed) == {check}
    assert failed[check].detail == detail
    assert failed[check].residual > 0.0 and report.max_residual > 0.0


def test_intersection_check_catches_a_zero_on_the_band(monkeypatch):
    def edit(rep):
        rep.X[2][3] = rep.ctx.zero()    # X2[k][k+1] at k = 2, so j = 2
    _tampered(monkeypatch, "build_family2", edit)
    report = intersection_check(RootContext(2, 5), 1)
    failed = {c.name: c for c in report.checks if not c.ok}
    assert set(failed) == {"pattern", "XY"}
    assert failed["pattern"].detail == "X2[2][3] is zero on the band"
    assert failed["XY"].detail == "first mismatch at j = 2"


def _family2_with(monkeypatch, change):
    orig = reps.build_family2

    def wrapped(ctx, lam, a, b, backend="approx"):
        return orig(ctx, *change(lam, a, b), backend=backend)

    monkeypatch.setattr(reps, "build_family2", wrapped)


def test_intersection_check_catches_wrong_sign_pairing(monkeypatch):
    _family2_with(monkeypatch, lambda lam, a, b: (-lam, a, b))
    report = intersection_check(RootContext(1, 7), 1)
    failed = {c.name: c for c in report.checks if not c.ok}
    assert set(failed) == {"Z"}   # the band products agree for either sign
    assert failed["Z"].detail == "first mismatch at j = 0"


def test_intersection_check_catches_the_wrap(monkeypatch):
    _family2_with(monkeypatch, lambda lam, a, b: (lam, 1, b))
    report = intersection_check(RootContext(1, 7), -1)
    failed = {c.name: c for c in report.checks if not c.ok}
    assert set(failed) == {"pattern"}
    assert failed["pattern"].detail == "X2[6][0] is off the band"
    assert failed["pattern"].residual == pytest.approx(1.0)


def test_representation_json_round_trip_exact():
    rep = build_family1(C3, 1, -1)
    data = representation_to_json(rep)
    text = json.dumps(data, sort_keys=True)
    back = representation_from_json(json.loads(text))
    for which in ("defining", "zj", "central"):
        r1 = verify_relations(rep, which).to_json()
        r2 = verify_relations(back, which).to_json()
        assert r1 == r2
    assert data["family"] == 1 and data["backend"] == "exact"
    assert set(data["generators"]) == {"X", "Y", "Z"}


def test_representation_json_round_trip_approx():
    rep = build_family2(C3, 1.5 - 0.5j, 1.0, 2.0)
    back = representation_from_json(representation_to_json(rep))
    assert verify_relations(back, "defining").ok
    assert float(np.max(np.abs(back.X - rep.X))) == 0.0


def _sample(backend):
    return build_family1(C3, 2, 1) if backend == "exact" else build_family2(C3, 1.5, 1.0, 2.0)


def _exported(backend):
    data = representation_to_json(_sample(backend))
    assert len(data["generators"]["Z"]) == 3
    return data


@pytest.mark.parametrize("backend", ["exact", "approx"])
def test_representation_from_json_refuses_a_non_square_generator(backend):
    # nor a generator that is not a list of rows
    for bad in (lambda x: x[:2], lambda x: 7, lambda x: x[0], lambda x: [7] * 3,
                lambda x: {"rows": x}, lambda x: [tuple(row) for row in x]):
        data = _exported(backend)
        data["generators"]["X"] = bad(data["generators"]["X"])
        with pytest.raises(ValueError, match="square"):
            representation_from_json(data)


@pytest.mark.parametrize("backend", ["exact", "approx"])
def test_representation_from_json_refuses_generators_of_two_dimensions(backend):
    data = _exported(backend)
    data["generators"]["Y"] = [row[:2] for row in data["generators"]["Y"][:2]]
    with pytest.raises(ValueError, match="one dimension"):
        representation_from_json(data)


def test_representation_from_json_refuses_a_singular_float_z():
    data = _exported("approx")
    data["generators"]["Z"][1][1] = [0.0, 0.0]
    with pytest.raises(ValueError, match="no zero on its diagonal"):
        representation_from_json(data)


def test_representation_from_json_refuses_a_singular_exact_z():
    data = _exported("exact")
    zero = data["generators"]["Z"][0][1]      # an off-diagonal exact zero
    data["generators"]["Z"][1][1] = zero
    with pytest.raises(ValueError, match="no zero on its diagonal"):
        representation_from_json(data)


@pytest.mark.parametrize("backend,label", [("exact", "Exact"), ("approx", "float"),
                                           ("exact", None)])
def test_representation_from_json_refuses_an_unknown_backend(backend, label):
    data = _exported(backend)
    data["backend"] = label
    with pytest.raises(ValueError, match="unknown backend"):
        representation_from_json(data)


@pytest.mark.parametrize("backend", ["exact", "approx"])
def test_representation_from_json_refuses_a_payload_without_generators(backend):
    # nor one without any other field it reads
    for key in ("generators", "P", "Q", "backend", "family"):
        data = _exported(backend)
        del data[key]
        with pytest.raises(ValueError, match=key):
            representation_from_json(data)


def _first_family_q5(backend):
    # the 3-dimensional first-family rep at (1, 5), in either backend
    rep = build_family1(RootContext(1, 5), 2, 1)
    if backend == "approx":
        rep = Representation(rep.ctx, rep.dim, 1, dict(rep.params), backend,
                             *map(rep.embedded, "XYZz"))
    data = representation_to_json(rep)
    assert representation_from_json(data).params == {"r": 2, "sign": 1}
    return data


@pytest.mark.parametrize("backend", ["exact", "approx"])
@pytest.mark.parametrize("key,value", [("P", 1.5), ("Q", 3.5), ("Q", "3"), ("P", None),
                                       ("P", True), ("Q", False), ("family", "bogus"),
                                       ("family", True), ("family", 1.0), ("params", 5),
                                       ("params", "ab"), ("family", 2),
                                       ("params", {"lambda": "nonsense"}),
                                       ("params", {"r": 1, "sign": 1}),
                                       ("params", {"r": 2, "sign": 0}),
                                       ("params", {"r": "2", "sign": 1})])
def test_representation_from_json_refuses_a_non_integral_p_or_q(backend, key, value):
    # nor a family outside 1, 2, "tensor", nor params that are not a dict,
    # nor a family label or first-family params that do not fit the
    # 3 x 3 matrices at Q = 5; the error names the field
    data = _first_family_q5(backend)
    data[key] = value
    with pytest.raises(ValueError, match=f'"{key}" is {value!r}, but'):
        representation_from_json(data)


def test_representation_from_json_refuses_a_first_family_above_q():
    # the 4-dimensional tensor square of the 2-dimensional rep at Q = 3
    two = build_family1(C3, 1, 1)
    data = representation_to_json(tensor_rep(two, two))
    data["family"], data["params"] = 1, {}
    with pytest.raises(ValueError, match='"family" is 1, but the matrices are 4 x 4 at Q = 3'):
        representation_from_json(data)
    data["family"] = "tensor"
    assert representation_from_json(data).dim == 4


@pytest.mark.parametrize("backend", ["exact", "approx"])
def test_representation_from_json_refuses_a_string_entry(backend):
    data = _exported(backend)
    data["generators"]["X"][0][0] = "1"
    with pytest.raises(ValueError):
        representation_from_json(data)


@pytest.mark.parametrize("backend", ["exact", "approx"])
def test_representation_from_json_refuses_a_bumped_x_entry(backend):
    rep = _sample(backend)
    X = [list(row) for row in rep.X] if backend == "exact" else np.array(rep.X)
    X[1][0] = X[1][0] + 1
    bad = Representation(rep.ctx, rep.dim, rep.family, dict(rep.params), backend,
                         X, rep.Y, rep.Z, rep.Zinv)
    with pytest.raises(ArithmeticError, match="defining relations"):
        representation_from_json(representation_to_json(bad))
    assert representation_from_json(representation_to_json(rep)).backend == backend


@pytest.mark.parametrize("backend,entry", [
    ("exact", lambda e: [["1", "0"]] + e[1:]),       # a zero denominator
    ("exact", lambda e: {"re": e}),                  # a Gaussian entry without "im"
    ("exact", lambda e: [1.0, 0.0]),                 # a floating entry
    ("approx", lambda e: [["1", "1"], ["0", "1"]]),  # an exact entry
], ids=["zero-denominator", "no-im", "float-in-exact", "exact-in-float"])
def test_representation_from_json_refuses_an_entry_of_the_wrong_kind(backend, entry):
    data = _exported(backend)
    exact = scalar_to_json(C3.one())
    data["generators"]["X"][0][0] = entry(exact)
    with pytest.raises(ValueError):
        representation_from_json(data)


def _round_trips(rep):
    data = json.loads(json.dumps(representation_to_json(rep)))
    back = representation_from_json(data)
    assert representation_to_json(back) == data
    assert back.params == rep.params and back.family == rep.family
    return back


def test_a_loaded_floating_rep_computes_as_the_built_one():
    # the same Z^-1, so the same J bit for bit, not 1 / Z
    rep = build_family2(RootContext(2, 7), 1.5 - 0.25j, 0.5 + 1j, -2.0)
    back = _round_trips(rep)
    assert np.array_equal(back.Zinv, rep.Zinv)
    assert np.array_equal(back.embedded("J"), rep.embedded("J"))


@pytest.mark.parametrize("P,Q", [(1, 3), (3, 7), (2, 31)])
def test_every_first_family_rep_round_trips(P, Q):
    ctx = RootContext(P, Q)
    for r in range(Q):
        for sign in (1, -1):
            _round_trips(build_family1(ctx, r, sign))


def _seeded_family2(P, Q, seed):
    rng = random.Random(seed)
    lam, a, b = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3))
    return build_family2(RootContext(P, Q), lam, a, b)


@pytest.mark.parametrize("P,Q", [(1, 3), (2, 5), (4, 9), (7, 15)])
def test_seeded_floating_second_family_round_trips(P, Q):
    for seed in range(3):
        _round_trips(_seeded_family2(P, Q, seed))


@pytest.mark.parametrize("P,Q,k", [(1, 3, 0), (2, 5, 1), (3, 7, 4), (4, 15, 2),
                                   (2, 31, 2), (5, 31, 30)])
def test_exact_second_family_at_plus_minus_q_power_round_trips(P, Q, k):
    ctx = RootContext(P, Q)
    for lam in (q_power(ctx, k), -q_power(ctx, k)):
        _round_trips(build_family2(ctx, lam, 1, Fraction(-2, 3), backend="exact"))


def test_a_tensor_rep_round_trips():
    two = build_family1(RootContext(1, 5), 1, -1)
    _round_trips(tensor_rep(two, build_family1(RootContext(1, 5), 2, 1)))


def _relabelled_first_family():
    data = representation_to_json(build_family1(RootContext(1, 5), 4, 1))
    data["family"], data["params"] = 2, {"lambda": "nonsense"}
    return data


def _nonsense_second_family_params():
    data = representation_to_json(build_family2(C3, 1.5, 1.0, 2.0))
    data["params"] = {"lambda": "nonsense"}
    return data


def _flipped_sign():
    data = representation_to_json(build_family1(RootContext(2, 7), 3, 1))
    data["params"]["sign"] = -1
    return data


def _swapped_a_and_b(backend):
    ctx = RootContext(2, 7)
    rep = (build_family2(ctx, -q_power(ctx, 3), 1, 2, backend="exact") if backend == "exact"
           else _seeded_family2(2, 7, 0))
    data = representation_to_json(rep)
    params = data["params"]
    params["a"], params["b"] = params["b"], params["a"]
    return data


def _exact_params_on_floating_matrices():
    # an exact second-family payload relabelled "approx", its matrices
    # embedded and its params left as they are
    ctx = RootContext(1, 5)
    rep = build_family2(ctx, q_power(ctx, 2), 1, 2, backend="exact")
    data = representation_to_json(Representation(ctx, rep.dim, 2, rep.params, "approx",
                                                 *map(rep.embedded, "XYZz")))
    assert data["params"] == representation_to_json(rep)["params"]
    return data


@pytest.mark.parametrize("payload", [
    _relabelled_first_family, _nonsense_second_family_params, _flipped_sign,
    lambda: _swapped_a_and_b("exact"), lambda: _swapped_a_and_b("approx"),
    _exact_params_on_floating_matrices],
    ids=["first-family-relabelled", "nonsense-params", "flipped-sign", "swapped-a-b-exact",
         "swapped-a-b-approx", "exact-params-relabelled-approx"])
def test_representation_from_json_refuses_params_that_do_not_rebuild_it(payload):
    data = payload()
    with pytest.raises(ValueError, match='"family" is .*"params" is '):
        representation_from_json(data)


@pytest.mark.parametrize("backend,defining,zj", [
    ("exact", "first nonzero entry (1, 1) of LHS - RHS, magnitude 1.24698",
     "first nonzero entry (1, 1) of LHS - RHS, magnitude 3.03194"),
    ("approx", "largest entry (1, 1) of LHS - RHS, magnitude 1.24698",
     "largest entry (1, 1) of LHS - RHS, magnitude 3.03194")])
def test_a_failing_check_names_its_entry(backend, defining, zj):
    # X[2][1] += q on the first family at (1, 7), r = 4, in either backend
    ctx = RootContext(1, 7)
    rep = build_family1(ctx, 4, 1)
    if backend == "exact":
        X, q = [list(row) for row in rep.X], q_power(ctx, 1)
    else:
        rep = Representation(ctx, rep.dim, rep.family, dict(rep.params), backend,
                             *map(rep.embedded, "XYZz"))
        X, q = rep.X.copy(), ctx.q_complex
    X[2][1] = X[2][1] + q
    bad = Representation(ctx, rep.dim, rep.family, dict(rep.params), backend,
                         X, rep.Y, rep.Z, rep.Zinv)
    for which, first in (("defining", defining), ("zj", zj)):
        failed = [c for c in verify_relations(bad, which).checks if not c.ok]
        assert failed and failed[0].detail == first, which
        assert all(c.detail for c in failed)
    passing = verify_relations(rep, "defining").to_json()
    assert all("detail" not in c for c in passing["checks"])


def test_q_power_convention_in_z():
    # Z v_j = sign q^(r-2j) v_j against the scalar module directly
    for P, Q in [(2, 5), (3, 7)]:
        ctx = RootContext(P, Q)
        r = Q - 2
        rep = build_family1(ctx, r, -1)
        for j in range(r + 1):
            assert rep.Z[j][j] == -q_power(ctx, r - 2 * j)
            assert rep.Y[j - 1][j] == q_number(ctx, j) if j else True
