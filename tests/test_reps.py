import json
import random
from math import gcd

import numpy as np
import pytest

from qsl2r.scalar import RootContext, q_number, q_power
from qsl2r import reps
from qsl2r.reps import (build_family1, build_family2, ex_is_zero, ex_sub,
                        intersection_check, j_matrix, j_matrix_complex,
                        recover_xy, representation_from_json,
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
    J = j_matrix_complex(rep1)
    assert np.allclose(J, np.array([[0, -1], [-1, 0]]), atol=1e-12)


def test_j_matrix_both_forms_agree_exactly():
    for r in range(3):
        rep = build_family1(C3, r, -1)
        ops_q = C3.zeta(1)
        lhs = j_matrix(rep)
        from qsl2r.reps import ex_mul, ex_scale
        rhs = ex_mul(rep.Zinv, ex_sub(ex_scale(rep.X, ops_q.inverse()),
                                      ex_scale(rep.Y, ops_q)))
        assert ex_is_zero(ex_sub(lhs, rhs))


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
    assert np.allclose(t.complex_mats()["X"], b.complex_mats()["X"], atol=1e-12)


def test_tensor_j_coproduct_formula():
    reps = [build_family1(C3, r, 1) for r in range(3)]
    for a in reps:
        for b in reps:
            t = tensor_rep(a, b)
            report = verify_relations(t, "defining")
            assert report.ok and report.max_residual == 0.0
            assert tensor_j_formula_residual(a, b, t) < 1e-12


def test_tensor_triple_associativity_on_z():
    a = build_family1(C3, 1, 1)
    ab_c = tensor_rep(tensor_rep(a, a), a)
    a_bc = tensor_rep(a, tensor_rep(a, a))
    for name in ("X", "Y", "Z", "Zinv"):
        assert ex_is_zero(ex_sub(ab_c.mats()[name], a_bc.mats()[name]))


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


def _exported(backend):
    rep = build_family1(C3, 2, 1) if backend == "exact" else build_family2(C3, 1.5, 1.0, 2.0)
    data = representation_to_json(rep)
    assert len(data["generators"]["Z"]) == 3
    return data


@pytest.mark.parametrize("backend", ["exact", "approx"])
def test_representation_from_json_refuses_a_non_square_generator(backend):
    data = _exported(backend)
    data["generators"]["X"] = data["generators"]["X"][:2]
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


def test_q_power_convention_in_z():
    # Z v_j = sign q^(r-2j) v_j against the scalar module directly
    for P, Q in [(2, 5), (3, 7)]:
        ctx = RootContext(P, Q)
        r = Q - 2
        rep = build_family1(ctx, r, -1)
        for j in range(r + 1):
            assert rep.Z[j][j] == -q_power(ctx, r - 2 * j)
            assert rep.Y[j - 1][j] == q_number(ctx, j) if j else True
