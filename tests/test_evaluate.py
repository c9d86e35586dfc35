"""The evaluator from ncpoly to matrices, the all-x identity certificate and
negative checks: corrupted representations must fail."""

from math import gcd

import numpy as np
import pytest

from qsl2r.ncpoly import (NcPoly, QRat, delta_j, identity_coefficients, j_expansion,
                          parse_expr, relation_differences, tensor)
from qsl2r.reps import (Representation, build_family1, build_family2,
                        certified_zeros, evaluate, ex_eye, ex_mul, ex_sub,
                        ex_to_complex, j_matrix, verify_relations)
from qsl2r.scalar import RootContext, q_number, to_complex
from qsl2r.spectral import verify_identity

GRID_PQ = [(P, Q) for Q in (3, 5, 7, 9) for P in range(1, Q) if gcd(P, Q) == 1]


def _with(rep, **mats):
    """A copy of rep with some generator matrices replaced, unvalidated."""
    m = {"X": rep.X, "Y": rep.Y, "Z": rep.Z, "Zinv": rep.Zinv, **mats}
    return Representation(rep.ctx, rep.dim, rep.family, dict(rep.params),
                          rep.backend, m["X"], m["Y"], m["Z"], m["Zinv"])


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


def _inverse():
    """Z Zi - 1 and Zi Z - 1, the first two defining relations."""
    return list(relation_differences("defining").values())[:2]


def _inverse_reference(rep, left, right):
    """(residual, detail) of the failing check left right = 1, from the
    product: the first nonzero entry of the exact difference, or the
    largest of the floating one."""
    if rep.backend == "exact":
        D = ex_to_complex(ex_sub(ex_mul(rep.matrix(left), rep.matrix(right)),
                                 ex_eye(rep.ctx, rep.dim)), rep.dim)
        i, j = np.argwhere(D != 0)[0]
        return (float(np.max(np.abs(D))),
                f"first nonzero entry ({i}, {j}) of LHS - RHS, magnitude {abs(D[i, j]):.6g}")
    D = rep.matrix(left) @ rep.matrix(right) - np.eye(rep.dim)
    r = float(np.max(np.abs(D)))
    i, j = np.unravel_index(np.argmax(np.abs(D)), D.shape)
    return r, f"largest entry ({i}, {j}) of LHS - RHS, magnitude {r:.6g}"


def _fails_like_the_products(rep):
    report = verify_relations(rep, "defining")
    for name, letters in (("Z Zi = 1", "Zz"), ("Zi Z = 1", "zZ")):
        check = _check(report, name)
        assert not check.ok and check.residual > 0.0
        assert (check.residual, check.detail) == _inverse_reference(rep, *letters), name
    return report


# -- the evaluator ----------------------------------------------------------------

def test_evaluate_j_expansion_is_j_matrix():
    rep = build_family1(RootContext(2, 7), 4, -1)
    M, = evaluate([j_expansion()], rep)
    assert ex_sub(M, j_matrix(rep)) == {} and M == j_matrix(rep)
    F, = evaluate([j_expansion()], rep, exact=False)
    assert float(np.max(np.abs(F - rep.embedded("J")))) < 1e-12


def test_evaluate_scalars_words_and_floating_backend():
    ctx = RootContext(1, 5)
    rep = build_family2(ctx, 1.5 - 0.5j, 1.0, 2.0)
    two, qnum, word = evaluate([parse_expr("2"), parse_expr("(q^2 - q^-2)/(q - q^-1)"),
                                parse_expr("J*Z - Z*J")], rep)
    eye = np.eye(ctx.Q)
    assert np.array_equal(two, 2 * eye)
    assert float(np.max(np.abs(qnum - to_complex(q_number(ctx, 2)) * eye))) < 1e-12
    J, Z = rep.embedded("J"), rep.Z
    assert float(np.max(np.abs(word - (J @ Z - Z @ J)))) < 1e-12


def test_evaluate_rejects_y_and_exact_on_floating_reps():
    rep = build_family1(RootContext(1, 3), 1, 1)
    with pytest.raises(ValueError, match="y-free"):
        evaluate([parse_expr("y*Z")], rep)
    with pytest.raises(ValueError, match="no exact evaluation"):
        evaluate([parse_expr("Z")], build_family2(RootContext(1, 3), 1.0, 0.0, 0.0), exact=True)


def test_evaluate_takes_tensor_polys_on_pairs_of_reps():
    ctx = RootContext(1, 5)
    a, b = build_family1(ctx, 2, 1), build_family2(ctx, 1.5 - 0.5j, 1.0, 2.0)
    M, = evaluate([delta_j()], (a, b))
    want = np.kron(a.embedded("z"), b.embedded("J")) + np.kron(a.embedded("J"), np.eye(b.dim))
    assert M.shape == (15, 15) and float(np.max(np.abs(M - want))) < 1e-12
    E, = evaluate([delta_j()], (a, a))       # both factors exact: exact
    F, = evaluate([delta_j()], (a, a), exact=False)
    assert max(max(ij) for ij in E) == 8
    assert float(np.max(np.abs(ex_to_complex(E, 9) - F))) < 1e-12
    for polys, reps_ in (([delta_j()], a), ([parse_expr("X")], (a, b))):
        with pytest.raises(ValueError, match="^NcPolys take one representation and "
                                             "TensorPolys a pair$"):
            evaluate(polys, reps_)
    with pytest.raises(ValueError, match="y-free"):
        evaluate([tensor(parse_expr("y*Z"), parse_expr("X"))], (a, b))
    with pytest.raises(ValueError, match="no exact evaluation"):
        evaluate([delta_j()], (a, b), exact=True)


@pytest.mark.parametrize("r", [0, 6])
def test_certified_zeros_refuses_y_like_evaluate(r):
    # below SPLIT_MIN_DIM, where nothing is certified, and on a rep the
    # certificate decides; the y-laden poly is not the first one
    rep = build_family1(RootContext(2, 9), r, 1)
    polys = [parse_expr("Z*Zi - 1"), parse_expr("X + y*Z")]
    for check in (evaluate, certified_zeros):
        with pytest.raises(ValueError,
                           match="^only y-free polynomials can be evaluated onto matrices$"):
            check(polys, rep)
    assert certified_zeros(polys[:1], rep) == [None if r == 0 else True]


def test_certified_zeros_refuses_an_unknown_letter_like_evaluate():
    # d = 5, so the certificate reads the letters rather than deferring
    rep = build_family1(RootContext(1, 7), 4, 1)
    p = NcPoly({("XW", 0): QRat.one()})
    for check in (evaluate, certified_zeros):
        with pytest.raises(ValueError, match="^unknown letter 'W'$"):
            check([p], rep)


# -- the cubic identity for every x ----------------------------------------------

@pytest.mark.parametrize("P,Q", GRID_PQ)
def test_identity_coefficients_vanish_on_family1(P, Q):
    # LHS - RHS = sum_k y^k C_k with y = q^x, so zero C_k certify every x at
    # once; the integer sweep -10..10 reaches only Q distinct values of y
    ctx = RootContext(P, Q)
    polys = list(identity_coefficients().values())
    for r in range(Q):
        for sign in (1, -1):
            mats = evaluate(polys, build_family1(ctx, r, sign))
            assert all(M == {} for M in mats), (r, sign)


def test_identity_coefficients_vanish_on_exact_family2():
    ctx = RootContext(2, 5)
    rep = build_family2(ctx, ctx.zeta(3), 1, 2, backend="exact")
    mats = evaluate(list(identity_coefficients().values()), rep)
    assert len(mats) == 5 and all(M == {} for M in mats)


# -- corrupted representations fail ----------------------------------------------

def test_wrong_inverse_fails_the_z_zi_checks():
    rep = build_family1(RootContext(1, 5), 2, 1)
    assert not _fails_like_the_products(_with(rep, Zinv=rep.Z)).ok
    # one bumped diagonal entry of Z^-1 at d >= 2: the certificate tape finds
    # both products nonzero, and the CycloNum product names the entry
    rep = build_family1(RootContext(2, 9), 6, -1)
    assert certified_zeros(_inverse(), rep) == [True, True]
    Zinv = dict(rep.Zinv)
    Zinv[4, 4] = Zinv[4, 4] + 1
    bad = _with(rep, Zinv=Zinv)
    assert certified_zeros(_inverse(), bad) == [False, False]
    report = _fails_like_the_products(bad)
    for name in ("Z Zi = 1", "Zi Z = 1"):
        check = _check(report, name)
        assert check.detail.startswith("first nonzero entry (4, 4) of LHS - RHS"), check.detail
    assert [c.ok for c in report.checks] == [False, False, True, True, True]
    # below SPLIT_MIN_DIM the products decide
    one = build_family1(RootContext(2, 9), 0, 1)
    assert certified_zeros(_inverse(), one) == [None, None]
    assert verify_relations(one, "defining").ok
    _fails_like_the_products(_with(one, Zinv={(0, 0): one.Zinv[0, 0] + 1}))
    # a floating rep is never certified: the floating products decide
    rep = build_family2(RootContext(1, 5), 1.5 - 0.5j, 1.0, 2.0)
    Zinv = rep.Zinv.copy()
    Zinv[2, 2] += 0.5
    report = _fails_like_the_products(_with(rep, Zinv=Zinv))
    for name in ("Z Zi = 1", "Zi Z = 1"):
        assert _check(report, name).detail.startswith("largest entry (2, 2) of LHS - RHS")
    assert [c.ok for c in report.checks] == [False, False, True, True, True]


def _perturbed_x(ctx):
    rep = build_family1(ctx, 2, 1)
    X = dict(rep.X)
    X[1, 0] = X[1, 0] + 1
    return _with(rep, X=X)


def test_perturbed_x_fails_the_defining_relations():
    report = verify_relations(_perturbed_x(RootContext(1, 5)), "defining")
    assert not report.ok
    bad = _check(report, "q^-1 X Y - q Y X = (Z^2 - 1)/(q - q^-1)")
    assert not bad.ok and bad.residual > 0.0


def test_perturbed_x_fails_the_identity():
    rep = _perturbed_x(RootContext(1, 5))
    report = verify_identity(rep, 1)
    assert report.exact and not report.ok and report.residual != 0.0
