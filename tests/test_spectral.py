import random
import warnings
from itertools import product
from math import gcd
from types import SimpleNamespace

import numpy as np
import pytest

from qsl2r.scalar import RootContext, q_number, q_power, to_complex
from qsl2r.reps import Representation, build_family1, build_family2
from qsl2r import reps, spectral
from qsl2r.spectral import (ChainError, EigenPair, EigenSolveError, LadderChain,
                            eigen_solve, ladder_apply,
                            spectrum_chain, tridiagonality_check,
                            unitarize_search, verify_identity)

C3 = RootContext(1, 3)
C5 = RootContext(1, 5)


# -- eigen machinery -----------------------------------------------------------

def test_eigen_solve_examples():
    pairs = eigen_solve(np.eye(2, dtype=complex))
    assert [p.value for p in pairs] == [(1 + 0j), (1 + 0j)]
    pairs = eigen_solve(np.array([[0, -1], [-1, 0]], dtype=complex))
    assert np.allclose(sorted(p.value.real for p in pairs), [-1, 1], atol=1e-10)
    q = C3.q_complex
    pairs = eigen_solve(np.diag([q, 1 / q]))
    got = sorted((p.value for p in pairs), key=lambda z: z.imag)
    assert abs(got[0] - 1 / q) < 1e-10 and abs(got[1] - q) < 1e-10


def test_eigen_solve_defective_raises():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(EigenSolveError, match="independent eigenvectors"):
            eigen_solve(np.array([[0, 1], [0, 0]], dtype=complex))


def test_eigen_trace_det_reconstruction():
    rng = np.random.default_rng(17)
    for n in (2, 3, 5, 8):
        M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        pairs = eigen_solve(M)
        s = sum(p.value for p in pairs)
        p = np.prod([p.value for p in pairs])
        tr, det = np.trace(M), np.linalg.det(M)
        assert abs(s - tr) <= 1e-9 * max(1, abs(tr))
        assert abs(p - det) <= 1e-8 * max(1, abs(det))
        assert all(pr.condition < 1e-8 for pr in pairs)


def test_eigen_solve_repeated_eigenvalue_gets_independent_vectors():
    S = np.array([[1, 2, 0], [0, 1, 3], [1, 0, 1]], dtype=complex)
    M = S @ np.diag([1.0, 1.0, 2.0]) @ np.linalg.inv(S)
    pairs = eigen_solve(M)
    assert np.allclose([p.value for p in pairs], [1, 1, 2], atol=1e-10)
    V = np.column_stack([p.vector for p in pairs[:2]])
    assert np.linalg.matrix_rank(V, tol=1e-8) == 2
    assert all(p.condition < 1e-10 for p in pairs)


def _eigen_solve_svd(M):
    """Reference: eigvals, clustered within EIGEN_TOL, and the null right
    singular vectors of M - lambda I per cluster."""
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    roots = sorted(np.linalg.eigvals(M), key=lambda z: (z.real, z.imag))
    scale = max(1.0, max(abs(r) for r in roots))
    clusters = []
    for r in roots:
        if clusters and abs(r - clusters[-1][-1]) <= spectral.EIGEN_TOL * scale:
            clusters[-1].append(r)
        else:
            clusters.append([r])
    pairs = []
    for cluster in clusters:
        lam = sum(cluster) / len(cluster)
        _, sv, vh = np.linalg.svd(M - lam * np.eye(n, dtype=complex))
        if np.count_nonzero(sv <= spectral.RANK_TOL * sv[0]) < len(cluster):
            raise EigenSolveError("independent eigenvectors")
        for v in vh[n - len(cluster):].conj():
            pairs.append(EigenPair(complex(lam), v, float(np.linalg.norm(M @ v - lam * v))))
    return pairs


def _off_diagonal_max(M):
    return float(np.max(np.abs(M - np.diag(np.diag(M)))))


def test_eigen_solve_well_conditioned_takes_eig_vectors(monkeypatch):
    # kappa about 1.3e3: one eig call, no SVD
    J = build_family1(RootContext(1, 25), 24, 1).embedded("J")
    ref = _eigen_solve_svd(J)

    def no_svd(*args, **kwargs):
        raise AssertionError("SVD on a well-conditioned matrix")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    pairs = eigen_solve(J)
    assert len(pairs) == len(ref) == 25
    for p, r in zip(pairs, ref):
        assert abs(p.value - r.value) <= 1e-12
        phase = np.vdot(p.vector, r.vector)
        assert abs(abs(phase) - 1) <= 1e-9
        assert np.max(np.abs(phase * p.vector - r.vector)) <= 1e-9
        bound = spectral.RANK_TOL * _off_diagonal_max(J)
        assert p.condition <= bound
        assert np.linalg.norm(J @ p.vector - p.value * p.vector) <= bound


@pytest.mark.parametrize("M", [
    # kappa about 1.9e6 at (P, Q, r) = (8, 31, 20)
    build_family1(RootContext(8, 31), 20, 1).embedded("J"),
    # a cluster
    np.diag([1.0, 1.0, 2.0]).astype(complex),
    # kappa about 1e200: inv(V) holds entries whose squares overflow
    np.array([[0, 1e200], [0, 1]], dtype=complex),
    # simple and kappa about 1, but residuals above RANK_TOL times the tiny
    # off-diagonal entries
    np.diag([1e3, 2e3, 3e3, 4e3]) + 1e-8 * np.random.default_rng(3).normal(size=(4, 4)),
])
def test_eigen_solve_falls_back_bit_identically(M):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        pairs = eigen_solve(M)
    ref = _eigen_solve_svd(M)
    assert len(pairs) == len(ref)
    for p, r in zip(pairs, ref):
        assert p.value == r.value and p.condition == r.condition
        assert np.array_equal(p.vector, r.vector)


# -- identity at matrix level ----------------------------------------------------

def test_identity_dimension_one_any_x():
    rep = build_family1(C3, 0, 1)
    for x in (0, 3, -7, 1.5 + 0.25j):
        assert verify_identity(rep, x).ok


def test_identity_exact_grid_sample():
    rep = build_family1(RootContext(1, 5), 3, 1)
    report = verify_identity(rep, 7)
    assert report.exact and report.ok and report.residual == 0.0


def _count_evaluate(monkeypatch):
    calls = []
    real = spectral.evaluate

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)
    monkeypatch.setattr(spectral, "evaluate", counted)
    return calls


@pytest.mark.parametrize("P,Q,r", [(2, 7, 1), (1, 5, 2), (2, 7, 4), (3, 11, 10)])
def test_exact_identity_at_split_dimensions_evaluates_nothing(monkeypatch, P, Q, r):
    rep = build_family1(RootContext(P, Q), r, -1)
    assert rep.dim >= reps.SPLIT_MIN_DIM
    calls = _count_evaluate(monkeypatch)
    for x in range(-10, 11):
        report = verify_identity(rep, x)
        assert report.exact and report.ok and report.residual == 0.0, x
    assert calls == []


@pytest.mark.parametrize("r", [0])
def test_exact_identity_below_split_dimensions_evaluates_once_per_rep(monkeypatch, r):
    assert r + 1 < reps.SPLIT_MIN_DIM
    calls = _count_evaluate(monkeypatch)
    for sign in (1, -1):
        rep = build_family1(RootContext(2, 7), r, sign)
        for x in range(-10, 11):
            report = verify_identity(rep, x)
            assert report.exact and report.ok and report.residual == 0.0, x
    assert len(calls) == 2 and calls[0] is not calls[1]


@pytest.mark.parametrize("P,Q", [(1, 3), (2, 5), (3, 7)])
def test_identity_family2_random_complex(P, Q):
    ctx = RootContext(P, Q)
    rng = random.Random(P * 31 + Q)
    rep = build_family2(ctx, complex(1.5, -0.5), 1.0, 2.0)
    for _ in range(100):
        x = complex(rng.uniform(-5, 5), rng.uniform(-1, 1))
        report = verify_identity(rep, x, tol=1e-9)
        assert report.ok, (x, report.residual)


def test_numpy_integer_x_takes_the_exact_path():
    ctx = RootContext(1, 5)
    rep = build_family1(ctx, 3, 1)
    for x in (2, np.int64(2), np.float64(2.0)):
        report = verify_identity(rep, x)
        assert report.exact and report.ok and report.residual == 0.0, type(x)
        assert report.x == 2
        assert q_power(ctx, x) == ctx.zeta(2), type(x)
        assert q_number(ctx, x) == q_number(ctx, 2), type(x)
    # a bool is not a spectral parameter
    assert isinstance(q_power(ctx, True), complex)
    assert isinstance(q_number(ctx, True), complex)


# the criterion-3 grid of floating second-family representations
FAMILY2_GRID = [(1, 3), (2, 5), (3, 7)]


def _family2_samples(P, Q, reps_count=4, x_count=25):
    ctx = RootContext(P, Q)
    rng = random.Random(77 * P + Q)
    for _ in range(reps_count):
        lam = complex(rng.uniform(0.4, 2.0) * (-1) ** rng.randint(0, 1),
                      rng.uniform(-1.5, 1.5))
        a = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        b = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        rep = build_family2(ctx, lam, a, b)
        yield rep, [complex(rng.uniform(-5, 5), rng.uniform(-1, 1)) for _ in range(x_count)]


def _bumped_x(rep, eps=1e-3):
    """A copy of a floating rep with X[0][1] moved by eps, unvalidated."""
    X = np.array(rep.X, dtype=complex)
    X[0, 1] += eps
    return Representation(rep.ctx, rep.dim, rep.family, dict(rep.params),
                          rep.backend, X, rep.Y, rep.Z, rep.Zinv)


def _reference_identity(rep, x):
    """max|LHS - RHS| and max(1, |LHS|, |RHS|) of the cubic identity, with
    J = (q X - q^-1 Y) Z^-1 and [n] = (q^n - q^-n)/(q - q^-1) in numpy."""
    X, Y, Z = (np.array(M, dtype=complex) for M in (rep.X, rep.Y, rep.Z))
    ctx = rep.ctx
    q = np.exp(2j * np.pi * ctx.P / ctx.Q)

    def qn(n):
        qx = np.exp(2j * np.pi * ctx.P * n / ctx.Q)
        return (qx - 1 / qx) / (q - 1 / q)

    J = (q * X - Y / q) @ np.linalg.inv(Z)
    eye = np.eye(rep.dim)
    Jx = J - qn(x) * eye
    lhs = Z @ (J - qn(x + 2) * eye) @ Jx @ (J - qn(x - 2) * eye) @ Z
    rhs = (Jx @ Z @ Jx @ Z - qn(2) ** 2 * eye) @ Jx
    return (float(np.max(np.abs(lhs - rhs))),
            max(1.0, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs)))))


@pytest.mark.parametrize("P,Q", FAMILY2_GRID)
def test_floating_identity_matches_a_numpy_reference(P, Q):
    tol = 1e-9
    verdicts = set()
    for good, xs in _family2_samples(P, Q):
        for rep in (good, _bumped_x(good)):
            for x in xs:
                report = verify_identity(rep, x, tol=tol)
                residual, scale = _reference_identity(rep, x)
                assert not report.exact
                assert abs(report.residual - residual) <= 1e-12 * scale, x
                assert report.ok == (residual <= tol * scale + 1e-12), x
                verdicts.add(report.ok)
                if rep is not good:
                    # the verdict flips where the reference scale says it does
                    edge = (residual - 1e-12) / scale
                    assert verify_identity(rep, x, tol=edge * (1 + 1e-6)).ok, x
                    assert not verify_identity(rep, x, tol=edge * (1 - 1e-6)).ok, x
    assert verdicts == {True, False}


@pytest.mark.parametrize("P,Q", FAMILY2_GRID)
def test_floating_identity_fails_on_a_bumped_x_entry(P, Q):
    for good, xs in _family2_samples(P, Q, reps_count=2):
        bad = _bumped_x(good)
        for x in xs:
            assert verify_identity(good, x, tol=1e-9).ok, x
            report = verify_identity(bad, x, tol=1e-9)
            assert not report.exact and not report.ok and report.residual > 1e-6, x


def test_exact_rep_at_complex_x_takes_the_floating_path():
    rep = build_family1(RootContext(2, 7), 4, -1)
    report = verify_identity(rep, 1.5 + 0.25j)
    assert not report.exact and report.ok and report.residual < 1e-12
    assert report.x == 1.5 + 0.25j


@pytest.mark.parametrize("exact", [False, True])
def test_floating_identity_evaluates_once_per_rep(monkeypatch, exact):
    calls = _count_evaluate(monkeypatch)
    rng = random.Random(5)
    reps_ = ([build_family1(RootContext(2, 7), r, 1) for r in (1, 4)] if exact else
             [rep for rep, _ in _family2_samples(2, 5, reps_count=2, x_count=0)])
    for rep in reps_:
        for _ in range(100):
            x = complex(rng.uniform(-5, 5), rng.uniform(-1, 1))
            report = verify_identity(rep, x, tol=1e-9)
            assert not report.exact and report.ok, x
    assert len(calls) == 2 and calls[0] is reps_[0] and calls[1] is reps_[1]


# -- ladder ---------------------------------------------------------------------

def test_ladder_worked_example():
    rep = build_family1(C3, 1, 1)
    v = np.array([1.0, 1.0])
    w = ladder_apply(rep, v, 2, "raise")
    delta = C3.q_complex - 1 / C3.q_complex
    assert np.allclose(w, delta * np.array([1, -1]), atol=1e-12)
    J = rep.embedded("J")
    # image is an eigenvector with eigenvalue [4] = 1
    assert np.linalg.norm(J @ w - w) < 1e-12
    assert np.linalg.norm(ladder_apply(rep, v, 2, "lower")) < 1e-12


def test_ladder_trivial_rep():
    rep = build_family1(C3, 0, 1)
    v = np.array([1.0])
    for direction in ("raise", "lower"):
        assert np.linalg.norm(ladder_apply(rep, v, 0, direction)) == 0.0


def test_ladder_rejects_non_eigenvector():
    rep = build_family1(C3, 1, 1)
    with pytest.raises(ValueError, match="eigenvector"):
        ladder_apply(rep, np.array([1.0, 0.0]), 2, "raise")
    with pytest.raises(ValueError, match="direction"):
        ladder_apply(rep, np.array([1.0, 1.0]), 2, "up")


@pytest.mark.parametrize("P,Q", [(1, 3), (2, 5), (1, 7)])
def test_ladder_images_on_every_eigenpair(P, Q):
    """Raising/lowering images vanish or are eigenvectors at [x +- 2]."""
    ctx = RootContext(P, Q)
    for r in (0, Q - 2, Q - 1):
        rep = build_family1(ctx, r, 1)
        J = rep.embedded("J")
        chain = spectrum_chain(rep)
        for pair, x in zip(chain.pairs, chain.x_labels):
            for direction, shift in (("raise", 2), ("lower", -2)):
                w = ladder_apply(rep, pair.vector, x, direction)
                if np.linalg.norm(w) < 1e-8:
                    continue
                w = w / np.linalg.norm(w)
                mu = to_complex(q_number(ctx, x + shift))
                assert np.linalg.norm(J @ w - mu * w) < 1e-8


# -- chains -----------------------------------------------------------------------

def test_chain_q3_r1():
    chain = spectrum_chain(build_family1(C3, 1, 1))
    assert chain.x_labels == [2, 4]
    assert np.allclose(chain.values, [-1, 1], atol=1e-10)
    assert chain.links == [("raised", pytest.approx(np.sqrt(3), abs=1e-9)), ("vanished", 0.0)]


def test_chain_q5_r4():
    chain = spectrum_chain(build_family1(C5, 4, 1))
    assert chain.x_labels == [1, 3, 5, 7, 9]
    predicted = [to_complex(q_number(C5, x)) for x in chain.x_labels]
    assert np.allclose(chain.values, predicted, atol=1e-8)
    assert len(set(np.round(np.real(chain.values), 6))) == 5
    assert chain.links[-1] == ("vanished", 0.0)


def test_chain_trivial():
    chain = spectrum_chain(build_family1(C3, 0, 1))
    assert len(chain.pairs) == 1
    assert abs(chain.pairs[0].value) < 1e-12
    assert chain.links == [("vanished", 0.0)]


def test_chain_family2_cyclic():
    chain = spectrum_chain(build_family2(C5, 1.2, 0.3, 0.7))
    assert chain.cyclic
    assert len(chain.pairs) == 5
    assert all(kind == "raised" for kind, _ in chain.links)
    # labels step by 2 and reproduce the eigenvalues
    q = C5.q_complex
    delta = q - 1 / q
    for x, pair in zip(chain.x_labels, chain.pairs):
        y = np.exp(2j * np.pi * C5.P * x / C5.Q)
        assert abs((y - 1 / y) / delta - pair.value) < 1e-8


def test_chain_json_schema():
    chain = spectrum_chain(build_family1(C5, 4, -1))
    data = chain.to_json()
    assert set(data) == {"eigenvalues", "xLabels", "links", "cyclic"}
    assert data["links"].count("raised") == 4
    assert data["links"][-1] == "vanished"
    assert all(len(v) == 2 for v in data["eigenvalues"])


# -- tridiagonality ----------------------------------------------------------------

GRID_PQ = [(P, Q) for Q in (3, 5, 7, 9) for P in range(1, Q) if gcd(P, Q) == 1]


@pytest.mark.parametrize("P,Q", GRID_PQ)
def test_tridiagonality_family1_grid(P, Q):
    ctx = RootContext(P, Q)
    for r in range(Q):
        for sign in (1, -1):
            report = tridiagonality_check(build_family1(ctx, r, sign))
            assert report.mode == "plain"
            assert report.ok, (r, sign, report.band_residual)


def test_tridiagonality_family2_cyclic():
    report = tridiagonality_check(build_family2(C5, 1.2, 0.3, 0.7))
    assert report.mode == "cyclic"
    assert report.ok
    # the wrap-around corners are genuinely occupied: plain banding fails
    Zp = report.matrix
    i, j = np.indices(Zp.shape)
    scale = max(1.0, float(np.max(np.abs(Zp))))
    assert np.max(np.abs(Zp[abs(i - j) > 1])) > spectral.EIGEN_TOL * scale


# -- unitarizing structure ------------------------------------------------------------

def test_unitarize_trivial():
    u = unitarize_search(build_family1(C3, 0, 1))
    assert u.ok and u.T == [1] and u.G == [1.0]


def test_unitarize_q3_r1():
    u = unitarize_search(build_family1(C3, 1, 1))
    assert u.ok
    assert sorted(u.T) == [-1, 1]
    assert np.allclose(u.G, [1.0, 1.0])
    assert u.residuals["J_G_selfadjoint"] < 1e-8
    assert u.residuals["TJ=JT"] < 1e-12


@pytest.mark.parametrize("P,Q", [(P, Q) for Q in (3, 5) for P in range(1, Q) if gcd(P, Q) == 1])
def test_unitarize_family1_grid(P, Q):
    ctx = RootContext(P, Q)
    for r in range(Q):
        for sign in (1, -1):
            u = unitarize_search(build_family1(ctx, r, sign))
            assert u.ok, (r, sign, u.residuals)
            assert all(g > 0 for g in u.G) and u.G[0] == 1.0
            assert u.max_residual < 1e-8


def test_unitarize_family2_failure_report():
    u = unitarize_search(build_family2(C3, 2.0, 1.0, 1.0))
    assert not u.ok
    assert u.max_residual > 1e-3
    assert len(u.T) == 3 and len(u.G) == 3


# -- beyond the tested grid: d = 17..21 -------------------------------------------------

FRONTIER = [(1, 19, r) for r in (16, 17, 18)] + [(2, 21, r) for r in (18, 19, 20)]


@pytest.mark.parametrize("P,Q,r", FRONTIER)
@pytest.mark.parametrize("sign", (1, -1))
def test_frontier_spectrum_and_tridiagonality(P, Q, r, sign):
    rep = build_family1(RootContext(P, Q), r, sign)
    d = r + 1
    predicted = [np.sin(2 * np.pi * P * n / Q) / np.sin(2 * np.pi * P / Q)
                 for n in range(Q - d + 1, Q + d, 2)]
    assert np.allclose(spectrum_chain(rep).values, predicted, rtol=0, atol=1e-8)
    assert tridiagonality_check(rep).ok
    if (P, Q, r) == (1, 19, 18):
        assert unitarize_search(rep).ok


# -- the O(d) sign walk against the exhaustive scan ---------------------------------------

def _unitarize_scan(rep, tol=1e-8):
    """Reference: scan all 2^(d-1) sign patterns T (T_0 = 1) in lexicographic
    order, solve G along the chain for each, keep the first that meets tol or
    else the least residual."""
    chain = spectral.spectrum_chain(rep, tol)
    B = np.column_stack([p.vector for p in chain.pairs])
    mats = {name: np.linalg.solve(B, rep.embedded(name) @ B) for name in "XYZJ"}
    d = rep.dim

    def residuals(T, g):
        ratio = np.outer(1 / np.asarray(g, dtype=float), np.asarray(g, dtype=float))
        Tv = np.asarray(T, dtype=float)
        out = {name: float(np.max(np.abs(mats[name].conj().T * ratio
                                          - np.outer(Tv, Tv) * mats[name])))
               for name in ("X", "Y", "Z")}
        Jp = mats["J"]
        out["J_G_selfadjoint"] = float(np.max(np.abs(Jp.conj().T * ratio - Jp)))
        out["TJ=JT"] = float(np.max(np.abs(np.diag(Tv) @ Jp - Jp @ np.diag(Tv))))
        return out

    scale = max(1.0, max(float(np.max(np.abs(M))) for M in mats.values()))
    best = None
    for tail in product((1, -1), repeat=d - 1):
        T = (1,) + tail
        g = [1.0] * d
        for k in range(d - 1):
            ratio = 1.0 + 0j
            for name in ("Z", "X", "Y"):
                num, den = mats[name][k, k + 1], np.conj(mats[name][k + 1, k])
                if abs(num) > 1e-12 and abs(den) > 1e-12:
                    ratio = T[k] * T[k + 1] * num / den
                    break
            if abs(ratio.imag) > tol * max(1.0, abs(ratio)) or ratio.real <= 0:
                break
            g[k + 1] = g[k] * ratio.real
        else:
            res = residuals(T, g)
            ok = max(res.values()) <= tol * scale
            if ok:
                return ok, list(T), [float(x) for x in g]
            if best is None or max(res.values()) < best[0]:
                best = (max(res.values()), list(T), [float(x) for x in g])
    if best is None:
        return False, [1] * d, [1.0] * d
    return False, best[1], best[2]


@pytest.mark.parametrize("P,Q", [(P, Q) for Q in (3, 5, 7) for P in range(1, Q)
                                 if gcd(P, Q) == 1])
def test_unitarize_matches_exhaustive_scan(P, Q):
    ctx = RootContext(P, Q)
    reps = [build_family1(ctx, r, sign) for r in range(Q) for sign in (1, -1)]
    reps.append(build_family2(ctx, complex(1.5, -0.5), 1.0, 2.0))
    for rep in reps:
        u = unitarize_search(rep)
        assert (u.ok, u.T, u.G) == _unitarize_scan(rep), rep


def _synthetic(monkeypatch, Z, X):
    """A stand-in representation whose chain basis is the identity, with J
    diagonal and Y = 0, so the walk sees Z and X as given."""
    d = len(Z)
    J = np.diag(np.arange(d, dtype=complex))
    mats = {"X": np.asarray(X, dtype=complex), "Y": np.zeros((d, d), dtype=complex),
            "Z": np.asarray(Z, dtype=complex), "J": J}
    rep = SimpleNamespace(dim=d, embedded=mats.__getitem__)
    chain = LadderChain(pairs=[EigenPair(complex(k), np.eye(d)[:, k], 0.0)
                               for k in range(d)])
    monkeypatch.setattr(spectral, "spectrum_chain", lambda rep, tol: chain)
    return rep


@pytest.mark.parametrize("x02,x20,ok,T", [
    (1.0, -1.0, True, [1, 1, -1, -1]),   # only the second sign works
    (0.0, 0.0, True, [1, 1, 1, 1]),      # both work: +1 comes first
    (1.0, 0.0, False, [1, 1, 1, 1]),     # neither: first of the tied residuals
])
def test_unitarize_branches_only_at_unlinked_steps(monkeypatch, x02, x20, ok, T):
    # Z links steps 0 and 2 (ratios 1 and 4); nothing links step 1
    Z = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -2], [0, 0, -0.5, 0]]
    X = np.zeros((4, 4))
    X[0, 2], X[2, 0] = x02, x20
    rep = _synthetic(monkeypatch, Z, X)
    u = unitarize_search(rep)
    assert (u.ok, u.T, u.G) == _unitarize_scan(rep)
    assert u.G == [1.0, 1.0, 1.0, 4.0]
    assert (u.ok, u.T) == (ok, T)


# -- one chain per (representation, tol) ------------------------------------------------

def test_spectrum_chain_is_cached_per_tol():
    rep = build_family1(RootContext(2, 7), 5, -1)
    chain = spectrum_chain(rep)
    assert spectrum_chain(rep) is chain
    assert spectrum_chain(rep, 1e-8) is chain
    other = spectrum_chain(rep, 1e-7)
    assert other is not chain and spectrum_chain(rep, 1e-7) is other
    assert other.values == chain.values


def test_tridiagonality_and_unitarize_reuse_the_chain(monkeypatch):
    rep = build_family1(RootContext(1, 5), 4, 1)
    chain = spectrum_chain(rep)

    def rebuild(rep, tol):
        raise AssertionError("the chain was computed again")

    monkeypatch.setattr(spectral, "_build_chain", rebuild)
    B = np.column_stack([p.vector for p in chain.pairs])
    tri = tridiagonality_check(rep)
    assert tri.ok
    assert np.array_equal(tri.matrix, np.linalg.solve(B, rep.embedded("Z") @ B))
    uni = unitarize_search(rep)
    assert uni.ok and np.array_equal(uni.basis, B)
    with pytest.raises(AssertionError):
        spectrum_chain(rep, 1e-7)


def test_chain_errors_are_not_cached(monkeypatch):
    # Z = 1 makes every ladder image vanish, so no first-family bottom links
    d = 2
    rep = SimpleNamespace(dim=d, family=1, ctx=C5, _cache={},
                          embedded={"Z": np.eye(d, dtype=complex),
                                    "J": np.diag([0.0, 1.0]).astype(complex)}.__getitem__)
    solves = []

    def counting_solve(M):
        solves.append(M)
        return eigen_solve(M)

    monkeypatch.setattr(spectral, "eigen_solve", counting_solve)
    for n in (1, 2, 3):
        with pytest.raises(ChainError, match="no chain bottom"):
            spectrum_chain(rep)
        assert len(solves) == n
    assert rep._cache == {}


# -- eig guard, band mask and chain start ---------------------------------------------

@pytest.mark.parametrize("sign", (1, -1))
def test_unitarize_ill_conditioned_j_keeps_svd_verdict(sign):
    # kappa(J) is about 1.9e6 here; LAPACK's own eigenvectors fail the search
    u = unitarize_search(build_family1(RootContext(8, 31), 20, sign))
    assert u.ok
    assert u.T == [(-1) ** k for k in range(21)]


@pytest.mark.parametrize("family", (1, 2))
@pytest.mark.parametrize("d", range(1, 9))
def test_band_residual_matches_double_loop(monkeypatch, family, d):
    mode = "plain" if family == 1 else "cyclic"
    rng = np.random.default_rng(100 * d + len(mode))
    Z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rep = SimpleNamespace(dim=d, family=family, embedded={"Z": Z}.__getitem__)
    chain = LadderChain(pairs=[EigenPair(complex(k), np.eye(d)[:, k], 0.0)
                               for k in range(d)])
    monkeypatch.setattr(spectral, "spectrum_chain", lambda rep, tol: chain)
    tri = tridiagonality_check(rep)
    assert tri.mode == mode
    Zp = tri.matrix
    band = 0.0
    for i in range(d):
        for j in range(d):
            dist = abs(i - j) if mode == "plain" else min(abs(i - j), d - abs(i - j))
            if dist > 1:
                band = max(band, float(abs(Zp[i, j])))
    assert tri.band_residual == band
    assert (d > 3 or mode == "plain" and d > 2) == (band > 0)


def test_chain_start_checks_the_label_before_any_image(monkeypatch):
    ctx = RootContext(2, 21)
    rep = build_family1(ctx, 20, 1)
    d, q = rep.dim, ctx.q_complex
    Jc, Zc = rep.embedded("J"), rep.embedded("Z")
    calls = []

    def counting(*args):
        calls.append(args)
        return apply_ladder(*args)

    apply_ladder = spectral._apply_ladder
    monkeypatch.setattr(spectral, "_apply_ladder", counting)
    chain = spectrum_chain(rep)
    assert len(calls) <= d + 2

    # reference: every bottom over all pairs and branches, then the first at
    # the expected start y = q^(Q - d + 1)
    def image(v, y, direction):
        other = spectral._mu_of(y / q ** 2 if direction == "raise" else y * q ** 2, q)
        return apply_ladder(Jc, Zc, spectral._mu_of(y, q), other, v)

    def vanishes(w, v):
        return np.linalg.norm(w) < 1e-8 * max(1.0, np.linalg.norm(v))

    pairs = eigen_solve(Jc)
    bottoms = [(p, y) for p in pairs for y in spectral._y_branches(p.value, q)
               if vanishes(image(p.vector, y, "lower"), p.vector)
               and not vanishes(image(p.vector, y, "raise"), p.vector)]
    y_expected = q ** (ctx.Q - d + 1)
    start, y = next((p, y) for p, y in bottoms if abs(y - y_expected) <= 1e-8 * max(1, abs(y)))
    assert len(bottoms) > 1
    assert chain.pairs[0].value == start.value
    assert np.array_equal(chain.pairs[0].vector, start.vector)
    ref = [start]
    for _ in range(d - 1):
        w = image(ref[-1].vector, y, "raise")
        y = y * q ** 2
        ref.append(max(pairs, key=lambda p: abs(np.vdot(p.vector, w))))
    assert [p.value for p in chain.pairs] == [p.value for p in ref]
    assert chain.x_labels == list(range(ctx.Q - d + 1, ctx.Q + d, 2))
    assert [kind for kind, _ in chain.links] == ["raised"] * (d - 1) + ["vanished"]


# -- what the chain and the band check embed -----------------------------------------

def test_chain_and_band_check_embed_only_z_and_j(monkeypatch):
    rep = build_family1(RootContext(3, 31), 28, -1)
    embedded = []
    monkeypatch.setattr(reps, "to_complex", lambda a: embedded.append(a) or complex(a))
    spectrum_chain(rep)
    tridiagonality_check(rep)
    J = reps.j_matrix(rep)
    entries = [a for M in (rep.Z, J) for _, _, a in reps.ex_entries(M)]
    assert sorted(map(id, embedded)) == sorted(map(id, entries))
    # entry by entry through CycloNum.__complex__, bit for bit
    for A, M in ((rep.Z, rep.embedded("Z")), (J, rep.embedded("J"))):
        assert np.array([[complex(a) for a in row] for row in A]).tobytes() == M.tobytes()
    # another generator is embedded when first read, and kept
    X = rep.embedded("X")
    assert embedded[len(entries):] == [a for _, _, a in reps.ex_entries(rep.X)]
    assert rep.embedded("X") is X
    assert len(embedded) == len(entries) + len(reps.ex_entries(rep.X))


@pytest.mark.parametrize("Q", (3, 9, 15, 21, 31))
def test_band_residual_is_the_abs_fold_bit_for_bit(Q):
    for P in (1, 2):
        ctx = RootContext(P, Q)
        for r in range(Q):
            for sign in (1, -1):
                tri = tridiagonality_check(build_family1(ctx, r, sign))
                i, j = np.indices(tri.matrix.shape)
                fold = max([0.0] + [float(abs(z)) for z in tri.matrix[abs(i - j) > 1]])
                assert tri.band_residual == fold, (P, Q, r, sign)
