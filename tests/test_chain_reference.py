"""The ladder chain against a step-by-step reference walk: one eigenpair and
three matrix-vector products per step, its candidates scanned in Python.
`spectral._build_chain` forms the raising images of all eigenvectors at
once; both must give the same pair order, x labels, closure and link kinds,
link norms equal to 1e-8 relative, and the same ChainError message where
the walk fails."""

import cmath
import random
from math import gcd

import numpy as np
import pytest

from qsl2r import spectral
from qsl2r.reps import build_family1, build_family2, tensor_rep
from qsl2r.scalar import RootContext, q_number, to_complex
from qsl2r.spectral import (EIGEN_TOL, ChainError, LadderChain, _apply_ladder, _mu_of,
                            _y_branches, eigen_solve)

FRONTIER_QP = ((19, 1), (21, 2), (25, 1), (31, 3))


def _reference_chain(rep, tol):
    Jc, Zc = rep.embedded("J"), rep.embedded("Z")
    q = rep.ctx.q_complex
    d = rep.dim
    pairs = eigen_solve(Jc)
    scale = max(1.0, max(abs(p.value) for p in pairs))

    def image(v, y, direction):
        mu = _mu_of(y, q)
        other = _mu_of(y / q ** 2 if direction == "raise" else y * q ** 2, q)
        return _apply_ladder(Jc, Zc, mu, other, v)

    def vanishes(w, ref):
        return np.linalg.norm(w) < tol * max(1.0, np.linalg.norm(ref))

    y_expected = q ** (rep.ctx.Q - d + 1) if rep.family == 1 else None
    start = next(((idx, y) for idx, p in enumerate(pairs) for y in _y_branches(p.value, q)
                  if (y_expected is None or abs(y - y_expected) <= tol * max(1.0, abs(y)))
                  and vanishes(image(p.vector, y, "lower"), p.vector)
                  and (d == 1 or not vanishes(image(p.vector, y, "raise"), p.vector))),
                 None)
    if rep.family == 1 and start is None:
        raise ChainError(
            f"no chain bottom found at the expected start x = {rep.ctx.Q - d + 1}",
            partial=LadderChain())
    if start is None:
        for idx, p in enumerate(pairs):
            for y in _y_branches(p.value, q):
                w = image(p.vector, y, "raise")
                if vanishes(w, p.vector):
                    continue
                nxt = _mu_of(y * q ** 2, q)
                if min(abs(nxt - o.value) for o in pairs) <= tol * scale:
                    start = (idx, y)
                    break
            if start:
                break
        if start is None:
            raise ChainError("no eigenpair admits a linking branch", partial=LadderChain())

    idx, y = start
    chain = LadderChain(pairs=[pairs[idx]], cyclic=False)
    used = {idx}
    v = pairs[idx].vector
    while True:
        w = image(v, y, "raise")
        nw = float(np.linalg.norm(w))
        if nw < tol * max(1.0, np.linalg.norm(v)):
            chain.links.append(("vanished", 0.0))
            break
        y_next = y * q ** 2
        mu_next = _mu_of(y_next, q)
        w = w / nw
        res = float(np.linalg.norm(Jc @ w - mu_next * w))
        if res > tol * scale:
            raise ChainError(
                f"raising image is not a [x+2]-eigenvector (residual {res:.3g})",
                partial=chain)
        if len(chain.pairs) == d:
            if abs(mu_next - chain.pairs[0].value) <= tol * scale:
                chain.links.append(("raised", nw))
                chain.cyclic = True
                break
            raise ChainError("chain exceeds the dimension without closing", partial=chain)
        candidates = [j for j, p in enumerate(pairs)
                      if j not in used and abs(p.value - mu_next) <= tol * scale]
        if not candidates:
            raise ChainError(
                f"no unused eigenvalue matches the raised value {mu_next:.6g}",
                partial=chain)
        j = max(candidates, key=lambda j: abs(np.vdot(pairs[j].vector, w)))
        used.add(j)
        chain.pairs.append(pairs[j])
        chain.links.append(("raised", nw))
        v, y = pairs[j].vector, y_next

    if len(chain.pairs) != d:
        raise ChainError(f"chain links {len(chain.pairs)} of {d} eigenvalues", partial=chain)
    if rep.family == 1:
        x_expected = rep.ctx.Q - d + 1
        mu_expected = complex(to_complex(q_number(rep.ctx, x_expected)))
        if abs(chain.pairs[0].value - mu_expected) > tol * scale:
            raise ChainError(
                f"first-family chain starts at {chain.pairs[0].value:.6g}, "
                f"expected [{x_expected}] = {mu_expected:.6g}", partial=chain)
        chain.x_labels = [x_expected + 2 * k for k in range(d)]
    else:
        x0 = rep.ctx.Q * cmath.log(start[1]) / (2j * cmath.pi * rep.ctx.P)
        chain.x_labels = [x0 + 2 * k for k in range(d)]
    return chain


def _outcome(build, rep):
    try:
        return build(rep, EIGEN_TOL)
    except ChainError as exc:
        return exc


def _same_pairs(a, b):
    # vectors too: a repeated eigenvalue has several eigenvectors
    return (len(a.pairs) == len(b.pairs)
            and all(p.value == r.value and np.array_equal(p.vector, r.vector)
                    for p, r in zip(a.pairs, b.pairs)))


def _kinds(chain):
    return [kind for kind, _ in chain.links]


def _assert_same_chain(rep) -> bool:
    """The chain of rep agrees with the reference; True where both raise."""
    ref, got = _outcome(_reference_chain, rep), _outcome(spectral._build_chain, rep)
    if isinstance(ref, ChainError):
        assert isinstance(got, ChainError) and str(got) == str(ref), rep
        assert _same_pairs(got.partial, ref.partial), rep
        assert _kinds(got.partial) == _kinds(ref.partial)
        return True
    assert not isinstance(got, ChainError), (rep, got)
    assert _same_pairs(got, ref), rep
    assert got.x_labels == ref.x_labels and got.cyclic == ref.cyclic, rep
    assert _kinds(got) == _kinds(ref), rep
    norms = [[n for _, n in c.links] for c in (got, ref)]
    assert np.allclose(*norms, rtol=1e-8, atol=0), rep
    return False


def _first_family(ctx, signs=(1, -1)):
    return [build_family1(ctx, r, sign) for r in range(ctx.Q) for sign in signs]


@pytest.mark.parametrize("P,Q", [(P, Q) for Q in range(3, 16, 2) for P in range(1, Q)
                                 if gcd(P, Q) == 1])
def test_first_family_chains_match_the_reference(P, Q):
    for rep in _first_family(RootContext(P, Q)):
        assert not _assert_same_chain(rep)


@pytest.mark.parametrize("Q,P", FRONTIER_QP)
def test_frontier_chains_match_the_reference(Q, P):
    for rep in _first_family(RootContext(P, Q)):
        assert not _assert_same_chain(rep)


def _suite_family2_samples(ctx):
    # the draws of `qsl2r suite`: (lambda, a, b), then 20 complex x per sample
    rng = random.Random(10_000 * ctx.P + ctx.Q)
    out = []
    for _ in range(3):
        lam = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        a = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        b = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        out.append(build_family2(ctx, lam, a, b))
        for _ in range(20):
            rng.uniform(-5, 5), rng.uniform(-1, 1)
    return out


@pytest.mark.parametrize("P,Q", [(P, Q) for Q in (3, 5, 7) for P in range(1, Q)
                                 if gcd(P, Q) == 1])
def test_suite_family2_chains_match_the_reference(P, Q):
    for rep in _suite_family2_samples(RootContext(P, Q)):
        assert not _assert_same_chain(rep)
        assert spectral.spectrum_chain(rep).cyclic


@pytest.mark.parametrize("Q", (3, 5, 7))
def test_repeated_eigenvalues_keep_the_largest_overlap(Q):
    # J on a tensor product has repeated eigenvalues, so some labels have
    # several candidates and the walk picks by overlap
    ctx = RootContext(1, Q)
    repeated = 0
    for r1 in range(1, min(Q, 4)):
        for r2 in range(1, min(Q, 4)):
            rep = tensor_rep(build_family1(ctx, r1, 1), build_family1(ctx, r2, -1))
            values = np.array([p.value for p in eigen_solve(rep.embedded("J"))])
            repeated += bool(np.any(np.abs(np.diff(values)) <= EIGEN_TOL))
            _assert_same_chain(rep)
    assert repeated


@pytest.mark.parametrize("P,Q,signs", [(15, 31, (1, -1)), (1, 63, (1,))])
def test_failing_chains_raise_the_reference_message(P, Q, signs):
    failed = [_assert_same_chain(rep) for rep in _first_family(RootContext(P, Q), signs)]
    assert any(failed) and not all(failed)
