"""The first family's Galois orbits: the representation at (P, Q) is sigma_P
of the one at (1, Q), sigma_P the automorphism zeta -> zeta^P of
Q(zeta_Q), entry by entry on every generator and on J, and its split
images are those at (1, Q) with the columns permuted k -> kP.  So the
exact verdicts that `reps.orbit_zeros` takes from the (1, Q) member equal
the ones computed directly, and a representation that is no member of an
orbit (a bumped copy) is still certified on its own."""

from math import gcd
from time import perf_counter

import numpy as np
import pytest

from qsl2r import reps
from qsl2r.reps import Representation, build_family1, verify_relations
from qsl2r.scalar import RootContext, pack, split_images
from qsl2r.spectral import verify_identity

LETTERS = ("X", "Y", "Z", "z", "J")


def _coprime(Q):
    return [P for P in range(1, Q) if gcd(P, Q) == 1]


def _plain(M):
    """An exact matrix as {(i, j): (coefficients, denominator)}."""
    return {k: (a.coeffs, a.den) for k, a in M.items()}


@pytest.mark.parametrize("Q", [3, 5, 7, 9, 15, 21, 31])
def test_the_rep_at_p_is_sigma_p_of_the_rep_at_1(Q):
    for r in range(Q):
        for sign in (1, -1):
            base = build_family1(RootContext(1, Q), r, sign)
            for P in _coprime(Q):
                rep = build_family1(RootContext(P, Q), r, sign)
                for letter in LETTERS:
                    want = {k: a._galois(P) for k, a in base.matrix(letter).items()}
                    assert _plain(rep.matrix(letter)) == _plain(want), (P, Q, r, sign, letter)


@pytest.mark.parametrize("P,Q", [(2, 9), (4, 7), (7, 15), (3, 31)])
def test_split_images_at_p_permute_the_columns_at_1(P, Q):
    m, units = 2, _coprime(Q)
    # column t phi(Q) + u holds the image at omega_t^units[u]
    perm = [t * len(units) + units.index(k * P % Q) for t in range(m) for k in units]
    for sign in (1, -1):
        base, rep = (build_family1(RootContext(p, Q), Q - 1, sign) for p in (1, P))
        for letter in LETTERS:
            keys = sorted(base.matrix(letter))
            assert sorted(rep.matrix(letter)) == keys
            got, want = (split_images(pack([x.matrix(letter)[k] for k in keys], x.ctx),
                                      x.ctx, m, False) for x in (rep, base))
            assert np.array_equal(got, want[:, perm]), (letter, sign)


def _reports(rep):
    return ([verify_relations(rep, which) for which in ("defining", "zj")]
            + [verify_identity(rep, x) for x in range(-2, 3)])


@pytest.mark.parametrize("Q", [3, 5, 7, 9, 11, 13, 15])
def test_a_transferred_verdict_equals_the_direct_one(Q, monkeypatch):
    for r in range(Q):
        for sign in (1, -1):
            monkeypatch.setattr(reps, "_orbit_verdicts", {})
            direct = {P: _reports(build_family1(RootContext(P, Q), r, sign))
                      for P in reversed(_coprime(Q))}     # P = 1 last: nothing to take
            monkeypatch.setattr(reps, "_orbit_verdicts", {})
            taken = {P: _reports(build_family1(RootContext(P, Q), r, sign))
                     for P in _coprime(Q)}
            assert taken == direct, (Q, r, sign)
            assert all(report.ok for reports in taken.values() for report in reports)


def _bumped(rep):
    """rep with X[1, 0] + 1 and the same family and params, built by the
    constructor, which records no orbit."""
    X = dict(rep.X)
    X[1, 0] = X[1, 0] + 1
    return Representation(rep.ctx, rep.dim, rep.family, dict(rep.params), "exact",
                          X, rep.Y, rep.Z, rep.Zinv)


@pytest.mark.parametrize("P,Q,r", [(2, 5, 3), (4, 9, 6), (2, 15, 14)])
def test_a_bumped_rep_fails_after_its_sibling_is_certified(P, Q, r, monkeypatch):
    monkeypatch.setattr(reps, "_orbit_verdicts", {})
    good = build_family1(RootContext(P, Q), r, 1)
    before = _reports(_bumped(good))
    assert not before[0].ok and not before[1].ok
    _reports(build_family1(RootContext(1, Q), r, 1))
    assert ("defining", Q, r, 1) in reps._orbit_verdicts
    bad = _bumped(good)
    assert "orbit" not in bad._cache
    assert _reports(bad) == before


def sweep_all_p(Q):
    """Every first-family rep at every coprime P of Q, P = 1 first, through
    the defining and J-Z relations and the identity at x = 0, each asserted
    an exact pass with residual 0, with `reps._run_tape` counted per P.
    Returns ({P: tape runs}, seconds taken)."""
    runs, at, run_tape = {}, [None], reps._run_tape

    def counted(*args):
        runs[at[0]] = runs.get(at[0], 0) + 1
        return run_tape(*args)

    reps._run_tape = counted
    start = perf_counter()
    try:
        for P in _coprime(Q):
            at[0], ctx = P, RootContext(P, Q)
            for r in range(Q):
                for sign in (1, -1):
                    rep = build_family1(ctx, r, sign)
                    for which in ("defining", "zj"):
                        report = verify_relations(rep, which)
                        assert report.ok and report.max_residual == 0.0, (P, r, sign, which)
                    identity = verify_identity(rep, 0)
                    assert identity.exact and identity.residual == 0.0, (P, r, sign)
    finally:
        reps._run_tape = run_tape
    return runs, perf_counter() - start


def test_a_sweep_over_every_p_runs_the_tape_only_at_p_1():
    runs, _ = sweep_all_p(31)
    assert list(runs) == [1] and runs[1] > 0
