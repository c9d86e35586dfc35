"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the scoreboard."""

import json
import random
import subprocess
import sys
from math import gcd

import numpy as np

from qsl2r.ncpoly import (NcPoly, QRat, hopf_symbolic_check,
                          identity_contracts, identity_coefficients,
                          lemma_check, lemma_v, _two_bracket_sq)
from qsl2r.reps import build_family1, build_family2, intersection_check, verify_relations
from qsl2r.scalar import RootContext, q_number, to_complex
from qsl2r.spectral import (ladder_apply, spectrum_chain,
                            tridiagonality_check, unitarize_search,
                            verify_identity)

FAMILY1_GRID = [(P, Q) for Q in (3, 5, 7, 9) for P in range(1, Q) if gcd(P, Q) == 1]
FAMILY2_GRID = [(1, 3), (2, 5), (3, 7)]


def _family1_reps(pq_list):
    for P, Q in pq_list:
        ctx = RootContext(P, Q)
        for r in range(Q):
            for sign in (1, -1):
                yield ctx, build_family1(ctx, r, sign)


def _family2_params(P, Q, count, rng):
    for _ in range(count):
        lam = complex(rng.uniform(0.4, 2.0) * (-1) ** rng.randint(0, 1),
                      rng.uniform(-1.5, 1.5))
        a = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        b = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        yield lam, a, b


def _report(n, name, ok):
    print(f"criterion {n} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} ({name}) failed"


def test_criterion_1_symbolic_proof_replay():
    coeffs = identity_coefficients()
    residuals = identity_contracts(coeffs)
    coeff_ok = all(r.is_zero() for r in residuals.values())

    lemma = lemma_check()
    lemma_ok = lemma.ok and lemma.residual.is_zero() and lemma.consequence_ok

    # single sign flips must be caught
    d = QRat.q_pow(1) - QRat.q_pow(-1)
    delta2 = d * d
    wrong_mid = QRat.q_pow(2) - QRat.q_pow(-2)
    bad_target = (-NcPoly.word("JZZ") + NcPoly.word("ZJZ", wrong_mid)
                  - NcPoly.word("ZZJ"))
    mutation_identity = not (coeffs[2] * delta2 - bad_target).is_zero()

    bad_v = lemma_v() - NcPoly.word("J", _two_bracket_sq()) * 2
    bad = lemma_check(bad_v, consequence_depth=0)
    mutation_lemma = (not bad.ok) and (not bad.residual.is_zero())

    _report(1, "symbolic proof replay",
            coeff_ok and lemma_ok and mutation_identity and mutation_lemma)


def test_criterion_2_pbw_derivations():
    ok = True
    for which in ("zj_relations", "deltaJ", "antipodeJ", "xy_recovery",
                  "counit_axiom"):
        ok &= hopf_symbolic_check(which).ok
    counit = hopf_symbolic_check("counitJ")
    ok &= counit.ok  # asserts eps(J) = 0
    ok &= "eps(J) = 0" in counit.note and "1" in counit.note  # discrepancy logged
    print(f"  counit note: {counit.note}")
    _report(2, "PBW derivations and Hopf data", ok)


def test_criterion_3_matrix_identity():
    ok = True
    for ctx, rep in _family1_reps(FAMILY1_GRID):
        for x in range(-10, 11):
            report = verify_identity(rep, x)
            ok &= report.exact and report.ok and report.residual == 0.0
    for P, Q in FAMILY2_GRID:
        ctx = RootContext(P, Q)
        rng = random.Random(77 * P + Q)
        for lam, a, b in _family2_params(P, Q, 20, rng):
            rep = build_family2(ctx, lam, a, b)
            for _ in range(100):
                x = complex(rng.uniform(-5, 5), rng.uniform(-1, 1))
                report = verify_identity(rep, x, tol=1e-9)
                ok &= report.ok
    _report(3, "matrix identity", ok)


def test_criterion_4_spectrum_claim():
    ok = True
    for ctx, rep in _family1_reps(FAMILY1_GRID):
        d = rep.dim
        pairs = spectrum_chain(rep).pairs
        values = [p.value for p in pairs]
        predicted = [to_complex(q_number(ctx, ctx.Q - d + 1 + 2 * k)) for k in range(d)]
        # sorted multiset match at 1e-8
        got = sorted(values, key=lambda z: (z.real, z.imag))
        want = sorted(predicted, key=lambda z: (z.real, z.imag))
        ok &= all(abs(g - w) <= 1e-8 for g, w in zip(got, want))
        # distinct and real
        ok &= all(abs(v.imag) <= 1e-8 for v in values)
        ok &= all(abs(want[i] - want[i + 1]) > 1e-8 for i in range(d - 1))
    # concrete instance
    ctx = RootContext(1, 3)
    rep = build_family1(ctx, 1, 1)
    J = rep.embedded("J")
    ok &= np.allclose(J, [[0, -1], [-1, 0]], atol=1e-12)
    spec = sorted(p.value.real for p in spectrum_chain(rep).pairs)
    ok &= np.allclose(spec, [-1, 1], atol=1e-10)
    ok &= abs(to_complex(q_number(ctx, 2)) - (-1)) < 1e-12
    ok &= abs(to_complex(q_number(ctx, 4)) - 1) < 1e-12
    _report(4, "spectrum claim", ok)


def test_criterion_5_ladder_behavior():
    ok = True
    for ctx, rep in _family1_reps(FAMILY1_GRID):
        chain = spectrum_chain(rep)
        J = rep.embedded("J")
        d = rep.dim
        for k, (pair, x) in enumerate(zip(chain.pairs, chain.x_labels)):
            for direction, shift in (("raise", 2), ("lower", -2)):
                w = ladder_apply(rep, pair.vector, x, direction)
                norm = float(np.linalg.norm(w))
                if norm < 1e-8:
                    # annihilation exactly at the ends
                    ok &= (direction == "raise" and k == d - 1) or \
                          (direction == "lower" and k == 0)
                    continue
                w = w / norm
                mu = to_complex(q_number(ctx, x + shift))
                ok &= float(np.linalg.norm(J @ w - mu * w)) < 1e-8
        # top-raise and bottom-lower annihilate
        top, xt = chain.pairs[-1], chain.x_labels[-1]
        bot, xb = chain.pairs[0], chain.x_labels[0]
        ok &= float(np.linalg.norm(ladder_apply(rep, top.vector, xt, "raise"))) < 1e-8
        ok &= float(np.linalg.norm(ladder_apply(rep, bot.vector, xb, "lower"))) < 1e-8
    _report(5, "ladder behavior", ok)


def test_criterion_6_tridiagonality():
    ok = True
    for _, rep in _family1_reps(FAMILY1_GRID):
        report = tridiagonality_check(rep)
        ok &= report.mode == "plain" and report.ok and report.band_residual < 1e-8
    for P, Q in FAMILY2_GRID:
        ctx = RootContext(P, Q)
        rng = random.Random(1234 + P + Q)
        for lam, a, b in _family2_params(P, Q, 20, rng):
            report = tridiagonality_check(build_family2(ctx, lam, a, b))
            ok &= report.mode == "cyclic" and report.ok and report.band_residual < 1e-8
    _report(6, "tridiagonality", ok)


def test_criterion_7_intersection():
    ok = True
    for Q in (3, 5, 7):
        for sign in (1, -1):
            report = intersection_check(RootContext(1, Q), sign)
            ok &= report.ok
    _report(7, "family intersection", ok)


def test_criterion_8_unitarizability():
    ok = True
    for P, Q in [(P, Q) for Q in (3, 5) for P in range(1, Q) if gcd(P, Q) == 1]:
        ctx = RootContext(P, Q)
        for r in range(Q):
            for sign in (1, -1):
                rep = build_family1(ctx, r, sign)
                uni = unitarize_search(rep)
                ok &= uni.ok and uni.max_residual < 1e-8
                ok &= all(g > 0 for g in uni.G)
                ok &= uni.residuals["TJ=JT"] < 1e-8
                ok &= uni.residuals["J_G_selfadjoint"] < 1e-8
                star = verify_relations(rep, "star_original")
                ok &= star.ok == (rep.dim == 1)
    _report(8, "unitarizability", ok)


def test_criterion_9_cli_determinism(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "qsl2r.cli", "suite", "--P", "1", "--Q", "3",
             "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    payload = json.loads(outs[0])
    ok &= payload["symbolic"]["identity_ok"] and payload["symbolic"]["lemma_ok"]
    _report(9, "CLI determinism", ok)
