"""The four workloads: inputs drawn from the seed, the timed calls into qsl2r,
and a reference check for every cell that does not use qsl2r's own helpers.

A cell is one unit that gets a verdict.  ``Cell.run`` is the program's work
and is timed; ``Cell.check`` runs afterwards, untimed, and returns
``(program_ok, reference_ok, detail)``.  The known answer for every cell is
"pass", by the paper.

Calls go through module attributes (``self.reps.build_family1``), never
through names imported here, so the wrappers in ``tracing`` see them.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from tracing import FRONTIER, SUITE, SWEEP, SYMBOLIC

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

SUITE_QS = (3, 7, 11, 15)
SWEEP_F1_QS = (3, 5, 7, 9)
SWEEP_F2_PQ = ((1, 3), (2, 5), (3, 7))
FRONTIER_PQ = ((19, 1), (21, 2), (25, 1), (31, 3))  # (Q, P)
CORPUS_SIZE = 500
# Corpus products are stratified by the number of X-before-Y letter pairs
# in a.b, which sets how many XY rewrites PBW needs; a free draw makes the
# pass time swing by half between seeds.
CORPUS_INVERSIONS = 9
FLOAT_REF_TOL = 1e-8


@dataclass
class Cell:
    id: str
    run: Callable[[], object]
    check: Callable[[object], tuple]


def coprime(Q):
    return [P for P in range(1, Q) if math.gcd(P, Q) == 1]


def qnum_real(P, Q, n):
    """[n] at q = exp(2 pi i P/Q), which is real."""
    return math.sin(2 * math.pi * P * n / Q) / math.sin(2 * math.pi * P / Q)


def qnum_complex(P, Q, x):
    qx = cmath.exp(2j * math.pi * P * x / Q)
    q = cmath.exp(2j * math.pi * P / Q)
    return (qx - 1 / qx) / (q - 1 / q)


class Workload:
    name = ""
    in_process = True

    def setup(self, seed):
        """Imports, root contexts, lazy tables and the first pass's inputs."""
        import qsl2r.ncpoly
        import qsl2r.reps
        import qsl2r.scalar
        import qsl2r.spectral
        self.scalar, self.reps = qsl2r.scalar, qsl2r.reps
        self.spectral, self.ncpoly = qsl2r.spectral, qsl2r.ncpoly
        self.seed = seed
        self._ctx = {}
        self._cells = {0: self.make_cells(0)}

    def fixed_passes(self, seconds):
        """None: passes run until --seconds is spent.  A workload whose
        cells are expected to fail returns a pass count instead."""
        return None

    def ctx(self, P, Q):
        got = self._ctx.get((P, Q))
        if got is None:
            got = self._ctx[(P, Q)] = self.scalar.RootContext(P, Q)
        return got

    def rng(self, k):
        return random.Random(f"{self.name}:{self.seed}:{k}")

    def cells(self, k):
        got = self._cells.pop(k, None)
        return got if got is not None else self.make_cells(k)

    def make_cells(self, k):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# identity-sweep: criterion 3, one representation and its x-sweep per cell
# ---------------------------------------------------------------------------


class IdentitySweep(Workload):
    name = SWEEP

    def make_cells(self, k):
        cells = []
        for Q in SWEEP_F1_QS:
            for P in coprime(Q):
                ctx = self.ctx(P, Q)
                for r in range(Q):
                    for sign in (1, -1):
                        cells.append(Cell(f"f1 P={P} Q={Q} r={r} sign={sign:+d}",
                                          self._f1_run(ctx, r, sign), self._f1_check))
        rng = self.rng(k)
        for P, Q in SWEEP_F2_PQ:
            ctx = self.ctx(P, Q)
            for i in range(20):
                lam = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
                a = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
                b = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
                xs = [complex(rng.uniform(-5, 5), rng.uniform(-1, 1)) for _ in range(100)]
                cells.append(Cell(f"f2 P={P} Q={Q} sample={i}",
                                  self._f2_run(ctx, lam, a, b, xs),
                                  self._f2_check(P, Q, xs)))
        return cells

    def _f1_run(self, ctx, r, sign):
        def run():
            rep = self.reps.build_family1(ctx, r, sign)
            return [self.spectral.verify_identity(rep, x) for x in range(-10, 11)]
        return run

    @staticmethod
    def _f1_check(reports):
        bad = [r.x.real for r in reports if not (r.exact and r.residual == 0.0)]
        return (all(r.ok for r in reports), not bad,
                f"inexact or nonzero residual at x = {bad}" if bad else "")

    def _f2_run(self, ctx, lam, a, b, xs):
        def run():
            rep = self.reps.build_family2(ctx, lam, a, b)
            return rep, [self.spectral.verify_identity(rep, x, tol=1e-9) for x in xs]
        return run

    @staticmethod
    def _f2_check(P, Q, xs):
        def check(out):
            rep, reports = out
            X, Y, Z = (np.asarray(m, dtype=complex) for m in (rep.X, rep.Y, rep.Z))
            eye = np.eye(len(Z), dtype=complex)
            q = cmath.exp(2j * math.pi * P / Q)
            J = (q * X - Y / q) @ np.diag(1 / np.diag(Z))
            t2 = qnum_complex(P, Q, 2) ** 2
            bad = []
            for x in xs:
                A = J - qnum_complex(P, Q, x) * eye
                lhs = Z @ (J - qnum_complex(P, Q, x + 2) * eye) @ A \
                    @ (J - qnum_complex(P, Q, x - 2) * eye) @ Z
                rhs = (A @ Z @ A @ Z - t2 * eye) @ A
                scale = max(1.0, float(np.abs(lhs).max()), float(np.abs(rhs).max()))
                if float(np.abs(lhs - rhs).max()) > FLOAT_REF_TOL * scale:
                    bad.append(x)
            return (all(r.ok for r in reports), not bad,
                    f"identity fails at x = {bad[:3]}" if bad else "")
        return check


# ---------------------------------------------------------------------------
# symbolic: the generic-q replay, then a PBW confluence corpus
# ---------------------------------------------------------------------------


def xy_inversions(word):
    n = xs = 0
    for ch in word:
        if ch == "X":
            xs += 1
        elif ch == "Y":
            n += xs
    return n


class Symbolic(Workload):
    name = SYMBOLIC

    def setup(self, seed):
        super().setup(seed)
        self.ncpoly.j_expansion()

    def make_cells(self, k):
        rng = self.rng(k)
        cells = [Cell("replay", self._replay, self._replay_check)]
        for i in range(CORPUS_SIZE):
            target = i % CORPUS_INVERSIONS
            while True:
                a = "".join(rng.choice("XYZz") for _ in range(rng.randint(0, 6)))
                b = "".join(rng.choice("XYZz") for _ in range(rng.randint(0, 6)))
                if xy_inversions(a + b) == target:
                    break
            cells.append(Cell(f"product {i} {a or '1'}*{b or '1'}",
                              self._product(a, b), self._product_check))
        return cells

    def _replay(self):
        nc = self.ncpoly
        contracts = nc.identity_contracts(nc.identity_coefficients())
        lemma = nc.lemma_check(consequence_depth=5)
        hopf = {name: nc.hopf_symbolic_check(name) for name in nc.HOPF_CHECKS}
        relations = {k: nc.pbw_normal_form(v) for k, v in nc.defining_relations().items()}
        return contracts, lemma, hopf, relations

    @staticmethod
    def _replay_check(out):
        contracts, lemma, hopf, relations = out
        nonzero = [f"contract {k}" for k, v in contracts.items() if not v.is_zero()]
        nonzero += ["lemma"] * (not lemma.residual.is_zero())
        nonzero += [f"hopf {k}" for k, v in hopf.items() if not v.residual.is_zero()]
        nonzero += [f"relation {k}" for k, v in relations.items() if not v.is_zero()]
        program_ok = lemma.ok and lemma.consequence_ok is True and all(v.ok for v in hopf.values())
        return program_ok, not nonzero, f"nonzero residuals: {nonzero}" if nonzero else ""

    def _product(self, a, b):
        def run():
            nc = self.ncpoly
            A, B = nc.NcPoly.word(a), nc.NcPoly.word(b)
            return (nc.pbw_normal_form(A * B),
                    nc.pbw_normal_form(nc.pbw_normal_form(A) * nc.pbw_normal_form(B)))
        return run

    @staticmethod
    def _product_check(out):
        same = out[0] == out[1]
        return same, same, "" if same else "pbw(a b) != pbw(pbw(a) pbw(b))"


# ---------------------------------------------------------------------------
# spectral-frontier: first-family spectra beyond the tested grid
# ---------------------------------------------------------------------------


class SpectralFrontier(Workload):
    name = FRONTIER
    # Every run makes the same whole passes, so attempted and failed counts
    # repeat exactly from run to run; one pass takes 15-20 s on two shared cores.
    PASS_S = 20.0

    def fixed_passes(self, seconds):
        return max(1, int(seconds // self.PASS_S))

    def make_cells(self, k):
        # P is fixed per Q and the seed only orders the cells.  Which cells
        # fail with EigenSolveError depends on P: a seed-drawn P moves the
        # failure count between 46 and 66 of 192, so runs with different
        # seeds would not agree on it.
        cells = []
        for Q, P in FRONTIER_PQ:
            ctx = self.ctx(P, Q)
            for r in range(Q):
                for sign in (1, -1):
                    cells.append(Cell(f"P={P} Q={Q} r={r} sign={sign:+d}",
                                      self._run(ctx, r, sign), self._check(P, Q, r, sign)))
        self.rng(k).shuffle(cells)
        return cells

    def _run(self, ctx, r, sign):
        def run():
            rep = self.reps.build_family1(ctx, r, sign)
            chain = self.spectral.spectrum_chain(rep)
            tri = self.spectral.tridiagonality_check(rep)
            return chain, tri
        return run

    @staticmethod
    def _check(P, Q, r, sign):
        def check(out):
            chain, tri = out
            d = r + 1
            want = sorted(qnum_real(P, Q, Q - d + 1 + 2 * k) for k in range(d))
            got = sorted((complex(p.value) for p in chain.pairs), key=lambda z: (z.real, z.imag))
            spec_err = max((abs(g - w) for g, w in zip(got, want)), default=0.0) \
                if len(got) == d else math.inf
            B = np.column_stack([p.vector for p in chain.pairs])
            Z = np.diag([sign * cmath.exp(2j * math.pi * P * (r - 2 * j) / Q) for j in range(d)])
            Zp = np.linalg.solve(B, Z @ B)
            band = max((abs(Zp[i, j]) for i in range(d) for j in range(d) if abs(i - j) > 1),
                       default=0.0)
            ok = spec_err <= FLOAT_REF_TOL and band <= FLOAT_REF_TOL * max(1.0, np.abs(Zp).max())
            return tri.ok, ok, "" if ok else f"spectrum error {spec_err:.3g}, band {band:.3g}"
        return check


# ---------------------------------------------------------------------------
# suite: one `python -m qsl2r.cli suite` child process per cell
# ---------------------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class ChildFailed(RuntimeError):
    """A child process ended without a report to check."""


def run_child(argv):
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=child_env(), cwd=ROOT)
    return proc.returncode, proc.stdout, proc.stderr


def suite_output(rc, stdout, stderr):
    """The CLI's (rc, stdout, stderr), or ChildFailed when it printed no report."""
    if rc != 0 and not stdout.lstrip().startswith("{"):
        lines = [ln for ln in stderr.splitlines() if ln.strip()]
        raise ChildFailed(f"exit {rc}: {lines[-1] if lines else 'no output'}")
    return rc, stdout, stderr


class Suite(Workload):
    name = SUITE
    in_process = False

    def setup(self, seed):
        import qsl2r.cli  # noqa: F401  (what each suite process imports first)
        super().setup(seed)

    def make_cells(self, k):
        # Pass k takes the k-th P of a seeded shuffle of the coprime P, so a
        # run draws without replacement: the cost at Q = 15 differs by a
        # fifth between values of P.
        cells = []
        for Q in SUITE_QS:
            choices = coprime(Q)
            random.Random(f"{self.name}:{self.seed}:{Q}").shuffle(choices)
            P = choices[k % len(choices)]
            self.ctx(P, Q)
            argv = [sys.executable, "-m", "qsl2r.cli", "suite", "--P", str(P), "--Q", str(Q)]
            cells.append(Cell(f"suite P={P} Q={Q}",
                              lambda argv=argv: suite_output(*run_child(argv)),
                              self._check(Q)))
        return cells

    @staticmethod
    def instrumented_argv(cell_id, mode):
        P, Q = (int(part.split("=")[1]) for part in cell_id.split()[1:])
        return [sys.executable, str(HERE / "suite_cell.py"), "--P", str(P), "--Q", str(Q),
                "--mode", mode]

    @staticmethod
    def _check(Q):
        def check(out):
            rc, stdout, _ = out
            payload, _ = json.JSONDecoder().raw_decode(stdout.lstrip())
            problems = suite_problems(Q, payload)
            return rc == 0, not problems, "; ".join([f"exit {rc}"] * (rc != 0) + problems[:5])
        return check


def suite_problems(Q, payload):
    problems = []

    def walk(node, path):
        if isinstance(node, dict):
            for key, val in node.items():
                where = f"{path}.{key}"
                if key == "star_original_ok":
                    continue
                if (key == "ok" or key.endswith("_ok") or path.endswith(".hopf")) \
                        and val is not True:
                    problems.append(f"{where} is {val!r}")
                walk(val, where)

    walk(payload, "")
    fam1 = payload.get("family1", {})
    if len(fam1) != 2 * Q:
        problems.append(f"{len(fam1)} first-family cells, expected {2 * Q}")
    for key, cell in fam1.items():
        d = int(key.split(",")[0].split("=")[1]) + 1
        residuals = [cell[w]["max_residual"] for w in ("defining", "zj", "central")]
        residuals += list(cell["identity_residuals"].values())
        if any(v != 0.0 for v in residuals):
            problems.append(f"{key}: exact residual not 0.0")
        if cell["x_labels"] != [Q - d + 1 + 2 * k for k in range(d)]:
            problems.append(f"{key}: x_labels {cell['x_labels']}")
        if cell["star_original_ok"] != (d == 1) or cell["top_vanishes"] is not True:
            problems.append(f"{key}: star/top-vanish verdict wrong")
    return problems


WORKLOADS = {w.name: w for w in (Suite, IdentitySweep, Symbolic, SpectralFrontier)}
