"""Spans and operation counters put around qsl2r's public functions from
outside the package.

Nothing here edits qsl2r's source.  A function is wrapped at every place it
is bound inside a loaded ``qsl2r`` module, so calls through names imported
by value (``spectral`` importing ``j_matrix`` from ``reps``, ``cli`` importing
``verify_identity``, ``q_number`` imported into three modules, the command
table ``cli._DISPATCH``) are seen as well.  Spans and counts are taken in
separate passes, so the cost of counting does not land in any span's time.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

SUITE, SWEEP, SYMBOLIC, FRONTIER = "suite", "identity-sweep", "symbolic", "spectral-frontier"

# span name -> (module, attribute, workloads on which it must record calls)
SPANS = {
    "reps.build_family1": ("qsl2r.reps", "build_family1", {SUITE, SWEEP, FRONTIER}),
    "reps.build_family2": ("qsl2r.reps", "build_family2", {SUITE, SWEEP}),
    "reps.verify_relations": ("qsl2r.reps", "verify_relations", {SUITE, SWEEP, FRONTIER}),
    "reps.j_matrix": ("qsl2r.reps", "j_matrix", {SUITE, SWEEP, FRONTIER}),
    "reps.ex_mul": ("qsl2r.reps", "ex_mul", {SUITE, SWEEP, FRONTIER}),
    "reps.intersection_check": ("qsl2r.reps", "intersection_check", {SUITE}),
    # split by the report's `exact` flag into .exact and .float
    "spectral.verify_identity": ("qsl2r.spectral", "verify_identity", {SUITE, SWEEP}),
    "spectral.eigen_solve": ("qsl2r.spectral", "eigen_solve", {SUITE, FRONTIER}),
    "spectral.spectrum_chain": ("qsl2r.spectral", "spectrum_chain", {SUITE, FRONTIER}),
    "spectral.tridiagonality_check": ("qsl2r.spectral", "tridiagonality_check",
                                      {SUITE, FRONTIER}),
    "spectral.unitarize_search": ("qsl2r.spectral", "unitarize_search", {SUITE}),
    "ncpoly.pbw_normal_form": ("qsl2r.ncpoly", "pbw_normal_form", {SUITE, SYMBOLIC}),
    "ncpoly.substitute_j": ("qsl2r.ncpoly", "substitute_j", {SUITE, SYMBOLIC}),
    "ncpoly.identity_contracts": ("qsl2r.ncpoly", "identity_contracts", {SUITE, SYMBOLIC}),
    "ncpoly.lemma_check": ("qsl2r.ncpoly", "lemma_check", {SUITE, SYMBOLIC}),
    "ncpoly.hopf_symbolic_check": ("qsl2r.ncpoly", "hopf_symbolic_check", {SUITE, SYMBOLIC}),
    "cli.cmd_suite": ("qsl2r.cli", "cmd_suite", {SUITE}),
    "cli.emit_report": ("qsl2r.cli", "emit_report", {SUITE}),
}
VERIFY_IDENTITY_SPANS = {"spectral.verify_identity.exact": {SUITE, SWEEP},
                         "spectral.verify_identity.float": {SUITE, SWEEP}}

# counter name -> (module, class or None, attributes summed into it, workloads)
EXACT_ARITH = {SUITE, SWEEP, FRONTIER}
COUNTERS = {
    "scalar.CycloNum.mul": ("qsl2r.scalar", "CycloNum", ("__mul__", "__rmul__"), EXACT_ARITH),
    "scalar.CycloNum.add": ("qsl2r.scalar", "CycloNum", ("__add__", "__radd__"), EXACT_ARITH),
    "scalar.CycloNum.sub": ("qsl2r.scalar", "CycloNum", ("__sub__", "__rsub__"), EXACT_ARITH),
    "scalar.CycloNum.neg": ("qsl2r.scalar", "CycloNum", ("__neg__",), EXACT_ARITH),
    "scalar.CycloNum.inverse": ("qsl2r.scalar", "CycloNum", ("inverse",), EXACT_ARITH),
    "scalar.q_number": ("qsl2r.scalar", None, ("q_number",), EXACT_ARITH),
    "ncpoly.QRat.ops": ("qsl2r.ncpoly", "QRat",
                        ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                         "__rmul__", "__neg__", "inverse", "__truediv__", "__rtruediv__"),
                        {SUITE, SYMBOLIC}),
}

# Import sites named in the benchmark's design; each must end up wrapped.
REQUIRED_SITES = (("qsl2r.spectral", "j_matrix"), ("qsl2r.cli", "verify_identity"),
                  ("qsl2r.cli", "verify_relations"), ("qsl2r.reps", "q_number"),
                  ("qsl2r.spectral", "q_number"), ("qsl2r.cli", "q_number"))

# Per-layer metrics in output order: (name, unit).  BENCHMARK.json lists the
# same names; run.py refuses to start when the two disagree.
PER_LAYER = (
    [(f"{c}.calls", "count") for c in COUNTERS if c.startswith("scalar.")]
    + [("reps.build_family1.calls", "count"), ("reps.build_family1.total_s", "s"),
       ("reps.build_family1.self_s", "s"),
       ("reps.build_family2.calls", "count"), ("reps.build_family2.total_s", "s"),
       ("reps.verify_relations.calls", "count"), ("reps.verify_relations.total_s", "s"),
       ("reps.verify_relations.self_s", "s"),
       ("reps.j_matrix.calls", "count"), ("reps.j_matrix.total_s", "s"),
       ("reps.ex_mul.calls", "count"), ("reps.ex_mul.total_s", "s"),
       ("reps.intersection_check.calls", "count"), ("reps.intersection_check.total_s", "s"),
       ("spectral.verify_identity.exact.calls", "count"),
       ("spectral.verify_identity.exact.total_s", "s"),
       ("spectral.verify_identity.exact.self_s", "s"),
       ("spectral.verify_identity.float.calls", "count"),
       ("spectral.verify_identity.float.total_s", "s"),
       ("spectral.eigen_solve.calls", "count"), ("spectral.eigen_solve.total_s", "s"),
       ("spectral.eigen_solve.errors", "count"), ("spectral.eigen_solve.error_share", "ratio"),
       ("spectral.eigen_solve.runtime_warnings", "count"),
       ("spectral.spectrum_chain.calls", "count"), ("spectral.spectrum_chain.total_s", "s"),
       ("spectral.spectrum_chain.self_s", "s"), ("spectral.spectrum_chain.errors", "count"),
       ("spectral.tridiagonality_check.calls", "count"),
       ("spectral.tridiagonality_check.total_s", "s"),
       ("spectral.unitarize_search.calls", "count"),
       ("spectral.unitarize_search.total_s", "s"),
       ("ncpoly.pbw_normal_form.calls", "count"), ("ncpoly.pbw_normal_form.total_s", "s"),
       ("ncpoly.substitute_j.calls", "count"), ("ncpoly.substitute_j.total_s", "s"),
       ("ncpoly.identity_contracts.total_s", "s"), ("ncpoly.lemma_check.total_s", "s"),
       ("ncpoly.hopf_symbolic_check.calls", "count"),
       ("ncpoly.hopf_symbolic_check.total_s", "s"),
       ("ncpoly.QRat.ops.calls", "count"),
       ("cli.cmd_suite.total_s", "s"), ("cli.emit_report.total_s", "s"),
       ("cli.emit_report.bytes", "bytes"),
       ("trace.overhead_s", "s")]
)


def _loaded_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "qsl2r" or name.startswith("qsl2r."))]


@contextmanager
def _patched(replacements):
    """Swap each original function for its wrapper everywhere a loaded qsl2r
    module binds it (module globals and module-level dicts); undo on exit."""
    undo = []
    try:
        for orig, wrapper in replacements.items():
            for mod in _loaded_modules():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        undo.append((vars(mod), key, orig))
                        setattr(mod, key, wrapper)
                    elif type(val) is dict:
                        for k2, v2 in list(val.items()):
                            if v2 is orig:
                                undo.append((val, k2, orig))
                                val[k2] = wrapper
        wrapped_names = {orig.__name__ for orig in replacements}
        for modname, attr in REQUIRED_SITES:
            mod = sys.modules.get(modname)
            if (mod is not None and attr in wrapped_names
                    and getattr(mod, attr) not in replacements.values()):
                raise RuntimeError(f"wrapper missing at import site {modname}.{attr}")
        yield
    finally:
        for container, key, orig in reversed(undo):
            container[key] = orig


@contextmanager
def _patched_methods(replacements):
    """Swap class attributes: {(cls, attr): wrapper}; undo on exit."""
    originals = {(cls, attr): cls.__dict__[attr] for cls, attr in replacements}
    try:
        for (cls, attr), wrapper in replacements.items():
            setattr(cls, attr, wrapper)
        yield
    finally:
        for (cls, attr), orig in originals.items():
            setattr(cls, attr, orig)


class Tracer:
    """Keeps spans in memory as [name, start, end, parent index, cell, raised]."""

    def __init__(self):
        self.spans = []
        self.cell = None
        self._stack = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        vi = name == "spectral.verify_identity"

        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.cell, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                if vi:
                    rec[0] = name + (".exact" if out.exact else ".float")
                return out
            except BaseException:
                rec[5] = True
                if vi:
                    exact = args[0].backend == "exact" and isinstance(args[1], int)
                    rec[0] = name + (".exact" if exact else ".float")
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
        return wrapper

    @contextmanager
    def active(self):
        repl = {}
        for name, (modname, attr, _) in SPANS.items():
            if modname in sys.modules:  # qsl2r.cli is loaded only for suite
                orig = getattr(sys.modules[modname], attr)
                repl[orig] = self._wrap(orig, name)
        with _patched(repl):
            yield self

    def summary(self):
        """name -> {calls, total_s, self_s, errors}; self time is the span's
        duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _, raised) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0})
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child[i]
            s["errors"] += raised
        return out

    def records(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "cell": c, "raised": r}
                for n, s, e, p, c, r in self.spans]


class OpCounter:
    """Counts calls of CycloNum / QRat methods and of q_number."""

    def __init__(self):
        self.counts = Counter()

    def _wrap(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def active(self):
        methods, functions = {}, {}
        for key, (modname, clsname, attrs, _) in COUNTERS.items():
            mod = sys.modules[modname]
            for attr in attrs:
                if clsname is None:
                    orig = getattr(mod, attr)
                    functions[orig] = self._wrap(orig, key)
                else:
                    cls = getattr(mod, clsname)
                    methods[(cls, attr)] = self._wrap(cls.__dict__[attr], key)
        with _patched_methods(methods), _patched(functions):
            yield self


def coverage_gaps(workload, spans, counts):
    """Names the design expects to be busy on this workload but that
    recorded no calls; a nonempty result means a wrapper was bypassed."""
    expected = {n: w for n, (_, _, w) in SPANS.items() if n != "spectral.verify_identity"}
    expected.update(VERIFY_IDENTITY_SPANS)
    gaps = [n for n, w in expected.items() if workload in w and not spans.get(n, {}).get("calls")]
    gaps += [n for n, (*_, w) in COUNTERS.items() if workload in w and not counts.get(n)]
    return gaps


def layer_metrics(spans, counts, overhead_s, runtime_warnings, emitted_bytes):
    """Flatten span summaries and counts into the PER_LAYER metric values."""
    values = {f"{k}.calls": float(v) for k, v in counts.items()}
    for name, s in spans.items():
        for field, v in s.items():
            values[f"{name}.{field}"] = float(v)
    eig = spans.get("spectral.eigen_solve", {})
    values["spectral.eigen_solve.error_share"] = (eig["errors"] / eig["calls"]
                                                  if eig.get("calls") else 0.0)
    values["spectral.eigen_solve.runtime_warnings"] = float(runtime_warnings)
    values["cli.emit_report.bytes"] = float(emitted_bytes)
    values["trace.overhead_s"] = overhead_s
    return {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER}
