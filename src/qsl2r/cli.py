"""Command-line front end: build representations, run verification suites,
emit JSON artifacts and human-readable summaries.

Exit codes: 0 all requested checks passed, 1 any verification failure,
2 usage error.  A ChainError from any command is reported as an
{"error", "partial"} payload and a "<command>: FAIL (<message>)" line,
except in `suite`, which records it as the "error" of the first-family
cell or second-family sample it came from, counts that cell as failing
and goes on.
JSON output is byte-deterministic for exact-backend runs (sorted keys,
canonical rational strings).  The floating tolerance is --tol, a finite
number > 0, else REL_TOL; spectral checks take it no finer than EIGEN_TOL.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import random
import sys
from decimal import Decimal

import numpy as np

from . import ncpoly
from .ncpoly import (HOPF_CHECKS, format_expr, hopf_symbolic_check,
                     identity_contracts, lemma_check, parse_expr,
                     pbw_normal_form)
from .reps import (build_family1, build_family2, intersection_check,
                   representation_to_json, tensor_j_formula_residual,
                   verify_relations)
from .scalar import REL_TOL, RootContext, q_number, q_power, to_complex
from .spectral import (EIGEN_TOL, MAX_DIM, ChainError, ladder_apply, spectrum_chain,
                       tridiagonality_check, unitarize_search, verify_identity)


def _parse_tol(text: str) -> float:
    """text as a tolerance: a finite float > 0."""
    try:
        tol = float(text)
        if math.isfinite(tol) and tol > 0:
            return tol
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")


def _parse_complex(text: str):
    """re,im pair, bare real, or an exact root-of-unity token q^k / -q^k;
    re and im must be finite."""
    text = text.strip()
    parts = text.split(",")
    try:
        if text.startswith("q^") or text.startswith("-q^"):
            return ("q", -1 if text.startswith("-") else 1, int(text.split("^", 1)[1]))
        value = complex(*map(float, parts)) if len(parts) <= 2 else None
    except ValueError:
        value = None
    if value is None:
        raise argparse.ArgumentTypeError(f"cannot parse complex value {text!r}")
    if not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _parse_point(text: str) -> int | complex:
    """re,im pair or bare real, as --a, --b and --x take: the int it names,
    every digit read from the text, when the real part is integral and the
    imaginary part zero, else the complex value."""
    value = _parse_complex(text)
    if isinstance(value, tuple):
        raise argparse.ArgumentTypeError(f"takes re,im; q^k tokens like {text!r} "
                                         "are only read by --lambda")
    if value.imag == 0 and value.real.is_integer():
        # a Decimal keeps the exponent unexpanded, where a Fraction of
        # 1e-999999999 would build 10^999999999
        try:
            re, *im = map(Decimal, text.split(","))
            integral = not any(im) and re == re.to_integral_value()
        except ArithmeticError:     # an exponent beyond Decimal's range
            raise argparse.ArgumentTypeError(f"cannot parse {text!r}") from None
        if integral:
            return int(re)
    return value


class _PointFlag(argparse.Action):
    """--a and --b: stores `_parse_point` of the text and, under a_text or
    b_text, the text itself, which a refusal quotes as given."""

    def __call__(self, parser, namespace, text, option_string=None):
        try:
            value = _parse_point(text)
        except argparse.ArgumentTypeError as exc:
            raise argparse.ArgumentError(self, str(exc)) from None
        setattr(namespace, self.dest, value)
        setattr(namespace, f"{self.dest}_text", text)


def _parse_sign(text: str) -> int:
    if text in ("+", "+1", "1"):
        return 1
    if text in ("-", "-1"):
        return -1
    raise argparse.ArgumentTypeError("sign must be + or -")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsl2r",
        description="verification toolkit for the q-deformed sl(2,R) at odd roots of unity")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, rep_flags=True, tol=True):
        p.add_argument("--P", type=int, default=1, help="numerator of the root exponent")
        p.add_argument("--Q", type=int, default=3, help="odd order of the root of unity")
        if tol:
            p.add_argument("--tol", type=_parse_tol, default=None,
                           help="floating tolerance, finite and > 0")
        p.add_argument("--out", type=str, default=None, help="write the JSON report here")
        if rep_flags:
            p.add_argument("--family", type=int, choices=(1, 2), default=1)
            p.add_argument("--r", type=int, default=0, help="first-family index 0..Q-1")
            p.add_argument("--sign", type=_parse_sign, default=1)
            p.add_argument("--lambda", dest="lam", type=_parse_complex, default=1 + 0j,
                           help="second-family lambda: re,im or q^k / -q^k for the exact "
                                "path; a value starting with '-' needs '=', as in "
                                "--lambda=-q^2")
            p.add_argument("--a", action=_PointFlag, default=0,
                           help="second-family a: re,im; a value starting with '-' "
                                "needs '=', as in --a=-1,0")
            p.add_argument("--b", action=_PointFlag, default=0,
                           help="second-family b: re,im; a value starting with '-' "
                                "needs '=', as in --b=-1,0")
            group = p.add_mutually_exclusive_group()
            group.add_argument("--exact", dest="backend", action="store_const",
                               const="exact", default=None)
            group.add_argument("--approx", dest="backend", action="store_const",
                               const="approx")

    add_common(sub.add_parser("rep", help="build a representation and export it"))
    p = sub.add_parser("verify", help="run one verification on a representation")
    add_common(p)
    p.add_argument("--check", required=True,
                   choices=("defining", "zj", "identity", "lemma", "hopf",
                            "central", "star"))
    p.add_argument("--x", type=_parse_point, default=0,
                   help="evaluation point for --check identity: re,im; a value "
                        "starting with '-' needs '=', as in --x=-1,0")

    p = sub.add_parser("symbolic", help="generic-q symbolic checks and PBW normal forms")
    add_common(p, rep_flags=False)
    p.add_argument("--check", default="all",
                   choices=("all", "identity", "lemma", "hopf", "pbw"))
    p.add_argument("--expr", type=str, default=None,
                   help="expression to PBW-normalize (with --check pbw)")

    add_common(sub.add_parser("spectrum", help="J spectrum, chain, tridiagonality"))
    p = sub.add_parser("ladder", help="verify ladder images on every eigenpair")
    add_common(p)
    add_common(sub.add_parser("unitarize", help="search the sign involution and metric"))
    p = sub.add_parser("intersect", help="check exactly that the two families meet "
                                         "at their common point")
    add_common(p, rep_flags=False, tol=False)
    p.add_argument("--sign", type=_parse_sign, default=1)
    add_common(sub.add_parser("suite", help="run the full verification grid for (P, Q)"),
               rep_flags=False)
    return parser


def parse_command(argv):
    """Parse and validate; exits with code 2 on usage errors, naming the
    violated (P, Q) or first-family r constraint, a spectral run beyond
    MAX_DIM x MAX_DIM matrices, the representation flags no builder
    accepts, or the misused or unparsable --expr (a word over the cap of
    pbw_normal_form included), in the diagnostic."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.ctx = RootContext(args.P, args.Q)
    except ValueError as exc:
        parser.error(str(exc))
    if getattr(args, "family", None) == 1 and not 0 <= args.r < args.Q:
        parser.error(f"r must lie in 0..Q-1 = 0..{args.Q - 1}, got {args.r}")
    spectral_cmd = args.command in ("spectrum", "ladder", "unitarize", "suite")
    if spectral_cmd:
        # the J eigenproblem is solved on matrices of this dimension
        dim = args.r + 1 if getattr(args, "family", None) == 1 else args.Q
        if dim > MAX_DIM:
            parser.error(f"{args.command} needs {dim} x {dim} matrices; the spectral "
                         f"layer takes at most {MAX_DIM} x {MAX_DIM}")
    if getattr(args, "family", None) is not None:
        _resolve_rep_flags(parser, args)
    if args.command == "symbolic":
        if args.check != "pbw" and args.expr is not None:
            parser.error("--expr is only read by --check pbw")
        if args.check == "pbw":
            if args.expr is None:
                parser.error("--check pbw needs --expr")
            try:
                args.poly = parse_expr(args.expr)
                for w, _ in args.poly.terms:
                    ncpoly.check_expanded_word(w)
            except (ValueError, ArithmeticError) as exc:
                # ParseError, an over-long word (J read as X Zi), division by zero
                parser.error(f"--expr {args.expr!r} is refused: {exc}")
    if "tol" in args:   # intersect is exact and takes none
        # --tol, else REL_TOL; the spectral layer clusters eigenvalues at
        # EIGEN_TOL, so it takes no finer tolerance (`suite` floors only its
        # spectral calls, not its relations and identities)
        tol = args.tol or REL_TOL
        floored = args.command in ("spectrum", "ladder", "unitarize")
        args.tol = max(tol, EIGEN_TOL) if floored else tol
    return args


def _resolve_rep_flags(parser, args):
    """Fix the backend and resolve --lambda, --a and --b into the values
    build_family2 takes (args.family2_params), refusing (exit 2) the
    combinations no builder accepts."""
    if args.family == 1:
        if args.backend == "approx":
            parser.error("the first family is always exact; drop --approx")
        return
    args.backend = args.backend or "approx"
    lam, a, b = args.lam, args.a, args.b
    if args.backend == "approx":
        if isinstance(lam, tuple):
            lam = lam[1] * args.ctx.q_complex ** lam[2]
        elif lam == 0:
            parser.error("--lambda must be nonzero")
        args.family2_params = (lam, complex(a), complex(b))
        return
    if not isinstance(lam, tuple):
        parser.error("the exact second-family path needs --lambda q^k or -q^k")
    for name, v in (("a", a), ("b", b)):
        if type(v) is not int:
            parser.error(f"the exact second-family path needs an integer --{name}, "
                         f"got {getattr(args, name + '_text')!r}")
    args.family2_params = (q_power(args.ctx, lam[2]) * lam[1], a, b)


def _build_rep(args):
    if args.family == 1:
        return build_family1(args.ctx, args.r, args.sign)
    return build_family2(args.ctx, *args.family2_params, backend=args.backend)


def emit_report(payload: dict, out: str | None, summaries: list[str],
                ok: bool) -> int:
    """JSON to file or stdout, summary lines to stdout; 0 on all-pass, 1 on
    any verification failure, 2 when the output path is unwritable."""
    text = json.dumps(payload, sort_keys=True, indent=2)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"cannot write {out}: {exc}", file=sys.stderr)
            return 2
    else:
        print(text)
    for line in summaries:
        print(line)
    return 0 if ok else 1


def _status(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def cmd_rep(args) -> int:
    rep = _build_rep(args)
    payload = representation_to_json(rep)
    return emit_report(payload, args.out,
                       [f"rep: family {rep.family} dim {rep.dim} ({rep.backend})"], True)


def cmd_verify(args) -> int:
    if args.check in ("lemma", "hopf"):
        return _symbolic_payload(args, args.check)
    rep = _build_rep(args)
    if args.check == "identity":
        report = verify_identity(rep, args.x, tol=args.tol)
        detail = "residual 0 exact" if report.exact and report.residual == 0.0 \
            else f"residual {report.residual:.3g}"
        payload = {"check": "identity", "x": [report.x.real, report.x.imag],
                   "exact": report.exact, "residual": report.residual, "ok": report.ok}
        return emit_report(payload, args.out, [f"identity: {_status(report.ok)} ({detail})"],
                           report.ok)
    which = {"star": "star_original"}.get(args.check, args.check)
    report = verify_relations(rep, which, tol=args.tol)
    payload = report.to_json()
    return emit_report(payload, args.out,
                       [f"{args.check}: {_status(report.ok)} "
                        f"(max residual {report.max_residual:.3g})"], report.ok)


def _symbolic_payload(args, which: str) -> int:
    payload = {}
    summaries = []
    ok = True

    if which in ("all", "identity"):
        residuals = identity_contracts()
        sec = {name: format_expr(r) for name, r in residuals.items()}
        good = all(r.is_zero() for r in residuals.values())
        payload["identity_coefficients"] = {"residuals": sec, "ok": good}
        summaries.append(f"identity coefficients: {_status(good)}")
        ok &= good

    if which in ("all", "lemma"):
        report = lemma_check()
        payload["lemma"] = {
            "ok": report.ok,
            "residual": format_expr(report.residual),
            "consequence_ok": report.consequence_ok,
        }
        summaries.append(f"lemma: {_status(report.ok)}"
                         + ("" if report.ok
                            else f" (residual {format_expr(report.residual)})"))
        ok &= report.ok and (report.consequence_ok is not False)

    if which in ("all", "hopf"):
        sec = {}
        for name in HOPF_CHECKS:
            rep = hopf_symbolic_check(name)
            entry = {"ok": rep.ok}
            if not rep.ok:
                entry["residual"] = str(rep.residual)
            if name == "counitJ":
                entry["note"] = rep.note
                summaries.append(f"note: {rep.note}")
            sec[name] = entry
            ok &= rep.ok
        payload["hopf"] = sec
        summaries.append(f"hopf checks: {_status(all(v['ok'] for v in sec.values()))}")

    if which == "pbw":
        nf = pbw_normal_form(args.poly)
        payload["pbw"] = {"input": args.expr, "normal_form": format_expr(nf)}
        summaries.append(f"pbw: {format_expr(nf)}")

    return emit_report(payload, args.out, summaries, ok)


def cmd_symbolic(args) -> int:
    return _symbolic_payload(args, args.check)


def cmd_spectrum(args) -> int:
    rep = _build_rep(args)
    chain = spectrum_chain(rep, tol=args.tol)
    tri = tridiagonality_check(rep, tol=args.tol)
    uni = unitarize_search(rep, tol=args.tol)
    payload = chain.to_json()
    payload["band_residual"] = tri.band_residual
    payload["band_mode"] = tri.mode
    payload["unitarizing"] = uni.to_json()
    ok = tri.ok and uni.ok
    summaries = [
        f"spectrum: chain of {len(chain.pairs)} "
        + ("(cyclic)" if chain.cyclic else "(path)"),
        f"tridiagonal ({tri.mode}): {_status(tri.ok)} (band residual {tri.band_residual:.3g})",
        f"unitarizing structure: {_status(uni.ok)}",
    ]
    return emit_report(payload, args.out, summaries, ok)


def cmd_ladder(args) -> int:
    rep = _build_rep(args)
    chain = spectrum_chain(rep, tol=args.tol)
    J = rep.embedded("J")
    results = []
    ok = True
    for pair, x in zip(chain.pairs, chain.x_labels):
        entry = {"x": [complex(x).real, complex(x).imag],
                 "eigenvalue": [pair.value.real, pair.value.imag]}
        for direction, shift in (("raise", 2), ("lower", -2)):
            w = ladder_apply(rep, pair.vector, x, direction, tol=args.tol)
            norm = float(np.linalg.norm(w))
            if norm < args.tol:
                entry[direction] = "vanished"
                continue
            w = w / norm
            mu = complex(to_complex(q_number(rep.ctx, complex(x) + shift)))
            res = float(np.linalg.norm(J @ w - mu * w))
            entry[direction] = "shifted"
            entry[f"{direction}_residual"] = res
            ok &= res < args.tol
        results.append(entry)
    payload = {"ladder": results, "ok": ok}
    return emit_report(payload, args.out,
                       [f"ladder: {_status(ok)} ({len(results)} eigenpairs)"], ok)


def cmd_unitarize(args) -> int:
    rep = _build_rep(args)
    uni = unitarize_search(rep, tol=args.tol)
    payload = uni.to_json()
    return emit_report(payload, args.out,
                       [f"unitarize: {_status(uni.ok)} "
                        f"(max residual {uni.max_residual:.3g})"], uni.ok)


def cmd_intersect(args) -> int:
    report = intersection_check(args.ctx, args.sign)
    return emit_report(report.to_json(), args.out,
                       [f"intersection: {_status(report.ok)}"], report.ok)


def cmd_suite(args) -> int:
    ctx, tol = args.ctx, args.tol
    spectral_tol = max(tol, EIGEN_TOL)
    payload = {"P": ctx.P, "Q": ctx.Q}
    summaries = []
    all_ok = True

    def record(name, ok, extra=""):
        nonlocal all_ok
        all_ok &= ok
        summaries.append(f"{name}: {_status(ok)}" + (f" ({extra})" if extra else ""))

    # symbolic section (generic q, exact)
    residuals = identity_contracts()
    sym_ok = all(r.is_zero() for r in residuals.values())
    lemma = lemma_check()
    hopf = {name: hopf_symbolic_check(name) for name in HOPF_CHECKS}
    hopf_ok = all(r.ok for r in hopf.values())
    payload["symbolic"] = {
        "identity_residuals": {k: format_expr(v) for k, v in residuals.items()},
        "identity_ok": sym_ok,
        "lemma_ok": lemma.ok,
        "lemma_consequence_ok": lemma.consequence_ok,
        "hopf": {k: v.ok for k, v in hopf.items()},
        "counit_note": hopf["counitJ"].note,
    }
    record("symbolic proof replay", sym_ok and lemma.ok and bool(lemma.consequence_ok))
    record("hopf + translations", hopf_ok)

    # first family: exact grid at this (P, Q)
    fam1 = {}
    fam1_ok = True
    for r in range(ctx.Q):
        for sign in (1, -1):
            rep = build_family1(ctx, r, sign)
            cell = fam1[f"r={r},sign={sign:+d}"] = {}
            for which in ("defining", "zj", "central"):
                rp = verify_relations(rep, which, tol=tol)
                cell[which] = {"ok": rp.ok, "max_residual": rp.max_residual}
                fam1_ok &= rp.ok and rp.max_residual == 0.0
            idres = {}
            for x in range(-2, 3):
                rp = verify_identity(rep, x, tol=tol)
                idres[str(x)] = rp.residual
                fam1_ok &= rp.ok and rp.residual == 0.0
            cell["identity_residuals"] = idres
            star = verify_relations(rep, "star_original", tol=tol)
            cell["star_original_ok"] = star.ok
            fam1_ok &= star.ok == (rep.dim == 1)
            try:
                chain = spectrum_chain(rep, tol=spectral_tol)
            except ChainError as exc:
                # kept next to the exact checks; the grid goes on
                cell["error"] = str(exc)
                fam1_ok = False
                continue
            cell["x_labels"] = [int(x) for x in chain.x_labels]
            cell["top_vanishes"] = chain.links[-1][0] == "vanished"
            fam1_ok &= cell["top_vanishes"]
            tri = tridiagonality_check(rep, tol=spectral_tol)
            cell["band_residual"] = tri.band_residual
            fam1_ok &= tri.ok
            uni = unitarize_search(rep, tol=spectral_tol)
            cell["unitarize"] = uni.to_json()
            fam1_ok &= uni.ok
    payload["family1"] = fam1
    record("first family grid", fam1_ok, f"{2 * ctx.Q} representations")

    # second family: seeded random parameters (floating section)
    rng = random.Random(10_000 * ctx.P + ctx.Q)
    fam2 = {}
    fam2_ok = True
    for i in range(3):
        lam = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        a = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        b = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        rep = build_family2(ctx, lam, a, b)
        cell = fam2[f"sample{i}"] = {"lambda": [lam.real, lam.imag], "a": [a.real, a.imag],
                                     "b": [b.real, b.imag]}
        for which in ("defining", "zj"):
            rp = verify_relations(rep, which, tol=tol)
            cell[which] = {"ok": rp.ok, "max_residual": rp.max_residual}
            fam2_ok &= rp.ok
        worst = 0.0
        idok = True
        for _ in range(20):
            x = complex(rng.uniform(-5, 5), rng.uniform(-1, 1))
            rp = verify_identity(rep, x, tol=tol)
            worst = max(worst, rp.residual)
            idok &= rp.ok
        cell["identity_worst_residual"] = worst
        fam2_ok &= idok
        try:
            tri = tridiagonality_check(rep, tol=spectral_tol)
        except ChainError as exc:
            cell["error"] = str(exc)
            fam2_ok = False
            continue
        cell["band_residual"] = tri.band_residual
        cell["band_ok"] = tri.ok
        fam2_ok &= tri.ok
    payload["family2"] = fam2
    record("second family samples", fam2_ok)

    # tensor coproduct formula at r = 1 (Q >= 3 always has r = 1)
    a1 = build_family1(ctx, 1, 1)
    tens_res = tensor_j_formula_residual(a1, a1)
    payload["tensor_j_residual"] = tens_res
    record("tensor coproduct of J", tens_res < 1e-10)

    # family intersection
    inter = {sign: intersection_check(ctx, sign) for sign in (1, -1)}
    payload["intersection"] = {f"sign={sign:+d}": rp.to_json() for sign, rp in inter.items()}
    record("family intersection", all(rp.ok for rp in inter.values()))

    return emit_report(payload, args.out, summaries, all_ok)


_DISPATCH = {
    "rep": cmd_rep,
    "verify": cmd_verify,
    "symbolic": cmd_symbolic,
    "spectrum": cmd_spectrum,
    "ladder": cmd_ladder,
    "unitarize": cmd_unitarize,
    "intersect": cmd_intersect,
    "suite": cmd_suite,
}


def main(argv=None) -> int:
    args = parse_command(sys.argv[1:] if argv is None else argv)
    try:
        return _DISPATCH[args.command](args)
    except ChainError as exc:
        payload = {"error": str(exc), "partial": exc.partial.to_json() if exc.partial else None}
        return emit_report(payload, args.out, [f"{args.command}: FAIL ({exc})"], False)
    except (ValueError, ArithmeticError, ncpoly.ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
