"""One instrumented `qsl2r suite` cell: calls qsl2r.cli.main in this process
with spans (--mode traced) or operation counters (--mode counted) installed,
and prints one JSON object with the CLI's exit code and output, the span
summary or counts, and the RuntimeWarnings raised.

    python3 perfbench/suite_cell.py --P 2 --Q 7 --mode traced
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--P", type=int, required=True)
    parser.add_argument("--Q", type=int, required=True)
    parser.add_argument("--mode", choices=("traced", "counted"), required=True)
    args = parser.parse_args()

    import qsl2r.cli as cli

    inst = tracing.Tracer() if args.mode == "traced" else tracing.OpCounter()
    if args.mode == "traced":
        inst.cell = f"suite P={args.P} Q={args.Q}"
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with inst.active(), redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(["suite", "--P", str(args.P), "--Q", str(args.Q)])
    result = {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
              "runtime_warnings": sum(issubclass(w.category, RuntimeWarning) for w in caught)}
    if args.mode == "traced":
        result["spans"] = inst.summary()
        result["records"] = inst.records()
    else:
        result["counts"] = dict(inst.counts)
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
