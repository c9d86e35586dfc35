import json
from pathlib import Path

import pytest

from qsl2r.cli import emit_report, main, parse_command
from qsl2r.ncpoly import NcPoly, format_expr, lemma_check, lemma_v
from qsl2r.ncpoly import _two_bracket_sq
from qsl2r.reps import representation_from_json, verify_relations


def run(argv):
    return main(argv)


def test_parse_command_valid():
    args = parse_command(["rep", "--P", "1", "--Q", "3", "--family", "1",
                          "--r", "1", "--sign", "+"])
    assert args.command == "rep" and args.family == 1 and args.sign == 1
    args = parse_command(["verify", "--P", "1", "--Q", "3", "--family", "1",
                          "--r", "1", "--sign", "+", "--check", "identity",
                          "--x", "2,0"])
    assert args.check == "identity" and args.x == 2 + 0j


@pytest.mark.parametrize("argv,needle", [
    (["rep", "--P", "2", "--Q", "4"], 2),          # Q must be odd
    (["rep", "--P", "0", "--Q", "5"], 2),          # P out of range
    (["rep", "--P", "3", "--Q", "9"], 2),          # not coprime
    (["rep", "--nonsense"], 2),                    # unknown flag
    (["bogus"], 2),                                # unknown command
])
def test_usage_errors_exit_2(argv, needle, capsys):
    with pytest.raises(SystemExit) as exc:
        parse_command(argv)
    assert exc.value.code == needle


def test_q_must_be_odd_diagnostic(capsys):
    with pytest.raises(SystemExit):
        parse_command(["rep", "--P", "2", "--Q", "4"])
    assert "odd" in capsys.readouterr().err


def test_rep_round_trip_reports_identical(tmp_path):
    out = tmp_path / "rep.json"
    code = run(["rep", "--P", "1", "--Q", "3", "--family", "1", "--r", "1",
                "--sign", "+", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    rep = representation_from_json(data)
    for which in ("defining", "zj", "central"):
        assert verify_relations(rep, which).to_json()["ok"]


def test_verify_identity_pass_summary(tmp_path, capsys):
    out = tmp_path / "v.json"
    code = run(["verify", "--P", "1", "--Q", "3", "--family", "1", "--r", "1",
                "--sign", "+", "--check", "identity", "--x", "2,0",
                "--out", str(out)])
    assert code == 0
    assert "identity: PASS (residual 0 exact)" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["exact"] and payload["residual"] == 0.0


@pytest.mark.parametrize("check", ["defining", "zj", "central", "lemma", "hopf"])
def test_verify_all_checks_run(tmp_path, check):
    code = run(["verify", "--P", "1", "--Q", "5", "--family", "1", "--r", "2",
                "--sign", "-", "--check", check, "--out", str(tmp_path / "r.json")])
    assert code == 0


def test_verify_star_reproduces_the_negative_claim(tmp_path):
    # the unmodified involution holds only in dimension one
    assert run(["verify", "--P", "1", "--Q", "5", "--family", "1", "--r", "0",
                "--sign", "+", "--check", "star", "--out", str(tmp_path / "a.json")]) == 0
    assert run(["verify", "--P", "1", "--Q", "5", "--family", "1", "--r", "2",
                "--sign", "-", "--check", "star", "--out", str(tmp_path / "b.json")]) == 1


def test_verify_family2_flags(tmp_path):
    code = run(["verify", "--P", "1", "--Q", "3", "--family", "2",
                "--lambda", "1.5,-0.5", "--a", "1,0", "--b", "2,0",
                "--check", "zj", "--out", str(tmp_path / "r.json")])
    assert code == 0


def test_exact_family2_lambda_token(tmp_path):
    out = tmp_path / "rep.json"
    code = run(["rep", "--P", "1", "--Q", "5", "--family", "2",
                "--lambda=-q^-4", "--a", "0,0", "--b", "0,0", "--exact",
                "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["backend"] == "exact"


def test_negative_values_parse_with_equals(tmp_path):
    # argparse reads "--a -1,0" as a flag; the "--a=-1,0" form is documented
    argv = ["verify", "--P", "2", "--Q", "5", "--family", "2", "--exact",
            "--lambda=-q^2", "--a=-1,0", "--b=-2,0", "--check", "zj", "--x=-1,0"]
    args = parse_command(argv)
    assert args.lam == ("q", -1, 2) and args.a == -1 + 0j and args.b == -2 + 0j
    assert args.x == -1 + 0j
    assert run(argv + ["--out", str(tmp_path / "r.json")]) == 0


def test_emit_report_exit_codes(tmp_path, capsys):
    assert emit_report({"ok": True}, None, ["x: PASS"], True) == 0
    assert emit_report({"ok": False}, None, ["x: FAIL"], False) == 1
    assert emit_report({}, str(tmp_path / "no" / "dir" / "f.json"), [], True) == 2


def test_failing_lemma_report_carries_residual_expression():
    bad_v = lemma_v() - NcPoly.word("J", _two_bracket_sq()) * 2
    report = lemma_check(bad_v, consequence_depth=0)
    assert not report.ok
    rendered = format_expr(report.residual)
    assert rendered != "0"
    payload = {"lemma": {"ok": report.ok, "residual": rendered}}
    assert emit_report(payload, None, [f"lemma: FAIL (residual {rendered})"],
                       report.ok) == 1


def test_spectrum_schema(tmp_path):
    out = tmp_path / "s.json"
    code = run(["spectrum", "--P", "1", "--Q", "5", "--family", "1", "--r", "4",
                "--sign", "+", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert set(data) >= {"eigenvalues", "xLabels", "links", "band_residual", "unitarizing"}
    assert data["links"][-1] == "vanished"
    assert set(data["unitarizing"]) >= {"T", "G"}


def test_ladder_and_unitarize_and_intersect(tmp_path):
    assert run(["ladder", "--P", "1", "--Q", "5", "--family", "1", "--r", "3",
                "--sign", "+", "--out", str(tmp_path / "l.json")]) == 0
    assert run(["unitarize", "--P", "1", "--Q", "3", "--family", "1", "--r", "2",
                "--sign", "-", "--out", str(tmp_path / "u.json")]) == 0
    assert run(["intersect", "--P", "1", "--Q", "7", "--sign", "-",
                "--out", str(tmp_path / "i.json")]) == 0


def test_unitarize_family2_fails_with_exit_1(tmp_path):
    code = run(["unitarize", "--P", "1", "--Q", "3", "--family", "2",
                "--lambda", "2,0", "--a", "1,0", "--b", "1,0",
                "--out", str(tmp_path / "u.json")])
    assert code == 1


def test_symbolic_pbw_expression(tmp_path, capsys):
    out = tmp_path / "p.json"
    code = run(["symbolic", "--check", "pbw",
                "--expr", "Z*Z*J - (q^2 + q^-2)*Z*J*Z + J*Z*Z", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["pbw"]["normal_form"] == "0"


def test_symbolic_parse_error_exit_1(tmp_path):
    assert run(["symbolic", "--check", "pbw", "--expr", "W + 1"]) == 1


def test_symbolic_counit_note_logged(capsys):
    assert run(["symbolic", "--check", "hopf"]) == 0
    out = capsys.readouterr().out
    assert "eps(J) = 0" in out


def test_env_tolerance_override(tmp_path, monkeypatch):
    monkeypatch.setenv("QSL2R_TOL", "1e-3")
    args = parse_command(["verify", "--P", "1", "--Q", "3", "--check", "defining"])
    assert args.tol == 1e-3
    monkeypatch.setenv("QSL2R_TOL", "junk")
    args = parse_command(["verify", "--P", "1", "--Q", "3", "--check", "defining"])
    assert args.tol == pytest.approx(1e-9)


# exact fields of `qsl2r suite --P 2 --Q 5`, recorded before the relations
# moved into ncpoly and onto the matrices through reps.evaluate
SUITE_GOLDEN = Path(__file__).parent / "data" / "suite_P2_Q5_exact.json"


def _exact_fields(payload):
    # band_residual and unitarize are floating, so they are left out
    fam1 = {name: {k: v for k, v in cell.items() if k not in ("band_residual", "unitarize")}
            for name, cell in payload["family1"].items()}
    return {"family1": fam1, "symbolic": payload["symbolic"]}


def test_suite_exact_fields_match_golden(tmp_path):
    out = tmp_path / "suite.json"
    assert run(["suite", "--P", "2", "--Q", "5", "--out", str(out)]) == 0
    assert _exact_fields(json.loads(out.read_text())) == json.loads(SUITE_GOLDEN.read_text())
