import cmath
import json
from pathlib import Path

import pytest

from qsl2r import reps
from qsl2r.cli import emit_report, main, parse_command
from qsl2r.ncpoly import NcPoly, format_expr, lemma_check, lemma_v, relation_sides
from qsl2r.ncpoly import _two_bracket_sq
from qsl2r.reps import certified_zeros, evaluate, representation_from_json, verify_relations
from qsl2r.scalar import REL_TOL
from qsl2r.spectral import EIGEN_TOL


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
    (["rep", "--Q", "3", "--r", "3"], 2),          # r out of range
    (["spectrum", "--Q", "5", "--r=-1"], 2),       # r negative
    (["symbolic", "--check", "pbw"], 2),           # pbw without --expr
    (["symbolic", "--expr", "X*Y"], 2),            # --expr with the default check
    (["symbolic", "--check", "lemma", "--expr", "X"], 2),  # --expr with another check
    (["symbolic", "--check", "pbw", "--expr", "X*"], 2),   # --expr does not parse
    (["symbolic", "--check", "pbw", "--expr", "Q"], 2),    # unknown identifier
    (["symbolic", "--check", "pbw", "--expr", "1/0"], 2),  # division by zero
    (["symbolic", "--check", "pbw", "--expr", "(q-q)^-1"], 2),
    (["symbolic", "--check", "pbw", "--expr", "J^33"], 2),  # 66 letters with J as X Zi
    (["symbolic", "--check", "pbw", "--expr", "J^5*Zi^55"], 2),
    (["suite", "--Q", "5", "--tol", "nan"], 2),    # tolerance not finite
    (["spectrum", "--Q", "5", "--tol=-1"], 2),     # tolerance not positive
    (["rep", "--family", "1", "--approx"], 2),     # the first family is exact
    (["rep", "--family", "2", "--exact"], 2),      # exact family 2 without q^k lambda
    (["rep", "--family", "2", "--exact", "--lambda", "1,0"], 2),
    (["rep", "--family", "2", "--a", "q^2"], 2),   # q^k tokens are for --lambda
    (["rep", "--family", "2", "--b", "q^2"], 2),
    (["rep", "--a", "q^2"], 2),
    (["rep", "--Q", "5", "--family", "2", "--exact", "--lambda", "q^1",
      "--a", "1.5,0"], 2),                         # exact family 2, non-integer a
    (["rep", "--Q", "5", "--family", "2", "--exact", "--lambda", "q^1",
      "--b", "2,1"], 2),                           # exact family 2, non-integer b
    (["rep", "--family", "2", "--lambda", "0"], 2),  # lambda must be nonzero
    (["verify", "--check", "identity", "--x", "q^2"], 2),
    (["verify", "--check", "identity", "--x", "nan"], 2),  # values must be finite
    (["rep", "--family", "2", "--lambda", "1,inf"], 2),
    (["spectrum", "--Q", "65", "--r", "64"], 2),   # matrices beyond 64 x 64
    (["ladder", "--Q", "67", "--r", "66"], 2),
    (["unitarize", "--Q", "65", "--family", "2"], 2),
    (["intersect", "--tol", "1e-3"], 2),           # intersect is exact: no --tol
    (["suite", "--Q", "65"], 2),
])
def test_usage_errors_exit_2(argv, needle, capsys):
    with pytest.raises(SystemExit) as exc:
        parse_command(argv)
    assert exc.value.code == needle


def test_words_over_the_cap_with_j_read_as_x_zi_are_refused_at_parse_time(capsys):
    # the cap pbw_normal_form applies, with the message it gives X^65
    for expr, n in (("X^65", 65), ("J^33", 66), ("J^5*Zi^55", 65)):
        with pytest.raises(SystemExit) as exc:
            parse_command(["symbolic", "--check", "pbw", "--expr", expr])
        assert exc.value.code == 2
        assert (f"--expr {expr!r} is refused: word length {n} exceeds the cap 64"
                in capsys.readouterr().err)
    for expr in ("J^32", "J^4*Zi^56", "J^31*Z*J"):   # 64 letters, Zi Z cancelled
        assert parse_command(["symbolic", "--check", "pbw", "--expr", expr]).poly


def test_spectral_commands_take_64_x_64_and_rep_any_q():
    for argv in (["spectrum", "--Q", "65", "--r", "63"], ["ladder", "--Q", "67", "--r", "63"],
                 ["unitarize", "--Q", "63", "--family", "2"], ["intersect", "--Q", "67"],
                 ["suite", "--Q", "63"], ["rep", "--Q", "67", "--r", "66"],
                 ["verify", "--Q", "67", "--family", "2", "--check", "zj"]):
        assert parse_command(argv).command == argv[0]


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


X_REPS = {"family 1": ["--family", "1", "--P", "1", "--Q", "3", "--r", "0"],
          "floating family 2": ["--family", "2", "--P", "2", "--Q", "7", "--lambda", "1.2,0.3",
                                "--a", "0.5", "--b=-1,0.25"],
          "exact family 2": ["--family", "2", "--exact", "--P", "2", "--Q", "7",
                             "--lambda", "q^2", "--a", "1", "--b", "2"]}


@pytest.mark.parametrize("rep_flags", sorted(X_REPS))
@pytest.mark.parametrize("x,reported,integral", [
    (["--x", "5"], "[5.0, 0.0]", True), (["--x=-3,0"], "[-3.0, 0.0]", True),
    (["--x=-0.0"], "[0.0, 0.0]", True), (["--x", "0.5"], "[0.5, 0.0]", False),
    (["--x", "2,1"], "[2.0, 1.0]", False)])
def test_an_integral_x_is_reported_as_the_integer_it_was_evaluated_at(
        rep_flags, x, reported, integral, capsys):
    # -0.0 is the integer 0, so it reports +0.0; every finite x, integral or
    # not, is exact on an exact representation, as it keeps no C_k
    assert run(["verify", "--check", "identity", *X_REPS[rep_flags], *x]) == 0
    out = capsys.readouterr().out
    payload, _ = json.JSONDecoder().raw_decode(out)
    assert json.dumps(payload["x"]) == reported
    assert payload["exact"] == (rep_flags != "floating family 2")
    assert integral == (payload["x"][1] == 0 and float(payload["x"][0]).is_integer())
    assert payload["ok"] and out.splitlines()[-1].startswith("identity: PASS")


@pytest.mark.parametrize("token,sign", [("q^3", 1), ("-q^3", -1)])
def test_floating_family2_takes_a_q_power_lambda(token, sign, capsys):
    argv = ["verify", "--check", "defining", "--family", "2", "--approx", "--P", "2",
            "--Q", "7", f"--lambda={token}", "--a", "1", "--b", "2"]
    lam, a, b = parse_command(argv).family2_params
    assert type(lam) is complex and (a, b) == (1 + 0j, 2 + 0j)
    assert lam == sign * cmath.exp(2j * cmath.pi * 2 / 7) ** 3
    assert run(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("defining: PASS")


EXACT_FAMILY2_HUGE_A = ["--family", "2", "--exact", "--lambda", "q^2", "--a", "1e30",
                        "--b", "2", "--P", "2", "--Q", "31"]


@pytest.mark.parametrize("check,line", [
    (["defining"], "defining: PASS (max residual 0)"),
    (["zj"], "zj: PASS (max residual 0)"),
    (["identity", "--x", "3"], "identity: PASS (residual 0 exact)"),
])
def test_exact_family2_with_coefficients_beyond_int64(check, line, monkeypatch, capsys):
    """At a = 10^30 the generators are GaussCyclo matrices with coefficients
    beyond int64, so the certificate packs them as Python ints.  The second
    J-Z relation needs more than MAX_SPLIT_PRIMES primes: it is left
    undecided and evaluated on the CycloNum matrices."""
    verdicts, evaluated = [], []

    def certified(polys, rep):
        verdicts.append(certified_zeros(polys, rep))
        return verdicts[-1]

    def spy(polys, rep, exact=None):
        evaluated.append(polys)
        return evaluate(polys, rep, exact)

    monkeypatch.setattr(reps, "certified_zeros", certified)
    monkeypatch.setattr(reps, "evaluate", spy)
    assert run(["verify", "--check", *check, *EXACT_FAMILY2_HUGE_A]) == 0
    assert line in capsys.readouterr().out.splitlines()
    assert verdicts[0] == [True] * 5     # the constructor's defining check
    if check == ["zj"]:
        assert verdicts[1:] == [[True, None]] and len(evaluated) == 1
        assert evaluated[0] == list(list(relation_sides("zj").values())[1])


@pytest.mark.parametrize("text,exact", [("12345678901234567891", 12345678901234567891),
                                        ("1e30", 10 ** 30), ("-7,0", -7), ("2.5e1", 25)])
def test_exact_a_and_b_keep_every_digit(text, exact, tmp_path):
    # the floating path reads the same text through float, as it always has
    argv = ["rep", "--family", "2", "--lambda", "q^2", f"--a={text}", f"--b={text}",
            "--P", "2", "--Q", "7"]
    _, a, b = parse_command(argv).family2_params
    assert type(a) is complex and a == b == complex(float(text.split(",")[0]))
    _, a, b = parse_command(argv + ["--exact"]).family2_params
    assert type(a) is int and a == b == exact
    out = tmp_path / "rep.json"
    assert run(argv + ["--exact", "--out", str(out)]) == 0
    params = json.loads(out.read_text())["params"]
    for name in ("a", "b"):
        assert params[name]["re"][0] == [str(exact), "1"]
        assert all(c == ["0", "1"] for c in params[name]["re"][1:] + params[name]["im"])


@pytest.mark.parametrize("text", ["1.5", "2,1", "1,1e-300", "1.00000000000000000001",
                                  "1e-400"])
def test_exact_a_refuses_what_names_no_integer(text):
    # float reads the last two as the integers 1 and 0
    argv = ["rep", "--family", "2", "--exact", "--lambda", "q^2", f"--a={text}",
            "--P", "2", "--Q", "7"]
    with pytest.raises(SystemExit) as exc:
        parse_command(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("name,text", [("a", "1e-400"), ("a", "2.5"),
                                       ("a", "1.00000000000000000001"), ("b", "2,1"),
                                       ("b", "1,1e-300")])
def test_a_refused_exact_a_or_b_is_quoted_as_given(name, text, capsys):
    # the nearest double would name 1e-400 as 0,0 and 1,1e-300 as 1,0
    argv = ["rep", "--family", "2", "--exact", "--lambda", "q^2", f"--{name}={text}",
            "--P", "2", "--Q", "7"]
    with pytest.raises(SystemExit) as exc:
        parse_command(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.rstrip().endswith(
        f"needs an integer --{name}, got {text!r}")


@pytest.mark.parametrize("flag,text", [("lambda", "abc"), ("lambda", "q^x"), ("a", "1,2,3"),
                                       ("b", "abc"), ("x", "")])
def test_an_unparsable_value_is_quoted_as_given(flag, text, capsys):
    with pytest.raises(SystemExit) as exc:
        parse_command(["verify", "--check", "identity", "--family", "2", f"--{flag}={text}"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.rstrip().endswith(
        f"argument --{flag}: cannot parse complex value {text!r}")


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


@pytest.mark.parametrize("argv,pairs", [
    (["--P", "2", "--Q", "7", "--lambda", "1.2,0.3", "--a", "0.5", "--b", "1"], 7),
    (["--exact", "--lambda", "q^2", "--a", "1", "--b", "2", "--P", "2", "--Q", "5"], 5)],
    ids=["floating", "exact"])
def test_ladder_shifts_every_eigenpair_of_the_second_family(tmp_path, argv, pairs):
    # the cyclic ladder: no image vanishes, and ok holds each image's
    # residual against the shifted eigenvalue below the tolerance
    out = tmp_path / "l.json"
    assert run(["ladder", "--family", "2", *argv, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["ok"] and len(data["ladder"]) == pairs
    for entry in data["ladder"]:
        assert entry["raise"] == entry["lower"] == "shifted"


def test_unitarize_family2_fails_with_exit_1(tmp_path):
    code = run(["unitarize", "--P", "1", "--Q", "3", "--family", "2",
                "--lambda", "2,0", "--a", "1,0", "--b", "1,0",
                "--out", str(tmp_path / "u.json")])
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["--P", "10", "--Q", "21", "--r", "17"],
    ["--P", "2", "--Q", "7", "--family", "2", "--lambda", "1.2,0.3", "--a", "0.5", "--b=-1,0.25"]],
    ids=["family1", "floating-family2"])
def test_spectrum_exits_1_when_it_prints_a_failing_unitarizing_search(tmp_path, capsys, argv):
    # the band check passes, so the exit code is the unitarizing search's
    assert run(["spectrum", *argv, "--out", str(tmp_path / "s.json")]) == 1
    out = capsys.readouterr().out
    assert ": PASS (band residual" in out and "unitarizing structure: FAIL" in out
    assert run(["unitarize", *argv, "--out", str(tmp_path / "u.json")]) == 1


@pytest.mark.parametrize("command", ["spectrum", "ladder", "unitarize"])
def test_a_chain_error_is_reported_as_json_and_a_fail_line(command, capsys):
    code = run([command, "--P", "1", "--Q", "3", "--family", "2", "--lambda", "1,0"])
    out = capsys.readouterr()
    assert code == 1 and out.err == ""
    *text, summary = out.out.splitlines()
    assert summary == f"{command}: FAIL (chain links 2 of 3 eigenvalues)"
    payload = json.loads("\n".join(text))
    assert set(payload) == {"error", "partial"}
    assert payload["error"] == "chain links 2 of 3 eigenvalues"
    assert payload["partial"]["links"] == ["raised", "vanished"]


def test_suite_records_a_chain_error_in_its_cell_and_goes_on(capsys):
    assert run(["suite", "--P", "15", "--Q", "31"]) == 1
    out = capsys.readouterr().out
    payload, end = json.JSONDecoder().raw_decode(out)
    assert set(payload) == {"P", "Q", "symbolic", "family1", "family2",
                            "tensor_j_residual", "intersection"}
    fam1 = payload["family1"]
    assert len(fam1) == 62
    failed = {name: cell for name, cell in fam1.items() if "error" in cell}
    assert 0 < len(failed) < 62
    for cell in failed.values():
        assert set(cell) == {"defining", "zj", "central", "identity_residuals",
                             "star_original_ok", "error"}
        assert cell["defining"]["ok"] and cell["identity_residuals"]["0"] == 0.0
    assert (failed["r=20,sign=+1"]["error"]
            == "raising image is not a [x+2]-eigenvector (residual 1.46e-07)")
    assert out[end:].split("\n")[1:] == [
        "symbolic proof replay: PASS", "hopf + translations: PASS",
        "first family grid: FAIL (62 representations)", "second family samples: PASS",
        "tensor coproduct of J: PASS", "family intersection: PASS", ""]


def test_suite_records_a_second_family_chain_error_in_its_sample_and_goes_on(
        capsys, monkeypatch):
    from qsl2r import cli
    from qsl2r.spectral import ChainError

    real = cli.tridiagonality_check

    def failing_on_family2(rep, **kw):
        if rep.family == 2:
            raise ChainError("no cyclic start", partial=None)
        return real(rep, **kw)

    monkeypatch.setattr(cli, "tridiagonality_check", failing_on_family2)
    assert run(["suite", "--P", "1", "--Q", "5"]) == 1
    out = capsys.readouterr().out
    payload, end = json.JSONDecoder().raw_decode(out)
    assert set(payload) == {"P", "Q", "symbolic", "family1", "family2",
                            "tensor_j_residual", "intersection"}
    assert not any("error" in cell for cell in payload["family1"].values())
    fam2 = payload["family2"]
    assert sorted(fam2) == ["sample0", "sample1", "sample2"]
    for cell in fam2.values():
        assert set(cell) == {"lambda", "a", "b", "defining", "zj",
                             "identity_worst_residual", "error"}
        assert cell["error"] == "no cyclic start" and cell["defining"]["ok"]
    assert out[end:].split("\n")[1:] == [
        "symbolic proof replay: PASS", "hopf + translations: PASS",
        "first family grid: PASS (10 representations)", "second family samples: FAIL",
        "tensor coproduct of J: PASS", "family intersection: PASS", ""]


@pytest.mark.parametrize("flags,tol,spectral_tol", [
    ([], REL_TOL, EIGEN_TOL), (["--tol", "1e-6"], 1e-6, 1e-6),
    (["--tol", "1e-12"], 1e-12, EIGEN_TOL)])
def test_suite_passes_tol_to_relations_and_identities_and_floors_only_spectral_calls(
        flags, tol, spectral_tol, capsys, monkeypatch):
    from qsl2r import cli
    seen = {}

    def record(name):
        real = getattr(cli, name)

        def call(*args, **kw):
            seen.setdefault(name, set()).add(kw.get("tol"))
            return real(*args, **kw)
        monkeypatch.setattr(cli, name, call)

    for name in ("verify_relations", "verify_identity", "spectrum_chain",
                 "tridiagonality_check", "unitarize_search"):
        record(name)
    assert run(["suite", "--P", "1", "--Q", "5", *flags]) in (0, 1)
    capsys.readouterr()
    assert seen == {"verify_relations": {tol}, "verify_identity": {tol},
                    "spectrum_chain": {spectral_tol}, "tridiagonality_check": {spectral_tol},
                    "unitarize_search": {spectral_tol}}


def test_symbolic_pbw_expression(tmp_path, capsys):
    out = tmp_path / "p.json"
    code = run(["symbolic", "--check", "pbw",
                "--expr", "Z*Z*J - (q^2 + q^-2)*Z*J*Z + J*Z*Z", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["pbw"]["normal_form"] == "0"


def test_symbolic_parse_error_exit_2(capsys):
    # an unparsable --expr is a usage error, refused before dispatch
    with pytest.raises(SystemExit) as exc:
        run(["symbolic", "--check", "pbw", "--expr", "W + 1"])
    assert exc.value.code == 2
    assert "unknown identifier 'W'" in capsys.readouterr().err


@pytest.mark.parametrize("expr", ["1/0", "(q-q)^-1", "X/(q - q)"])
def test_symbolic_division_by_zero_is_named(expr, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["symbolic", "--check", "pbw", "--expr", expr])
    assert exc.value.code == 2
    assert "division by zero" in capsys.readouterr().err


def test_symbolic_counit_note_logged(capsys):
    assert run(["symbolic", "--check", "hopf"]) == 0
    out = capsys.readouterr().out
    assert "eps(J) = 0" in out


def test_spectral_commands_floor_the_tolerance_and_intersect_takes_none():
    for command in ("spectrum", "ladder", "unitarize"):
        assert parse_command([command, "--Q", "5", "--tol", "1e-12"]).tol == EIGEN_TOL
        assert parse_command([command, "--Q", "5", "--tol", "1e-3"]).tol == 1e-3
    # suite floors only its spectral calls (test_suite_passes_tol_...)
    for command in (["verify", "--check", "zj"], ["suite", "--Q", "5"]):
        assert parse_command(command + ["--tol", "1e-12"]).tol == 1e-12
    assert "tol" not in parse_command(["intersect", "--Q", "5"])


def test_the_environment_sets_no_tolerance(monkeypatch):
    monkeypatch.setenv("QSL2R_TOL", "1e-3")
    args = parse_command(["verify", "--P", "1", "--Q", "3", "--check", "defining"])
    assert args.tol == REL_TOL


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-3", "junk"])
def test_tol_must_be_finite_and_positive(value, capsys):
    with pytest.raises(SystemExit) as exc:
        parse_command(["verify", "--P", "1", "--Q", "3", "--check", "defining",
                       f"--tol={value}"])
    assert exc.value.code == 2
    assert f"must be a finite number > 0, got {value!r}" in capsys.readouterr().err


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


# full stdout of `qsl2r symbolic` and of two `--check pbw` runs, recorded
# before PBW rewriting merged its worklist and QRat gained its mod-p
# coprimality certificate
SYMBOLIC_GOLDEN = [
    ([], "symbolic_stdout.txt"),
    (["--check", "pbw", "--expr", "Z*Z*J - (q^2 + q^-2)*Z*J*Z + J*Z*Z"],
     "symbolic_pbw_readme_stdout.txt"),
    (["--check", "pbw", "--expr", "X*Y*X*Y*X*Y*X*Y"], "symbolic_pbw_xy4_stdout.txt"),
]


@pytest.mark.parametrize("extra,golden", SYMBOLIC_GOLDEN)
def test_symbolic_stdout_matches_golden(extra, golden, capsys):
    assert run(["symbolic", *extra]) == 0
    expected = (Path(__file__).parent / "data" / golden).read_text()
    assert capsys.readouterr().out == expected
