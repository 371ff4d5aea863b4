"""The command-line interface: report shape, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hopfcyc import cli
from hopfcyc.core import Generator
from hopfcyc.errors import ParseError

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, out


def test_reproduce_paper_deterministic(capsys):
    _, first = run_cli(capsys, ["reproduce-paper"])
    _, second = run_cli(capsys, ["reproduce-paper"])
    assert first == second
    report = json.loads(first)
    assert report["command"] == "reproduce-paper"
    assert report["result"]["ok"]


def test_report_has_no_timing_and_sorted_keys(capsys):
    _, out = run_cli(capsys, ["reproduce-paper"])
    report = json.loads(out)
    assert "timing" not in report
    assert "elapsed" not in out
    assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert set(report) == {"command", "version", "input_sha256", "result"}


def test_verify_hopf_vacuous_degree_zero(capsys):
    code, out = run_cli(capsys, ["verify-hopf", "--degree", "0"])
    assert code == 0
    assert json.loads(out)["result"]["ok"]


def test_verify_hopf_on_shipped_file(capsys):
    import importlib.resources

    path = str(importlib.resources.files("hopfcyc") / "data" / "h1cop.hopf")
    code, out = run_cli(capsys, ["verify-hopf", "--file", path, "--degree", "2"])
    result = json.loads(out)["result"]
    assert result["ok"] and result["roundtrip"]


def test_json_flag_writes_identical_report(capsys, tmp_path):
    target = tmp_path / "report.json"
    _, out = run_cli(capsys, ["check-matched-pair", "--json", str(target)])
    assert target.read_text(encoding="utf-8") == out


def test_fast_check_commands(capsys):
    for cmd in [
        "check-matched-pair",
        "quotient-coideal",
        "check-sayd",
        "ch-sayd",
        "ah-sayd",
        "check-mpi",
        "check-cocyclic",
        "kaygun",
        "cup",
    ]:
        code, out = run_cli(capsys, [cmd])
        assert code == 0
        assert json.loads(out)["result"]["ok"], cmd


def test_cohomology_report(capsys):
    _, out = run_cli(capsys, ["cohomology", "--upto", "2"])
    result = json.loads(out)["result"]
    assert result["ok"]
    assert result["point"]["lambda_complex"] == [1, 0, 1]


def test_parse_error_raised_in_process(tmp_path):
    bad = tmp_path / "bad.hopf"
    bad.write_text("hopf t { generators X Q; }")
    with pytest.raises(ParseError):
        cli.run(["verify-hopf", "--file", str(bad)])


def test_exit_codes_via_subprocess(tmp_path):
    bad = tmp_path / "bad.hopf"
    bad.write_text("hopf t { generators X; rule X -> X X; }")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.argv = ['hopfcyc', 'verify-hopf', '--file', sys.argv[1]];"
         "from hopfcyc.cli import main; main()",
         str(bad)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 7
    assert "termination order" in proc.stderr

    syntax = tmp_path / "syntax.hopf"
    syntax.write_text("hopf t { generators X Q; }")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.argv = ['hopfcyc', 'verify-hopf', '--file', sys.argv[1]];"
         "from hopfcyc.cli import main; main()",
         str(syntax)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert "line 1" in proc.stderr


def run_main(argv, *patch, env=None):
    """Run ``hopfcyc.cli.main`` in a fresh interpreter; ``patch`` lines run
    after the import, with the module bound to ``cli``; ``env`` adds
    environment variables."""
    code = "\n".join(
        ["import sys", f"sys.argv = {['hopfcyc', *argv]!r}", "from hopfcyc import cli", *patch, "cli.main()"]
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, **(env or {})},
    )


@pytest.mark.parametrize("seed", ["0", "1"])
@pytest.mark.parametrize("command", ["verify-hopf", "reproduce-paper"])
def test_reports_do_not_depend_on_hash_order(command, seed):
    # letters hash by identity and strings by the seed, so neither the
    # seed nor memory layout may reach the order of a report
    proc = run_main([command], env={"PYTHONHASHSEED": seed})
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / f"{command}.json").read_text(encoding="utf-8")


def test_file_rejected_where_unread(tmp_path):
    readme = tmp_path / "README.md"
    readme.write_text("not a presentation")
    proc = run_main(["check-sayd", "--file", str(readme)])
    assert proc.returncode == 8
    assert proc.stderr == "error: check-sayd does not read --file\n"
    assert proc.stdout == ""


def test_unreadable_file_is_a_precondition_error(tmp_path):
    missing = tmp_path / "missing.hopf"
    proc = run_main(["verify-hopf", "--file", str(missing)])
    assert proc.returncode == 8
    assert proc.stderr == f"error: cannot read --file {missing}: No such file or directory\n"

    binary = tmp_path / "binary.hopf"
    binary.write_bytes(b"\xff\xfe\x00")
    proc = run_main(["verify-hopf", "--file", str(binary)])
    assert proc.returncode == 8
    assert proc.stderr.count("\n") == 1 and "not UTF-8" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["check-cocyclic", "--upto", "-1"],
        ["cohomology", "--upto", "-1"],
        ["kaygun", "--upto", "-1"],
        ["cup", "--upto", "-1"],
        ["verify-hopf", "--degree", "-1"],
    ],
)
def test_negative_bound_is_a_precondition_error(argv):
    proc = run_main(argv)
    assert proc.returncode == 8
    assert proc.stderr == f"error: {argv[1]} must be non-negative, got -1\n"
    assert proc.stdout == ""


def test_zero_bound_stays_valid(capsys):
    code, out = run_cli(capsys, ["cohomology", "--upto", "0"])
    assert code == 0
    assert json.loads(out)["result"]["point"]["lambda_complex"] == [1]


def test_input_hash_names_every_argument(capsys, tmp_path):
    def digest(argv):
        _, out = run_cli(capsys, argv)
        return json.loads(out)["input_sha256"]

    runs = [["check-sayd"], ["cohomology"], ["cohomology", "--upto", "2"], ["cohomology", "--degree", "2"]]
    digests = [digest(argv) for argv in runs]
    assert len(set(digests)) == len(runs)
    assert digest(["cohomology", "--upto", "2"]) == digests[2]

    import importlib.resources

    shipped = (importlib.resources.files("hopfcyc") / "data" / "h1cop.hopf").read_bytes()
    copy, edited = tmp_path / "copy.hopf", tmp_path / "edited.hopf"
    copy.write_bytes(shipped)
    edited.write_bytes(shipped + b"\n")
    assert digest(["verify-hopf", "--degree", "1", "--file", str(copy)]) != digest(
        ["verify-hopf", "--degree", "1", "--file", str(edited)]
    )


def test_step_limit_exit_code():
    from hopfcyc.errors import RewriteLimitError

    proc = run_main(["verify-hopf"], env={"HOPFCYC_STEP_LIMIT": "3"})
    assert proc.returncode == RewriteLimitError.exit_code == 6
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: rewrite step guard (3) exceeded")
    assert proc.stdout == ""


def test_jsonable_renders_generators():
    # Generator is a tuple underneath; reports still show the letter
    assert cli.jsonable(Generator("d", 2)) == "d[2]"
    assert cli.jsonable([(Generator("X"), Generator("d", 1))]) == [["X", "d[1]"]]


def test_unexpected_exception_is_an_internal_error():
    from hopfcyc.errors import InternalError

    proc = run_main(
        ["check-matched-pair"],
        "def boom(args):",
        "    raise ValueError('two\\nlines')",
        "cli.COMMANDS['check-matched-pair'] = boom",
    )
    assert proc.returncode == InternalError.exit_code == 10
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("internal error: ValueError: two lines (at <string>:")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_unknown_command_rejected():
    with pytest.raises(SystemExit) as exc:
        cli.run(["frobnicate"])
    assert exc.value.code == 2


def test_timing_goes_to_stderr(capsys):
    cli.run(["check-matched-pair"])
    captured = capsys.readouterr()
    assert "elapsed" in captured.err
    assert "elapsed" not in captured.out
