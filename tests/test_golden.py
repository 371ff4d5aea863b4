"""Reports of the fast commands, byte for byte against checked-in copies.

``tests/golden/<command>.json`` is the stdout of ``hopfcyc <command>`` at
default arguments; ``<command>-upto<N>.json`` that of ``hopfcyc <command>
--upto N``, for the deeper degrees; ``<command>-degree<N>.json`` that of
``hopfcyc <command> --degree N``; ``verify-hopf-h1cop.json`` that of
``hopfcyc verify-hopf --file src/hopfcyc/data/h1cop.hopf``.  A change that alters a report on
purpose regenerates the file with ``PYTHONPATH=src python -m hopfcyc.cli
<command> [--upto N | --degree N] > tests/golden/<name>.json`` and says why;
any other difference is a regression.
"""

from pathlib import Path

import pytest

from hopfcyc import cli

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = [
    "verify-hopf",
    "check-mpi",
    "check-matched-pair",
    "ch-sayd",
    "ah-sayd",
    "quotient-coideal",
    "reproduce-paper",
    "check-sayd",
    "cohomology",
    "check-cocyclic",
    "kaygun",
    "cup",
]


@pytest.mark.parametrize("command", COMMANDS)
def test_report_matches_golden(capsys, command):
    assert cli.run([command]) == 0
    expected = (GOLDEN / f"{command}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "command,upto",
    [
        ("cohomology", 4),
        ("cohomology", 5),
        ("cohomology", 7),
        ("check-cocyclic", 4),
        ("kaygun", 3),
        ("kaygun", 4),
        ("cup", 3),
        ("cup", 4),
    ],
)
def test_deep_report_matches_golden(capsys, command, upto):
    assert cli.run([command, "--upto", str(upto)]) == 0
    expected = (GOLDEN / f"{command}-upto{upto}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("degree", [3, 4])
def test_degree_report_matches_golden(capsys, degree):
    assert cli.run(["verify-hopf", "--degree", str(degree)]) == 0
    expected = (GOLDEN / f"verify-hopf-degree{degree}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_file_report_matches_golden(capsys):
    data = Path(cli.__file__).parent / "data" / "h1cop.hopf"
    assert cli.run(["verify-hopf", "--file", str(data)]) == 0
    expected = (GOLDEN / "verify-hopf-h1cop.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
