"""Full CLI stdout, byte for byte, against golden files in ``fixtures/golden``.

Each case names a golden file and the command whose complete output it holds.
The goldens pin every line of the conoid reports and of ``basis``, ``planar``
and ``reduce`` on both fixture systems, plain and ``--json``.
"""

from pathlib import Path

import pytest

from gbgeom.cli import run_command

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"

SYSTEMS = {
    "paraboloid": "paraboloid_cylinder.sys",
    "curve": "cubic_curve.sys",
}

TARGETS = {"paraboloid": "x*y - z", "curve": "x + y + z - 4"}

CASES = {
    "conoid_conic_analysis": ["conoid", "conic-analysis"],
    "conoid_conic_analysis_cleared": ["conoid", "conic-analysis", "--cleared"],
    "conoid_conic_analysis_json": ["conoid", "conic-analysis", "--json"],
    "conoid_verdict": ["conoid", "verdict"],
    "conoid_verdict_json": ["conoid", "verdict", "--json"],
}
for _name, _file in SYSTEMS.items():
    CASES[f"basis_{_name}"] = ["basis", _file]
    CASES[f"basis_{_name}_cleared"] = ["basis", _file, "--cleared"]
    CASES[f"basis_{_name}_json"] = ["basis", _file, "--json"]
    CASES[f"planar_{_name}"] = ["planar", _file]
    CASES[f"planar_{_name}_json"] = ["planar", _file, "--json"]
    CASES[f"reduce_{_name}"] = ["reduce", _file, "--target", TARGETS[_name]]
    CASES[f"reduce_{_name}_json"] = ["reduce", _file, "--target", TARGETS[_name], "--json"]


def cli_output(argv, capsys) -> str:
    argv = [str(FIXTURES / a) if a.endswith(".sys") else a for a in argv]
    assert run_command(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert cli_output(CASES[name], capsys) == expected
