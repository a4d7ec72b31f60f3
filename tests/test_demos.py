"""The narrated demos run to the end on the public API."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).parent.parent / "demos"

KEY_LINES = {
    "conoid_study.py": "conclusion: no plane section is a non-degenerate conic",
    "hidden_plane.py": "  recovered plane: x + y + z - 4 = 0",
    "planar_intersection.py": "  every intersection point satisfies b*x + a*y - a*b*z = 0",
}


def test_every_demo_is_covered():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(KEY_LINES)


@pytest.mark.parametrize("name", sorted(KEY_LINES))
def test_demo_prints_its_key_line(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert KEY_LINES[name] in capsys.readouterr().out.splitlines()
