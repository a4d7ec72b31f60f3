"""Regenerate the benchmark's reference files in perfbench/ref/.

Usage, from the repository root (needs sympy):

    python3 perfbench/make_refs.py

- ``fixed.json``: sympy's reduced lex bases of the systems that take no seed
  (katsura-2/3/4, cyclic-3/4/5, the parametric stress system and the pinned
  parametric pairs).
- ``paper.json``: the exact standard output of every ``paper`` command, taken
  from the current program.  Before writing it, the bases these outputs print
  are checked against sympy, so the pinned text is known to be right.

The pinned CLI outputs must stay byte-identical across changes to the
program; rerun this only when an output is meant to change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402


def fixed_systems() -> dict[str, str]:
    systems = {f"katsura-{n}": gen.katsura(n) for n in (2, 3, 4)}
    systems.update({f"cyclic-{n}": gen.cyclic(n) for n in (3, 4, 5)})
    systems["stress"] = workloads.stress_system()
    systems.update(workloads.pinned_systems())
    return systems


def make_fixed() -> dict:
    systems = fixed_systems()
    answers = workloads.oracle(
        [{"kind": "basis", "system": s, "method": "f5b"} for s in systems.values()],
        timeout=3600,
    )
    return {
        name: {"system": system, "basis": basis}
        for (name, system), basis in zip(systems.items(), answers)
    }


def make_paper() -> dict:
    import gbgeom.cli

    outputs = {}
    for argv in workloads.paper_commands(ROOT):
        status, text = workloads.run_cli(gbgeom, [str(ROOT / a) if a in workloads.FIXTURES else a for a in argv])
        if status != 0:
            raise SystemExit(f"command failed: {argv}")
        outputs[" ".join(argv)] = text

    # Every basis the JSON outputs print must agree with sympy.
    checks = []
    for fixture in workloads.FIXTURES:
        system = (ROOT / fixture).read_text(encoding="utf-8")
        payload = json.loads(outputs[f"basis {fixture} --json"])
        checks.append((system, payload))
    conic = json.loads(outputs["conoid conic-analysis --json"])
    conic_system = gen.system_text(conic["vars"], conic["constraints"], conic["params"])
    checks.append((conic_system, conic))
    references = workloads.oracle([{"kind": "basis", "system": s} for s, _ in checks])
    for (system, payload), reference in zip(checks, references):
        for mode in ("monic", "cleared"):
            rendered = [entry[mode] for entry in payload["basis"]]
            if not check.same_basis(rendered, reference, payload["vars"], payload["params"]):
                raise SystemExit(f"{mode} basis disagrees with sympy for:\n{system}")
    return outputs


def main() -> int:
    out = HERE / "ref"
    out.mkdir(exist_ok=True)
    (out / "paper.json").write_text(json.dumps(make_paper(), indent=1, sort_keys=True) + "\n")
    (out / "fixed.json").write_text(json.dumps(make_fixed(), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
