"""The benchmark's workloads: inputs, calls into gbgeom, and answer checks.

Each workload function imports nothing itself; it receives the freshly
imported ``gbgeom`` package, generates its inputs from the seed, obtains the
oracle's reference answers and builds anything answers read.  It returns a
list of ``Item``s.  ``Item.call`` is the timed answer; ``Item.render`` turns
the answer into plain data outside the timed region, and ``Item.check``
compares that data with the reference.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import check
import gen

HERE = Path(__file__).resolve().parent
REFS = HERE / "ref"
FIXTURES = ("tests/fixtures/paraboloid_cylinder.sys", "tests/fixtures/cubic_curve.sys")


@dataclass
class Item:
    name: str
    call: Callable[[], Any]
    render: Callable[[Any], Any]
    check: Callable[[Any], bool]
    # Times out at the commit that added the benchmark; left out of core_batch_s.
    slow: bool = False


class OracleError(RuntimeError):
    """The reference answers could not be computed."""


def oracle(tasks: list[dict], timeout: float = 150) -> list:
    """Reference answers from sympy, computed in a child process."""
    if not tasks:
        return []
    done = subprocess.run(
        [sys.executable, str(HERE / "oracle.py")],
        input=json.dumps(tasks), capture_output=True, text=True, timeout=timeout,
    )
    if done.returncode != 0:
        raise OracleError(f"oracle failed: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout)


def fixed_reference(name: str, system: str) -> list[str]:
    """A basis precomputed by make_refs.py for a system that takes no seed."""
    entry = json.loads((REFS / "fixed.json").read_text())[name]
    if entry["system"] != system:
        raise OracleError(f"reference for {name} was made from another system")
    return entry["basis"]


def _basis_item(
    gb, name: str, system: str, reference: list[str] | None, slow: bool = False
) -> Item:
    polys = gb.parse_system(system).build()
    variables, params, _ = gen.system_fields(system)
    return Item(
        name,
        lambda: gb.reduced_basis(polys),
        lambda basis: [str(g) for g in basis],
        lambda text: reference is not None
        and check.same_basis(text, reference, variables, params),
        slow,
    )


# -- paper: the paper's artifacts through the in-process CLI ------------------

def paper_commands(root: Path) -> list[list[str]]:
    commands = []
    targets = {FIXTURES[0]: "b*x + a*y - a*b*z", FIXTURES[1]: "x + y + z - 4"}
    for fixture in FIXTURES:
        for command in ("basis", "planar"):
            for mode in ((), ("--cleared",), ("--json",)):
                commands.append([command, fixture, *mode])
        for mode in ((), ("--json",)):
            commands.append(["reduce", fixture, "--target", targets[fixture], *mode])
    for axis, value in (("x", "1"), ("y", "0"), ("z", "1/2")):
        for mode in ((), ("--json",)):
            commands.append(["conoid", "section", "--axis", axis, "--value", value, *mode])
    for study in ("conic-analysis", "verdict"):
        for mode in ((), ("--json",)):
            commands.append(["conoid", study, *mode])
    return commands


def run_cli(gb, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = gb.cli.run_command(argv)
    return status, out.getvalue()


def paper(gb, seed: int, root: Path) -> list[Item]:
    expected = json.loads((REFS / "paper.json").read_text())
    items = []
    for argv in paper_commands(root):
        key = " ".join(argv)
        actual = [str(root / a) if a in FIXTURES else a for a in argv]
        items.append(Item(
            key,
            lambda actual=actual: run_cli(gb, actual),
            lambda answer: list(answer),
            lambda answer, want=expected[key]: answer == [0, want],
        ))
    random.Random(f"paper:{seed}").shuffle(items)
    return items


# -- rational: standard families over Q, and seeded quadric pairs -------------

RATIONAL_PAIRS = 64
RATIONAL_TERMS = 4


def _planes_answer(detection) -> dict:
    planes = detection.family.planes if detection.family is not None else ()
    return {"status": detection.status, "planes": [[str(c) for c in v] for v in planes]}


def rational(gb, seed: int, root: Path) -> list[Item]:
    pairs = gen.quadric_pairs(seed, RATIONAL_PAIRS, params=False, terms=RATIONAL_TERMS)
    references = oracle([{"kind": "planes", "system": s} for s in pairs])
    items = []
    for n in (2, 3, 4):
        name = f"katsura-{n}"
        system = gen.katsura(n)
        items.append(_basis_item(gb, name, system, fixed_reference(name, system), n == 4))
    for n in (3, 4, 5):
        name = f"cyclic-{n}"
        system = gen.cyclic(n)
        items.append(_basis_item(gb, name, system, fixed_reference(name, system), n == 5))
    for index, (system, reference) in enumerate(zip(pairs, references)):
        polys = gb.parse_system(system).build()
        items.append(Item(
            f"planes-{index}",
            lambda polys=polys: gb.detect_planes(polys),
            _planes_answer,
            lambda answer, want=reference: answer["status"] == want["status"]
            and check.same_planes(answer["planes"], want["planes"]),
        ))
    return items


# -- parametric: seeded quadric pairs over Q(a, b), and the stress system -----

PARAMETRIC_PAIRS = 32
PARAMETRIC_TERMS = 4
# Pinned heavy draws (draw, terms, planar?) for gen.pinned_pairs: about 2.9 s,
# 1.1 s and 0.5 s at the commit that added the benchmark, while the regular
# draw's slowest pair takes about 1 s.  Draws that take 4-8 s sit too close
# to the per-answer limit for the timeout count to repeat exactly.
PARAMETRIC_PINNED = ((13, 5, False), (4, 4, False), (47, 4, True))


def stress_system() -> str:
    variables, params, polys = gen.STRESS_SYSTEM
    return gen.system_text(variables, polys, params)


def pinned_systems() -> dict[str, str]:
    keys = PARAMETRIC_PINNED
    return {
        f"pinned-{draw}-{terms}": system
        for (draw, terms, _), system in zip(keys, gen.pinned_pairs(keys))
    }


def parametric(gb, seed: int, root: Path) -> list[Item]:
    pairs = gen.quadric_pairs(seed, PARAMETRIC_PAIRS, params=True, terms=PARAMETRIC_TERMS)
    references = oracle([{"kind": "basis", "system": s} for s in pairs])
    items = [
        _basis_item(gb, f"pair-{i}", system, reference)
        for i, (system, reference) in enumerate(zip(pairs, references))
    ]
    for name, system in pinned_systems().items():
        items.append(_basis_item(gb, name, system, fixed_reference(name, system)))
    system = stress_system()
    items.append(_basis_item(gb, "stress", system, fixed_reference("stress", system), True))
    return items


# -- membership: normal forms against bases built in set-up -------------------

MEMBERSHIP_TARGETS = 12
COFACTOR_DEGREE = 1
TARGET_TERMS = 3


def membership(gb, seed: int, root: Path) -> list[Item]:
    systems = [("katsura-3", gen.katsura(3))] + [
        (Path(f).stem, (root / f).read_text(encoding="utf-8")) for f in FIXTURES
    ]
    targets = {
        name: gen.membership_targets(seed, system, MEMBERSHIP_TARGETS, COFACTOR_DEGREE, TARGET_TERMS)
        for name, system in systems
    }
    tasks = [{"kind": "basis", "system": system} for _, system in systems[1:]]
    tasks += [
        {"kind": "normal_forms", "system": system, "targets": [t for t, _ in targets[name]]}
        for name, system in systems
    ]
    answers = oracle(tasks)
    bases = {"katsura-3": fixed_reference("katsura-3", systems[0][1])}
    bases.update((name, basis) for (name, _), basis in zip(systems[1:], answers))
    normal_forms = dict(zip((name for name, _ in systems), answers[len(systems) - 1:]))
    items = []
    for name, system in systems:
        spec = gb.parse_system(system)
        variables, params = spec.variables, spec.parameters
        basis = gb.reduced_basis(spec.build())
        elements = basis.elements
        rendered = [str(g) for g in elements]
        if not check.same_basis(rendered, bases[name], variables, params):
            raise OracleError(f"the {name} basis built in set-up disagrees with the oracle")
        for index, ((text, member), nf) in enumerate(zip(targets[name], normal_forms[name])):
            target = gb.parse_expression(text, spec.context())
            items.append(Item(
                f"{name}-{index}",
                lambda target=target, elements=elements: gb.multivariate_divide(target, elements),
                lambda division: {
                    "cofactors": [str(q) for q in division.quotients],
                    "remainder": str(division.remainder),
                },
                lambda answer, text=text, nf=nf, member=member, rendered=rendered,
                variables=variables, params=params: (
                    check.same_value(answer["remainder"], nf, variables, params)
                    and (not member or nf == "0")
                    and check.division_identity(
                        text, rendered, answer["cofactors"], answer["remainder"],
                        variables, params,
                    )
                ),
            ))
    return items


WORKLOADS = {
    "paper": paper,
    "rational": rational,
    "parametric": parametric,
    "membership": membership,
}
