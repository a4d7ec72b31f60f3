"""Command-line interface for basis computation, planarity, and the conoid study.

Subcommands
-----------
basis    reduced lex Groebner basis of a system
reduce   cofactors and normal form of a target against the reduced basis
planar   plane membership of the intersection variety
conoid   the ruled-surface case study: section, conic-analysis, verdict

Systems come from a file or from inline flags:

    gbgeom basis system.sys --cleared
    gbgeom basis --vars "x y z" --params "a b" --poly "z - x^2/a^2 - y^2/b^2"

Exit status is 0 on success (including "none" planarity results) and 1 on
parse or usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .coefficients import _monomial_str
from .conoid import (
    AXES,
    CONSTRAINT_MONOMIALS,
    ConoidParams,
    _conic_analysis,
    axis_section,
    final_verdict,
)
from .division import multivariate_divide
from .groebner import GroebnerBasis, reduced_basis
from .parsing import MAX_EXPONENT, ParseError, SystemFile, parse_expression, read_system
from .planarity import detect_planes
from .polynomials import Polynomial, VarContext, clear_denominators, render

__all__ = ["build_parser", "main", "run_command"]


class _ArgumentParser(argparse.ArgumentParser):
    """argparse parser that exits with status 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _number(text: str) -> Fraction:
    """A rational option value, as ``Fraction`` reads it; anything else is a usage error.

    A decimal exponent is bounded by ``MAX_EXPONENT`` before ``Fraction`` expands it.
    """
    digits = text.lower().partition("e")[2].lstrip("+-").lstrip("0")
    if len(digits) > len(str(MAX_EXPONENT)) or digits.isdecimal() and int(digits) > MAX_EXPONENT:
        raise argparse.ArgumentTypeError(f"exponent over {MAX_EXPONENT}: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator: {text!r}") from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _names(value: str) -> tuple[str, ...]:
    return tuple(value.replace(",", " ").split())


def _load_system(args) -> tuple[VarContext, list[Polynomial]]:
    inline = args.vars is not None or args.polys
    if args.file is not None and inline:
        raise ParseError("give either a system file or --vars/--poly flags, not both")
    if args.file is not None:
        system = read_system(args.file)
    elif args.vars is not None:
        system = SystemFile(
            _names(args.vars),
            _names(args.params) if args.params else (),
            args.order,
            tuple(args.polys or ()),
        )
    else:
        raise ParseError("no system given: pass a file or --vars/--poly flags")
    return system.context(), system.build()


def _envelope(ctx: VarContext) -> dict:
    return {"order": "lex", "vars": list(ctx.variables), "params": list(ctx.parameters)}


def _basis_entries(basis: GroebnerBasis) -> list[dict]:
    return [{"monic": render(g, "monic"), "cleared": render(g, "cleared")} for g in basis]


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _cmd_basis(args) -> int:
    ctx, system = _load_system(args)
    basis = reduced_basis(system)
    if args.json:
        _emit_json(_envelope(ctx) | {"basis": _basis_entries(basis)})
        return 0
    for g in basis:
        print(render(g, args.mode or "monic"))
    return 0


def _cmd_reduce(args) -> int:
    ctx, system = _load_system(args)
    target = parse_expression(args.target, ctx)
    basis = reduced_basis(system)
    if basis.elements:
        division = multivariate_divide(target, basis.elements)
        cofactors, remainder = division.quotients, division.remainder
    else:
        cofactors, remainder = (), target
    if args.json:
        payload = _envelope(ctx) | {
            "basis": _basis_entries(basis),
            "cofactors": [str(q) for q in cofactors],
            "normal_form": str(remainder),
        }
        _emit_json(payload)
        return 0
    for index, g in enumerate(basis, start=1):
        print(f"basis {index}: {g}")
    for index, q in enumerate(cofactors, start=1):
        print(f"cofactor {index}: {q}")
    print(f"normal form: {remainder}")
    return 0


def _cmd_planar(args) -> int:
    ctx, system = _load_system(args)
    detection = detect_planes(system)
    mode = args.mode or "cleared"
    if args.json:
        planes = []
        if detection.family is not None:
            planes = [
                {"A": str(A), "B": str(B), "C": str(C), "D": str(D)}
                for A, B, C, D in detection.family.planes
            ]
        _emit_json(_envelope(ctx) | {"status": detection.status, "planes": planes})
        return 0
    if detection.status != "planes":
        print(detection.status)
        return 0
    for plane in detection.family.as_polynomials():
        print(f"{render(plane, mode)} = 0")
    return 0


def _conoid_params(args) -> ConoidParams:
    return ConoidParams.numeric(args.a, args.b, args.d, args.h)


def _cmd_conoid_section(args) -> int:
    report = axis_section(_conoid_params(args), args.axis, args.value)
    if args.json:
        payload = {
            "axis": report.axis,
            "value": str(report.value),
            "kind": report.kind,
            "lines": [line.describe() for line in report.lines],
        }
        for key in ("curve", "discriminant", "strip_bounds", "line_y_squared"):
            value = getattr(report, key)
            if value is not None:
                payload[key] = [str(v) for v in value] if isinstance(value, tuple) else str(value)
        _emit_json(payload)
        return 0
    for line in report.describe():
        print(line)
    return 0


def _family_payload(family) -> dict:
    A, B, D = family.normalized
    return {
        "id": family.family_id,
        "A": str(A),
        "B": str(B),
        "C": "1",
        "D": str(D),
        "plane": str(family.plane_equation()),
    }


def _cmd_conoid_conic(args) -> int:
    constraints, basis, families = _conic_analysis()
    ctx = constraints[0].context
    if args.json:
        payload = _envelope(ctx) | {
            "constraints": [str(c) for c in constraints],
            "basis": _basis_entries(basis),
            "families": [_family_payload(f) for f in families],
        }
        _emit_json(payload)
        return 0
    for exps, constraint in zip(CONSTRAINT_MONOMIALS, constraints):
        print(f"coefficient of {_monomial_str(AXES, exps)}: {constraint}")
    print("constraint basis:")
    for g in basis:
        print(f"  {render(g, args.mode or 'monic')}")
    for family in families:
        A, B, D = family.normalized
        print(
            f"family {family.family_id}: plane {family.plane_equation()} = 0 "
            f"(A = {A}, B = {B}, C = 1, D = {D})"
        )
    return 0


def _cmd_conoid_verdict(args) -> int:
    verdict = final_verdict()
    if args.json:
        payload = {
            "constraint_basis": _basis_entries(verdict.constraint_basis),
            "families": [_family_payload(f) for f in verdict.families],
            "family_bases": [
                [str(clear_denominators(g)) for g in basis]
                for basis in verdict.family_bases
            ],
            "forced_zero_coefficient": str(verdict.forced_zero_coefficient),
            "branches": list(verdict.branches),
            "conclusion": verdict.conclusion,
        }
        _emit_json(payload)
        return 0
    print("constraint basis: {%s}" % ", ".join(str(g) for g in verdict.constraint_basis))
    for branch in verdict.branches:
        print(branch)
    print(f"conclusion: {verdict.conclusion}")
    return 0


def _add_system_arguments(parser) -> None:
    parser.add_argument("file", nargs="?", help="system file (vars:/params:/order:/poly: lines)")
    parser.add_argument("--vars", help="inline variable names, space or comma separated")
    parser.add_argument("--params", help="inline parameter names")
    parser.add_argument("--order", choices=("lex",), default="lex", help="monomial order")
    parser.add_argument(
        "--poly", action="append", dest="polys", metavar="EXPR", help="inline generator"
    )


def _add_mode_arguments(parser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--monic", action="store_const", const="monic", dest="mode", help="monic rendering"
    )
    group.add_argument(
        "--cleared",
        action="store_const",
        const="cleared",
        dest="mode",
        help="denominator-free rendering",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="gbgeom", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    basis = commands.add_parser("basis", help="reduced Groebner basis of a system")
    _add_system_arguments(basis)
    _add_mode_arguments(basis)
    basis.add_argument("--json", action="store_true")
    basis.set_defaults(run=_cmd_basis)

    reduce_cmd = commands.add_parser("reduce", help="normal form against the reduced basis")
    _add_system_arguments(reduce_cmd)
    reduce_cmd.add_argument("--target", required=True, metavar="EXPR")
    reduce_cmd.add_argument("--json", action="store_true")
    reduce_cmd.set_defaults(run=_cmd_reduce)

    planar = commands.add_parser("planar", help="plane membership of the intersection")
    _add_system_arguments(planar)
    _add_mode_arguments(planar)
    planar.add_argument("--json", action="store_true")
    planar.set_defaults(run=_cmd_planar)

    conoid = commands.add_parser("conoid", help="ruled-surface case study")
    studies = conoid.add_subparsers(dest="study", required=True)

    section = studies.add_parser("section", help="classify an axis-parallel plane section")
    for name, default in (("a", "2"), ("b", "1"), ("d", "1"), ("h", "1")):
        section.add_argument(f"--{name}", type=_number, default=Fraction(default))
    section.add_argument("--axis", choices=AXES, required=True)
    section.add_argument("--value", type=_number, required=True)
    section.add_argument("--json", action="store_true")
    section.set_defaults(run=_cmd_conoid_section)

    conic = studies.add_parser("conic-analysis", help="conic constraints and candidate planes")
    _add_mode_arguments(conic)
    conic.add_argument("--json", action="store_true")
    conic.set_defaults(run=_cmd_conoid_conic)

    verdict = studies.add_parser("verdict", help="full plane-section verdict")
    verdict.add_argument("--json", action="store_true")
    verdict.set_defaults(run=_cmd_conoid_verdict)

    return parser


# run_command's parser, built once: parsing leaves a parser unchanged
_command_parser = functools.cache(build_parser)


def run_command(argv) -> int:
    """Parse ``argv`` and run one command; 0 on success, 1 on any input error."""
    args = _command_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ParseError, ValueError, ZeroDivisionError, OSError) as error:
        print(f"gbgeom: error: {error}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return run_command(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
