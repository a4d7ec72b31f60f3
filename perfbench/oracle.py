"""Reference answers from sympy, computed in a child process.

Usage: python3 perfbench/oracle.py < tasks.json > answers.json

Each task is a JSON object with a ``kind`` and a ``system`` in system-file
text:

- ``basis``: the reduced lex basis, as a list of expressions
- ``planes``: ``{"status": ..., "planes": [[A, B, C, D], ...]}``, every plane
  A*x + B*y + C*z + D = 0 whose equation lies in the ideal (three variables)
- ``normal_forms``: the normal form of each expression in ``targets``
  against the reduced basis

sympy runs only here, so it never enters the benchmarked process.  Its
bases are integer-cleared, so callers compare bases up to scaling.
"""

from __future__ import annotations

import json
import sys

import sympy

import gen


def _read(system: str):
    names, params, polys = gen.system_fields(system)
    symbols = {s: sympy.Symbol(s) for s in names + params}
    exprs = [sympy.sympify(p.replace("^", "**"), locals=symbols) for p in polys]
    gens = [symbols[n] for n in names]
    domain = f"QQ({','.join(params)})" if params else "QQ"
    return exprs, gens, domain, symbols


def _text(expr) -> str:
    return str(sympy.expand(expr)).replace("**", "^")


def answer(task: dict):
    exprs, gens, domain, symbols = _read(task["system"])
    basis = sympy.groebner(exprs, *gens, order="lex", domain=domain, method=task.get("method", "buchberger"))
    if task["kind"] == "basis":
        return [_text(g) for g in basis.exprs]
    if task["kind"] == "normal_forms":
        return [
            _text(basis.reduce(sympy.sympify(t.replace("^", "**"), locals=symbols))[1])
            for t in task["targets"]
        ]
    if task["kind"] == "planes":
        if any(g.is_number for g in basis.exprs):
            return {"status": "empty-variety", "planes": []}
        columns = [basis.reduce(v)[1] for v in gens] + [basis.reduce(sympy.Integer(1))[1]]
        polys = [sympy.Poly(c, *gens, domain=domain) for c in columns]
        monomials = sorted({m for p in polys for m in p.monoms()}, reverse=True)
        matrix = sympy.Matrix([[p.coeff_monomial(m) for p in polys] for m in monomials])
        vectors = matrix.nullspace()
        if not vectors:
            return {"status": "none", "planes": []}
        return {"status": "planes", "planes": [[str(c) for c in v] for v in vectors]}
    raise ValueError(f"unknown task kind {task['kind']!r}")


def main() -> int:
    tasks = json.load(sys.stdin)
    json.dump([answer(task) for task in tasks], sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
