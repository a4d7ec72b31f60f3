"""Expression and system-file parsing.

The expression grammar is deliberately small:

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ['^' nat]
    base   := ident | integer | '(' expr ')'

Identifiers must be declared in the target context, either as variables or as
parameters.  Multiplication is always explicit (``2*d*h``, never ``2dh``), so
multi-letter names tokenize unambiguously.  Division is exact and is only
permitted when the divisor is free of variables, which keeps every coefficient
inside the parametric field.

System files are line oriented: ``vars:``, ``params:`` and ``order:``
directives declare the ring, one ``poly:`` line per generator supplies the
system, and ``#`` starts a comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .coefficients import ParamFraction
from .polynomials import Polynomial, VarContext

__all__ = [
    "ParseError",
    "SystemFile",
    "parse_expression",
    "parse_system",
    "read_system",
]


class ParseError(ValueError):
    """Malformed expression or system-file text."""

    def __init__(self, message: str, position: int | None = None, line: int | None = None):
        prefix = []
        if line is not None:
            prefix.append(f"line {line}")
        if position is not None:
            prefix.append(f"column {position + 1}")
        super().__init__(": ".join(prefix + [message]))
        self.message = message
        self.position = position
        self.line = line


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<int>[0-9]+)"
    r"|(?P<op>[+\-*/^()])"
)

_END = "end"

# Deepest parenthesis nesting accepted; each level costs four stack frames.
MAX_NESTING = 100


class _Token(NamedTuple):
    kind: str
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", position=pos)
        pos = match.end()
        if match.lastgroup != "ws":
            tokens.append(_Token(match.lastgroup, match.group(), match.start()))
    tokens.append(_Token(_END, "", len(text)))
    return tokens


class _ExpressionParser:
    __slots__ = ("tokens", "index", "context", "depth")

    def __init__(self, tokens: list[_Token], context: VarContext):
        self.tokens = tokens
        self.index = 0
        self.context = context
        self.depth = 0

    def _peek(self) -> _Token:
        return self.tokens[self.index]

    def _advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def parse_expression(self) -> Polynomial:
        token = self._peek()
        negate = token.kind == "op" and token.text == "-"
        if negate:
            self._advance()
        result = self.parse_term()
        if negate:
            result = -result
        while True:
            token = self._peek()
            if token.kind != "op" or token.text not in "+-":
                return result
            self._advance()
            operand = self.parse_term()
            result = result + operand if token.text == "+" else result - operand

    def parse_term(self) -> Polynomial:
        result = self.parse_factor()
        while True:
            token = self._peek()
            if token.kind != "op" or token.text not in "*/":
                return result
            self._advance()
            operand = self.parse_factor()
            if token.text == "*":
                result = result * operand
            else:
                result = self._divide(result, operand, token.position)

    def _divide(self, numerator: Polynomial, denominator: Polynomial, position: int) -> Polynomial:
        if any(not t.monomial.is_one() for t in denominator.terms):
            raise ParseError("division by an expression containing variables", position=position)
        if not denominator.terms:
            raise ParseError("division by zero", position=position)
        return numerator / denominator.terms[0].coefficient

    def parse_factor(self) -> Polynomial:
        base = self.parse_base()
        token = self._peek()
        if token.kind != "op" or token.text != "^":
            return base
        self._advance()
        exponent = self._peek()
        if exponent.kind == "op" and exponent.text == "-":
            raise ParseError("exponent must be a non-negative integer", position=exponent.position)
        if exponent.kind != "int":
            raise ParseError("expected an integer exponent after '^'", position=exponent.position)
        self._advance()
        return base ** int(exponent.text)

    def parse_base(self) -> Polynomial:
        token = self._advance()
        if token.kind == "ident":
            name = token.text
            if name in self.context.variables:
                return self.context.variable(name)
            if name in self.context.parameters:
                return self.context.constant(ParamFraction.parameter(self.context.parameters, name))
            raise ParseError(f"unknown identifier {name!r}", position=token.position)
        if token.kind == "int":
            return self.context.constant(int(token.text))
        if token.kind == "op" and token.text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError("expression nested too deeply", position=token.position)
            self.depth += 1
            inner = self.parse_expression()
            self.depth -= 1
            closing = self._advance()
            if closing.kind != "op" or closing.text != ")":
                raise ParseError("expected ')'", position=closing.position)
            return inner
        if token.kind == _END:
            raise ParseError("unexpected end of expression", position=token.position)
        raise ParseError(f"unexpected {token.text!r}", position=token.position)

    def expect_end(self) -> None:
        token = self._peek()
        if token.kind == _END:
            return
        if token.kind in ("ident", "int") or token.text == "(":
            raise ParseError(
                f"missing operator before {token.text!r} (implicit multiplication is not supported)",
                position=token.position,
            )
        raise ParseError(f"unexpected {token.text!r}", position=token.position)


def parse_expression(text: str, context: VarContext) -> Polynomial:
    """Parse ``text`` into an exact polynomial over ``context``."""
    parser = _ExpressionParser(_tokenize(text), context)
    result = parser.parse_expression()
    parser.expect_end()
    return result


@dataclass(frozen=True)
class SystemFile:
    """Ring declarations plus generator expressions for one polynomial system."""

    variables: tuple[str, ...]
    parameters: tuple[str, ...]
    order: str
    polynomials: tuple[str, ...]

    def __post_init__(self):
        if self.order != "lex":
            raise ParseError(f"unsupported order {self.order!r}")

    def context(self) -> VarContext:
        return VarContext(self.variables, self.parameters)

    def build(self) -> list[Polynomial]:
        """Parse every generator expression under the declared context."""
        ctx = self.context()
        system = []
        for index, text in enumerate(self.polynomials, start=1):
            try:
                system.append(parse_expression(text, ctx))
            except ParseError as error:
                raise ParseError(f"poly {index}: {error}") from None
        return system


def parse_system(text: str) -> SystemFile:
    """Parse the line-oriented system-file format."""
    variables: tuple[str, ...] | None = None
    parameters: tuple[str, ...] = ()
    seen_params = False
    order: str | None = None
    polynomials: list[str] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, sep, rest = line.partition(":")
        if not sep:
            raise ParseError("expected 'directive: value'", line=number)
        name = head.strip()
        value = rest.strip()
        if name == "vars":
            if variables is not None:
                raise ParseError("duplicate 'vars' directive", line=number)
            variables = _name_list(value, number)
        elif name == "params":
            if seen_params:
                raise ParseError("duplicate 'params' directive", line=number)
            parameters = _name_list(value, number)
            seen_params = True
        elif name == "order":
            if order is not None:
                raise ParseError("duplicate 'order' directive", line=number)
            if value != "lex":
                raise ParseError(f"unsupported order {value!r}", line=number)
            order = value
        elif name == "poly":
            if not value:
                raise ParseError("empty 'poly' directive", line=number)
            polynomials.append(value)
        else:
            raise ParseError(f"unknown directive {name!r}", line=number)
    if variables is None:
        raise ParseError("missing 'vars' directive")
    return SystemFile(variables, parameters, order or "lex", tuple(polynomials))


def _name_list(value: str, line: int) -> tuple[str, ...]:
    names = tuple(value.replace(",", " ").split())
    if not names:
        raise ParseError("expected at least one name", line=line)
    for name in names:
        if not name.isidentifier():
            raise ParseError(f"invalid name {name!r}", line=line)
    return names


def read_system(path) -> SystemFile:
    """Load a system file from disk."""
    return parse_system(Path(path).read_text(encoding="utf-8"))
