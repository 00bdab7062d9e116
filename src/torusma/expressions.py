"""Tiny expression grammar for smooth periodic data in config files.

Grammar (recursive descent):

    expr   := term (('+' | '-') term)*
    term   := unary ('*' unary)*
    unary  := '-'* atom
    atom   := NUMBER | '(' expr ')' | 'exp' '(' expr ')' | trig
    trig   := ('sin' | 'cos') '(' 2 '*' pi ['*' INT] '*' coord ')'
    coord  := x1 | y1 | x2 | y2

Every trig factor is an exact grid harmonic, so parsed data is smooth,
periodic and exactly representable; the N/4 band-limit check reads a bound
on each coordinate's harmonics derived from the tree (_harmonic_bound).

A sum or a product is one node, folded left to right in a loop, and a chain
of unary minus signs is parsed in a loop, so neither the parser nor the
evaluator recurses on their length.  Parentheses and exp(...) do recurse; they
may nest at most MAX_NESTING levels deep.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .grid import Grid, PeriodicScalarField, make_field


class ExpressionError(ValueError):
    """Syntax or semantic error in a field expression."""


MAX_NESTING = 50  # levels of parentheses and exp(...) an expression may nest
EXCERPT_CHARS = 80  # an error quotes at most this much of the text


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[()+\-*]))"
)


def _where(text: str, pos: int) -> str:
    """pos, and the quoted text around it: at most EXCERPT_CHARS characters, so
    that an error in a long expression stays one short line."""
    start = max(0, min(pos - EXCERPT_CHARS // 2, len(text) - EXCERPT_CHARS))
    stop = start + EXCERPT_CHARS
    excerpt = repr(text[start:stop])
    if start > 0:
        excerpt = "..." + excerpt
    if stop < len(text):
        excerpt += "..."
    return f"at position {pos} in {excerpt}"


def _tokenize(text: str) -> tuple[list[tuple[str, str]], list[int]]:
    """The (kind, value) tokens of text, ending in ("end", ""), and where each starts."""
    tokens, starts = [], []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise ExpressionError(f"unexpected character {_where(text, pos)}")
        pos = m.end()
        for kind in ("num", "name", "op"):
            if m.group(kind) is not None:
                tokens.append((kind, m.group(kind)))
                starts.append(m.start(kind))
                break
    tokens.append(("end", ""))
    starts.append(len(text))
    return tokens, starts


@dataclass
class Expression:
    """Parsed expression; evaluate on a grid, or check it against the band limit."""

    text: str
    _ast: tuple

    def evaluate(self, grid: Grid) -> PeriodicScalarField:
        return make_field(grid, _eval_node(self._ast, grid))

    def band_limited(self, grid: Grid) -> bool:
        # exp(...) keeps its argument's bound; its tail is left to the solver's spectral warning
        return all(k <= grid.N // 4 for k in _harmonic_bound(self._ast).values())


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens, self.starts = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def error(self, message: str) -> ExpressionError:
        """message, placed at the current token."""
        return ExpressionError(f"{message} {_where(self.text, self.starts[self.pos])}")

    def take(self, kind=None, value=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise self.error(f"expected {kind}, got {tok[1]!r}")
        if value is not None and tok[1] != value:
            raise self.error(f"expected {value!r}, got {tok[1]!r}")
        self.pos += 1
        return tok

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            raise self.error(f"trailing input {self.peek()[1]!r}")
        return node

    def expr(self):
        first = self.term()
        rest = []  # (sign, term) pairs after the first term
        while self.peek() in (("op", "+"), ("op", "-")):
            sign = self.take()[1]
            rest.append((sign, self.term()))
        return ("sum", first, tuple(rest)) if rest else first

    def term(self):
        factors = [self.unary()]
        while self.peek() == ("op", "*"):
            self.take()
            factors.append(self.unary())
        return ("prod", tuple(factors)) if len(factors) > 1 else factors[0]

    def unary(self):
        negate = False
        while self.peek() == ("op", "-"):
            self.take()
            negate = not negate  # negation twice is exact: -(-x) == x bitwise
        node = self.atom()
        return ("neg", node) if negate else node

    def nested(self):
        """The expr after an opening parenthesis, with its closing one."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExpressionError(
                f"parentheses and exp(...) nest deeper than {MAX_NESTING} levels")
        node = self.expr()
        self.take("op", ")")
        self.depth -= 1
        return node

    def atom(self):
        kind, value = self.peek()
        if kind == "num":
            self.take()
            return ("const", float(value))
        if kind == "op" and value == "(":
            self.take()
            return self.nested()
        if kind == "name":
            if value in ("sin", "cos"):
                return self.trig()
            if value == "exp":
                self.take()
                self.take("op", "(")
                return ("exp", self.nested())
            raise self.error(f"unknown name {value!r}")
        raise self.error(f"unexpected token {value!r}")

    def trig(self):
        func = self.take("name")[1]
        self.take("op", "(")
        two = self.take("num")[1]
        if float(two) != 2.0:
            raise ExpressionError("trig arguments must start with 2*pi")
        self.take("op", "*")
        self.take("name", "pi")
        self.take("op", "*")
        harmonic = 1
        kind, value = self.peek()
        if kind == "num":
            self.take()
            if not float(value).is_integer() or float(value) < 1:  # inf is not an integer
                raise ExpressionError(f"harmonic must be a positive integer, got {value}")
            harmonic = int(float(value))
            self.take("op", "*")
        coord = self.take("name")[1]
        if not re.fullmatch(r"[xy][12]", coord):
            raise ExpressionError(f"unknown coordinate {coord!r}")
        self.take("op", ")")
        return ("trig", func, harmonic, coord)


def _coord_axis(grid: Grid, coord: str) -> int:
    j = int(coord[1]) - 1
    if j >= grid.n:
        raise ExpressionError(
            f"coordinate {coord} does not exist in complex dimension {grid.n}"
        )
    return 2 * j + (0 if coord[0] == "x" else 1)


def _harmonic_bound(node: tuple) -> dict[str, int]:
    """Per coordinate, the largest harmonic node can carry: a product adds its
    factors' bounds, a sum takes their maximum, neg and exp keep their argument's."""
    op = node[0]
    if op in ("const", "trig"):
        return {} if op == "const" else {node[3]: node[2]}
    if op in ("neg", "exp"):
        return _harmonic_bound(node[1])
    children = (node[1],) + tuple(term for _, term in node[2]) if op == "sum" else node[1]
    bound: dict[str, int] = {}
    for child in children:
        for coord, k in _harmonic_bound(child).items():
            bound[coord] = max(bound.get(coord, 0), k) if op == "sum" else bound.get(coord, 0) + k
    return bound


def _eval_node(node: tuple, grid: Grid) -> np.ndarray:
    op = node[0]
    if op == "const":
        return np.full(grid.shape, node[1])
    if op == "neg":
        return -_eval_node(node[1], grid)
    if op == "sum":
        acc = _eval_node(node[1], grid)
        for sign, term in node[2]:
            value = _eval_node(term, grid)
            acc = acc + value if sign == "+" else acc - value
        return acc
    if op == "prod":
        acc = _eval_node(node[1][0], grid)
        for factor in node[1][1:]:
            acc = acc * _eval_node(factor, grid)
        return acc
    if op == "exp":
        return np.exp(_eval_node(node[1], grid))
    if op == "trig":
        _, func, harmonic, coord = node
        x = grid.coordinate(_coord_axis(grid, coord))
        arg = 2.0 * np.pi * harmonic * x
        return np.sin(arg) if func == "sin" else np.cos(arg)
    raise AssertionError(f"unhandled node {node!r}")


def parse_expression(text: str) -> Expression:
    return Expression(text=text, _ast=_Parser(text).parse())
