"""Recursive-descent parser for scalar expressions over the variable x.

Grammar (see docs/expr.md):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?          # right-associative
    atom    := NUMBER | 'x' | 'pi' | 'e' | NAME '(' expr ')' | '(' expr ')'

Numbers accept decimal and scientific notation.  Only whitelisted function
names may be called.  All errors carry the offset into the source, a
character index.

compile_scalar turns an AST once into a tree of closures over one point,
which evaluate runs; compile_array turns it into a numpy closure over
arrays of points that raises wherever numpy flags a floating-point
exception.
"""

from __future__ import annotations

import math
import operator
import re
from collections import namedtuple

import numpy as np

from .errors import EvaluationError, ParseError

FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
}

CONSTANTS = {"pi": math.pi, "e": math.e}

OPERATORS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": math.pow,
}

# numpy counterparts of FUNCTIONS, whose ufuncs carry the same names, and
# of OPERATORS
ARRAY_FUNCTIONS = {name: getattr(np, name) for name in FUNCTIONS}

ARRAY_OPERATORS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "^": np.power,
}


# --- AST -----------------------------------------------------------------

# namedtuples, which cost a fraction of a dataclass to define; nodes
# compare as tuples, and every walker dispatches on isinstance
Num = namedtuple("Num", "value")
Var = namedtuple("Var", "")
Const = namedtuple("Const", "name")
Unary = namedtuple("Unary", "op operand")
Binary = namedtuple("Binary", "op left right")
Call = namedtuple("Call", "name arg")


def _closure(node, functions, operators):
    """A tree of closures over x that evaluates node by the given tables,
    operands left to right; a ValueError, OverflowError or
    ZeroDivisionError of a table entry becomes an EvaluationError."""
    if isinstance(node, Num):
        value = node.value
        return lambda x: value
    if isinstance(node, Var):
        return lambda x: x
    if isinstance(node, Const):
        value = CONSTANTS[node.name]
        return lambda x: value
    if isinstance(node, Unary):
        operand = _closure(node.operand, functions, operators)
        return lambda x: -operand(x)
    if isinstance(node, Binary):
        if node.op not in operators:
            raise EvaluationError(f"unknown operator {node.op!r}")
        op, name = operators[node.op], node.op
        left = _closure(node.left, functions, operators)
        right = _closure(node.right, functions, operators)

        def binary(x):
            a = left(x)
            b = right(x)
            try:
                return op(a, b)
            except ZeroDivisionError:
                raise EvaluationError("division by zero") from None
            except (ValueError, OverflowError) as exc:
                raise EvaluationError(
                    f"'{name}' failed for ({a!r}, {b!r}): {exc}") from None
        return binary
    if isinstance(node, Call):
        fn, name = functions[node.name], node.name
        arg = _closure(node.arg, functions, operators)

        def call(x):
            v = arg(x)
            try:
                return fn(v)
            except (ValueError, OverflowError) as exc:
                raise EvaluationError(f"{name}({v!r}) failed: {exc}") from None
        return call
    raise TypeError(f"not an AST node: {node!r}")


def compile_scalar(node):
    """Compile an AST into a function of one point x that makes the math
    calls of the expression as written and raises EvaluationError on
    domain violations (log of a nonpositive value, fractional power of a
    negative base, division by zero, overflow).  The error gives the
    cause only: a caller that loops over points names the point."""
    return _closure(node, FUNCTIONS, OPERATORS)


def evaluate(node, x):
    """The value at x of node, a compiled form from compile_scalar."""
    return node(x)


def compile_array(node):
    """Compile an AST into a function of a float array.

    numpy evaluates the whole array with overflow, division by zero and
    invalid operations raised; such an exception becomes an
    EvaluationError that gives its cause only, as the scalar form's
    does.  Non-finite values are returned as they are.  Values may
    differ from the scalar form in the last ulp.  A caller that needs
    the failing point evaluates point by point with the scalar form, as
    the operator engine does.
    """
    closure = _closure(node, ARRAY_FUNCTIONS, ARRAY_OPERATORS)

    def evaluate_array(x):
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                return np.array(np.broadcast_to(closure(x), x.shape),
                                dtype=float)
        except FloatingPointError as exc:
            raise EvaluationError(str(exc)) from None

    return evaluate_array


# --- tokenizer / parser --------------------------------------------------

_Token = namedtuple("_Token", "kind text offset")

# one token after optional whitespace; \d matches decimal digits only, so
# a superscript such as '²' is no part of a number, and \w takes such
# numerals too, so _tokenize checks that a name starts with a letter or '_'
_TOKEN = re.compile(r"""\s*(?:
    (?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<name>[^\W\d]\w*)
  | (?P<op>[-+*/^]) | (?P<lparen>\() | (?P<rparen>\)) | (?P<comma>,)
  | (?P<end>\Z) | (?P<bad>.))""", re.VERBOSE | re.DOTALL)


def _tokenize(src):
    """Tokens (kind, text, offset) of src, ending with kind 'end'."""
    tokens, i = [], 0
    while not tokens or tokens[-1].kind != "end":
        match = _TOKEN.match(src, i)
        kind = match.lastgroup
        token = _Token(kind, match[kind], match.start(kind))
        if kind == "bad" or kind == "name" and not (
                token.text[0].isalpha() or token.text[0] == "_"):
            raise ParseError(f"unexpected character {token.text[0]!r}",
                             token.offset)
        tokens.append(token)
        i = match.end()
    return tokens


class _Parser:
    def __init__(self, src):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}, found {tok.text or 'end of input'!r}", tok.offset)
        return self.advance()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.offset)
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = Binary(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = Binary(op, node, self.unary())
        return node

    def unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Unary("-", self.unary())
        if tok.kind == "op" and tok.text == "+":
            self.advance()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            return Binary("^", base, self.unary())
        return base

    def atom(self):
        tok = self.advance()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "name":
            if tok.text == "x":
                return Var()
            if tok.text in CONSTANTS:
                return Const(tok.text)
            if tok.text in FUNCTIONS:
                self.expect("lparen", "'(' after function name")
                arg = self.expr()
                nxt = self.peek()
                if nxt.kind == "comma":
                    raise ParseError(f"{tok.text} takes exactly one argument", nxt.offset)
                self.expect("rparen", "')'")
                return Call(tok.text, arg)
            raise ParseError(f"unknown identifier {tok.text!r}", tok.offset)
        if tok.kind == "lparen":
            node = self.expr()
            self.expect("rparen", "')'")
            return node
        raise ParseError(
            f"expected a number, 'x', or '(', found {tok.text or 'end of input'!r}",
            tok.offset,
        )


def parse_expression(src):
    """Parse source text into an AST."""
    if not src or not src.strip():
        raise ParseError("empty expression", 0)
    return _Parser(src).parse()
