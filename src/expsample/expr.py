"""Recursive-descent parser for scalar expressions over the variable x.

Grammar (see docs/expr.md):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?          # right-associative
    atom    := NUMBER | 'x' | 'pi' | 'e' | NAME '(' expr ')' | '(' expr ')'

Numbers accept decimal and scientific notation.  Only the names of
FUNCTIONS may be called.  All errors carry the offset into the source, a
character index.

compile_expression turns an AST once into a tree of numpy closures over
an array of points, which evaluate runs.
"""

from __future__ import annotations

import re
from collections import namedtuple

import numpy as np

from .errors import ParseError

# the callable functions and the binary operators, as numpy ufuncs
FUNCTIONS = {name: getattr(np, name)
             for name in ("sin", "cos", "tan", "exp", "log", "sqrt", "abs")}

CONSTANTS = {"pi": np.pi, "e": np.e}

OPERATORS = {
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


def compile_expression(node):
    """Compile an AST into a tree of closures over a float array x that
    makes the numpy calls of the expression as written, operands left to
    right; evaluate runs it.  A constant sub-expression gives a scalar."""
    if isinstance(node, Num):
        value = node.value
        return lambda x: value
    if isinstance(node, Var):
        return lambda x: x
    if isinstance(node, Const):
        value = CONSTANTS[node.name]
        return lambda x: value
    if isinstance(node, Unary):
        operand = compile_expression(node.operand)
        return lambda x: -operand(x)
    if isinstance(node, Binary):
        op = OPERATORS[node.op]
        left = compile_expression(node.left)
        right = compile_expression(node.right)
        return lambda x: op(left(x), right(x))
    if isinstance(node, Call):
        fn = FUNCTIONS[node.name]
        arg = compile_expression(node.arg)
        return lambda x: fn(arg(x))
    raise TypeError(f"not an AST node: {node!r}")


def evaluate(compiled, x):
    """The values at the float array x of a compiled expression, a new
    float array of x's shape.  numpy's floating-point policy is the
    caller's: RealFunction raises on overflow, division by zero and
    invalid operations."""
    return np.array(np.broadcast_to(compiled(x), x.shape), dtype=float)


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
