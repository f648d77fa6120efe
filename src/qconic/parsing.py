"""Hand-rolled parser for polynomial literals in x, y, z.

Grammar (explicit operators only):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-'* atom ('^' integer)?
    atom   := rational | 'x' | 'y' | 'z' | '(' expr ')'

Rational literals are ``123`` or ``123/456``.  Errors carry the line and
column of the offending token.
"""

from __future__ import annotations

from .rationals import QQ
from .errors import ParseError
from .multipoly import HomogeneousForm, p_add, p_mul, p_neg
from .arrangement import Conic

_VAR_EXPONENTS = {"x": (1, 0, 0), "y": (0, 1, 0), "z": (0, 0, 1)}


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdigit():
            start = i
            start_col = col
            while i < len(text) and text[i].isdigit():
                i += 1
                col += 1
            if i < len(text) and text[i] == "/" and i + 1 < len(text) and text[i + 1].isdigit():
                i += 1
                col += 1
                while i < len(text) and text[i].isdigit():
                    i += 1
                    col += 1
            tokens.append(_Token("num", text[start:i], line, start_col))
            continue
        if ch in _VAR_EXPONENTS:
            tokens.append(_Token("var", ch, line, col))
        elif ch in "+-*^()":
            tokens.append(_Token(ch, ch, line, col))
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
        i += 1
        col += 1
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.value!r}",
                             tok.line, tok.col)
        return self.next()

    def parse(self) -> dict:
        poly = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.value!r}", tok.line, tok.col)
        return poly

    def expr(self) -> dict:
        poly = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self.term()
            poly = p_add(poly, rhs if op == "+" else p_neg(rhs))
        return poly

    def term(self) -> dict:
        poly = self.factor()
        while self.peek().kind == "*":
            self.next()
            poly = p_mul(poly, self.factor())
        return poly

    def factor(self) -> dict:
        negate = False
        while self.peek().kind == "-":
            self.next()
            negate = not negate
        poly = self.atom()
        if self.peek().kind == "^":
            caret = self.next()
            tok = self.expect("num")
            if "/" in tok.value:
                raise ParseError("exponent must be an integer", tok.line, tok.col)
            exponent = int(tok.value)
            if exponent < 0:
                raise ParseError("exponent must be non-negative",
                                 caret.line, caret.col)
            acc = {(0, 0, 0): QQ(1)}
            for _ in range(exponent):
                acc = p_mul(acc, poly)
            poly = acc
        return p_neg(poly) if negate else poly

    def atom(self) -> dict:
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            try:
                return {(0, 0, 0): QQ(tok.value)}
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in {tok.value!r}",
                                 tok.line, tok.col) from None
        if tok.kind == "var":
            self.next()
            return {_VAR_EXPONENTS[tok.value]: QQ(1)}
        if tok.kind == "(":
            self.next()
            poly = self.expr()
            self.expect(")")
            return poly
        raise ParseError(f"expected a number, variable or '(', found {tok.value!r}",
                         tok.line, tok.col)


def parse_polynomial(text: str) -> dict:
    """Parse a literal into a raw trivariate dict polynomial."""
    if not text.strip():
        raise ParseError("empty polynomial", 1, 1)
    return _Parser(text).parse()


def parse_homogeneous_form(text: str) -> HomogeneousForm:
    """Parse and require homogeneity (raises NotHomogeneousError otherwise)."""
    return HomogeneousForm.from_dict(parse_polynomial(text))


def parse_conic(text: str) -> Conic:
    """Parse a degree-2 form literal into conic coefficients."""
    form = parse_homogeneous_form(text)
    if form.degree != 2 or form.is_zero():
        raise ParseError("a conic must be a nonzero form of degree 2")
    t = form.terms
    return Conic((t.get((2, 0, 0), QQ(0)), t.get((0, 2, 0), QQ(0)),
                  t.get((0, 0, 2), QQ(0)), t.get((1, 1, 0), QQ(0)),
                  t.get((1, 0, 1), QQ(0)), t.get((0, 1, 1), QQ(0))))
