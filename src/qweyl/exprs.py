"""Expression grammar for algebra elements: parser, AST, printer round-trip.

Grammar (whitespace-insensitive, LL(1)):

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := '-'* atom ('^' INT)?
    atom    := NUMBER | GEN | ETA | '(' expr ')'
    NUMBER  := digits ('/' digits)?          -- exact rational literal
    GEN     := ('y' | 'x' | 'z') digits      -- y1..yn, x1..xn, z0..zn
    ETA     := 'eta' '^' '[' INT (',' INT)* ']'

``z`` names are shorthand: they expand to 1 + sum_{k<=i} y_k x_k when an
expression is evaluated in the quantized algebra, and to the unrescaled
presentation's 1 + sum_{k<=i} (q_k - 1) y_k x_k when evaluated as a free
word for the rescaling map.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .scalars import QTScalar
from .weyl import WeylElement, WeylParams, wa_z


class ExprSyntaxError(ValueError):
    """Parse failure with 1-based position information."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class ExprEvalError(ValueError):
    """A syntactically valid expression does not fit the instance."""


# -- AST -----------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Gen:
    kind: str  # "y" | "x" | "z"
    index: int
    line: int
    col: int


@dataclass(frozen=True)
class EtaMono:
    exponents: tuple[int, ...]
    line: int
    col: int


@dataclass(frozen=True)
class Neg:
    item: "Expression"


@dataclass(frozen=True)
class Pow:
    base: "Expression"
    exponent: int


@dataclass(frozen=True)
class Mul:
    factors: tuple["Expression", ...]


@dataclass(frozen=True)
class Add:
    terms: tuple["Expression", ...]


Expression = Union[Num, Gen, EtaMono, Neg, Pow, Mul, Add]


# -- tokenizer -------------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
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
        start_line, start_col = line, col
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            if j < len(text) and text[j] == "/":
                k = j + 1
                while k < len(text) and text[k].isdigit():
                    k += 1
                if k == j + 1:
                    raise ExprSyntaxError("malformed rational literal", line, col)
                j = k
            tokens.append(_Token("number", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            word = text[i:j]
            k = j
            while k < len(text) and text[k].isdigit():
                k += 1
            digits = text[j:k]
            if word == "eta":
                if digits:
                    raise ExprSyntaxError("eta takes no index", start_line, start_col)
                tokens.append(_Token("eta", word, start_line, start_col))
                col += j - i
                i = j
                continue
            if word in ("y", "x", "z") and digits:
                tokens.append(_Token("gen", word + digits, start_line, start_col))
                col += k - i
                i = k
                continue
            raise ExprSyntaxError(f"unknown symbol {word + digits!r}", start_line, start_col)
        if ch in "+-*^()[],":
            tokens.append(_Token(ch, ch, start_line, start_col))
            col += 1
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", start_line, start_col)
    tokens.append(_Token("end", "", line, col))
    return tokens


# -- parser ----------------------------------------------------------------------


# Deepest parenthesis nesting accepted.  Each level costs four frames of the
# recursive descent, so this stays well inside the interpreter's recursion
# limit even when the parser is called from deep in a stack.
MAX_NESTING = 200


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind: str) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            raise ExprSyntaxError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.col,
            )
        self.pos += 1
        return tok

    def parse(self) -> Expression:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.col)
        return e

    def expr(self) -> Expression:
        terms = [self.term()]
        while self.peek().kind in ("+", "-"):
            op = self.take(self.peek().kind)
            t = self.term()
            terms.append(Neg(t) if op.kind == "-" else t)
        return terms[0] if len(terms) == 1 else Add(tuple(terms))

    def term(self) -> Expression:
        factors = [self.factor()]
        while self.peek().kind == "*":
            self.take("*")
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else Mul(tuple(factors))

    def factor(self) -> Expression:
        negs = 0
        while self.peek().kind == "-":
            self.take("-")
            negs += 1
        node = self.atom()
        if self.peek().kind == "^":
            self.take("^")
            tok = self.take("number")
            if "/" in tok.text:
                raise ExprSyntaxError("exponent must be an integer", tok.line, tok.col)
            node = Pow(node, int(tok.text))
        # only the parity of a run of signs matters; one Neg per sign would
        # make evaluation recurse once per sign
        return Neg(node) if negs % 2 else node

    def atom(self) -> Expression:
        tok = self.peek()
        if tok.kind == "number":
            self.take("number")
            return Num(Fraction(tok.text))
        if tok.kind == "gen":
            self.take("gen")
            return Gen(tok.text[0], int(tok.text[1:]), tok.line, tok.col)
        if tok.kind == "eta":
            self.take("eta")
            self.take("^")
            self.take("[")
            exps = [self._int_entry()]
            while self.peek().kind == ",":
                self.take(",")
                exps.append(self._int_entry())
            self.take("]")
            return EtaMono(tuple(exps), tok.line, tok.col)
        if tok.kind == "(":
            if self.depth == MAX_NESTING:
                raise ExprSyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING} levels", tok.line, tok.col
                )
            self.take("(")
            self.depth += 1
            e = self.expr()
            self.depth -= 1
            self.take(")")
            return e
        raise ExprSyntaxError(
            f"expected a value, found {tok.text or 'end of input'!r}", tok.line, tok.col
        )

    def _int_entry(self) -> int:
        sign = 1
        while self.peek().kind == "-":
            self.take("-")
            sign = -sign
        tok = self.take("number")
        if "/" in tok.text:
            raise ExprSyntaxError("exponent must be an integer", tok.line, tok.col)
        return sign * int(tok.text)


def parse_expr(text: str) -> Expression:
    """Parse the element grammar; raises ExprSyntaxError with position."""
    return _Parser(_tokenize(text)).parse()


# -- evaluation --------------------------------------------------------------------


def _check_atom(node: Gen | EtaMono, params: WeylParams) -> None:
    """Raise ExprEvalError unless a generator or eta monomial fits the instance."""
    if isinstance(node, EtaMono):
        if len(node.exponents) != params.r:
            raise ExprEvalError(
                f"eta exponent vector has length {len(node.exponents)}, expected "
                f"{params.r} (line {node.line}, column {node.col})"
            )
    elif node.kind == "z":
        if not 0 <= node.index <= params.n:
            raise ExprEvalError(
                f"z index {node.index} out of range 0..{params.n} "
                f"(line {node.line}, column {node.col})"
            )
    elif not 1 <= node.index <= params.n:
        raise ExprEvalError(
            f"unknown generator {node.kind}{node.index} for n={params.n} "
            f"(line {node.line}, column {node.col})"
        )


def eval_weyl(node: Expression, params: WeylParams) -> WeylElement:
    """Evaluate an expression tree in the quantized algebra."""
    if isinstance(node, Num):
        return WeylElement.scalar(params, node.value)
    if isinstance(node, Gen):
        _check_atom(node, params)
        if node.kind == "z":
            return wa_z(params, node.index)
        return WeylElement.generator(params, node.kind, node.index)
    if isinstance(node, EtaMono):
        _check_atom(node, params)
        return WeylElement.scalar(params, QTScalar.monomial(node.exponents))
    if isinstance(node, Neg):
        return -eval_weyl(node.item, params)
    if isinstance(node, Pow):
        return eval_weyl(node.base, params) ** node.exponent
    if isinstance(node, Mul):
        out = WeylElement.one(params)
        for f in node.factors:
            out = out * eval_weyl(f, params)
        return out
    if isinstance(node, Add):
        out = WeylElement.zero(params)
        for t in node.terms:
            out = out + eval_weyl(t, params)
        return out
    raise TypeError(f"not an expression node: {node!r}")


FreeTerms = list[tuple[QTScalar, tuple[tuple[str, int], ...]]]


def eval_free(node: Expression, params: WeylParams) -> FreeTerms:
    """Evaluate to a sum of (scalar, word) pairs without straightening.

    This is the input form of the rescaling map; z shorthand expands with
    the unrescaled presentation's coefficients (q_k - 1).
    """
    one = QTScalar.one(params.r)
    if isinstance(node, Num):
        return [(QTScalar.constant(params.r, node.value), ())]
    if isinstance(node, Gen):
        _check_atom(node, params)
        if node.kind == "z":
            terms: FreeTerms = [(one, ())]
            for k in range(1, node.index + 1):
                terms.append(
                    (params.q_scalar(k) - 1, (("y", k), ("x", k)))
                )
            return terms
        return [(one, ((node.kind, node.index),))]
    if isinstance(node, EtaMono):
        _check_atom(node, params)
        return [(QTScalar.monomial(node.exponents), ())]
    if isinstance(node, Neg):
        return [(-c, w) for c, w in eval_free(node.item, params)]
    if isinstance(node, Pow):
        out: FreeTerms = [(one, ())]
        if node.exponent > 0:  # a zeroth power is 1 without evaluating its base
            base = eval_free(node.base, params)
            for _ in range(node.exponent):
                out = _free_mul(out, base)
        return out
    if isinstance(node, Mul):
        out = [(one, ())]
        for f in node.factors:
            out = _free_mul(out, eval_free(f, params))
        return out
    if isinstance(node, Add):
        out = []
        for t in node.terms:
            out.extend(eval_free(t, params))
        return out
    raise TypeError(f"not an expression node: {node!r}")


def _free_mul(a: FreeTerms, b: FreeTerms) -> FreeTerms:
    return [(ca * cb, wa + wb) for ca, wa in a for cb, wb in b]
