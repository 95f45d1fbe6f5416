"""Expression grammar for algebra elements: parser, AST, printer round-trip.

Grammar (whitespace-insensitive, LL(1)):

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := '-'* atom ('^' INT)?
    atom    := NUMBER | GEN | ETA | '(' expr ')'
    NUMBER  := digits ('/' digits)?          -- exact rational literal
    GEN     := ('y' | 'x' | 'z') digits      -- y1..yn, x1..xn, z0..zn
    ETA     := 'eta' '^' '[' INT (',' INT)* ']'

The tokenizer reads the text in one scan of one regular expression and
emits plain ``(kind, text, line, col)`` tuples, which the recursive-descent
parser reads by position; the tree it builds is made of the frozen node
classes below.  One evaluator folds the tree into the elements of the
quantized algebra (:func:`eval_weyl`; ``z_i`` = 1 + sum_{k<=i} y_k x_k) or
of the rescaled presentation (:func:`eval_rescaled`; ``y_i`` is Y_i =
(q_i - 1)^{-1} y_i and ``z_i`` = 1 + sum_{k<=i} (q_k - 1) Y_k x_k).  A
product is a left fold; a sum takes one pass, adding every part's terms (a
negated part's with their signs flipped) into one table of coefficient sums
and building one element from it.  One leaf routine checks each leaf against
the instance and builds it: a generator through
:meth:`~qweyl.weyl.WeylParams.atom`, once per instance and element class,
and a number or eta monomial in stored form as one constant term (none for 0).
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

from .scalars import QTScalar, _coefficient
from .weyl import MaltsiniotisElement, PbwElement, WeylElement, WeylParams


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


# ``X | Y``, not ``typing.Union``: typing caches each Union it builds for the
# life of the process, which would keep these classes, and through them a
# reloaded package's old modules, alive.
Expression = Num | Gen | EtaMono | Neg | Pow | Mul | Add


# -- tokenizer -------------------------------------------------------------------


# One alternation reads every token: a line break, a run of other white
# space, a rational literal (a '/' without digits after it is malformed), a
# name with the digits that follow it, an operator or bracket, and any other
# character, so every character of the text is in exactly one match.
_TOKEN = re.compile(r"""
    (?P<newline>\n)
  | (?P<space>[^\S\n]+)
  | (?P<number>[0-9]+(?:/[0-9]*)?)
  | (?P<name>(?P<letters>[A-Za-z]+)(?P<digits>[0-9]*))
  | (?P<op>[-+*^()\[\],])
  | (?P<other>.)
""", re.VERBOSE)


def _tokenize(text: str) -> list[tuple]:
    if not text.isascii():  # the grammar is ASCII, so no '²' or '١' is read as a digit
        i = next(i for i, ch in enumerate(text) if not ch.isascii())
        line, col = text.count("\n", 0, i) + 1, i - text.rfind("\n", 0, i)
        raise ExprSyntaxError(f"unexpected character {text[i]!r}", line, col)
    tokens = []
    line, start = 1, 0  # the line's number and the offset of its first character
    for m in _TOKEN.finditer(text):
        kind, word, col = m.lastgroup, m[0], m.start() - start + 1
        if kind == "newline":
            line, start = line + 1, m.end()
        if kind in ("newline", "space"):
            continue
        if kind == "number" and word.endswith("/"):
            raise ExprSyntaxError("malformed rational literal", line, col)
        elif kind == "name" and m["letters"] == "eta":
            if m["digits"]:
                raise ExprSyntaxError("eta takes no index", line, col)
            kind = "eta"
        elif kind == "name" and m["letters"] in ("y", "x", "z") and m["digits"]:
            kind = "gen"
        elif kind == "name":
            raise ExprSyntaxError(f"unknown symbol {word!r}", line, col)
        elif kind == "op":
            kind = word
        elif kind == "other":
            raise ExprSyntaxError(f"unexpected character {word!r}", line, col)
        tokens.append((kind, word, line, col))
    tokens.append(("end", "", line, len(text) - start + 1))
    return tokens


# -- parser ----------------------------------------------------------------------


# Deepest parenthesis nesting accepted, the one depth limit.  A level costs
# four frames of the recursive descent and at most two of evaluation (Add
# and Mul; Neg and Pow take none), so both stay well inside the interpreter's
# default recursion limit even when called from deep in a stack.
MAX_NESTING = 200


class _Parser:
    """Recursive descent over (kind, text, line, col) tokens; an error at a
    token reports its line and column, ``tok[2:]``."""

    def __init__(self, tokens: list[tuple]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> str:
        """The kind of the next token."""
        return self.tokens[self.pos][0]

    def take(self, kind: str) -> tuple:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            found = tok[1] or "end of input"
            raise ExprSyntaxError(f"expected {kind!r}, found {found!r}", *tok[2:])
        self.pos += 1
        return tok

    def parse(self) -> Expression:
        e = self.expr()
        tok = self.tokens[self.pos]
        if tok[0] != "end":
            raise ExprSyntaxError(f"trailing input {tok[1]!r}", *tok[2:])
        return e

    def expr(self) -> Expression:
        terms = [self.term()]
        while (kind := self.peek()) in ("+", "-"):
            self.take(kind)
            terms.append(Neg(self.term()) if kind == "-" else self.term())
        return terms[0] if len(terms) == 1 else Add(tuple(terms))

    def term(self) -> Expression:
        factors = [self.factor()]
        while self.peek() == "*":
            self.take("*")
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else Mul(tuple(factors))

    def factor(self) -> Expression:
        negs = 0
        while self.peek() == "-":
            self.take("-")
            negs += 1
        node = self.atom()
        if self.peek() == "^":
            self.take("^")
            node = Pow(node, self._int(self.take("number")))
        # only the parity of a run of signs matters
        return Neg(node) if negs % 2 else node

    def atom(self) -> Expression:
        tok = self.tokens[self.pos]
        kind, text, line, col = tok
        if kind == "number":
            self.take("number")
            return Num(_number(Fraction, text, tok))
        if kind == "gen":
            self.take("gen")
            return Gen(text[0], _number(int, text[1:], tok), line, col)
        if kind == "eta":
            self.take("eta")
            self.take("^")
            self.take("[")
            exps = [self._int_entry()]
            while self.peek() == ",":
                self.take(",")
                exps.append(self._int_entry())
            self.take("]")
            return EtaMono(tuple(exps), line, col)
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise ExprSyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING} levels", line, col
                )
            self.take("(")
            self.depth += 1
            e = self.expr()
            self.depth -= 1
            self.take(")")
            return e
        raise ExprSyntaxError(f"expected a value, found {text or 'end of input'!r}", line, col)

    def _int_entry(self) -> int:
        sign = 1
        while self.peek() == "-":
            self.take("-")
            sign = -sign
        return sign * self._int(self.take("number"))

    @staticmethod
    def _int(tok: tuple) -> int:
        """The integer a number token holds; a rational is an error there."""
        if "/" in tok[1]:
            raise ExprSyntaxError("exponent must be an integer", *tok[2:])
        return _number(int, tok[1], tok)


def _number(convert, text: str, tok: tuple):
    """``convert(text)`` for a number in ``tok``, its failures syntax errors there."""
    try:
        return convert(text)
    except ZeroDivisionError:
        raise ExprSyntaxError("zero denominator", *tok[2:]) from None
    except ValueError:
        raise ExprSyntaxError(
            f"number with more than {sys.get_int_max_str_digits()} digits", *tok[2:]
        ) from None


def parse_expr(text: str) -> Expression:
    """Parse the element grammar; raises ExprSyntaxError with position."""
    return _Parser(_tokenize(text)).parse()


# -- evaluation --------------------------------------------------------------------


def _leaf(leaf: Num | Gen | EtaMono, params: WeylParams, cls: type) -> PbwElement:
    """``leaf`` as an element of ``cls``: a generator through :meth:`WeylParams.atom`,
    a number or eta monomial as one constant term in stored form (none for 0).
    A leaf that does not fit the instance is an ExprEvalError at its position."""
    if isinstance(leaf, Num):
        c, vec, problem = _coefficient(leaf.value), (0,) * params.r, None
    elif isinstance(leaf, EtaMono):
        c, vec, problem = 1, leaf.exponents, None
        if not isinstance(vec, Iterable):  # a hand-built leaf's one number
            problem = f"eta exponents {vec!r} must be a sequence of ints"
        elif len(vec := tuple(vec)) != params.r:
            problem = f"eta exponent vector has length {len(vec)}, expected {params.r}"
        elif any(type(e) is not int for e in vec):  # bools and floats are not exponents
            problem = f"eta exponents {vec} must be ints"
    elif type(leaf.index) is not int:  # a bool would key as 0 or 1
        problem = f"generator index {leaf.index!r} must be an int"
    elif leaf.kind == "z" and not 0 <= leaf.index <= params.n:
        problem = f"z index {leaf.index} out of range 0..{params.n}"
    elif leaf.kind != "z" and not 1 <= leaf.index <= params.n:
        problem = f"unknown generator {leaf.kind}{leaf.index} for n={params.n}"
    else:  # one of the 3n + 1 generator leaves of ``cls``, or a hand-built unknown kind
        try:
            return params.atom(cls, leaf.kind, leaf.index)
        except ValueError as exc:
            problem = str(exc)
    if problem:
        raise ExprEvalError(f"{problem} (line {leaf.line}, column {leaf.col})")
    scalar = QTScalar._canonical(params.r, [(vec, c)])
    return cls._canonical(params, [((0,) * (2 * params.n), scalar)] if c else ())


def _evaluate(node: Expression, params: WeylParams, cls: type) -> PbwElement:
    """Fold ``node`` into an element of ``cls``, each leaf by :func:`_leaf`,
    even under ^0.  Neg and Pow wrappers are peeled in a loop and applied, the
    innermost first, to the value they wrap: only Mul and Add take a frame."""
    wrappers = []
    while isinstance(node, (Neg, Pow)):
        wrappers.append(node)
        node = node.item if isinstance(node, Neg) else node.base
    if isinstance(node, (Num, Gen, EtaMono)):
        out = _leaf(node, params, cls)
    elif isinstance(node, Mul):
        out = _evaluate(node.factors[0], params, cls)
        for part in node.factors[1:]:  # not reduce over a generator, which adds a frame per level
            out = out * _evaluate(part, params, cls)
    elif isinstance(node, Add):  # every part's terms into one table, one element at the end
        sums: dict = {}
        for part in node.terms:
            negate = isinstance(part, Neg)
            out = _evaluate(part.item if negate else part, params, cls)
            for m, c in out.terms:
                c, old = -c if negate else c, sums.get(m)
                sums[m] = c if old is None else old + c
        out = out._from_sums(out.params, sums)
    else:
        raise TypeError(f"not an expression node: {node!r}")
    for wrapper in reversed(wrappers):
        out = -out if isinstance(wrapper, Neg) else out ** wrapper.exponent
    return out


def eval_weyl(node: Expression, params: WeylParams) -> WeylElement:
    """Evaluate an expression tree in the quantized algebra."""
    return _evaluate(node, params, WeylElement)


def eval_rescaled(node: Expression, params: WeylParams) -> MaltsiniotisElement:
    """Evaluate in the rescaled presentation, where y_i is Y_i = (q_i - 1)^{-1} y_i."""
    return _evaluate(node, params, MaltsiniotisElement)
