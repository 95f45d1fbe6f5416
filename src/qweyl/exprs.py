"""Expression grammar for algebra elements: parser, AST, printer round-trip.

Grammar (whitespace-insensitive, LL(1)):

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := '-'* atom ('^' INT)?
    atom    := NUMBER | GEN | ETA | '(' expr ')'
    NUMBER  := digits ('/' digits)?          -- exact rational literal
    GEN     := ('y' | 'x' | 'z') digits      -- y1..yn, x1..xn, z0..zn
    ETA     := 'eta' '^' '[' INT (',' INT)* ']'

The tokenizer emits plain ``(kind, text, line, col)`` tuples, which the
recursive-descent parser reads by position; the tree it builds is made of
the frozen node classes below.  One evaluator folds the tree, with the
leaves of the quantized algebra (:func:`eval_weyl`; ``z_i`` = 1 +
sum_{k<=i} y_k x_k) or of the rescaled presentation (:func:`eval_rescaled`;
``y_i`` is Y_i = (q_i - 1)^{-1} y_i and ``z_i`` = 1 + sum_{k<=i} (q_k - 1)
Y_k x_k).  A product is a left fold; a sum takes one pass, adding every
part's terms (a negated part's with their signs flipped) into one table
of coefficient sums and building one element from it.  Every leaf is
checked against the instance; a generator leaf is then read from the
instance's ``atoms`` table, keyed by element class and leaf, which builds
each one once, and a number or eta monomial is built in stored form as
one constant term (none for 0).
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .scalars import QTScalar, _coefficient
from .weyl import MaltsiniotisElement, WeylElement, WeylParams


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


# a rational literal (a '/' without digits after it is malformed), and a
# name with the digits that follow it
_NUMBER = re.compile(r"[0-9]+(/[0-9]*)?")
_SYMBOL = re.compile(r"([A-Za-z]+)([0-9]*)")


def _tokenize(text: str) -> list[tuple]:
    if not text.isascii():  # the grammar is ASCII, so no '²' or '١' is read as a digit
        i = next(i for i, ch in enumerate(text) if not ch.isascii())
        line, col = text.count("\n", 0, i) + 1, i - text.rfind("\n", 0, i)
        raise ExprSyntaxError(f"unexpected character {text[i]!r}", line, col)
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
        number, symbol = _NUMBER.match(text, i), _SYMBOL.match(text, i)
        if number:
            if number[1] == "/":
                raise ExprSyntaxError("malformed rational literal", line, col)
            kind, j = "number", number.end()
        elif symbol and symbol[1] == "eta":
            if symbol[2]:
                raise ExprSyntaxError("eta takes no index", line, col)
            kind, j = "eta", symbol.end()
        elif symbol and symbol[1] in ("y", "x", "z") and symbol[2]:
            kind, j = "gen", symbol.end()
        elif symbol:
            raise ExprSyntaxError(f"unknown symbol {symbol[0]!r}", line, col)
        elif ch in "+-*^()[],":
            kind, j = ch, i + 1
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r}", line, col)
        tokens.append((kind, text[i:j], line, col))
        col += j - i
        i = j
    tokens.append(("end", "", line, col))
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


def _check_atom(node: Num | Gen | EtaMono, params: WeylParams) -> None:
    """Raise ExprEvalError unless a generator or eta monomial fits the instance."""
    if isinstance(node, EtaMono):
        if len(node.exponents) != params.r:
            raise ExprEvalError(
                f"eta exponent vector has length {len(node.exponents)}, expected "
                f"{params.r} (line {node.line}, column {node.col})"
            )
        if any(type(e) is not int for e in node.exponents):  # bools and floats are not exponents
            raise ExprEvalError(f"eta exponents {tuple(node.exponents)} must be ints "
                                f"(line {node.line}, column {node.col})")
    elif isinstance(node, Gen) and type(node.index) is not int:  # a bool would key as 0 or 1
        raise ExprEvalError(
            f"generator index {node.index!r} must be an int (line {node.line}, column {node.col})"
        )
    elif isinstance(node, Gen) and node.kind == "z":
        if not 0 <= node.index <= params.n:
            raise ExprEvalError(
                f"z index {node.index} out of range 0..{params.n} "
                f"(line {node.line}, column {node.col})"
            )
    elif isinstance(node, Gen) and not 1 <= node.index <= params.n:
        raise ExprEvalError(
            f"unknown generator {node.kind}{node.index} for n={params.n} "
            f"(line {node.line}, column {node.col})"
        )


def _evaluate(node: Expression, params: WeylParams, atom):
    """Fold ``node``, with ``atom(leaf, params)`` for each leaf, checked even
    under ^0.  Neg and Pow wrappers are peeled in a loop and applied, the
    innermost first, to the value they wrap: only Mul and Add take a frame."""
    wrappers = []
    while isinstance(node, (Neg, Pow)):
        wrappers.append(node)
        node = node.item if isinstance(node, Neg) else node.base
    if isinstance(node, (Num, Gen, EtaMono)):
        _check_atom(node, params)
        out = atom(node, params)
    elif isinstance(node, Mul):
        out = _evaluate(node.factors[0], params, atom)
        for part in node.factors[1:]:  # not reduce over a generator, which adds a frame per level
            out = out * _evaluate(part, params, atom)
    elif isinstance(node, Add):  # every part's terms into one table, one element at the end
        sums: dict = {}
        for part in node.terms:
            negate = isinstance(part, Neg)
            out = _evaluate(part.item if negate else part, params, atom)
            for m, c in out.terms:
                c, old = -c if negate else c, sums.get(m)
                sums[m] = c if old is None else old + c
        out = out._from_sums(out.params, sums)
    else:
        raise TypeError(f"not an expression node: {node!r}")
    for wrapper in reversed(wrappers):
        out = -out if isinstance(wrapper, Neg) else out ** wrapper.exponent
    return out


def _weyl_atom(leaf: Num | Gen | EtaMono, params: WeylParams, cls=WeylElement) -> WeylElement:
    if isinstance(leaf, Gen):  # checked, so the key is one of the 3n + 1 leaves of ``cls``
        key = (cls, leaf.kind, leaf.index)
        if (out := params.atoms.get(key)) is None:
            out = params.atoms[key] = cls.generator(params, leaf.kind, leaf.index)
        return out
    # a number or an eta monomial: one constant term in stored form, none for 0
    c, vec = ((_coefficient(leaf.value), (0,) * params.r) if isinstance(leaf, Num)
              else (1, tuple(leaf.exponents)))
    scalar = QTScalar._canonical(params.r, [(vec, c)])
    return cls._canonical(params, [((0,) * (2 * params.n), scalar)] if c else ())


def eval_weyl(node: Expression, params: WeylParams) -> WeylElement:
    """Evaluate an expression tree in the quantized algebra."""
    return _evaluate(node, params, _weyl_atom)


def eval_rescaled(node: Expression, params: WeylParams) -> MaltsiniotisElement:
    """Evaluate in the rescaled presentation, where y_i is Y_i = (q_i - 1)^{-1} y_i."""
    return _evaluate(node, params, lambda leaf, p: _weyl_atom(leaf, p, MaltsiniotisElement))
