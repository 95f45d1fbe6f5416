"""Independent reference computations used by the benchmark's checks.

Nothing here imports qweyl: the word-rewriting straightener, the reading
of the expression grammar and the rational linear algebra are written
from the defining relations, the grammar and plain Gaussian elimination,
so an agreement with the library is evidence that both are right, not
that one copy of the code agrees with itself.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

# A scalar is a dict {eta exponent vector: Fraction}; a word is a tuple of
# exponent slots (y_i -> 2(i-1), x_i -> 2(i-1)+1).


def _scalar_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for va, ca in a.items():
        for vb, cb in b.items():
            v = tuple(x + y for x, y in zip(va, vb))
            c = out.get(v, 0) + ca * cb
            if c:
                out[v] = c
            else:
                out.pop(v, None)
    return out


def _scalar_add_into(table: dict, key, scalar: dict) -> None:
    acc = dict(table.get(key, {}))
    for v, c in scalar.items():
        s = acc.get(v, 0) + c
        if s:
            acc[v] = s
        else:
            acc.pop(v, None)
    if acc:
        table[key] = acc
    else:
        table.pop(key, None)


def _word(mono) -> tuple[int, ...]:
    return tuple(slot for slot, e in enumerate(mono) for _ in range(e))


def straighten(n, r, qexp, lexp, words: dict) -> dict:
    """Normal form of a sum of free words by the five defining relations.

    ``words`` maps words (tuples of slots) to scalar dicts; ``qexp[i]`` is
    s_{i+1} and ``lexp[i][j]`` is L_{i+1,j+1}.  The leftmost out-of-order
    adjacent pair of a word is rewritten until the word is sorted; no
    cache, no recursion on monomials.  Returns {PBW exponent tuple: scalar
    dict}.
    """
    zero = (0,) * r

    def mono(v):
        return {tuple(v): Fraction(1)}

    def add(u, v):
        return tuple(a + b for a, b in zip(u, v))

    work = [(w, c) for w, c in words.items() if c]
    result: dict = {}
    while work:
        word, c = work.pop()
        k = next((k for k in range(len(word) - 1) if word[k] > word[k + 1]), None)
        if k is None:
            counts = [0] * (2 * n)
            for slot in word:
                counts[slot] += 1
            _scalar_add_into(result, tuple(counts), c)
            continue
        hi, lo = word[k], word[k + 1]
        head, tail = word[:k], word[k + 2:]
        j, i = hi // 2, lo // 2  # 0-based pair indices, j >= i
        if j == i:
            # x_i y_i = q_i y_i x_i + (q_i - 1)(1 + sum_{k<i} y_k x_k)
            q = mono(qexp[i])
            qm1 = dict(q)
            qm1[zero] = qm1.get(zero, 0) - 1
            work.append((head + (lo, hi) + tail, _scalar_mul(c, q)))
            c2 = _scalar_mul(c, qm1)
            work.append((head + tail, c2))
            for kk in range(i):
                work.append((head + (2 * kk, 2 * kk + 1) + tail, c2))
            continue
        s_i, l_ij, l_ji = qexp[i], lexp[i][j], lexp[j][i]
        hi_y, lo_y = hi % 2 == 0, lo % 2 == 0
        if hi_y and lo_y:  # y_j y_i = lam_ji y_i y_j
            v = l_ji
        elif hi_y:  # y_j x_i = lam_ij x_i y_j
            v = l_ij
        elif lo_y:  # x_j y_i = q_i lam_ij y_i x_j
            v = add(s_i, l_ij)
        else:  # x_j x_i = q_i^-1 lam_ij^-1 x_i x_j
            v = tuple(-e for e in add(s_i, l_ij))
        work.append((head + (lo, hi) + tail, _scalar_mul(c, mono(v))))
    return result


def naive_product(n, r, qexp, lexp, a_terms, b_terms) -> dict:
    """Normal form of a*b for a, b given as lists of (PBW exponent tuple,
    scalar dict), by ``straighten``."""
    words: dict = {}
    for ma, ca in a_terms:
        for mb, cb in b_terms:
            _scalar_add_into(words, _word(ma) + _word(mb), _scalar_mul(ca, cb))
    return straighten(n, r, qexp, lexp, words)


# -- an independent reading of the expression grammar ---------------------------

_TOKEN = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([xyz])(\d+)|(eta)|(.))")


def free_polynomial(text: str, n: int, r: int) -> dict:
    """Evaluate an expression of the CLI grammar to {free word: scalar dict}.

    Same grammar as ``qweyl.exprs`` (``expr := term (('+'|'-') term)*``,
    ``term := factor ('*' factor)*``, ``factor := '-'* atom ('^' INT)?``),
    but products only concatenate words; ``straighten`` does the algebra.
    z_i stands for 1 + sum_{k<=i} y_k x_k.
    """
    tokens = []
    for num, gen, idx, eta, other in _TOKEN.findall(text):
        if num:
            tokens.append(("num", Fraction(num)))
        elif gen:
            tokens.append(("gen", (gen, int(idx))))
        elif eta:
            tokens.append(("eta", None))
        elif other.strip():
            tokens.append((other, None))
    tokens.append(("end", None))
    pos = 0
    one = {(0,) * r: Fraction(1)}

    def peek():
        return tokens[pos][0]

    def take(kind):
        nonlocal pos
        tok = tokens[pos]
        if tok[0] != kind:
            raise ValueError(f"expected {kind!r} at token {pos} of {text!r}")
        pos += 1
        return tok[1]

    def plus(a, b, sign=1):
        out = dict(a)
        for w, c in b.items():
            _scalar_add_into(out, w, {v: sign * x for v, x in c.items()})
        return out

    def times(a, b):
        out: dict = {}
        for wa, ca in a.items():
            for wb, cb in b.items():
                _scalar_add_into(out, wa + wb, _scalar_mul(ca, cb))
        return out

    def expr():
        out = term()
        while peek() in ("+", "-"):
            op = peek()
            take(op)
            out = plus(out, term(), 1 if op == "+" else -1)
        return out

    def term():
        out = factor()
        while peek() == "*":
            take("*")
            out = times(out, factor())
        return out

    def factor():
        negs = 0
        while peek() == "-":
            take("-")
            negs += 1
        base = atom()
        if peek() == "^":
            take("^")
            power = {(): one}
            for _ in range(int(take("num"))):
                power = times(power, base)
            base = power
        return plus({}, base, -1) if negs % 2 else base

    def atom():
        kind = peek()
        if kind == "num":
            return {(): {(0,) * r: take("num")}}
        if kind == "gen":
            g, i = take("gen")
            if g == "z":
                out = {(): one}
                for k in range(i):
                    out[(2 * k, 2 * k + 1)] = one
                return out
            return {(2 * (i - 1) + (g == "x"),): one}
        if kind == "eta":
            take("eta")
            take("^")
            take("[")
            vec = [entry()]
            while peek() == ",":
                take(",")
                vec.append(entry())
            take("]")
            return {(): {tuple(vec): Fraction(1)}}
        take("(")
        out = expr()
        take(")")
        return out

    def entry():
        sign = 1
        while peek() == "-":
            take("-")
            sign = -sign
        return sign * int(take("num"))

    out = expr()
    take("end")
    return out


def rational_rank(rows) -> int:
    """Rank over Q by Gaussian elimination on Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def determinant(m) -> Fraction:
    """Determinant over Q by Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(len(m)):
        piv = next((i for i in range(col, len(m)) if m[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, len(m)):
            f = m[i][col] / m[col][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return det


def is_saturated(basis) -> bool:
    """Whether the Z-span of ``basis`` (independent integer rows) contains
    every integer vector of its rational span: the gcd of the maximal
    minors is 1."""
    k = len(basis)
    if not k:
        return True
    g = 0
    for cols in itertools.combinations(range(len(basis[0])), k):
        g = math.gcd(g, int(determinant([[row[c] for c in cols] for row in basis])))
    return g == 1


def admissible_specs(n: int) -> list[str]:
    """Every admissible marker set of M_n as a TSPEC string, by filtering
    all subsets through the defining biconditional."""
    markers = [("z", 1)]
    for i in range(2, n + 1):
        markers += [("z", i), ("y", i), ("x", i)]
    out = []
    for mask in range(1 << len(markers)):
        chosen = {m for b, m in enumerate(markers) if mask >> b & 1}
        if all(
            ((("y", i) in chosen) or (("x", i) in chosen))
            == ((("z", i) in chosen) and (("z", i - 1) in chosen))
            for i in range(2, n + 1)
        ):
            ordered = sorted(chosen, key=lambda m: (m[1], "zyx".index(m[0])))
            out.append(",".join(f"{k}{i}" for k, i in ordered))
    return out
