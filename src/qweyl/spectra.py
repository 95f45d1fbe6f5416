"""Stratification combinatorics: admissible sets, torus matrices, centers.

A stratum of the spectrum is indexed by an admissible subset T of the
marker set M_n = {z_1, z_2, y_2, x_2, ..., z_n, y_n, x_n}: for each
2 <= i <= n,

    (y_i in T or x_i in T)  <=>  (z_i in T and z_{i-1} in T),

with z_1 unconstrained (y_1, x_1 are not markers).  Each stratum carries an
ordered generator list Y_T; pairs of those generators commute up to an
eta-monomial on the quantized side and bracket to a mu-linear multiple of
their product on the Poisson side.  The common integer kernel of the
commutation exponents is the center lattice of the stratum's torus.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import lcm
from operator import attrgetter, index
from typing import Iterable, Sequence

from .poisson import PoissonElement, pb_bracket
from .scalars import ExpVec, MuPoly, add_term, vec_add, vec_neg, zero_vec
from .weyl import ParamsMismatchError, WeylElement, WeylParams, pos_x, pos_y, wa_z

Marker = tuple[str, int]
TaggedGen = tuple[str, int]

_denominator = attrgetter("denominator")


@dataclass(frozen=True)
class AdmissibleSet:
    """A subset of the marker set M_n, stored by kind."""

    n: int
    zs: frozenset[int]
    ys: frozenset[int]
    xs: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "zs", frozenset(self.zs))
        object.__setattr__(self, "ys", frozenset(self.ys))
        object.__setattr__(self, "xs", frozenset(self.xs))
        _check_size(self.n)
        for i in (*self.zs, *self.ys, *self.xs):
            if type(i) is not int:
                raise ValueError(f"marker index {i!r} must be an integer")
        if any(not 1 <= i <= self.n for i in self.zs):
            raise ValueError("z markers must have indices in 1..n")
        for group in (self.ys, self.xs):
            if any(not 2 <= i <= self.n for i in group):
                raise ValueError("y/x markers must have indices in 2..n")

    @classmethod
    def from_markers(cls, n: int, markers: Iterable[Marker]) -> "AdmissibleSet":
        groups = {"z": set(), "y": set(), "x": set()}
        for kind, i in markers:
            if kind not in groups:
                raise ValueError(f"unknown marker kind {kind!r}; expected z, y or x")
            groups[kind].add(i)
        return cls(n, groups["z"], groups["y"], groups["x"])

    @classmethod
    def _canonical(cls, n: int, zs: frozenset, ys: frozenset, xs: frozenset) -> AdmissibleSet:
        """The set of valid fields (frozensets of int indices in range), unchecked."""
        self = object.__new__(cls)
        self.__dict__.update(n=n, zs=zs, ys=ys, xs=xs)
        return self

    def markers(self) -> tuple[Marker, ...]:
        """The markers by index, and z, y, x at one index."""
        groups = (("z", self.zs), ("y", self.ys), ("x", self.xs))
        return tuple((kind, i) for i in sorted(self.zs | self.ys | self.xs)
                     for kind, group in groups if i in group)

    def names(self) -> tuple[str, ...]:
        return tuple(f"{kind}{i}" for kind, i in self.markers())

    def is_admissible(self) -> bool:
        return is_admissible(self)

    def __str__(self) -> str:
        return "{" + ",".join(self.names()) + "}"


def is_admissible(T: AdmissibleSet) -> bool:
    """Decide the defining biconditional for every 2 <= i <= n."""
    for i in range(2, T.n + 1):
        left = i in T.ys or i in T.xs
        right = i in T.zs and (i - 1) in T.zs
        if left != right:
            return False
    return True


def _generators(params: WeylParams, T: AdmissibleSet) -> tuple[TaggedGen, ...]:
    """``y_set(T)`` for a stratum of ``params``: every function of an
    instance and a marker set checks through here that both have one n."""
    if T.n != params.n:
        raise ValueError(f"marker set {T} has n = {T.n}, the instance n = {params.n}")
    return y_set(T)


def _check_size(n: int) -> None:
    """The check of n shared by :class:`AdmissibleSet` and the three
    enumerations."""
    if type(n) is not int:  # bools, floats and strings are not sizes
        raise ValueError(f"n = {n!r} must be an integer")
    if n < 1:
        raise ValueError("n must be positive")


def enumerate_admissible(n: int) -> list[AdmissibleSet]:
    """All admissible subsets of M_n, by index-by-index extension.

    At each new index i the candidate block is one of {}, {z_i},
    {z_i, y_i}, {z_i, x_i}, {z_i, y_i, x_i}; which of those are allowed
    depends only on whether z_{i-1} was taken.  Output order is the
    deterministic recursion order.
    """
    _check_size(n)
    partial: list[tuple[frozenset, frozenset, frozenset]] = [
        (frozenset(), frozenset(), frozenset()),
        (frozenset({1}), frozenset(), frozenset()),
    ]
    for i in range(2, n + 1):
        grown = []
        for zs, ys, xs in partial:
            blocks = [(frozenset(), frozenset(), frozenset())]
            if (i - 1) in zs:
                blocks += [
                    (frozenset({i}), frozenset({i}), frozenset()),
                    (frozenset({i}), frozenset(), frozenset({i})),
                    (frozenset({i}), frozenset({i}), frozenset({i})),
                ]
            else:
                blocks.append((frozenset({i}), frozenset(), frozenset()))
            for bz, by, bx in blocks:
                grown.append((zs | bz, ys | by, xs | bx))
        partial = grown
    return [AdmissibleSet._canonical(n, zs, ys, xs) for zs, ys, xs in partial]


def count_admissible(n: int) -> int:
    """The number of admissible subsets of M_n, without enumerating them.

    With f_i (g_i) the number of admissible subsets of M_i that contain
    (omit) z_i, the blocks of ``enumerate_admissible`` give
    f_i = 3 f_{i-1} + g_{i-1} and g_i = f_{i-1} + g_{i-1}, from f_1 = g_1 = 1.
    """
    _check_size(n)
    with_z, without_z = 1, 1
    for _ in range(2, n + 1):
        with_z, without_z = 3 * with_z + without_z, with_z + without_z
    return with_z + without_z


def brute_force_admissible(n: int) -> list[AdmissibleSet]:
    """Independent oracle: filter all 2^|M_n| subsets through is_admissible."""
    _check_size(n)
    markers: list[Marker] = [("z", 1)]
    for i in range(2, n + 1):
        markers += [("z", i), ("y", i), ("x", i)]
    out = []
    for mask in range(1 << len(markers)):
        chosen = [m for b, m in enumerate(markers) if mask >> b & 1]
        T = AdmissibleSet.from_markers(n, chosen)
        if is_admissible(T):
            out.append(T)
    return out


def y_set(T: AdmissibleSet) -> tuple[TaggedGen, ...]:
    """The ordered stratum generator list.

    Per index i: both z_i and y_i when z_i is not in T; y_i alone when z_i
    is in T but y_i is not; x_i alone when z_i, y_i are in T but x_i is not;
    nothing when all three are.  Ordered by index with z before y before x.
    """
    if not is_admissible(T):
        raise ValueError(f"set {T} is not admissible")
    out: list[TaggedGen] = []
    for i in range(1, T.n + 1):
        if i not in T.zs:
            out += [("z", i), ("y", i)]
        elif i not in T.ys:
            out.append(("y", i))
        elif i not in T.xs:
            out.append(("x", i))
    return tuple(out)


def q_pair_exponent(params: WeylParams, w1: TaggedGen, w2: TaggedGen) -> ExpVec:
    """Exponent vector c with w1 w2 = eta^c w2 w1 in the quantized algebra.

    Closed table assembled from the defining relations and the z
    commutation rules; the pair (y_i, x_i) never occurs among stratum
    generators and is rejected.
    """
    k1, a = w1
    k2, b = w2
    zero = zero_vec(params.r)
    if k1 == "z" and k2 == "z":
        return zero
    if k1 == "z":
        if b > a:
            return zero
        v = params.s(b)
        return v if k2 == "y" else vec_neg(v)
    if k2 == "z":
        return vec_neg(q_pair_exponent(params, w2, w1))
    if a == b:
        if k1 == k2:
            return zero
        raise ValueError("y_i and x_i never co-occur among stratum generators")
    if k1 == k2 == "y":
        return params.L(a, b)
    if k1 == k2 == "x":
        if a < b:
            return vec_add(params.s(a), params.L(a, b))
        return vec_neg(vec_add(params.s(b), params.L(b, a)))
    if k1 == "y":  # k2 == "x"
        if a < b:
            return vec_neg(vec_add(params.s(a), params.L(a, b)))
        return params.L(b, a)
    # k1 == "x", k2 == "y"
    if a < b:
        return vec_neg(params.L(a, b))
    return vec_add(params.s(b), params.L(b, a))


def torus_matrix_q(params: WeylParams, T: AdmissibleSet) -> tuple[tuple[ExpVec, ...], ...]:
    """Commutation-exponent matrix of the stratum torus."""
    return _pair_table(params, 0, _generators(params, T))


def _bracket_form(a: PoissonElement, b: PoissonElement, wa: TaggedGen, wb: TaggedGen) -> MuPoly:
    """The mu-form d with {a, b} = d a b, through the actual bracket engine,
    independently of the quantized exponent table.  The generator images
    have rational coefficients (any other coefficient fails), so ab is a
    map from monomials to nonzero rationals.  With m the leading monomial
    of {a, b} and lc its coefficient, {a, b} = d ab for d = lc / ab[m]
    exactly when both have the same monomials and ab[m] {a, b}[m'] =
    ab[m'] lc coefficientwise at each of them: integer and rational
    products only, so the check is exact.  d is lc itself when ab[m] = 1,
    as for every pair of the seeded stratum tables, else the one division."""
    br = pb_bracket(a, b)
    if not br:
        return MuPoly.zero(a.params.r)
    zero = zero_vec(a.params.r)  # the least mu-vector: c is constant when its last is zero
    ra, rb = ([(m, c.terms[-1][1]) for m, c in x.terms if c.terms[-1][0] == zero]
              for x in (a, b))
    if len(ra) == len(a.terms) and len(rb) == len(b.terms):
        ab: dict = {}
        for ma, ka in ra:
            for mb, kb in rb:
                add_term(ab, vec_add(ma, mb), ka * kb)
        m, lc = br.terms[-1]
        if len(ab) == len(br.terms) and m in ab:
            k = ab[m]
            if all(mm in ab and [(v, e * k) for v, e in c.terms]
                   == [(v, e * ab[mm]) for v, e in lc.terms] for mm, c in br.terms):
                return lc if k == 1 else lc.scale(Fraction(1, k))
    raise ArithmeticError(
        f"bracket of {wa} and {wb} is not a scalar multiple of their product"
    )


def _pair_table(params: WeylParams, field: int, gens: Sequence[TaggedGen]) -> tuple:
    """The matrix over ordered pairs (w_i, w_j) of ``gens`` of one field of
    their :func:`_pair_record`: the exponent (0), the Poisson form (1) or
    its printed text (2)."""
    memo = params.torus_table
    return tuple([tuple([(memo.get((wi, wj)) or _pair_record(params, wi, wj))[field]
                         for wj in gens]) for wi in gens])


def _pair_record(params: WeylParams, w: TaggedGen, v: TaggedGen) -> tuple[ExpVec, MuPoly, str]:
    """The record ``(c, d, str(d))`` of the ordered pair (w, v), with c =
    ``q_pair_exponent(w, v)`` and d = {w, v}/(w v) from :func:`_bracket_form`,
    stored whole in the instance's ``torus_table`` under ``(w, v)``, so a
    first read of the exponent brackets the pair too; the table also holds
    the verdict of :func:`_residue_is_zero` under ``("q", w, v)``.  Each ordered
    pair's form, (v, w) and (w, w) included, goes through ``pb_bracket`` on its own."""
    record = params.torus_table.get((w, v))
    if record is None:
        d = _bracket_form(*[_image(params, PoissonElement, u) for u in (w, v)], w, v)
        record = params.torus_table[(w, v)] = (q_pair_exponent(params, w, v), d, str(d))
    return record


def _residue_is_zero(params: WeylParams, w: TaggedGen, v: TaggedGen) -> bool:
    """Whether the torus residue w v - eta^c v w is 0, c the exponent of the
    (w, v) record, stored under ``("q", w, v)``.  One
    :meth:`~qweyl.weyl.StraighteningEngine.q_commutators` call folds w v and
    v w once each and gives both orders' verdicts, each from its own
    exponent, so skew-symmetry stays checked.  Only a diagonal pair with
    c = 0 is true without a fold; a nonzero c is folded, so a wrong table shows."""
    memo = params.torus_table
    if ("q", w, v) not in memo:
        c, c2 = _pair_record(params, w, v)[0], _pair_record(params, v, w)[0]
        if w == v and not any(c):
            memo[("q", w, w)] = True
        else:
            a, b = [_image(params, WeylElement, u) for u in (w, v)]
            ab, ba = params.engine.q_commutators(a.terms, b.terms, c, c2)
            memo[("q", w, v)], memo[("q", v, w)] = not any(ab.values()), not any(ba.values())
    return memo[("q", w, v)]


def _image(params: WeylParams, cls, w: TaggedGen):
    """The ``cls`` image of ``w``, built once per instance in its ``atoms``,
    which the expression evaluator reads too."""
    key = (cls, *w)
    if (out := params.atoms.get(key)) is None:
        out = params.atoms[key] = cls.generator(params, *w)
    return out


def torus_matrix_p(params: WeylParams, T: AdmissibleSet) -> tuple[tuple[MuPoly, ...], ...]:
    """Poisson commutation forms d with {w_i, w_j} = d_ij w_i w_j."""
    return _pair_table(params, 1, _generators(params, T))


# -- integer linear algebra ---------------------------------------------------


def _ints(values: list) -> list[int]:
    """``values`` with every entry an int; a non-integer entry, a bool too, raises TypeError."""
    if {int}.issuperset(map(type, values)):  # the common case: no index call
        return values
    if bool in set(map(type, values)):
        raise TypeError("'bool' object cannot be interpreted as an integer")
    return list(map(index, values))


def _flat_rows(rows: Sequence[Sequence[int]], ncols: int) -> tuple[list[int], int]:
    """The entries of ``rows``, row by row, as one list of ints, and the
    number of rows.  An entry that is not an integer (a bool included), or
    a bool ``ncols``, raises TypeError; a negative ``ncols`` or a row of
    another length raises ValueError."""
    if _ints([ncols])[0] < 0:
        raise ValueError(f"ncols must be nonnegative, not {ncols}")
    flat: list = []
    nrows = 0
    for nrows, row in enumerate(rows, 1):
        flat += row
        if len(flat) != nrows * ncols:
            raise ValueError(f"a row has length {len(row)}, not ncols = {ncols}")
    return _ints(flat), nrows


def row_hermite_normal_form(rows: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    """Row-style Hermite normal form over Z.

    The rows of the result span the same lattice as ``rows``; pivots are
    positive, entries above each pivot are reduced into [0, pivot), and
    zero rows come last.  An entry that is not an integer raises TypeError,
    and a row whose length is not ``ncols`` raises ValueError.
    """
    flat, nrows = _flat_rows(rows, ncols)
    return _hermite([flat[i * ncols:(i + 1) * ncols] for i in range(nrows)])


def _hermite(H: list[list[int]]) -> list[list[int]]:
    """:func:`row_hermite_normal_form` of ``H``, rows of ints of one length, in place."""
    pivot_row = 0
    for col in range(len(H[0]) if H else 0):
        while True:  # gcd elimination below pivot_row in this column
            nonzero = [i for i in range(pivot_row, len(H)) if H[i][col]]
            if len(nonzero) <= 1:
                break
            i0 = min(nonzero, key=lambda i: abs(H[i][col]))
            for i in nonzero:
                if i != i0:
                    f = H[i][col] // H[i0][col]
                    H[i] = [a - f * b for a, b in zip(H[i], H[i0])]
        if not nonzero:
            continue
        i0 = nonzero[0]
        row = H[i0] if H[i0][col] > 0 else [-a for a in H[i0]]
        H[i0], H[pivot_row] = H[pivot_row], row
        for i in range(pivot_row):
            f = H[i][col] // row[col]
            if f:
                H[i] = [a - f * b for a, b in zip(H[i], row)]
        pivot_row += 1
    return H


def integer_kernel(rows: Sequence[Sequence[int]], ncols: int) -> list[tuple[int, ...]]:
    """Canonical (HNF-reduced) Z-basis of {u in Z^ncols : A u = 0}, as a
    new list.

    The rows are flattened with no tuple per row and their entries checked
    (as by :func:`row_hermite_normal_form`), into one tuple key before the
    process-wide memo is read, so bad input never enters it.  A kernel
    depends on the integer system alone, and a stratum's Poisson-side rows
    are exactly its quantized-side rows, so each system is solved once per
    process, whichever side or instance asks.  The memo keeps the 1024
    systems used last; an entry holds nrows * ncols ints of key and at most
    ncols^2 of basis, which for a stratum of an instance with n pairs and
    rank r (ncols <= 2n, nrows = ncols * r) is at most 4 n^2 (r + 1) ints.
    """
    return list(_kernel_basis(tuple(_flat_rows(rows, ncols)[0]), ncols))


@lru_cache(maxsize=1024)
def _kernel_basis(entries: tuple[int, ...], ncols: int) -> tuple[tuple[int, ...], ...]:
    """The kernel of :func:`integer_kernel` for the rows of length ``ncols``
    read in order from ``entries``, from one Hermite pass over the rows
    [A^T_j | e_j]: the right blocks record the unimodular row operations, so
    once the A^T block is reduced, the right blocks of the rows where it is
    zero span the kernel, and the pass leaves them in its reduced Hermite form."""
    aug = [list(entries[j::ncols]) + [int(i == j) for i in range(ncols)] for j in range(ncols)]
    return tuple(tuple(row[-ncols:]) for row in _hermite(aug) if not any(row[:-ncols]))


def lattice_contains(basis: Sequence[Sequence[int]], u: Sequence[int]) -> bool:
    """Membership of u in the Z-span of an HNF basis (greedy reduction).
    An entry of u that is not an integer, a bool included, raises TypeError."""
    v = _ints(list(u))
    for row in basis:
        if len(row) != len(v):
            raise ValueError(f"vector has length {len(v)}, basis rows have length {len(row)}")
        piv = next((j for j, a in enumerate(row) if a), None)
        if piv is None:
            continue
        if v[piv] % row[piv] == 0:
            f = v[piv] // row[piv]
            if f:
                v = [a - f * b for a, b in zip(v, row)]
    return not any(v)


@dataclass(frozen=True)
class CenterLattice:
    """Z-basis of the exponents u with w^u central in the stratum torus."""

    size: int
    basis: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def is_trivial(self) -> bool:
        return not self.basis

    def contains(self, u: Sequence[int]) -> bool:
        if len(u) != self.size:
            raise ValueError(f"vector has length {len(u)}, lattice lives in Z^{self.size}")
        return lattice_contains(self.basis, u)


def _square(matrix: Sequence[Sequence], name: str, r: int) -> int:
    """The size of a square ``matrix`` whose entries have rank ``r``: an
    ``r`` that is not an int, or a row of another length, raises ValueError."""
    if type(r) is not int:  # bools, floats and strings are not ranks
        raise ValueError(f"r = {r!r} must be an int")
    s = len(matrix)
    for row in matrix:
        if len(row) != s:
            raise ValueError(f"{name} is not square: a row of length {len(row)} among {s} rows")
    return s


def center_lattice(qmatrix: Sequence[Sequence[ExpVec]], r: int) -> CenterLattice:
    """Integer kernel of the stacked commutation-exponent system.

    Central monomials w^u are exactly those with sum_j u_j c_{l j} = 0 in
    Z^r for every row l; the system stacks one row per (l, eta-coordinate).
    A matrix that is not square, an ``r`` that is not an int, or an
    exponent vector whose length is not ``r``, raises ValueError.
    """
    s = _square(qmatrix, "qmatrix", r)
    if any(len(v) != r for row in qmatrix for v in row):
        raise ValueError(f"qmatrix holds an exponent vector whose length is not r = {r}")
    rows = [coords for row in qmatrix for coords in zip(*row)]
    return CenterLattice(s, tuple(integer_kernel(rows, s)))


def poisson_center_lattice(pmatrix: Sequence[Sequence[MuPoly]], r: int) -> CenterLattice:
    """Integer kernel of the mu-form system (independent of the q side).

    The condition sum_j u_j d_{l j} = 0 in Q[mu] splits per mu-coordinate
    into rational linear equations, read from the forms by
    ``MuPoly._linear_row``; a row is scaled by the lcm of its denominators
    unless that is 1, as for every stratum form.  A matrix that is not
    square, an ``r`` that is not an int, or a form whose rank is not ``r``,
    raises ValueError; an entry that is not a MuPoly raises TypeError.
    """
    s = _square(pmatrix, "pmatrix", r)
    for f in chain.from_iterable(pmatrix):
        if type(f) is not MuPoly:
            raise TypeError(f"pmatrix entries must be MuPoly forms, not {type(f).__name__}")
        if f.rank != r:
            raise ValueError(f"pmatrix holds a form whose rank is not r = {r}")
    rows = []
    for row in pmatrix:
        for coeffs in zip(*map(MuPoly._linear_row, row)):
            denom = lcm(*map(_denominator, coeffs))
            rows.append(coeffs if denom == 1 else
                        [c.numerator * (denom // c.denominator) for c in coeffs])
    return CenterLattice(s, tuple(integer_kernel(rows, s)))


@dataclass(frozen=True)
class StratumReport:
    """Bundle of everything computed for one stratum."""

    markers: tuple[str, ...]
    generators: tuple[str, ...]
    qmatrix: tuple[tuple[ExpVec, ...], ...]
    pmatrix: tuple[tuple[str, ...], ...]
    center_rank: int
    center_basis: tuple[tuple[int, ...], ...]
    center_trivial: bool

    def to_dict(self) -> dict:
        return {
            "markers": list(self.markers),
            "generators": list(self.generators),
            "qmatrix": [[list(v) for v in row] for row in self.qmatrix],
            "pmatrix": [list(row) for row in self.pmatrix],
            "center_rank": self.center_rank,
            "center_basis": [list(v) for v in self.center_basis],
            "center_trivial": self.center_trivial,
        }


def stratum_report(params: WeylParams, T: AdmissibleSet) -> StratumReport:
    """The stratum's torus read from the instance's pair table: the
    exponents (field 0) and the forms' printed text (field 2)."""
    gens = _generators(params, T)
    qmatrix = _pair_table(params, 0, gens)
    lattice = center_lattice(qmatrix, params.r)
    return StratumReport(
        markers=T.names(),
        generators=tuple(f"{k}{i}" for k, i in gens),
        qmatrix=qmatrix,
        pmatrix=_pair_table(params, 2, gens),
        center_rank=lattice.rank,
        center_basis=lattice.basis,
        center_trivial=lattice.is_trivial,
    )


# -- one-sided ideal membership ------------------------------------------------


def reduce_mod_stratum(params: WeylParams, T: AdmissibleSet, a: WeylElement) -> WeylElement:
    """Reduce an element modulo the right ideal generated by T's markers.

    Rules, each changing the element by a member of the ideal:
      * drop any term whose monomial contains y_i with y_i in T (such a
        term is a scalar multiple of y_i times a monomial);
      * likewise for x_i in T (admissibility puts z_{i-1} in T, absorbing
        the cross terms of moving x_i into place);
      * for z_i in T, a monomial ``m = low y_i^r x_i^s high`` (low on the
        pairs below i, high on those above) rewrites via y_i x_i = z_i -
        z_{i-1} to minus its z_{i-1} version, since the z_i version lies in
        the ideal.  z_{i-1} commutes with y_i, x_i and every higher pair,
        so that version is ``(low z_{i-1}) y_i^(r-1) x_i^(s-1) high``: one
        product ``low * z_{i-1}``, whose monomials live on the pairs below
        i, with the rest of m appended to each.
    The rewrite moves degree from pair i to pairs k < i (or lowers total
    degree), so the weighted degree sum over pairs strictly drops and the
    loop terminates.  A zero normal form certifies membership.  ``a`` must
    be a plain :class:`~qweyl.weyl.WeylElement` (TypeError otherwise) of
    ``params`` (ParamsMismatchError otherwise).
    """
    _generators(params, T)  # checks T
    if type(a) is not WeylElement:  # a rescaled Y_i is not an element of this algebra
        raise TypeError(f"reduce_mod_stratum takes a WeylElement, not a {type(a).__name__}")
    if a.params != params:
        raise ParamsMismatchError(WeylElement.mismatch_message)
    agenda = dict(a.terms)
    result: dict = {}
    while agenda:
        m = max(agenda)
        c = agenda.pop(m)
        if any(m[pos_y(i)] for i in T.ys) or any(m[pos_x(i)] for i in T.xs):
            continue
        hit = next(
            (i for i in sorted(T.zs, reverse=True) if m[pos_y(i)] and m[pos_x(i)]),
            None,
        )
        if hit is None:
            add_term(result, m, c)
            continue
        y = pos_y(hit)
        rest = (m[y] - 1, m[y + 1] - 1) + m[y + 2:]
        low = WeylElement.monomial(params, m[:y] + (0,) * len(rest))
        for mm, cc in (low * wa_z(params, hit - 1)).terms:
            add_term(agenda, mm[:y] + rest, -(c * cc))
    return WeylElement(params, result)


def in_stratum_ideal(params: WeylParams, T: AdmissibleSet, a: WeylElement) -> bool:
    return not reduce_mod_stratum(params, T, a)


def check_torus_relations(params: WeylParams, T: AdmissibleSet) -> bool:
    """Verify every tabulated commutation w_i w_j = eta^{c_ij} w_j w_i
    against the straightening engine, exactly: True only when every residue
    w_i w_j - eta^{c_ij} w_j w_i is 0.  The stratum generators q-commute in
    the algebra itself, so this is stronger than membership of the
    residues in the stratum ideal (:func:`in_stratum_ideal`).  A residue's
    verdict does not depend on the stratum and comes from the instance's memo."""
    memo, gens = params.torus_table, _generators(params, T)
    return all([memo.get(("q", w, v)) or _residue_is_zero(params, w, v)
                for w in gens for v in gens])
