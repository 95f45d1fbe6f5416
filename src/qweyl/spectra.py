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
from math import lcm
from typing import Iterable, Mapping, Sequence

from .poisson import PoissonElement, pb_bracket, pe_div_exact
from .scalars import ExpVec, MuPoly, QTScalar, add_term, vec_add, vec_neg, zero_vec
from .weyl import WeylElement, WeylParams, pos_x, pos_y, wa_z

Marker = tuple[str, int]
TaggedGen = tuple[str, int]

_KIND_ORDER = {"z": 0, "y": 1, "x": 2}


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
        if any(not 1 <= i <= self.n for i in self.zs):
            raise ValueError("z markers must have indices in 1..n")
        for group in (self.ys, self.xs):
            if any(not 2 <= i <= self.n for i in group):
                raise ValueError("y/x markers must have indices in 2..n")

    @classmethod
    def from_markers(cls, n: int, markers: Iterable[Marker]) -> "AdmissibleSet":
        zs, ys, xs = set(), set(), set()
        for kind, i in markers:
            {"z": zs, "y": ys, "x": xs}[kind].add(i)
        return cls(n, frozenset(zs), frozenset(ys), frozenset(xs))

    def markers(self) -> tuple[Marker, ...]:
        out = [("z", i) for i in self.zs]
        out += [("y", i) for i in self.ys]
        out += [("x", i) for i in self.xs]
        return tuple(sorted(out, key=lambda m: (m[1], _KIND_ORDER[m[0]])))

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


def _require_admissible(T: AdmissibleSet) -> None:
    if not is_admissible(T):
        raise ValueError(f"set {T} is not admissible")


def enumerate_admissible(n: int) -> list[AdmissibleSet]:
    """All admissible subsets of M_n, by index-by-index extension.

    At each new index i the candidate block is one of {}, {z_i},
    {z_i, y_i}, {z_i, x_i}, {z_i, y_i, x_i}; which of those are allowed
    depends only on whether z_{i-1} was taken.  Output order is the
    deterministic recursion order.
    """
    if n < 1:
        raise ValueError("n must be positive")
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
    return [AdmissibleSet(n, zs, ys, xs) for zs, ys, xs in partial]


def brute_force_admissible(n: int) -> list[AdmissibleSet]:
    """Independent oracle: filter all 2^|M_n| subsets through is_admissible."""
    if n < 1:
        raise ValueError("n must be positive")
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
    _require_admissible(T)
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
    gens = y_set(T)
    return tuple(
        tuple(q_pair_exponent(params, wi, wj) for wj in gens) for wi in gens
    )


def _gen_image(cls, params: WeylParams, w: TaggedGen):
    """A tagged generator as an element of ``cls`` (quantized or Poisson)."""
    kind, i = w
    if kind == "z":
        return cls.z(params, i)
    return cls.generator(params, kind, i)


def torus_matrix_p(params: WeylParams, T: AdmissibleSet) -> tuple[tuple[MuPoly, ...], ...]:
    """Poisson commutation forms d with {w_i, w_j} = d_ij w_i w_j.

    Computed through the actual bracket engine and exact polynomial
    division, independently of the quantized exponent table.
    """
    gens = y_set(T)
    images = [_gen_image(PoissonElement, params, w) for w in gens]
    size = len(gens)
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            br = pb_bracket(images[i], images[j])
            if not br:
                row.append(MuPoly.zero(params.r))
                continue
            quot = pe_div_exact(br, images[i] * images[j])
            if quot.degree() != 0:
                raise ArithmeticError(
                    f"bracket of {gens[i]} and {gens[j]} is not a scalar "
                    "multiple of their product"
                )
            row.append(quot.coefficient((0,) * (2 * params.n)))
        rows.append(tuple(row))
    return tuple(rows)


@dataclass(frozen=True)
class TorusData:
    """Stratum torus: ordered generators with both commutation matrices."""

    generators: tuple[TaggedGen, ...]
    qmatrix: tuple[tuple[ExpVec, ...], ...]
    pmatrix: tuple[tuple[MuPoly, ...], ...]

    def __post_init__(self):
        s = len(self.generators)
        for i in range(s):
            for j in range(s):
                if self.qmatrix[i][j] != vec_neg(self.qmatrix[j][i]):
                    raise ValueError("qmatrix is not exponent-antisymmetric")
                if self.pmatrix[i][j] != -self.pmatrix[j][i]:
                    raise ValueError("pmatrix is not skew-symmetric")
        ys = {i for kind, i in self.generators if kind == "y"}
        xs = {i for kind, i in self.generators if kind == "x"}
        if ys & xs:
            raise ValueError("y_i and x_i co-occur among generators")

    @property
    def size(self) -> int:
        return len(self.generators)


def torus_data(params: WeylParams, T: AdmissibleSet) -> TorusData:
    return TorusData(y_set(T), torus_matrix_q(params, T), torus_matrix_p(params, T))


# -- integer linear algebra ---------------------------------------------------


def row_hermite_normal_form(rows: Sequence[Sequence[int]], ncols: int):
    """Row-style Hermite normal form over Z with transformation matrix.

    Returns (H, U) with U unimodular and U*A = H; pivots are positive and
    entries above each pivot are reduced into [0, pivot).
    """
    m = len(rows)
    H = [list(map(int, row)) for row in rows]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    pivot_row = 0
    for col in range(ncols):
        # gcd elimination below pivot_row in this column
        while True:
            nonzero = [i for i in range(pivot_row, m) if H[i][col]]
            if len(nonzero) <= 1:
                break
            i0 = min(nonzero, key=lambda i: abs(H[i][col]))
            for i in nonzero:
                if i == i0:
                    continue
                f = H[i][col] // H[i0][col]
                H[i] = [a - f * b for a, b in zip(H[i], H[i0])]
                U[i] = [a - f * b for a, b in zip(U[i], U[i0])]
        nonzero = [i for i in range(pivot_row, m) if H[i][col]]
        if not nonzero:
            continue
        i0 = nonzero[0]
        H[pivot_row], H[i0] = H[i0], H[pivot_row]
        U[pivot_row], U[i0] = U[i0], U[pivot_row]
        if H[pivot_row][col] < 0:
            H[pivot_row] = [-a for a in H[pivot_row]]
            U[pivot_row] = [-a for a in U[pivot_row]]
        piv = H[pivot_row][col]
        for i in range(pivot_row):
            f = H[i][col] // piv
            if f:
                H[i] = [a - f * b for a, b in zip(H[i], H[pivot_row])]
                U[i] = [a - f * b for a, b in zip(U[i], U[pivot_row])]
        pivot_row += 1
    return H, U


def integer_kernel(rows: Sequence[Sequence[int]], ncols: int) -> list[tuple[int, ...]]:
    """Canonical (HNF-reduced) Z-basis of {u in Z^ncols : A u = 0}.

    Works on the transpose: row-reducing [A^T] with a unimodular U makes
    the U-rows over zero rows of the reduced matrix a left-kernel basis.
    """
    nrows = len(rows)
    at = [[int(rows[i][j]) for i in range(nrows)] for j in range(ncols)]
    H, U = row_hermite_normal_form(at, nrows)
    kernel = [tuple(U[i]) for i in range(ncols) if not any(H[i])]
    if not kernel:
        return []
    Hk, _ = row_hermite_normal_form(kernel, ncols)
    return [tuple(row) for row in Hk if any(row)]


def lattice_contains(basis: Sequence[Sequence[int]], u: Sequence[int]) -> bool:
    """Membership of u in the Z-span of an HNF basis (greedy reduction)."""
    v = list(map(int, u))
    for row in basis:
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
        return lattice_contains(self.basis, u)


def center_lattice(qmatrix: Sequence[Sequence[ExpVec]], r: int) -> CenterLattice:
    """Integer kernel of the stacked commutation-exponent system.

    Central monomials w^u are exactly those with sum_j u_j c_{l j} = 0 in
    Z^r for every row l; the system stacks one row per (l, eta-coordinate).
    """
    s = len(qmatrix)
    rows = []
    for l in range(s):
        for k in range(r):
            rows.append([qmatrix[l][j][k] for j in range(s)])
    return CenterLattice(s, tuple(integer_kernel(rows, s)))


def poisson_center_lattice(pmatrix: Sequence[Sequence[MuPoly]], r: int) -> CenterLattice:
    """Integer kernel of the mu-form system (independent of the q side).

    The condition sum_j u_j d_{l j} = 0 in Q[mu] splits per mu-coordinate
    into rational linear equations; rows are scaled to integers before the
    kernel computation.
    """
    s = len(pmatrix)
    rows = []
    for l in range(s):
        coeffs = [pmatrix[l][j].linear_coefficients() for j in range(s)]
        for k in range(r):
            row = [coeffs[j][k] for j in range(s)]
            denom = lcm(*(f.denominator for f in row)) if row else 1
            rows.append([int(f * denom) for f in row])
    return CenterLattice(s, tuple(integer_kernel(rows, s)))


def clear_denominators(
    terms: Mapping[tuple[int, ...], object]
) -> tuple[tuple[int, ...], dict[tuple[int, ...], object]]:
    """Shift a Laurent combination of torus monomials into polynomial range.

    Returns (v, shifted) where v_j = max(0, -min_u u_j) is the minimal
    clearing exponent; the same v is valid on the quantized and Poisson
    sides alike, since it only depends on the support.
    """
    if not terms:
        return (), {}
    size = len(next(iter(terms)))
    v = tuple(
        max(0, -min(u[j] for u in terms)) for j in range(size)
    )
    shifted = {tuple(a + b for a, b in zip(u, v)): c for u, c in terms.items()}
    return v, shifted


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
    data = torus_data(params, T)
    lattice = center_lattice(data.qmatrix, params.r)
    return StratumReport(
        markers=T.names(),
        generators=tuple(f"{k}{i}" for k, i in data.generators),
        qmatrix=data.qmatrix,
        pmatrix=tuple(tuple(str(d) for d in row) for row in data.pmatrix),
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
      * for z_i in T, a monomial containing the pair y_i x_i rewrites via
        y_i x_i = z_i - z_{i-1} to minus the z_{i-1} version, since the
        z_i version lies in the ideal.
    The rewrite moves degree from pair i to pairs k < i (or lowers total
    degree), so the weighted degree sum over pairs strictly drops and the
    loop terminates.  A zero normal form certifies membership.
    """
    _require_admissible(T)
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
        i = hit
        prefix = list(m)
        suffix = [0] * len(m)
        for slot in range(pos_x(i), len(m)):
            suffix[slot] = prefix[slot]
            prefix[slot] = 0
        prefix[pos_y(i)] -= 1
        suffix[pos_x(i)] -= 1
        replaced = (
            WeylElement.monomial(params, tuple(prefix))
            * wa_z(params, i - 1)
            * WeylElement.monomial(params, tuple(suffix))
        )
        for mm, cc in replaced.terms:
            add_term(agenda, mm, -(c * cc))
    return WeylElement(params, result)


def in_stratum_ideal(params: WeylParams, T: AdmissibleSet, a: WeylElement) -> bool:
    return not reduce_mod_stratum(params, T, a)


def check_torus_relations(params: WeylParams, T: AdmissibleSet) -> bool:
    """Verify every tabulated commutation w_i w_j = eta^{c_ij} w_j w_i
    against the straightening engine, modulo the stratum ideal."""
    gens = y_set(T)
    images = [_gen_image(WeylElement, params, w) for w in gens]
    qm = torus_matrix_q(params, T)
    for i in range(len(gens)):
        for j in range(len(gens)):
            lhs = images[i] * images[j]
            rhs = (images[j] * images[i]).scale(QTScalar.monomial(qm[i][j]))
            if not in_stratum_ideal(params, T, lhs - rhs):
                return False
    return True
