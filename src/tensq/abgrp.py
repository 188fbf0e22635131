"""Exact linear algebra over the integers.

Everything here works on plain Python ints; no floating point is used
anywhere.  Two representations are supported: small dense matrices as
lists of row lists, and sparse rows as {column: coefficient} dicts for
the large relation matrices produced by the tensor-square oracle.

The central object is :class:`RowLattice`, an integer row lattice kept
as an echelon basis (one basis row per pivot column, pivot = leftmost
nonzero entry, kept positive).  Finitely generated abelian groups are
presented as Z^n modulo such a lattice; their canonical invariant
factors come from a Smith normal form of the small core left after
eliminating every unit pivot.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import prod

from .errors import TensqError


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with x*a + y*b == g == gcd(a, b)."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, rem = divmod(a, b)
        a, b = b, rem
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def _axpy(target: dict, c: int, source: dict) -> None:
    """target += c * source, dropping zero entries."""
    if not c:
        return
    for j, v in source.items():
        nv = target.get(j, 0) + c * v
        if nv:
            target[j] = nv
        elif j in target:
            del target[j]


class RowLattice:
    """Sublattice of Z^ncols spanned by inserted integer rows."""

    __slots__ = ("ncols", "pivots")

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots: dict[int, dict] = {}

    def copy(self) -> "RowLattice":
        dup = RowLattice(self.ncols)
        dup.pivots = {j: dict(row) for j, row in self.pivots.items()}
        return dup

    def insert(self, row) -> None:
        """Add a row (dict or iterable of (col, coeff)) to the lattice."""
        vec = dict(row)
        for v in vec.values():
            if not isinstance(v, int):
                raise TensqError("lattice rows must have integer entries")
        pending = [vec]
        pivots = self.pivots
        while pending:
            vec = pending.pop()
            # Columns are consumed in ascending order; reductions only
            # touch columns >= the current one, so a heap of candidate
            # columns avoids rescanning the whole support each step.
            heap = list(vec)
            heapq.heapify(heap)
            while heap:
                j = heapq.heappop(heap)
                c = vec.get(j)
                if not c:
                    continue
                piv = pivots.get(j)
                if piv is None:
                    if c < 0:
                        vec = {k: -v for k, v in vec.items()}
                    pivots[j] = vec
                    break
                if c % piv[j]:
                    g, x, y = _xgcd(piv[j], c)
                    new = {}
                    _axpy(new, x, piv)
                    _axpy(new, y, vec)
                    old = piv
                    pivots[j] = new
                    rem = dict(old)
                    _axpy(rem, -(old[j] // g), new)
                    if rem:
                        pending.append(rem)
                    piv = new
                q = c // piv[j]
                for col, v in piv.items():
                    cur = vec.get(col)
                    nv = (cur or 0) - q * v
                    if nv:
                        if cur is None and col > j:
                            heapq.heappush(heap, col)
                        vec[col] = nv
                    elif cur is not None:
                        del vec[col]

    def reduce(self, vec: dict) -> dict:
        """Residue of vec after subtracting lattice rows, entries at
        pivot columns reduced into [0, pivot)."""
        cur = dict(vec)
        j = -1
        while True:
            nxt = min((k for k in cur if k > j), default=None)
            if nxt is None:
                return cur
            j = nxt
            piv = self.pivots.get(j)
            if piv is not None:
                q = cur[j] // piv[j]
                if q:
                    _axpy(cur, -q, piv)

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def clear_unit_columns(self) -> None:
        """Eliminate every column whose pivot is 1 from all other rows.

        Leaves the lattice unchanged as a set; afterwards a unit-pivot
        row is the only row touching its pivot column, so row and
        column can be dropped when reading off the quotient.
        """
        unit_cols = sorted(j for j, row in self.pivots.items() if row[j] == 1)
        for j in unit_cols:
            piv = self.pivots[j]
            for i, row in self.pivots.items():
                if i != j:
                    c = row.get(j)
                    if c:
                        _axpy(row, -c, piv)


@dataclass(frozen=True)
class AbelianStructure:
    """Canonical invariant factors d1 | d2 | ... of a f.g. abelian group.

    Factors equal to 1 are dropped, 0 stands for a free summand, the
    trivial group is the empty tuple.
    """

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        prev = None
        for f in self.invariant_factors:
            if f == 1 or f < 0:
                raise TensqError(f"invariant factor {f} is not canonical")
            if prev is not None and (
                (prev == 0 and f != 0) or (prev != 0 and f != 0 and f % prev != 0)
            ):
                raise TensqError(
                    f"invariant factors {self.invariant_factors} break divisibility"
                )
            prev = f

    @property
    def order(self) -> int:
        """Group order; 0 when the group is infinite."""
        if 0 in self.invariant_factors:
            return 0
        return prod(self.invariant_factors, start=1)

    @property
    def torsion_exponent(self) -> int:
        facs = [f for f in self.invariant_factors if f]
        return facs[-1] if facs else 1

    def __str__(self) -> str:
        if not self.invariant_factors:
            return "trivial"
        return " x ".join("Z" if f == 0 else f"C{f}" for f in self.invariant_factors)


@dataclass
class QuotientHandle:
    """A quotient Z^ngens / L kept ready for order and membership queries.

    Stores the echelon basis of L and the columns left in its core after
    unit-pivot elimination.
    """

    ngens: int
    lattice: RowLattice
    structure: AbelianStructure
    core_columns: list[int]


def smith_normal_form(matrix) -> list[int]:
    """Diagonal d1 | d2 | ... of the Smith normal form of an integer matrix.

    Has min(rows, cols) entries, zeros last.  The pivot rule is fixed:
    smallest nonzero magnitude, then lowest row, then lowest column, so
    the run is deterministic.
    """
    A = [list(map(int, row)) for row in matrix]
    R = len(A)
    C = len(A[0]) if A else 0
    for row in A:
        if len(row) != C:
            raise TensqError("ragged matrix")
    t = 0
    while t < min(R, C):
        best = None
        for i in range(t, R):
            Ai = A[i]
            for j in range(t, C):
                v = Ai[j]
                if v and (best is None or (abs(v), i, j) < best):
                    best = (abs(v), i, j)
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            A[t], A[pi] = A[pi], A[t]
        if pj != t:
            for row in A:
                row[t], row[pj] = row[pj], row[t]
        while True:
            p = A[t][t]
            # Clear the pivot column.
            dirty = False
            for i in range(t + 1, R):
                if A[i][t]:
                    q = A[i][t] // p
                    if q:
                        A[i] = [a - q * b for a, b in zip(A[i], A[t])]
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
                        dirty = True
                        break
            if dirty:
                continue
            # Clear the pivot row.
            for j in range(t + 1, C):
                if A[t][j]:
                    q = A[t][j] // p
                    if q:
                        for row in A:
                            row[j] -= q * row[t]
                    if A[t][j]:
                        for row in A:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
                        break
            if dirty:
                continue
            # Make the pivot divide the remaining submatrix.
            offender = None
            for i in range(t + 1, R):
                Ai = A[i]
                for j in range(t + 1, C):
                    if Ai[j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            A[t] = [a + b for a, b in zip(A[t], A[offender])]
        if A[t][t] < 0:
            A[t] = [-a for a in A[t]]
        t += 1
    return [A[i][i] for i in range(min(R, C))]


def quotient_from_lattice(lattice: RowLattice) -> QuotientHandle:
    """Read the canonical structure of Z^ncols / lattice off the basis."""
    lattice.clear_unit_columns()
    pivots = lattice.pivots
    unit_cols = {j for j, row in pivots.items() if row[j] == 1}
    core_columns = [c for c in range(lattice.ncols) if c not in unit_cols]
    col_index = {c: i for i, c in enumerate(core_columns)}
    core_rows = []
    for j in sorted(pivots):
        row = pivots[j]
        if row[j] == 1:
            continue
        dense = [0] * len(core_columns)
        for c, v in row.items():
            dense[col_index[c]] = v
        core_rows.append(dense)
    diag = smith_normal_form(core_rows) if core_rows else []
    rank = sum(1 for d in diag if d)
    factors = tuple(d for d in diag if d > 1) + (0,) * (len(core_columns) - rank)
    return QuotientHandle(
        ngens=lattice.ncols,
        lattice=lattice,
        structure=AbelianStructure(factors),
        core_columns=core_columns,
    )


def quotient_structure(relations, ngens: int) -> tuple[AbelianStructure, QuotientHandle]:
    """Canonical structure of Z^ngens modulo the rows of ``relations``.

    Rows are dense length-``ngens`` sequences.  Insertion order is the
    given order, so identical input yields an identical handle.
    """
    lattice = RowLattice(ngens)
    for rel in relations:
        if len(rel) != ngens:
            raise TensqError(f"dense relation of length {len(rel)}, expected {ngens}")
        lattice.insert({c: int(v) for c, v in enumerate(rel) if v})
    handle = quotient_from_lattice(lattice)
    return handle.structure, handle


def _sparse_vec(handle: QuotientHandle, vec) -> dict:
    if isinstance(vec, dict):
        return {int(c): int(v) for c, v in vec.items() if v}
    vec = list(vec)
    if len(vec) != handle.ngens:
        raise TensqError(f"vector of length {len(vec)}, expected {handle.ngens}")
    return {c: int(v) for c, v in enumerate(vec) if v}


def lattice_member(handle: QuotientHandle, vec) -> bool:
    """Whether vec lies in the relation lattice (is trivial in the quotient)."""
    return handle.lattice.contains(_sparse_vec(handle, vec))


def _prime_factors(x: int) -> list[int]:
    out = []
    d = 2
    while d * d <= x:
        if x % d == 0:
            out.append(d)
            while x % d == 0:
                x //= d
        d += 1 if d == 2 else 2
    if x > 1:
        out.append(x)
    return out


def element_order(handle: QuotientHandle, vec) -> int:
    """Order of the image of vec in the quotient; 0 when infinite."""
    sp = _sparse_vec(handle, vec)
    residue = handle.lattice.reduce(sp)
    if not residue:
        return 1
    exponent = handle.structure.torsion_exponent
    if not handle.lattice.contains({c: exponent * v for c, v in residue.items()}):
        return 0
    order = exponent
    for p in _prime_factors(exponent):
        while order % p == 0 and handle.lattice.contains(
            {c: (order // p) * v for c, v in residue.items()}
        ):
            order //= p
    return order
