"""Exact linear algebra over the integers.

Everything here works on plain Python ints; no floating point is used
anywhere.  A lattice row or vector is a sparse {column: coefficient}
dict, or its (column, coefficient) pairs, up to the core lattice of
the tensor-square oracle.  The Smith normal form alone takes dense
rows: equal-length lists of a few entries.

The central object is :class:`RowLattice`, an integer row lattice kept
as an echelon basis (one basis row per pivot column, pivot = leftmost
nonzero entry, kept positive).  ``RowLattice.insert`` walks a row down
the basis by unimodular gcd steps, each replacing a pivot row and
leaving one row to walk on, and stores what is left at the first
column with no pivot.  A lattice given a modulus M that the quotient's
exponent divides starts from the rows M * e_j of M * Z^n (Domich,
Kannan and Trotter's bound for the Hermite normal form).  One rule
reduces rows on either kind: each entry of a row at a later pivot
column is brought below that pivot, by insertion for the row it
stores and by ``clear_unit_columns`` for every row.  Reducing at a
seed row is reducing modulo M, so a lattice with a modulus keeps every
other entry in [0, M).  For a fixed column order the fully reduced
echelon basis is the Hermite normal form, which the lattice alone
determines, so it does not depend on the order rows were inserted in.
Finitely generated abelian groups are presented as Z^n modulo such a
lattice; their canonical invariant factors come from the Smith normal
form of the core left after eliminating every unit pivot.

A query against the lattice, membership or element order, is a walk
down the echelon basis: ``RowLattice.order``.  A lattice given by many
sparse rows with mostly unit entries, as the oracle's are, need not be
built on all its columns: the oracle peels the unit entries first,
giving nearly every column its image in a core of a few free columns,
and reduces only the lattice the other rows span there.  The result, a
:class:`CoreMap`, answers every query: a vector's order is its image's
order in that core lattice, a walk over a few columns.

:func:`smith_normal_form` is the module's one other elimination:
unimodular row and column gcd steps over a copy of a few dense rows,
each column gathered into one pivot row by one pass over the rows.
The closed forms hand it the eight tensor relations as dense rows and
build no lattice; ``quotient_from_lattice`` hands it the core pivot
rows, densified over the core columns.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from math import gcd, prod

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


def _axpy(target: dict, c: int, source: dict, heap: list | None = None) -> None:
    """target += c * source, dropping zero entries; given a heap, push
    onto it each column target gains."""
    if not c:
        return
    for j, v in source.items():
        cur = target.get(j)
        nv = (cur or 0) + c * v
        if nv:
            if cur is None and heap is not None:
                heapq.heappush(heap, j)
            target[j] = nv
        elif cur is not None:
            del target[j]


class RowLattice:
    """Sublattice of Z^ncols spanned by inserted integer rows.

    With a ``modulus`` M the lattice starts as M * Z^ncols: ``pivots``
    holds the row M * e_j at every column j from construction on, so it
    is always the whole echelon basis, of full rank, and every pivot
    divides M.  The lattice so built is L + M * Z^ncols, equal to L
    exactly when M is a multiple of the exponent of Z^ncols / L.

    One rule reduces the rows of either kind: a row stored as a pivot
    row has each entry at a later pivot column brought into [0, pivot)
    by that column's row.  With a modulus a seed row M * e_j is such a
    row, so every entry but a seed row's M lies in [0, M) without the
    modulus being read.  ``clear_unit_columns`` applies the same rule to
    every row, which gives the Hermite normal form.
    """

    __slots__ = ("ncols", "pivots", "modulus")

    def __init__(self, ncols: int, modulus: int | None = None):
        self.ncols = ncols
        self.modulus = modulus
        self.pivots: dict[int, dict] = {} if modulus is None else {j: {j: modulus} for j in range(ncols)}

    def add_column(self) -> None:
        """Append a column; with a modulus M it holds the row M * e_j."""
        if self.modulus is not None:
            self.pivots[self.ncols] = {self.ncols: self.modulus}
        self.ncols += 1

    def copy(self) -> "RowLattice":
        dup = RowLattice(0, self.modulus)
        dup.ncols = self.ncols
        dup.pivots = {j: dict(row) for j, row in self.pivots.items()}
        return dup

    def insert(self, row) -> None:
        """Add a row (dict or iterable of (col, coeff)) to the lattice;
        zero coefficients are dropped.  As in ``order``, at a pivot p
        with entry c, g = gcd(p, c), the row is scaled by p / g and
        cleared by c / g times the pivot row; when g < p, x * piv +
        y * row (x * p + y * c = g) takes that pivot row's place.  The
        row is stored at the first column with no pivot.  A row stored
        as a pivot row is at once reduced at the later pivot columns."""
        vec = dict(row)
        if not all(isinstance(v, int) for v in vec.values()):
            raise TensqError("lattice rows must have integer entries")
        vec = {k: v for k, v in vec.items() if v}
        pivots = self.pivots
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
                self._reduce_row(j)
                return
            g = p = piv[j]
            if c % p:
                # (x, y; -c/g, p/g) is unimodular: it keeps the span of
                # (piv, vec), and its second row, 0 at j, walks on.
                g, x, y = _xgcd(p, c)
                new = {}
                _axpy(new, x, piv)
                _axpy(new, y, vec)
                pivots[j] = new
                self._reduce_row(j)
                for col in vec:
                    vec[col] *= p // g
            _axpy(vec, -(c // g), piv, heap)

    def _reduce_row(self, j: int) -> None:
        """Bring each entry of the pivot row at column j at a later pivot
        column k into [0, pivot) by column k's row, k ascending; that row
        starts at column k, so no earlier entry changes; a column with no
        pivot is passed over."""
        pivots = self.pivots
        row = pivots[j]
        heap = [k for k in row if k > j]
        heapq.heapify(heap)
        while heap:
            k = heapq.heappop(heap)
            piv = pivots.get(k)
            if piv is not None:
                _axpy(row, -(row.get(k, 0) // piv[k]), piv, heap)

    def order(self, vec: dict) -> int:
        """Least k >= 1 with k * vec in the lattice; 0 when there is none.

        Walks vec's support in ascending column order.  A column with no
        pivot can never be cleared, so no multiple of vec is in the
        lattice; with a modulus no column lacks one.  At a pivot p with
        entry c the multiple must be divisible by p / gcd(p, c): scale vec
        and k by that factor, then subtract the pivot row to clear the
        column.
        """
        vec = dict(vec)
        k = 1
        heap = list(vec)
        heapq.heapify(heap)
        while heap:
            j = heapq.heappop(heap)
            c = vec.get(j)
            if not c:
                continue
            piv = self.pivots.get(j)
            if piv is None:
                return 0
            scale = piv[j] // gcd(piv[j], c)
            if scale > 1:
                k *= scale
                for col in vec:
                    vec[col] *= scale
            _axpy(vec, -(vec[j] // piv[j]), piv, heap)
        return k

    def contains(self, vec: dict) -> bool:
        return self.order(vec) == 1

    def clear_unit_columns(self) -> None:
        """Reduce the basis to the Hermite normal form, leaving the lattice
        as it is, with or without a modulus.

        ``_reduce_row`` is applied to every pivot row, last first, so
        each row is reduced against rows already reduced.  A unit-pivot
        row is then the only row touching its pivot column.  Entries at
        columns with no pivot, which only a lattice without a modulus
        has, stay as they are.
        """
        for j in sorted(self.pivots, reverse=True):
            self._reduce_row(j)


def _walk_steps(lattice: RowLattice) -> list:
    """Per column of an echelon lattice, its pivot (0 when it has none)
    and the rest of its pivot row: what RowLattice.order reads there."""
    pivots = lattice.pivots
    return [
        (pivots[j][j], tuple((i, v) for i, v in pivots[j].items() if i > j)) if j in pivots else (0, ())
        for j in range(lattice.ncols)
    ]


def _reduce_dense(w: list, steps: list) -> None:
    """Bring each entry of a dense vector with a pivot p into [0, p) with
    its pivot row, in ascending order: 0 exactly for a lattice vector."""
    for j, (p, tail) in enumerate(steps):
        c = w[j]
        if p and not 0 <= c < p:
            q = c // p
            w[j] = c - q * p
            for i, v in tail:
                w[i] -= q * v


class CoreMap:
    """Each column's image in the core of a lattice L, and the core
    lattice C that L meets the core in; the oracle builds one by peeling
    its relation rows (oracle._stream_core_map).

    The core is a few free columns, renumbered 0, 1, ... in the order
    they were freed.  ``images[j]`` is the image of e_j, a tuple of
    (core index, coefficient) pairs: a free column's is itself, any
    other column's is read off one row of L with a unit coefficient
    there and reduced by C as it stood then, so with a modulus M every
    entry lies in [0, M).  It is a representative, not a normal form:
    two columns with equal images share one tuple, but images that
    differ may still differ by a vector of C.  ``lattice`` is C, a
    RowLattice on the core columns with L's modulus.

    Why it is exact.  The build keeps two rules: every image but a free
    column's comes from one row u e_j + t of L, u = +-1, every column of
    t having its image already, and every other row of L's generating
    set is read as a relation once, its image reduced by C and inserted
    into C.  Write phi for the linear map sending e_j to its image.
    e_j - phi(e_j) lies in L for every j: at a free column it is 0, and
    a column j given its image by u e_j + t has image -u phi(t), so
    e_j - phi(e_j) = u (u e_j + t) - u (t - phi(t)) is in L; reducing an
    image by C moves it inside C.  So v = phi(v) mod L for every v.
    phi(L) is C: phi sends a row that gave a column its image, and every
    row read as a relation, into C, and M * e_j into M * Z^core, inside
    C.  C lies in L, since phi(r) = r - (r - phi(r)), and phi is the
    identity on the core, so L meets the core in exactly C.  Hence
    k * v lies in L exactly when k * phi(v) lies in C.  The same phi
    serves L plus any further rows (see ``extended``).
    """

    __slots__ = ("images", "lattice", "_steps")

    def __init__(self, images: list[tuple], lattice: RowLattice):
        self.images = images
        self.lattice = lattice
        # The walk reads C's echelon rows as they are now; reducing them
        # later leaves C the same lattice.
        self._steps = _walk_steps(lattice)

    def order(self, vec: dict, modulus: int | None = None) -> int:
        """Least k >= 1 with k * vec in the lattice, 0 when there is none;
        with a ``modulus``, of vec with each coefficient first reduced
        into [0, modulus).

        RowLattice.order's walk, over phi(vec) summed densely over the
        core: at each core column in ascending order, scale the vector
        until the pivot divides its entry, then clear the entry with the
        pivot row, which touches only later columns.
        """
        w = [0] * len(self._steps)
        images = self.images
        for col, c in vec.items():
            if modulus is not None:
                c %= modulus
            if c:
                for i, v in images[col]:
                    w[i] += c * v
        k = 1
        for j, (p, tail) in enumerate(self._steps):
            c = w[j]
            if not c:
                continue
            if not p:
                return 0
            if c % p:
                scale = p // gcd(p, c)
                k *= scale
                c *= scale
                for i in range(j + 1, len(w)):
                    w[i] *= scale
            if tail:
                q = c // p
                for i, v in tail:
                    w[i] -= q * v
        return k

    def extended(self, columns) -> "CoreMap":
        """The map of L plus the unit rows e_j, j in ``columns``: the same
        images over C plus theirs, each distinct image inserted once."""
        lattice = self.lattice.copy()
        for img in dict.fromkeys(self.images[j] for j in columns):
            lattice.insert(img)
        return CoreMap(self.images, lattice)


class AbelianStructure(namedtuple("AbelianStructure", "invariant_factors")):
    """Canonical invariant factors d1 | d2 | ... of a f.g. abelian group.

    Factors equal to 1 are dropped, 0 stands for a free summand, the
    trivial group is the empty tuple.
    """

    __slots__ = ()

    def __new__(cls, invariant_factors: tuple[int, ...]):
        prev = None
        for f in invariant_factors:
            if f == 1 or f < 0:
                raise TensqError(f"invariant factor {f} is not canonical")
            if prev is not None and (
                (prev == 0 and f != 0) or (prev != 0 and f != 0 and f % prev != 0)
            ):
                raise TensqError(f"invariant factors {invariant_factors} break divisibility")
            prev = f
        return super().__new__(cls, invariant_factors)

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


class QuotientHandle(namedtuple("QuotientHandle", "lattice structure core_columns")):
    """A quotient Z^lattice.ncols / L kept ready for order and membership queries.

    Stores the echelon basis of L and the columns left in its core after
    unit-pivot elimination.
    """

    __slots__ = ()


def smith_normal_form(rows) -> list[int]:
    """Nonzero diagonal d1 | d2 | ... of the Smith normal form of dense rows.

    Rows are equal-length lists of ints, copied on entry.  The matrix is
    eliminated one column at a time by unimodular gcd steps.  Row steps
    gather the column into one pivot row in a single pass over the rows:
    the first row with a nonzero entry there is the pivot, and each
    later one is cleared against it.  Where the pivot does not divide an
    entry right of it, a column gcd step makes the pivot strictly
    smaller and may refill the column, so the two alternate until the
    pivot divides its row; it is then a diagonal entry and its row is
    dropped.  A pair of diagonal entries presents the same group as
    their gcd and lcm, which puts the diagonal in divisibility order.
    Its length is the rank of the matrix.
    """
    matrix = [list(row) for row in rows]
    ncols = len(matrix[0]) if matrix else 0
    diag = []
    for c in range(ncols):
        while True:
            piv = None
            for row in matrix:
                b = row[c]
                if not b:
                    continue
                if piv is None:
                    piv = row
                    continue
                a = piv[c]
                if b % a:
                    g, x, y = _xgcd(a, b)
                    a, b = a // g, b // g
                    for k in range(c, ncols):
                        piv[k], row[k] = x * piv[k] + y * row[k], a * row[k] - b * piv[k]
                else:
                    q = b // a
                    for k in range(c, ncols):
                        row[k] -= q * piv[k]
            if piv is None:
                break
            # Column c is now zero outside piv.  When piv[c] divides the
            # rest of its row, column steps clear that row and touch no
            # other, so piv[c] is a diagonal entry and its row is done.
            a = piv[c]
            for k in range(c + 1, ncols):
                if piv[k] % a:
                    break
            else:
                diag.append(abs(a))
                matrix.remove(piv)
                break
            g, x, y = _xgcd(a, piv[k])
            a, b = a // g, piv[k] // g
            for row in matrix:
                row[c], row[k] = x * row[c] + y * row[k], a * row[k] - b * row[c]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    return diag


def quotient_from_lattice(lattice: RowLattice) -> QuotientHandle:
    """Read the canonical structure of Z^ncols / lattice off the basis."""
    lattice.clear_unit_columns()
    pivots = lattice.pivots
    unit_cols = {j for j, row in pivots.items() if row[j] == 1}
    core_columns = [c for c in range(lattice.ncols) if c not in unit_cols]
    diag = smith_normal_form([[pivots[j].get(c, 0) for c in core_columns] for j in core_columns if j in pivots])
    factors = tuple(d for d in diag if d > 1) + (0,) * (len(core_columns) - len(diag))
    return QuotientHandle(lattice, AbelianStructure(factors), core_columns)


def quotient_structure(relations, ngens: int) -> QuotientHandle:
    """Z^ngens modulo the lattice spanned by the sparse rows of ``relations``.

    Insertion order is the given order, so identical input yields an
    identical handle.
    """
    lattice = RowLattice(ngens)
    for rel in relations:
        lattice.insert(rel)
    return quotient_from_lattice(lattice)


def lattice_member(handle: QuotientHandle, vec: dict) -> bool:
    """Whether vec lies in the relation lattice (is trivial in the quotient)."""
    return handle.lattice.contains(vec)


def element_order(handle: QuotientHandle, vec: dict) -> int:
    """Order of the image of vec in the quotient; 0 when infinite."""
    return handle.lattice.order(vec)
