"""Exact linear algebra over the integers.

Everything here works on plain Python ints; no floating point is used
anywhere.  There is one representation: a row or vector is a sparse
{column: coefficient} dict, from the eight tensor relations to the
large relation matrices of the tensor-square oracle, and into the Smith
normal form.

The central object is :class:`RowLattice`, an integer row lattice kept
as an echelon basis (one basis row per pivot column, pivot = leftmost
nonzero entry, kept positive), built by ``RowLattice.insert``.  A
lattice given a modulus M that the quotient's exponent divides starts
from M * Z^n and keeps every basis entry below M (Domich, Kannan and
Trotter's bound for the Hermite normal form); without one, entries are
never reduced.  Its pivot rows are kept reduced lazily: a row is brought
back to reduced form, every entry right of its pivot in [0, pivot of
that column), only just before it is next used, and is stored so.
Almost every pivot is a unit, and a reduced row is zero under every
unit pivot, so the rows in use stay short and a redundant row costs a
short walk (the unit pivots are eliminated cheaply and a small core is
left, as in Havas, Holt and Rees's strategy).  For a fixed column order
the fully reduced echelon basis is the Hermite normal form, which the
lattice alone determines, so the basis ``clear_unit_columns`` leaves
does not depend on the order rows were inserted in.  Finitely generated
abelian groups are presented as Z^n modulo such a lattice; their
canonical invariant factors come from the Smith normal form of the
small core left after eliminating every unit pivot.

A query against the lattice, membership or element order, is a walk
down the echelon basis: ``RowLattice.order``.  Many queries against one
lattice go through its :class:`CoreMap` instead, built once by
:func:`core_map`: each column's image in the core, the columns with no
unit pivot row, and the small lattice the core meets the lattice in.
A vector's order is its image's order there, a walk over a few columns
that never meets a unit pivot.

:func:`smith_normal_form` is the module's one other elimination: a
single pass of unimodular row and column gcd steps over a dense copy of
a few rows.  The closed forms hand it the eight tensor relations
directly and build no lattice.
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


def _columns_after(row: dict, j: int) -> list[int]:
    """Heap of row's columns right of column j."""
    heap = [k for k in row if k > j]
    heapq.heapify(heap)
    return heap


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
    """Sublattice of Z^ncols spanned by inserted integer rows.

    With a ``modulus`` M the lattice starts as M * Z^ncols, the row
    M * e_j at every column j, so it always has full rank and every
    pivot divides M.  The lattice so built is L + M * Z^ncols, equal to
    L exactly when M is a multiple of the exponent of Z^ncols / L.  A
    column that still holds its seed M * e_j has no entry in ``pivots``
    until a gcd step replaces the seed or ``clear_unit_columns`` writes
    it out.

    ``pivot_values`` is the flat list of every column's pivot: M at a
    seeded column, 0 at a column with no pivot, else the first entry of
    its row in ``pivots``.

    Every pivot row is lazily reduced: when stored, its entries right of
    the pivot lie in [0, pivot of their column).  A gcd step at a later
    column shrinks that pivot and can leave an earlier row unreduced;
    such a row is reduced again, in place, just before it is next
    subtracted.  Pivots only shrink, so every basis entry stays below M.
    ``clear_unit_columns`` reduces every row, which gives the Hermite
    normal form: unique for the lattice, so the same for every insertion
    order.  Without a modulus entries are never reduced.
    """

    __slots__ = ("ncols", "pivots", "pivot_values", "modulus")

    def __init__(self, ncols: int, modulus: int | None = None):
        self.ncols = ncols
        self.modulus = modulus
        self.pivots: dict[int, dict] = {}
        self.pivot_values = [modulus or 0] * ncols

    def copy(self) -> "RowLattice":
        dup = RowLattice(self.ncols, self.modulus)
        dup.pivots = {j: dict(row) for j, row in self.pivots.items()}
        dup.pivot_values = list(self.pivot_values)
        return dup

    def _is_reduced(self, row: dict, j: int) -> bool:
        """Whether every entry of row right of column j lies in
        [0, pivot of its column)."""
        values = self.pivot_values
        for k, v in row.items():
            if k > j and not 0 <= v < values[k]:
                return False
        return True

    def _reduce_tail(self, row: dict, j: int) -> None:
        """Reduce row's entries right of column j modulo the pivots there.

        Needs a pivot at every such column, as a lattice with a modulus
        has; afterwards each entry lies in [0, pivot of its column).  At
        a seeded column that is the entry modulo M.  A pivot row that is
        not reduced itself is reduced the same way, in place, just
        before it is subtracted, so it is short when used and stays
        reduced for later use.  An explicit stack of frames does this
        without recursion; a frame's ``ready`` column is the one whose
        pivot row its child frame has just reduced.
        """
        pivots = self.pivots
        values = self.pivot_values
        frames = [[row, _columns_after(row, j), None]]
        while frames:
            frame = frames[-1]
            row, heap, ready = frame
            while heap:
                k = heap[0]
                q = row.get(k, 0) // values[k]
                if q:
                    piv = pivots.get(k)
                    if piv is not None and k != ready and not self._is_reduced(piv, k):
                        frame[2] = k
                        frames.append([piv, _columns_after(piv, k), None])
                        break
                heapq.heappop(heap)
                if not q:
                    continue
                if piv is None:
                    v = row[k] - q * values[k]
                    if v:
                        row[k] = v
                    else:
                        del row[k]
                    continue
                for col in piv:
                    if col not in row:
                        heapq.heappush(heap, col)
                _axpy(row, -q, piv)
            else:
                frames.pop()

    def insert(self, row) -> None:
        """Add a row (dict or iterable of (col, coeff)) to the lattice.

        Zero coefficients are dropped.  With a modulus a pivot row left
        unreduced by a later gcd step is reduced just before it is
        subtracted.
        """
        vec = dict(row)
        for v in vec.values():
            if not isinstance(v, int):
                raise TensqError("lattice rows must have integer entries")
        if 0 in vec.values():
            vec = {k: v for k, v in vec.items() if v}
        pending = [vec]
        pivots = self.pivots
        values = self.pivot_values
        modulus = self.modulus
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
                    p = values[j]
                    if not p or c == 1 or c == -1:
                        # A free column takes vec as its pivot row.  So
                        # does a seeded one when c is a unit: the gcd
                        # step against M * e_j is then the identity, and
                        # what it leaves is 0 modulo M.
                        if c < 0:
                            vec = {k: -v for k, v in vec.items()}
                        if p:
                            self._reduce_tail(vec, j)
                        # A fresh dict sized to the row: vec's table may
                        # be sized for entries the walk has since deleted.
                        pivots[j] = {k: v for k, v in vec.items()}
                        values[j] = abs(c)
                        break
                    piv = {j: p}
                else:
                    p = piv[j]
                    if modulus is not None:
                        # Inline form of self._is_reduced(piv, j): most
                        # pivot rows are already reduced, and this runs
                        # per column.
                        for k, v in piv.items():
                            if k > j and not 0 <= v < values[k]:
                                self._reduce_tail(piv, j)
                                break
                if c % p:
                    g, x, y = _xgcd(p, c)
                    new = {}
                    _axpy(new, x, piv)
                    _axpy(new, y, vec)
                    if modulus is not None:
                        self._reduce_tail(new, j)
                    pivots[j] = new
                    values[j] = g
                    rem = dict(piv)
                    _axpy(rem, -(p // g), new)
                    if modulus is not None:
                        # The lattice holds M * Z^ncols, so only the
                        # residues of rem modulo M matter.
                        rem = {k: v % modulus for k, v in rem.items() if v % modulus}
                    if rem:
                        pending.append(rem)
                    if not x:
                        # new is y * vec plus later pivot rows, with
                        # y * c = g, so vec - (c / g) * new is a sum of
                        # later pivot rows: nothing of vec is left.
                        break
                    piv = new
                    p = g
                q = c // p
                for col, v in piv.items():
                    cur = vec.get(col)
                    nv = (cur or 0) - q * v
                    if nv:
                        if cur is None and col > j:
                            heapq.heappush(heap, col)
                        vec[col] = nv
                    elif cur is not None:
                        del vec[col]

    def order(self, vec: dict) -> int:
        """Least k >= 1 with k * vec in the lattice; 0 when there is none.

        Walks vec's support in ascending column order.  A column with no
        pivot can never be cleared, so no multiple of vec is in the
        lattice; with a modulus no column lacks one, and a column with no
        row holds its seed M * e_j.  At a pivot p with entry c the
        multiple must be divisible by p / gcd(p, c): scale vec and k by
        that factor, then subtract the pivot row to clear the column.
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
                if self.modulus is None:
                    return 0
                piv = {j: self.modulus}
            scale = piv[j] // gcd(piv[j], c)
            if scale > 1:
                k *= scale
                for col in vec:
                    vec[col] *= scale
            for col in piv:
                if col not in vec:
                    heapq.heappush(heap, col)
            _axpy(vec, -(vec[j] // piv[j]), piv)
        return k

    def contains(self, vec: dict) -> bool:
        return self.order(vec) == 1

    def clear_unit_columns(self) -> None:
        """Eliminate every column whose pivot is 1 from all other rows.

        Leaves the lattice unchanged as a set; afterwards a unit-pivot
        row is the only row touching its pivot column, so row and
        column can be dropped when reading off the quotient.

        With a modulus every column has a pivot, so reducing each row's
        tail modulo the later pivots, last row first, does it: a reduced
        row has 0 under every unit pivot, and the rows it is reduced by
        are reduced already, so every entry stays below the modulus.  A
        column still at its seed gets its row M * e_j written out, which
        is already reduced, so ``pivots`` then holds the whole basis.
        """
        if self.modulus is not None:
            pivots = self.pivots
            for j in range(self.ncols - 1, -1, -1):
                piv = pivots.get(j)
                if piv is None:
                    pivots[j] = {j: self.modulus}
                else:
                    self._reduce_tail(piv, j)
                    # Stored afresh, sized to what the reduction left.
                    pivots[j] = {k: v for k, v in piv.items()}
            return
        unit_cols = sorted(j for j, row in self.pivots.items() if row[j] == 1)
        for j in unit_cols:
            piv = self.pivots[j]
            for i, row in self.pivots.items():
                if i != j:
                    c = row.get(j)
                    if c:
                        _axpy(row, -c, piv)


class CoreMap:
    """Each column's image in the core of a lattice L, and the core
    lattice C that L meets the core in; built by :func:`core_map`.

    The core is the columns j with no unit pivot row, renumbered
    0, 1, ... in ascending order.  ``images[j]`` is the image of e_j, a
    tuple of (core index, coefficient) pairs: a core column's is itself,
    a unit-pivot column's is minus its row's tail, each tail column taken
    through its own image.  ``lattice`` is C, a RowLattice on the core
    columns with L's modulus.

    Why it is exact.  Write phi for the linear map sending e_j to its
    image.  e_j - phi(e_j) lies in L for every j: at a core column it is
    0, and at a unit-pivot column j with row e_j + t it is that row once
    each tail column k > j is replaced by its image, which differs from
    e_k by an element of L already.  So v = phi(v) mod L for every
    vector v.  phi(L) is C: phi sends a unit-pivot row to 0, every other
    pivot row to one of the images that span C, and a seed M * e_j into
    M * Z^core, which C's modulus holds.  And phi is the identity on core
    vectors, so L meets the core in exactly C.  Hence k * v lies in L
    exactly when k * phi(v) lies in C: membership and order of v are
    those of phi(v) in a lattice of a few columns, and the walk over
    phi(v) meets no unit pivot.  The same phi serves L plus any further
    rows (see ``extended``), since it still moves each vector by an
    element of the larger lattice.
    """

    __slots__ = ("images", "lattice", "_steps")

    def __init__(self, images: list[tuple], lattice: RowLattice):
        self.images = images
        self.lattice = lattice
        # Per core column, its pivot (0 when it has none) and the rest of
        # its pivot row: what RowLattice.order reads at that column.  C is
        # not changed afterwards; ``extended`` builds on a copy.
        pivots = lattice.pivots
        self._steps = [
            (p, tuple((i, v) for i, v in pivots[j].items() if i > j) if j in pivots else ())
            for j, p in enumerate(lattice.pivot_values)
        ]

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
        images over C plus theirs."""
        lattice = self.lattice.copy()
        for j in columns:
            lattice.insert(self.images[j])
        return CoreMap(self.images, lattice)


def core_map(lattice: RowLattice) -> CoreMap:
    """The CoreMap of any lattice, with or without a modulus, with its
    unit columns cleared or not, with free columns or none.

    Images are computed once, in descending column order, so a unit
    row's tail columns already have theirs.  With a modulus M they are
    kept modulo M, which moves them by elements of M * Z^core, inside C;
    once C is built each is reduced to its normal form, every entry in
    [0, pivot of its column), as RowLattice keeps its own rows.  Equal
    images are one tuple.  In a fully reduced basis, as the oracle's is,
    a unit row's tail is the normal form of minus its column, so columns
    equal in the quotient share one image, and there are no more
    distinct images than the quotient has elements.
    """
    pivots = lattice.pivots
    modulus = lattice.modulus
    ncols = lattice.ncols
    index = {}
    for j in range(ncols):
        row = pivots.get(j)
        if row is None or row[j] != 1:
            index[j] = len(index)
    images: list = [None] * ncols
    distinct: dict = {}
    for j in range(ncols - 1, -1, -1):
        if j in index:
            img = {index[j]: 1}
        else:
            img = {}
            for k, c in pivots[j].items():
                if k != j:
                    for i, v in images[k]:
                        img[i] = img.get(i, 0) - c * v
            if modulus is not None:
                img = {i: v % modulus for i, v in img.items()}
        key = tuple(sorted((i, v) for i, v in img.items() if v))
        images[j] = distinct.setdefault(key, key)
    core = RowLattice(len(index), modulus)
    for j in reversed(index):
        row = pivots.get(j)
        if row is not None:
            vec: dict = {}
            for k, c in row.items():
                for i, v in images[k]:
                    vec[i] = vec.get(i, 0) + c * v
            core.insert(vec)
    if modulus is not None:
        core.clear_unit_columns()
        normal: dict = {}
        for key in distinct:
            img = dict(key)
            core._reduce_tail(img, -1)
            img = tuple(sorted(img.items()))
            distinct[key] = normal.setdefault(img, img)
        images = [distinct[img] for img in images]
    return CoreMap(images, core)


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


class QuotientHandle:
    """A quotient Z^lattice.ncols / L kept ready for order and membership queries.

    Stores the echelon basis of L and the columns left in its core after
    unit-pivot elimination.
    """

    __slots__ = ("lattice", "structure", "core_columns")

    def __init__(self, lattice: RowLattice, structure: AbelianStructure, core_columns: list[int]):
        self.lattice = lattice
        self.structure = structure
        self.core_columns = core_columns


def smith_normal_form(rows) -> list[int]:
    """Nonzero diagonal d1 | d2 | ... of the Smith normal form of sparse rows.

    Rows are {column: coefficient} dicts; the column labels need not be
    contiguous.  They are copied into a dense matrix over their sorted
    labels, which is eliminated one column at a time by unimodular gcd
    steps.  Row steps gather the column into one pivot row.  Where the
    pivot does not divide an entry right of it, a column gcd step makes
    the pivot strictly smaller and may refill the column, so the two
    alternate until the pivot divides its row; it is then a diagonal
    entry and its row is dropped.  A pair of diagonal entries presents
    the same group as their gcd and lcm, which puts the diagonal in
    divisibility order.  Its length is the rank of the matrix.
    """
    rows = list(rows)
    labels = sorted({j for row in rows for j in row})
    ncols = len(labels)
    matrix = [[row.get(j, 0) for j in labels] for row in rows]
    diag = []
    for c in range(ncols):
        while True:
            live = [row for row in matrix if row[c]]
            if not live:
                break
            piv = live[0]
            for row in live[1:]:
                a, b = piv[c], row[c]
                if b % a:
                    g, x, y = _xgcd(a, b)
                    a, b = a // g, b // g
                    for k in range(c, ncols):
                        piv[k], row[k] = x * piv[k] + y * row[k], a * row[k] - b * piv[k]
                else:
                    q = b // a
                    for k in range(c, ncols):
                        row[k] -= q * piv[k]
            # Column c is now zero outside piv.  When piv[c] divides the
            # rest of its row, column steps clear that row and touch no
            # other, so piv[c] is a diagonal entry and its row is done.
            a = piv[c]
            k = next((k for k in range(c + 1, ncols) if piv[k] % a), None)
            if k is None:
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
    diag = smith_normal_form(pivots[j] for j in sorted(pivots) if j not in unit_cols)
    factors = tuple(d for d in diag if d > 1) + (0,) * (len(core_columns) - len(diag))
    return QuotientHandle(
        lattice=lattice,
        structure=AbelianStructure(factors),
        core_columns=core_columns,
    )


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
