"""Exact linear algebra over the integers.

Everything here works on plain Python ints; no floating point is used
anywhere.  A lattice's basis rows are sparse {column: coefficient}
dicts; a row to insert is a dict or its (column, coefficient) pairs.
Every pass over a row or a vector is dense, over a list of its
entries, and the Smith normal form takes dense rows: equal-length
lists of a few entries.

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

Every query against the lattice, and every reduction of a vector or
of a row being stored, is one walk: a dense vector goes down the
echelon basis, column by column, reading each pivot row as it is.
``RowLattice.reduce`` brings each entry at a pivot column into
[0, pivot); ``RowLattice.order`` first scales the vector wherever the
pivot does not divide its entry, and the product of the scales is the
order.  A lattice given by many sparse rows with mostly unit entries,
as the oracle's are, need not be built on all its columns: the oracle
peels the unit entries first, giving nearly every column its image in
a core of a few free columns, and reduces only the lattice the other
rows span there.  The result, a :class:`CoreMap`, answers every query:
a vector's order is the order of its image, summed densely over the
core, in that core lattice, the same walk over a few columns.

:func:`smith_normal_form` is the module's one other elimination:
unimodular row and column gcd steps over a copy of a few dense rows,
each column gathered into one pivot row by one pass over the rows.
The closed forms hand it the eight tensor relations as dense rows and
build no lattice; ``quotient_from_lattice`` hands it the core pivot
rows, densified over the core columns.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import compress, islice
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


@lru_cache
def _columns(n: int) -> tuple:
    """0, 1, ..., n - 1, cached per width, so that passing over a column
    makes no int."""
    return tuple(range(n))


def _nonzero(w: list, start: int):
    """The columns j >= start with w[j] nonzero, ascending.  Each entry is
    read when the walk reaches it, so a walk sees what it wrote at later
    columns; the zeros are passed over inside itertools."""
    return compress(_columns(len(w))[start:], islice(w, start, None))


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

    Every pass over a row is dense and ascending, a list over the
    columns whose zeros ``_nonzero`` passes over: ``insert`` over the
    row it walks, and ``_walk``, for ``reduce``, ``order`` and the row
    being stored, over the vector it is given.  Each reads ``pivots``
    as it is then, so there is nothing to rebuild after a change.
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

    def _dense(self, row) -> list:
        """A row (dict or iterable of (col, coeff)) as a list over the
        columns; a column outside [0, ncols) or an entry that is not an
        int raises TensqError."""
        w = [0] * self.ncols
        for j, v in row.items() if isinstance(row, dict) else row:
            if not (isinstance(v, int) and isinstance(j, int) and 0 <= j < self.ncols):
                raise TensqError(f"lattice row entry {v!r} at column {j!r} is not an int in [0, {self.ncols})")
            w[j] = v
        return w

    def insert(self, row) -> None:
        """Add a row (dict or iterable of (col, coeff)) to the lattice,
        walking it dense, column by column.  As in ``order``, at a pivot
        p with entry c, g = gcd(p, c), the row is scaled by p / g and
        cleared by c / g times the pivot row; when g < p, x * piv +
        y * row (x * p + y * c = g) takes that pivot row's place.  The
        row is stored at the first column with no pivot.  A row stored
        as a pivot row is at once reduced at the later pivot columns."""
        w = self._dense(row)
        pivots = self.pivots
        for j in _nonzero(w, 0):
            c = w[j]
            piv = pivots.get(j)
            if piv is None:
                if c < 0:
                    for i in _nonzero(w, j):
                        w[i] = -w[i]
                self._store(j, w)
                return
            g = p = piv[j]
            if c % p:
                # (x, y; -c/g, p/g) is unimodular: it keeps the span of
                # (piv, w), and its second row, 0 at j, walks on.
                g, x, y = _xgcd(p, c)
                new = [0] * len(w)
                for i in _nonzero(w, j):
                    new[i] = y * w[i]
                    w[i] *= p // g
                for i, v in piv.items():
                    new[i] += x * v
                self._store(j, new)
            q = c // g
            for i, v in piv.items():
                w[i] -= q * v

    def _store(self, j: int, w: list) -> None:
        """Store the dense row w, 0 left of column j, as column j's pivot
        row, its entries at the later pivot columns first reduced by the
        walk; a column with no pivot is passed over."""
        self._walk(w, False, j + 1)
        self.pivots[j] = {i: w[i] for i in _nonzero(w, j)}

    def _walk(self, w: list, order: bool, start: int = 0) -> int:
        """The one walk, in place, down the dense vector w's columns from
        ``start`` in ascending order: an entry c at a pivot p is cleared
        to c mod p by (c // p) times the pivot row, which starts at p's
        column and so touches only later ones.  For w's ``order`` it
        first scales w by p / gcd(p, c), the least factor making c a
        multiple of p, and returns the product of the scales, or 0 at a
        nonzero entry with no pivot; else it returns 1.
        """
        pivots = self.pivots
        k = 1
        for j in _nonzero(w, start):
            c = w[j]
            piv = pivots.get(j)
            if piv is None:
                if order:
                    return 0
                continue
            p = piv[j]
            if order and c % p:
                scale = p // gcd(p, c)
                k *= scale
                for i in _nonzero(w, j):
                    w[i] *= scale
                c = w[j]
            q = c // p
            if q:
                for i, v in piv.items():
                    w[i] -= q * v
        return k

    def reduce(self, w: list) -> None:
        """Bring each entry of the dense vector w at a pivot column into
        [0, pivot), in place.  w is then 0 exactly when it lies in the
        lattice, and it is the same for every echelon basis of it."""
        self._walk(w, False)

    def order(self, vec: dict) -> int:
        """Least k >= 1 with k * vec in the lattice; 0 when there is none."""
        return self._walk(self._dense(vec), True)

    def contains(self, vec: dict) -> bool:
        return self.order(vec) == 1

    def clear_unit_columns(self) -> None:
        """Reduce the basis to the Hermite normal form, leaving the lattice
        as it is, with or without a modulus.

        Every pivot row is stored again, last first, so each row is
        reduced against rows already reduced.  A unit-pivot row is then
        the only row touching its pivot column.  Entries at columns with
        no pivot, which only a lattice without a modulus has, stay as
        they are.
        """
        for j in sorted(self.pivots, reverse=True):
            self._store(j, self._dense(self.pivots[j]))


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
    RowLattice on the core columns with L's modulus; every query is its
    one dense walk, which reads C's rows as they are when it is asked.

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

    __slots__ = ("images", "lattice")

    def __init__(self, images: list[tuple], lattice: RowLattice):
        self.images = images
        self.lattice = lattice

    def order(self, vec: dict, modulus: int | None = None) -> int:
        """Least k >= 1 with k * vec in the lattice, 0 when there is none;
        with a ``modulus``, of vec with each coefficient first reduced
        into [0, modulus): the order of phi(vec), summed densely over the
        core, in C."""
        w = [0] * self.lattice.ncols
        images = self.images
        for col, c in vec.items():
            if modulus is not None:
                c %= modulus
            if c:
                for i, v in images[col]:
                    w[i] += c * v
        return self.lattice._walk(w, True)

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
