"""The tests' reference implementations.

The group tables, from metagrp's Element arithmetic rather than the
oracle's index arithmetic, so the reference rows do not share the code
they check.

The oracle's core map: every row generated as a normalized tuple of
(column, coefficient) pairs, deduplicated in a set, sorted and stored,
then peeled by a generic structured elimination over sparse rows.  The
oracle streams its rows from its generator maps and stores none
(oracle._stream_core_map); test_oracle.py checks it against these
functions, and the peel property tests in test_abgrp.py exercise
abgrp.CoreMap through :func:`peel` on lattices that are not the
oracle's.  Both builds reduce their dense sums with the core lattice's
one walk, RowLattice.reduce.

The element order as RowLattice.order walked it on sparse rows: a heap
over the vector's support, reading the pivot rows themselves, with its
own subtract loop.  abgrp walks every vector dense, over every column,
reading the pivot rows as they are; the tests that check CoreMap.order
against a lattice, the walk after each change to a lattice's rows, and
the queries on the |G|^2-column exact lattices read :func:`walk_order`,
which reaches only the columns a vector's support reaches.

The lattices on all |G|^2 columns, inserted and cleared as abgrp did
before its passes became dense: :class:`SparseLattice` walks a row
over a heap of the columns it holds, with abgrp.RowLattice's
unimodular gcd step, its reduction of each stored row at the later
pivot columns and its clearing, so it stores the same rows after every
insert.  abgrp walks every row dense, over every column, which suits
the cores of a few columns the oracle builds and costs |G|^2 per row
on these lattices.  test_oracle.py builds its reference lattices of
G (x) G and G ^ G, exact and with the oracle's modulus, as
SparseLattices, and checks the bases abgrp.RowLattice reaches against
them.

The Smith normal form as abgrp ran it on sparse {column: coefficient}
rows, over their sorted column labels; test_abgrp.py and
test_presentations.py check abgrp.smith_normal_form, on dense rows,
against :func:`smith_normal_form`.

Todd-Coxeter enumeration as fpgrp ran it before its relators were
normalized: relators scanned in the order listed, through a
scan_and_fill method, and every dead coset's row kept.
test_fpgrp.py checks fpgrp.todd_coxeter against :func:`todd_coxeter`.
"""

import heapq
from array import array
from collections import deque
from math import gcd

from tensq import metagrp
from tensq.abgrp import CoreMap, RowLattice, _xgcd
from tensq.fpgrp import DEFAULT_MAX_COSETS, EnumerationResult, _letters, _TableOverflow
from tensq.metagrp import GroupParams
from tensq.presentations import Presentation, Word


def group_tables(p: GroupParams, second=None) -> tuple[dict, dict]:
    """right and conj_by, each a dict from c to a list over the element
    indices: right[c][x] is the index of xc and conj_by[c][x] that of
    x^c, for every c in ``second``, all of G by default.

    An element's index is its place in metagrp.elements, b^beta a^alpha
    at beta * m + alpha as in the oracle; the products and conjugates
    are metagrp.mul and metagrp.conj of Element objects.
    """
    elems = metagrp.elements(p)
    index = {e: i for i, e in enumerate(elems)}
    right, conj_by = {}, {}
    for c in range(p.order) if second is None else second:
        right[c] = [index[metagrp.mul(x, elems[c], p)] for x in elems]
        conj_by[c] = [index[metagrp.conj(x, elems[c], p)] for x in elems]
    return right, conj_by


def normalized_row(c_plus: int, c_minus1: int, c_minus2: int) -> tuple:
    """e[c_plus] - e[c_minus1] - e[c_minus2] as sorted (column,
    coefficient) pairs, the first coefficient positive.  Its coefficients
    sum to -1, so it is never empty."""
    acc = {}
    for col, v in zip((c_plus, c_minus1, c_minus2), (1, -1, -1)):
        acc[col] = acc.get(col, 0) + v
    items = sorted((c, v) for c, v in acc.items() if v)
    sign = 1 if items[0][1] > 0 else -1
    return tuple((c, sign * v) for c, v in items)


def _relation_rows(p: GroupParams, second) -> list[tuple]:
    """Distinct normalized rows (see :func:`normalized_row`) of both
    relation families, for every second variable c in ``second`` and
    every g, h in G, in descending order, from the tables of
    :func:`group_tables`."""
    ng = p.order
    rng = range(ng)
    rows = set()
    right, conj_by = group_tables(p, second)
    for c in second:
        act = conj_by[c]
        for g in rng:
            gc = right[c][g]
            gt = act[g]
            for h in rng:
                ht = act[h]
                # (g c) (x) h = (g^c (x) h^c) (c (x) h), then its mirror, every
                # pair symbol swapped: the second family at h1 = c,
                # h (x) (g c) = (h (x) c) (h^c (x) g^c).
                rows.add(normalized_row(gc * ng + h, gt * ng + ht, c * ng + h))
                rows.add(normalized_row(h * ng + gc, ht * ng + gt, h * ng + c))
    return sorted(rows, reverse=True)


def peel(rows, ncols: int, modulus: int | None = None) -> CoreMap:
    """The CoreMap of the lattice L spanned by ``rows`` on ncols columns,
    plus M * Z^ncols given a ``modulus`` M: unit entries are eliminated
    first and only the small core left is reduced (structured
    elimination: LaMacchia and Odlyzko, CRYPTO '90; Havas, Holt and
    Rees, Linear Algebra Appl. 192 (1993)).

    ``rows`` is a sequence, read by index and more than once, of
    iterables of (column, coefficient) pairs, as ``dict.items()`` gives.

    A row whose one column without an image has coefficient u = +-1
    peels it: that column's image is -u times the image of the rest of
    the row.  When no row can, the least column without an image becomes
    the next free column, its own image; C gains it as a last column,
    with its row M * e_j given a modulus.  Rows are read in the given
    order, then as their columns gain images: each waits on two columns
    without one (on its last, when that is not a unit) through two watch
    slots, linked per column in flat arrays.  A row that peels nothing is
    a relation: its image, reduced by C so far, is inserted into C unless
    that leaves 0.
    Every image is reduced by C as it stands when it is made, so below
    M given a modulus, and equal images are one tuple.

    The core is not minimal in general.  On the pivot rows of an
    echelon basis the least column without an image is often a unit
    pivot whose tail has none yet, so more columns can be freed than the
    basis has non-unit pivots, in 133 of 300 random bases modulo 360
    with their unit columns cleared (the tests' ``random_lattice``,
    seed 0).  Exactness does not depend on how many columns are free.
    """
    nrows = len(rows)
    images: list = [None] * ncols
    # Row r waits through slots 2r and 2r + 1: head[j] is the first slot
    # waiting on column j, link[s] the next slot on the same column, and
    # watched[s] the column slot s was last put on; 32-bit entries.
    head = array("i", [-1]) * ncols
    link = array("i", [-1]) * (2 * nrows)
    watched = array("i", [-1]) * (2 * nrows)
    done = bytearray(nrows)
    core = RowLattice(0, modulus)
    woken: list = []

    def watch(s: int, j: int) -> None:
        link[s] = head[j]
        head[j] = s
        watched[s] = j

    normal: dict = {}
    nxt = cursor = 0
    while True:
        if woken:
            s = woken.pop()
            r = s >> 1
            if done[r]:
                continue
            other = watched[s ^ 1]
        elif nxt < nrows:
            r, s, other = nxt, 2 * nxt, -1
            nxt += 1
        else:
            while cursor < ncols and images[cursor] is not None:
                cursor += 1
            if cursor == ncols:
                break
            r, col = -1, cursor
            core.add_column()
            w = [0] * core.ncols
            w[-1] = 1
        if r >= 0:
            row = rows[r]
            first = second = -1
            for j, c in row:
                if c and images[j] is None:
                    if first < 0:
                        first, coef = j, c
                    else:
                        second = j
                        break
            if second >= 0:
                if other < 0:
                    watch(s, first)
                    watch(s ^ 1, second)
                else:
                    # The other slot still waits on a column, perhaps one
                    # that has just gained its image; this one takes another.
                    watch(s, first if first != other else second)
                continue
            if first >= 0 and coef != 1 and coef != -1:
                if other != first:
                    watch(s, first)
                continue
            done[r] = 1
            sign = -coef if first >= 0 else 1
            w = [0] * core.ncols
            for j, c in row:
                if c and j != first:
                    c *= sign
                    for i, v in images[j]:
                        w[i] += c * v
            core.reduce(w)
            if first < 0:
                if any(w):
                    core.insert({i: v for i, v in enumerate(w) if v})
                continue
            col = first
        key = tuple((i, v) for i, v in enumerate(w) if v)
        images[col] = normal.setdefault(key, key)
        s = head[col]
        head[col] = -1
        while s >= 0:
            woken.append(s)
            s = link[s]
    return CoreMap(images, core)


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


class SparseLattice:
    """Sublattice of Z^ncols spanned by inserted integer rows, walked
    sparse: abgrp.RowLattice's echelon basis, its one reduction rule and
    its unimodular gcd step, over a heap of the columns a row holds.

    ``ncols``, ``modulus``, ``pivots`` ({col: {col: coeff}}, the same
    rows abgrp.RowLattice stores after every insert), ``copy`` and
    ``clear_unit_columns`` are RowLattice's, so quotient_from_lattice and
    :func:`walk_order` read either.
    """

    __slots__ = ("ncols", "pivots", "modulus")

    def __init__(self, ncols: int, modulus: int | None = None):
        self.ncols = ncols
        self.modulus = modulus
        self.pivots: dict[int, dict] = {} if modulus is None else {j: {j: modulus} for j in range(ncols)}

    def copy(self) -> "SparseLattice":
        dup = SparseLattice(0, self.modulus)
        dup.ncols = self.ncols
        dup.pivots = {j: dict(row) for j, row in self.pivots.items()}
        return dup

    def insert(self, row) -> None:
        """Add a row (dict or iterable of (col, coeff)) to the lattice;
        zero coefficients are dropped.  At a pivot p with entry c,
        g = gcd(p, c), the row is scaled by p / g and cleared by c / g
        times the pivot row; when g < p, x * piv + y * row
        (x * p + y * c = g) takes that pivot row's place.  The row is
        stored at the first column with no pivot.  A row stored as a
        pivot row is at once reduced at the later pivot columns."""
        vec = {k: v for k, v in dict(row).items() if v}
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

    def clear_unit_columns(self) -> None:
        """Reduce the basis to the Hermite normal form: ``_reduce_row``
        on every pivot row, last first, so each row is reduced against
        rows already reduced."""
        for j in sorted(self.pivots, reverse=True):
            self._reduce_row(j)


def walk_order(lattice: RowLattice | SparseLattice, vec: dict) -> int:
    """Least k >= 1 with k * vec in ``lattice``; 0 when there is none.

    Walks vec's support in ascending column order.  A column with no
    pivot can never be cleared, so no multiple of vec is in the lattice.
    At a pivot p with entry c the multiple must be divisible by
    p / gcd(p, c): scale vec and k by that factor, then subtract the
    pivot row to clear the column, pushing each column vec gains.
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
        piv = lattice.pivots.get(j)
        if piv is None:
            return 0
        scale = piv[j] // gcd(piv[j], c)
        if scale > 1:
            k *= scale
            for col in vec:
                vec[col] *= scale
        q = vec[j] // piv[j]
        for col, v in piv.items():
            nv = vec.get(col, 0) - q * v
            if col not in vec:
                heapq.heappush(heap, col)
            if nv:
                vec[col] = nv
            else:
                vec.pop(col, None)
    return k


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


class CosetTable:
    """Coset table; row 0 is the subgroup's own coset.

    Columns come in pairs: column 2g is the action of generator g,
    column 2g+1 of its inverse.  -1 marks an undefined entry.  Dead
    cosets are tracked through the union-find array ``p``.
    """

    def __init__(self, ngens: int, max_cosets: int):
        self.ncols = 2 * ngens
        self.max_cosets = max_cosets
        self.table: list[list[int]] = [[-1] * self.ncols]
        self.p = [0]
        self.queue: deque[int] = deque()
        self.live = 1

    def rep(self, k: int) -> int:
        p = self.p
        root = k
        while p[root] != root:
            root = p[root]
        while p[k] != root:
            p[k], k = root, p[k]
        return root

    def define(self, alpha: int, x: int) -> None:
        if len(self.table) >= self.max_cosets:
            raise _TableOverflow
        new = len(self.table)
        self.table.append([-1] * self.ncols)
        self.p.append(new)
        self.table[alpha][x] = new
        self.table[new][x ^ 1] = alpha
        self.live += 1

    def merge(self, k: int, l: int) -> None:
        k = self.rep(k)
        l = self.rep(l)
        if k != l:
            lo, hi = (k, l) if k < l else (l, k)
            self.p[hi] = lo
            self.queue.append(hi)
            self.live -= 1

    def coincidence(self, alpha: int, beta: int) -> None:
        table = self.table
        self.merge(alpha, beta)
        while self.queue:
            gamma = self.queue.popleft()
            row = table[gamma]
            for x in range(self.ncols):
                delta = row[x]
                if delta == -1:
                    continue
                table[delta][x ^ 1] = -1
                mu = self.rep(gamma)
                nu = self.rep(delta)
                if table[mu][x] != -1:
                    self.merge(nu, table[mu][x])
                elif table[nu][x ^ 1] != -1:
                    self.merge(mu, table[nu][x ^ 1])
                else:
                    table[mu][x] = nu
                    table[nu][x ^ 1] = mu

    def scan_and_fill(self, alpha: int, letters: list[int]) -> None:
        table = self.table
        f = alpha
        i = 0
        b = alpha
        j = len(letters) - 1
        while True:
            while i <= j:
                nxt = table[f][letters[i]]
                if nxt == -1:
                    break
                f = nxt
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i:
                nxt = table[b][letters[j] ^ 1]
                if nxt == -1:
                    break
                b = nxt
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                table[f][letters[i]] = b
                table[b][letters[i] ^ 1] = f
                return
            self.define(f, letters[i])


def todd_coxeter(
    pres: Presentation,
    max_cosets: int = DEFAULT_MAX_COSETS,
    subgroup: tuple[Word, ...] = (),
) -> EnumerationResult:
    """Enumerate the cosets of the subgroup generated by ``subgroup``.

    The result's order is the index of that subgroup, the group order
    when ``subgroup`` is empty.  Returns order=None when the table would
    exceed ``max_cosets`` rows; the caller decides whether to retry
    larger.
    """
    relator_letters = [_letters(w) for w in pres.relators]
    ct = CosetTable(len(pres.generators), max_cosets)
    try:
        for word in subgroup:
            ct.scan_and_fill(0, _letters(word))
        alpha = 0
        while alpha < len(ct.table):
            if ct.p[alpha] == alpha:
                for letters in relator_letters:
                    ct.scan_and_fill(alpha, letters)
                    if ct.p[alpha] != alpha:
                        break
                if ct.p[alpha] == alpha:
                    row = ct.table[alpha]
                    for x in range(ct.ncols):
                        if row[x] == -1:
                            ct.define(alpha, x)
            alpha += 1
    except _TableOverflow:
        return EnumerationResult(order=None, cosets_used=len(ct.table))
    return EnumerationResult(order=ct.live, cosets_used=len(ct.table))
