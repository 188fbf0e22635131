"""Definitional ground truth for the tensor square, from first principles.

Columns of the oracle lattice index ordered pairs (g, h) of group
elements; for every triple of elements the two defining relation
families of the tensor square,

    (g g1) (x) h  =  (g^{g1} (x) h^{g1}) (g1 (x) h)
    g (x) (h h1)  =  (g (x) h1) (g^{h1} (x) h^{h1})

abelianize to integer rows with at most three nonzero entries.  The
second family is the mirror of the first: swapping the two entries of
every pair symbol turns one into the other, triple for triple.  The
quotient of Z^(|G|^2) by the row lattice is the tensor square itself:
for the groups in scope the tensor square is abelian, so abelianizing
loses nothing.  Everything downstream (invariant factors, element
orders, identity checks) is a question about this lattice.

Two proved reductions keep the build small and exact.  Rows are
generated only for second variables g1 in {a, b}, the generators,
4|G|^2 rows instead of 2|G|^3, which span the same lattice.  And the
lattice is taken plus M * Z^(|G|^2) for M = 2|G|^2, a multiple of the
exponent of G (x) G (the modulus method of Domich, Kannan and Trotter),
so every coefficient is kept below M while the quotient is unchanged.

The |G|^2-column lattice is never built, and no row is stored.  The
paper's claim is that four symbols, a (x) b, a (x) a, b (x) b and
b (x) a, generate G (x) G, and the rows bear it out.  The build streams
them from four O(|G|) maps of the elements per generator c, x -> xc,
xc^-1, x^c and x^(c^-1): each time a pair symbol gains its image, the
rows with it as first or second symbol are recomputed, and a row with
one symbol left without an image and a unit coefficient there gives it
its image (on every tuple with |G| <= 100 the free columns left are
exactly those four).  Every image comes from one such row, and every
other row is read once, as a relation, in the lattice they span on the
free columns.  The result is an abgrp.CoreMap: each symbol's image in
the core and the core lattice.  No |G|^2 group table is built: the
build's maps and the suites read one index arithmetic on the normal
forms b^beta a^alpha, whose products and conjugates are computed as
they are read.

The verification suites re-check, instance by instance, the statements
the closed forms were derived from: the twelve power identities, the
relation tying n-th powers of (b, b) to s-th powers of the mixed
symbols, the diagonal membership identities, and the centrality and
symmetric-pair facts.  Only statements expressible as memberships in
the pair-symbol lattice are checked; the conjugation lemma's rules for
commutators of tensor symbols and triple commutators (its items (i),
(ii), (iv) and (vi)) live outside this model and are omitted.  The
suites read every membership and order through the build's core map;
the exterior square's come from the same images, read in the core
lattice with the diagonal symbols' images adjoined, which is also the
lattice :func:`exterior_oracle` reads the exterior quotient off.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from math import gcd

from . import numth
from .abgrp import (
    AbelianStructure,
    CoreMap,
    QuotientHandle,
    RowLattice,
    quotient_from_lattice,
)
from .errors import FormulaInconsistencyError, ResourceLimitError
from .metagrp import GroupParams
from .presentations import upsilon_order_bounds

GROUP_ORDER_LIMIT = 1000


class OracleModel:
    """The relation lattice's CoreMap and the quotient read off its core
    lattice.

    The pair symbol (g, h) is column g * |G| + h, g and h the element
    indices of _index_arithmetic; the model keeps no group table.
    ``ext_map``, the CoreMap of the exterior square, and ``ext_handle``,
    its quotient, are filled in on first use (see _exterior_map and
    :func:`exterior_oracle`).
    """

    __slots__ = ("params", "core_map", "handle", "raw_rows", "distinct_rows", "ext_map", "ext_handle")

    def __init__(
        self, params: GroupParams, core_map: CoreMap, handle: QuotientHandle, raw_rows: int, distinct_rows: int
    ):
        self.params = params
        self.core_map = core_map
        self.handle = handle
        self.raw_rows = raw_rows
        self.distinct_rows = distinct_rows
        self.ext_map: CoreMap | None = None
        self.ext_handle: QuotientHandle | None = None


def _stream_core_map(tables, modulus: int) -> tuple[CoreMap, int]:
    """The CoreMap of the lattice the rows of both relation families span,
    for the second variables c of ``tables``, plus M * Z^(|G|^2) for M =
    ``modulus``, and the number of distinct rows; no row is stored.

    ``tables`` holds a tuple (c, x -> xc, x -> xc^-1, x -> x^c,
    x -> x^(c^-1)) for each c, the four maps as lists over the element
    indices (see _generator_tables).  Write [x, y] for the column of the
    pair symbol (x, y), R(g, c, h) = [gc, h] - [g^c, h^c] - [c, h] for a
    row of the first family, and F(g, c, h) for its mirror, every pair
    symbol swapped; a row's first two columns are the first two terms.

    A column gains its image in one of three ways.  Every (1, y) and
    (y, 1) starts with image 0, from the unit rows R(1, c, h) =
    -[1, h^c] and their mirrors.  A row whose one column without an
    image has coefficient u = +-1 gives it the image -u times the image
    of the rest of the row, and is kept as that column's source.  When
    no row can, the least column without an image becomes the next free
    column, its own image, and the core lattice C gains it as a last
    column with its row M * e_j.

    When a column (x, y) gains its image, the rows with it as first or
    second column are recomputed from the tables and peeled or read on
    the spot: for each c, R(x c^-1, c, y) and R(x^(c^-1), c, y^(c^-1)),
    and the same two places in the mirror family.  A row with every
    column imaged is a relation: it is read at the event of whichever of
    its first two columns gained its image later, and not at all when
    it is the source of one of its three columns.  Reading it sums its
    columns' images densely, reduces the sum by ``C.reduce``, C's one
    walk over its rows as they stand then, and inserts it into C unless
    that leaves 0.  An image is such a sum too, reduced when it is made,
    so kept below M, and equal images are one tuple.

    Every row but a unit row is peeled or read exactly once, so the
    images and C account for every row.  The first column of R(g, c, h)
    is never its second, since gc = g^c would force c = 1; it is its
    third exactly when g = 1, the unit row.  A row peels at most once,
    since it is then left with no column without an image.  Let L be
    the one of its first two columns that gained its image later and E
    the other.  Every column gains an image and has its event, and at
    L's event both have theirs.  If the third column t has none there, t
    is neither of them and has coefficient -1, so the row peels it.
    Otherwise the row is complete and is read there unless it peeled a
    column.  At E's event, early or late, it is not read, since E gained
    its image before L.

    The distinct rows are counted without storing one: each row as it
    peels or is read, and the unit rows by their columns, kept in a set.
    Two rows whose normalized forms are equal are equal, since each
    row's coefficients sum to -1.  Every row but a unit row has two or
    three entries: +1 at its first column, and -1 at each of the other
    two, or -2 where they coincide.  Rows with two or three entries
    never repeat (c and c' are in ``tables``, a subset of {a, b}):

    - R(g, c, h) = R(g', c', h'): the first columns give gc = g'c' and
      h = h'.  If [c, h] = [c', h'], then c = c' and g = g', one row.
      Otherwise [c, h] = [g'^c', h^c'] and [g^c, h^c] = [c', h], so
      c' = g^c, c = g'^c' = c'^-1 g c, which gives c' = g and then
      c' = c^-1 c' c: c and c' commute.  For c = c' it is one row; for
      {c, c'} = {a, b} it forces ab = ba, which r != 1 mod m rules out.
    - F against F is the same, every pair symbol swapped.
    - R(g, c, h) = F(g', c', h'), F's columns [h', g'c'], [h'^c',
      g'^c'] and [h', c']: the first columns give h' = gc and h = g'c'.
      If [c, h] = [h', c'], then gc = c, so g = 1 and R is a unit row.
      Otherwise [g^c, h^c] = [h', c'], so g^c = gc and c = 1.

    The 2k|G| unit rows of k second variables are the 2|G| - 1 rows
    -[1, y] and -[y, 1], and the other 2k|G|^2 - 2k|G| rows never
    repeat, so the count is 2k|G|^2 - 2(k - 1)|G| - 1: 4|G|^2 - 2|G| - 1
    for {a, b}.  A row read twice, or neither read nor peeled, moves it.
    """
    ng = len(tables[0][1])
    ncols = ng * ng
    images: list = [None] * ncols
    stamp = array("i", [-1]) * ncols
    source = array("i", [-1]) * ncols
    keyed = [(*t, 2 * i * ncols, (2 * i + 1) * ncols) for i, t in enumerate(tables)]

    def rows_at(col: int):
        """(p, q, t, key) of each row e_p - e_q - e_t with column col first
        or second; key numbers the row by its family, c, g and h."""
        x, y = divmod(col, ng)
        for c, right, unright, act, unact, first, mirror in keyed:
            # R(g, c, h) = [gc, h] - [g^c, h^c] - [c, h]
            g = unright[x]
            yield col, act[g] * ng + act[y], c * ng + y, first + g * ng + y
            g, h = unact[x], unact[y]
            yield right[g] * ng + h, col, c * ng + h, first + g * ng + h
            # its mirror, [h, gc] - [h^c, g^c] - [h, c]
            g = unright[y]
            yield col, act[x] * ng + act[g], x * ng + c, mirror + g * ng + x
            g, h = unact[y], unact[x]
            yield h * ng + right[g], col, h * ng + c, mirror + g * ng + h

    core = RowLattice(0, modulus)
    normal: dict = {}
    events = array("i")
    clock = 0

    def give(col: int, img: tuple, key: int) -> None:
        """Give col its image, stamped with the order it came in, and
        queue its event; key is its source row's, or -1."""
        nonlocal clock
        images[col] = normal.setdefault(img, img)
        stamp[col] = clock
        source[col] = key
        clock += 1
        events.append(col)

    for y in range(ng):
        for col in (y, y * ng):
            if stamp[col] < 0:
                give(col, (), -1)
    multi = cursor = 0
    units = set()
    while True:
        if not events:
            while cursor < ncols and stamp[cursor] >= 0:
                cursor += 1
            if cursor == ncols:
                break
            core.add_column()
            give(cursor, ((core.ncols - 1, 1),), -1)
        col = events.pop()
        last = stamp[col]
        for p, q, t, key in rows_at(col):
            if p == t:
                # g = 1: the unit row -[q], whose image is 0.
                if q == col:
                    units.add(q)
                continue
            sp, sq, st = stamp[p], stamp[q], stamp[t]
            if sp >= 0 and sq >= 0 and st >= 0:
                if sp > last or sq > last or key in (source[p], source[q], source[t]):
                    continue
                multi += 1
                w = [0] * core.ncols
                for i, v in images[p]:
                    w[i] += v
                for i, v in images[q]:
                    w[i] -= v
                for i, v in images[t]:
                    w[i] -= v
                core.reduce(w)
                if any(w):
                    core.insert(enumerate(w))
                continue
            # The one column without an image, u, if its coefficient is a
            # unit, has image phi(a) + sign phi(b) from the other two.
            if sp < 0:
                if sq < 0 or st < 0:
                    continue
                u, a, b, sign = p, q, t, 1
            elif sq < 0:
                if st < 0:
                    continue
                u, a, b, sign = q, p, t, -1
            else:
                u, a, b, sign = t, p, q, -1
            multi += 1
            w = [0] * core.ncols
            for i, v in images[a]:
                w[i] += v
            for i, v in images[b]:
                w[i] += sign * v
            core.reduce(w)
            give(u, tuple((i, v) for i, v in enumerate(w) if v), key)
    return CoreMap(images, core), multi + len(units)


def _index_arithmetic(p: GroupParams):
    """mul(g, h) = gh and conj(x, c) = x^c on the element indices: the
    element b^beta a^alpha is index beta * m + alpha, so a is 1, b is m
    and a^alpha is alpha.  The oracle numbers elements only this way.

    a^alpha b^beta = b^beta a^(alpha r^beta) and b^n = a^s give the
    product, and x^c keeps the b-exponent of x.  Both read one list of
    r^beta mod m, so the arithmetic keeps O(n) state.
    """
    m, n, r, s = p.m, p.n, p.r, p.s
    rpow = [pow(r, beta, m) for beta in range(n)]

    def mul(g: int, h: int) -> int:
        beta1, alpha1 = divmod(g, m)
        beta2, alpha2 = divmod(h, m)
        beta, alpha = beta1 + beta2, alpha2 + alpha1 * rpow[beta2]
        if beta >= n:
            beta, alpha = beta - n, alpha + s
        return beta * m + alpha % m

    def conj(x: int, c: int) -> int:
        beta, alpha = divmod(x, m)
        beta1, alpha1 = divmod(c, m)
        return beta * m + (alpha * rpow[beta1] + alpha1 * (1 - rpow[beta])) % m

    return mul, conj


def _derived_ids(p: GroupParams) -> range:
    """G' = <a^(r-1)> as element indices: the a^alpha with o'(a) = (m, r-1)
    dividing alpha."""
    return range(0, p.m, p.inv.oprime_a)


def _coset_orders(p: GroupParams) -> list:
    """o'(g) for every element index g, the least k with g^k in G', by
    the index product of _index_arithmetic."""
    mul = _index_arithmetic(p)[0]
    derived = _derived_ids(p)
    oprime = []
    for g in range(p.order):
        k, cur = 1, g
        while cur not in derived:
            k, cur = k + 1, mul(cur, g)
        oprime.append(k)
    return oprime


def _generator_tables(p: GroupParams) -> list:
    """(c, x -> xc, x -> xc^-1, x -> x^c, x -> x^(c^-1)) for c = a and
    c = b, each map a list over the element indices, from the index
    arithmetic of _index_arithmetic: O(|G|) each."""
    mul, conj = _index_arithmetic(p)
    ng = p.order
    tables = []
    for c in (1, p.m):
        right = [mul(x, c) for x in range(ng)]
        act = [conj(x, c) for x in range(ng)]
        unright, unact = [0] * ng, [0] * ng
        for x in range(ng):
            unright[right[x]] = unact[act[x]] = x
        tables.append((c, right, unright, act, unact))
    return tables


def tensor_exponent_bound(order: int) -> int:
    """M = 2|G|^2, a multiple of the exponents of G (x) G and G ^ G.

    The tensor square is an extension 1 -> J2(G) -> G (x) G -> G' -> 1,
    so its exponent divides |G'| exp J2(G).  Brown-Loday's exact
    sequence Gamma(G^ab) -> J2(G) -> M(G) -> 0 makes exp J2(G) divide
    exp Gamma(G^ab) exp M(G).  The exponent of Gamma(A) divides 2 exp A,
    so 2|G^ab|, and by Schur exp(M(G))^2 divides |G|, so exp M(G)
    divides |G|.  Hence exp(G (x) G) divides |G'| * 2|G^ab| * |G| =
    2|G|^2, and G ^ G, a quotient of G (x) G, has an exponent dividing
    it too.
    """
    return 2 * order * order


def _bounded_quotient(lattice: RowLattice) -> QuotientHandle:
    """The quotient of a lattice seeded with M * Z^N, checked against M.

    Seeding turns the quotient A into A / MA, whose invariant factors
    are gcd(d, M) for those d of A.  One equal to M is where a d that is
    a proper multiple of M would show, so it is refused rather than
    trusted; the bound's proof says it cannot happen.
    """
    handle = quotient_from_lattice(lattice)
    if lattice.modulus in handle.structure.invariant_factors:
        raise FormulaInconsistencyError(
            f"oracle quotient {handle.structure} has the exponent bound "
            f"{lattice.modulus} as an invariant factor"
        )
    return handle


def build_tensor_oracle(params: GroupParams) -> OracleModel:
    """The CoreMap of the defining relation lattice of G (x) G, and the
    quotient read off its core lattice.

    The lattice is taken plus M * Z^(|G|^2), M = tensor_exponent_bound,
    which leaves it unchanged and keeps every coefficient below M.

    Rows are generated only for second variables c in S = {a, b}, the
    generators.  Write R(g, c, h) = [gc, h] - [g^c, h^c] - [c, h] for
    the first family's row, [x, y] the column of the pair symbol (x, y).
    Since conjugation is a right action,

        R(g, c1 c2, h) = R(g c1, c2, h) + R(g^c2, c1^c2, h^c2) - R(c1, c2, h),

    so if c2 and c1^c2 have all their rows in the lattice L, so has
    c1 c2: each term on the right is a row of one of them.  Taking
    c1 = a^(k-1) and c2 = a, where c1^c2 = c1, gives every power of a by
    induction on k, the identity a^m included, and every power of b
    likewise.  Taking c1 = a^i and c2 = b^j, where c1^c2 = a^(i r^j) is
    a power of a, gives every a^i b^j, and these are all of
    G = <a><b>.  The mirrored family is the same identity with every
    pair symbol swapped.  Hence 2|G|^2 rows and their mirrors
    span the lattice of all 2|G|^3 rows.

    The rows go straight from the generator maps of _generator_tables
    through _stream_core_map, which keeps none of them and reduces only the
    lattice they leave on its few free columns.  The quotient is that
    core lattice's, checked against M by _bounded_quotient.
    """
    ng = params.order
    if ng > GROUP_ORDER_LIMIT:
        raise ResourceLimitError(
            f"oracle needs |G|^2 = {ng * ng} columns; |G| = {ng} exceeds the "
            f"limit {GROUP_ORDER_LIMIT}"
        )
    tables = _generator_tables(params)
    core_map, distinct_rows = _stream_core_map(tables, tensor_exponent_bound(ng))
    return OracleModel(
        params=params,
        core_map=core_map,
        handle=_bounded_quotient(core_map.lattice),
        raw_rows=2 * len(tables) * ng * ng,
        distinct_rows=distinct_rows,
    )


def _exterior_map(model: OracleModel) -> CoreMap:
    """The CoreMap of G ^ G: the tensor map's, with every diagonal symbol
    (g, g) adjoined to its core lattice; built at first use and kept."""
    if model.ext_map is None:
        ng = model.params.order
        model.ext_map = model.core_map.extended(g * ng + g for g in range(ng))
    return model.ext_map


def exterior_oracle(model: OracleModel) -> AbelianStructure:
    """G ^ G, the quotient by the diagonal, read off the exterior map's
    core lattice (see _exterior_map)."""
    if model.ext_handle is None:
        model.ext_handle = _bounded_quotient(_exterior_map(model).lattice)
    return model.ext_handle.structure


def oracle_schur_order(model: OracleModel) -> int:
    """Multiplier order |exterior| / |G'| measured in the oracle."""
    ext = exterior_oracle(model).order
    t = model.params.inv.t_derived
    if ext % t:
        raise FormulaInconsistencyError(
            f"oracle exterior order {ext} is not divisible by |G'| = {t}"
        )
    return ext // t


class CheckResult(namedtuple("CheckResult", "name instances failed examples")):
    """One named family of instances, with the first few failures kept."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.failed == 0


class SuiteReport(namedtuple("SuiteReport", "checks")):
    """The CheckResult list of one suite."""

    __slots__ = ()

    @property
    def failed_instances(self) -> int:
        return sum(c.failed for c in self.checks)


def _check(name: str, label: str, instances) -> CheckResult:
    """Count (ok, args) instances, keeping the first three failing labels,
    each label.format(*args); a passing instance formats none."""
    count = failed = 0
    examples = []
    for ok, args in instances:
        count += 1
        if not ok:
            failed += 1
            if failed <= 3:
                examples.append(label.format(*args))
    return CheckResult(name, count, failed, examples)


def _vec(*terms) -> dict:
    """Coefficient vector summing (column, coefficient) terms."""
    coeffs = {}
    for col, val in terms:
        coeffs[col] = coeffs.get(col, 0) + val
    return coeffs


NUMERALS = ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x", "xi", "xii")


def verify_identities(model: OracleModel) -> SuiteReport:
    """Sweep every identity instance and report lattice-membership failures.

    Covers the twelve power identities over the full exponent ranges
    alpha in [0, o(a)), beta in [0, o(b)), the n-s relation in whichever
    branch s falls in, the diagonal membership identities, the
    expressible centrality facts, and the symmetric-pair facts.

    Each instance is a sum of a few pair symbols, its coefficients
    reduced modulo the exponent of G (x) G.  Membership in the lattice
    is read through the model's CoreMap: the instance becomes a sum of
    the symbols' short core images, walked in a core lattice of a few
    columns.  Membership in the exterior lattice, the lattice with every
    diagonal symbol adjoined, is read through the same images in the
    core lattice plus the diagonal symbols' images (see _exterior_map).
    """
    p = model.params
    m, n, r, s = p.m, p.n, p.r, p.s
    ng = p.order
    order, ext_order = model.core_map.order, _exterior_map(model).order
    exp = model.handle.structure.torsion_exponent
    exp2 = 2 * exp
    checks = []

    def member(coeffs: dict) -> bool:
        return order(coeffs, exp) == 1

    def ext_member(coeffs: dict) -> bool:
        return ext_order(coeffs, exp) == 1

    mul, conj = _index_arithmetic(p)
    a_i, b_i = 1, m
    # The pair symbol (x, y) is column x * ng + y, so (x, x) is x * dg.
    dg = ng + 1
    col_aa = a_i * dg
    col_ab = a_i * ng + b_i
    col_ba = b_i * ng + a_i
    col_bb = b_i * dg
    o_b = p.inv.o_b
    pow_b = [0] * o_b
    for be in range(1, o_b):
        pow_b[be] = mul(pow_b[be - 1], b_i)

    def binom2(x: int) -> int:
        x %= exp2
        return (x * (x - 1) // 2) % exp

    # Prefix data over beta: r^beta mod 2*exp, E(r,beta) mod exp, and
    # S1(beta) = sum_{i=1}^{beta-1} binom(r^i, 2) mod exp.  member reduces
    # every coefficient modulo exp, so r^beta mod 2*exp serves as r^beta.
    rb_e2 = [pow(r, be, exp2) for be in range(o_b)]
    geom = [0] * o_b
    s1 = [0] * o_b
    for be in range(1, o_b):
        geom[be] = (geom[be - 1] + rb_e2[be - 1]) % exp
        s1[be] = (s1[be - 1] + binom2(rb_e2[be - 1])) % exp if be > 1 else 0

    # Shapes of the power identities (i)-(vi).  Each instance is
    # (label args, x, y, k_ab, k_aa), stating
    # (x, y) = k_ab (a,b) + k_aa (r-1) (a,a).
    def shape_i():
        for al in range(m):
            yield (al,), a_i, conj(b_i, al), 1, al

    def shape_ii():
        for al in range(m):
            yield (al,), al, b_i, al, binom2(al)

    def shape_iii():
        for be in range(o_b):
            yield (be,), conj(a_i, pow_b[be]), b_i, rb_e2[be], binom2(rb_e2[be])

    def shape_iv():
        for be in range(o_b):
            yield (be,), a_i, pow_b[be], geom[be], s1[be]

    def shape_v():
        for al in range(m):
            for be in range(o_b):
                yield (al, be), conj(al, pow_b[be]), b_i, al * rb_e2[be], binom2(al * rb_e2[be])

    def shape_vi():
        for al in range(m):
            running = 0
            rp = 1 % exp2
            for be in range(o_b):
                yield (al, be), al, pow_b[be], al * geom[be], running
                running = (running + binom2(al * rp)) % exp
                rp = rp * r % exp2

    # Identities (vii)-(xii) mirror (i)-(vi): every pair symbol (x, y)
    # becomes (y, x), so (a,b) becomes (b,a) and r-1 becomes 1-r.
    shapes = (
        (shape_i, "alpha={}"),
        (shape_ii, "alpha={}"),
        (shape_iii, "beta={}"),
        (shape_iv, "beta={}"),
        (shape_v, "alpha={} beta={}"),
        (shape_vi, "alpha={} beta={}"),
    )
    for numerals, mirrored, col_mixed, twist in (
        (NUMERALS[:6], False, col_ab, r - 1),
        (NUMERALS[6:], True, col_ba, 1 - r),
    ):
        for numeral, (shape, label) in zip(numerals, shapes):
            instances = (
                (
                    member(
                        _vec(
                            (y * ng + x if mirrored else x * ng + y, 1),
                            (col_mixed, -k_ab),
                            (col_aa, -k_aa * twist),
                        )
                    ),
                    args,
                )
                for args, x, y, k_ab, k_aa in shape()
            )
            checks.append(_check(f"power identity ({numeral})", f"({numeral}) {label}", instances))

    # The n-s relation, in whichever branch s falls in.
    if s % 2 == 1 or s % 4 == 0:
        branch = "s odd or 4 | s"
        rows = [
            ({col_bb: n, col_ab: -s}, "n(b,b) = s(a,b)"),
            ({col_bb: n, col_ba: -s}, "n(b,b) = s(b,a)"),
        ]
    else:
        branch = "2 || s"
        rows = [
            ({col_bb: n, col_ab: -s, col_aa: -(r - 1)}, "n(b,b) = s(a,b) + (r-1)(a,a)"),
            ({col_bb: n, col_ba: -s, col_aa: -(1 - r)}, "n(b,b) = s(b,a) + (1-r)(a,a)"),
        ]
    checks.append(_check(f"n-s relation ({branch})", "{}", [(member(vec), (lab,)) for vec, lab in rows]))

    # Diagonal membership identities, valid for every s.
    e_n = numth.geom_sum_mod(r, n, exp)
    lattice_rows = [
        ({col_ab: s, col_ba: -s}, "s(a,b) = s(b,a)"),
        ({col_ba: s, col_bb: -n}, "s(b,a) = n(b,b)"),
        ({col_ab: e_n, col_ba: -e_n}, "E(a,b) = E(b,a)"),
        ({col_ba: e_n, col_aa: -s}, "E(b,a) = s(a,a)"),
    ]
    diagonal_rows = [
        ({col_ab: s}, "s(a,b) diagonal"),
        ({col_ab: e_n}, "E(a,b) diagonal"),
        ({col_bb: n}, "n(b,b) diagonal"),
        ({col_aa: s}, "s(a,a) diagonal"),
    ]
    checks.append(
        _check(
            "diagonal membership",
            "{}",
            [(member(vec), (lab,)) for vec, lab in lattice_rows]
            + [(ext_member(vec), (lab,)) for vec, lab in diagonal_rows],
        )
    )

    # Centrality: conjugation by a commutator value fixes every symbol.
    # The commutator values are all of G', since every a^(k(r-1)) in G'
    # equals [a^k, b].  An instance whose two symbols coincide is the
    # zero vector, a member.
    def moved_by_derived():
        for c in derived:
            act = [conj(x, c) for x in range(ng)]
            for g in range(ng):
                xg, yg = act[g] * ng, g * ng
                for h in range(ng):
                    x, y = xg + act[h], yg + h
                    yield x == y or member({x: 1, y: -1}), (c, g, h)

    def moved_diagonal():
        for c in range(ng):
            for g in range(ng):
                x, y = conj(g, c) * dg, g * dg
                yield x == y or member({x: 1, y: -1}), (c, g, g)

    derived = _derived_ids(p)
    checks.append(
        _check(
            "centrality: commutator conjugation fixes all symbols",
            "conj by commutator #{} moves ({},{})",
            moved_by_derived(),
        )
    )
    checks.append(
        _check(
            "centrality: diagonal symbols fixed by conjugation",
            "conj by #{} moves diagonal ({},{})",
            moved_diagonal(),
        )
    )

    checks.append(
        _check(
            "derived diagonal trivial",
            "(g,g) nontrivial for derived #{}",
            ((member({g * dg: 1}), (g,)) for g in derived),
        )
    )

    # Symmetric-pair facts.  The dict literals below give coefficient 1,
    # not 2, to (g,g) when g = h.
    def sym_product_rule():
        for g in range(ng):
            for h in range(ng):
                gh, hg = g * ng + h, h * ng + g
                ok = member(_vec((gh, 1), (hg, 1), (mul(g, h) * dg, -1), (h * dg, 1), (g * dg, 1)))
                yield ok and ext_member({gh: 1, hg: 1}), (g, h)

    checks.append(_check("symmetric pair: product rule and diagonality", "pair ({},{})", sym_product_rule()))
    checks.append(
        _check(
            "symmetric pair: commutation (tautology in abelian model)",
            "{}",
            [(member({}), ("zero vector",))],
        )
    )
    checks.append(
        _check(
            "symmetric pair: trivial against derived elements",
            "derived pair ({},{})",
            ((member({g * ng + h: 1, h * ng + g: 1}), (g, h)) for h in derived for g in range(ng)),
        )
    )

    # G' is the alpha < m divisible by o'(a) = (m, r-1), so the first
    # element of the coset of g = beta m + alpha is beta m + alpha mod o'(a).
    da = p.inv.oprime_a

    def diag_on_cosets():
        for g in range(ng):
            rep = g - g % m // da * da
            yield rep == g or member({g * dg: 1, rep * dg: -1}), (g,)

    checks.append(
        _check("diagonal constant on derived cosets", "diagonal differs on coset of #{}", diag_on_cosets())
    )

    oprime = _coset_orders(p)

    def sym_order_bound():
        for g in range(ng):
            for h in range(ng):
                d = gcd(oprime[g], oprime[h])
                vec = {g * dg: 2 * d} if g == h else {g * ng + h: d, h * ng + g: d}
                yield member(vec), (g, h)

    checks.append(
        _check(
            "symmetric pair: order divides gcd of coset orders",
            "gcd(o'({}),o'({}))*pair not trivial",
            sym_order_bound(),
        )
    )
    checks.append(
        _check(
            "diagonal order divides gcd(o'(h)^2, 2 o'(h))",
            "diagonal bound fails at #{}",
            ((member({h * dg: gcd(oprime[h] ** 2, 2 * oprime[h])}), (h,)) for h in range(ng)),
        )
    )
    checks.append(
        _check(
            "diagonal order divides odd o'(h)",
            "odd bound fails at #{}",
            ((member({h * dg: oprime[h]}), (h,)) for h in range(ng) if oprime[h] % 2),
        )
    )

    return SuiteReport(checks=checks)


def verify_bounds(model: OracleModel) -> SuiteReport:
    """Measure generator orders in the oracle against the proved bounds,
    each order read through the model's CoreMap."""
    p = model.params
    bounds = upsilon_order_bounds(p)
    order_of = model.core_map.order
    ng = p.order
    a_i, b_i = 1, p.m
    checks = []

    for name, vec, key in [
        ("order of (a,a) divides v-bound", {a_i * ng + a_i: 1}, "v"),
        ("order of (b,b) divides w-bound", {b_i * ng + b_i: 1}, "w"),
        ("order of (a,b) divides u-bound", {a_i * ng + b_i: 1}, "u"),
        ("order of (a,b)+(b,a) divides z-bound", {a_i * ng + b_i: 1, b_i * ng + a_i: 1}, "z"),
    ]:
        order = order_of(vec)
        bound = bounds[key]
        checks.append(
            _check(name, "measured order {}, bound {}", [(order != 0 and bound % order == 0, (order, bound))])
        )

    def odd_diagonal():
        for h, op in enumerate(_coset_orders(p)):
            if op % 2:
                order = order_of({h * (ng + 1): 1})
                yield order != 0 and op % order == 0, (h, order, op)

    def derived_diagonal():
        for h in _derived_ids(p):
            order = order_of({h * (ng + 1): 1})
            yield order == 1, (h, order)

    checks.append(_check("diagonal order divides odd o'(h)", "element #{}: order {}, o' = {}", odd_diagonal()))
    checks.append(_check("derived diagonal has order 1", "element #{}: order {}", derived_diagonal()))
    return SuiteReport(checks=checks)
