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

The |G|^2-column lattice is never reduced as a whole.  The paper's
claim is that four symbols, a (x) b, a (x) a, b (x) b and b (x) a,
generate G (x) G, and the rows bear it out: abgrp.peel gives every
other pair symbol its image from a row with a unit entry (on every
tuple with |G| <= 100 the free columns it is left with are exactly
those four) and reduces only the lattice the remaining rows span on
them.  The result is an abgrp.CoreMap: each symbol's image in the core
and the core lattice.

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

from collections import namedtuple
from math import gcd

from . import numth
from .abgrp import (
    AbelianStructure,
    CoreMap,
    QuotientHandle,
    RowLattice,
    peel,
    quotient_from_lattice,
)
from .errors import FormulaInconsistencyError, ResourceLimitError
from .metagrp import GroupParams
from .presentations import upsilon_order_bounds

GROUP_ORDER_LIMIT = 500


class OracleModel:
    """The group tables of _group_tables, whose element indices number the
    pair symbols, the relation lattice's CoreMap and the quotient read
    off its core lattice.

    ``ext_map``, the CoreMap of the exterior square, and ``ext_handle``,
    its quotient, are filled in on first use (see _exterior_map and
    :func:`exterior_oracle`).
    """

    __slots__ = (
        "params", "mul", "conj_by", "core_map", "handle",
        "raw_rows", "distinct_rows", "derived_ids", "oprime", "ext_map", "ext_handle",
    )

    def __init__(
        self,
        params: GroupParams,
        mul: list[list[int]],
        conj_by: list[list[int]],
        core_map: CoreMap,
        handle: QuotientHandle,
        raw_rows: int,
        distinct_rows: int,
        derived_ids: list[int],
        oprime: list[int],
    ):
        self.params = params
        self.mul = mul
        self.conj_by = conj_by
        self.core_map = core_map
        self.handle = handle
        self.raw_rows = raw_rows
        self.distinct_rows = distinct_rows
        self.derived_ids = derived_ids
        self.oprime = oprime
        self.ext_map: CoreMap | None = None
        self.ext_handle: QuotientHandle | None = None


def _encode_row(c_plus: int, c_minus1: int, c_minus2: int, base: int) -> int:
    """e[c_plus] - e[c_minus1] - e[c_minus2], normalized, as one int.

    The normalized row is the row's (column, coefficient) pairs in
    column order, the first coefficient positive; its coefficients sum
    to -1, so it is never zero.  A pair is the digit 6 * column +
    coefficient + 3, never 0 and ordered as the pair is, and the row is
    its digits in ``base``, at least 6 * ncols, padded with 0 to three
    digits.  So codes order as their rows do, and equal rows have equal
    codes.
    """
    lo, hi = (c_minus1, c_minus2) if c_minus1 <= c_minus2 else (c_minus2, c_minus1)
    if c_plus == lo:  # ((hi, 1),)
        return (6 * hi + 4) * base * base
    if c_plus == hi:  # ((lo, 1),)
        return (6 * lo + 4) * base * base
    if lo == hi:
        if c_plus < lo:  # ((c_plus, 1), (lo, -2))
            return ((6 * c_plus + 4) * base + 6 * lo + 1) * base
        # ((lo, 2), (c_plus, -1))
        return ((6 * lo + 5) * base + 6 * c_plus + 2) * base
    if c_plus < lo:  # ((c_plus, 1), (lo, -1), (hi, -1))
        return ((6 * c_plus + 4) * base + 6 * lo + 2) * base + 6 * hi + 2
    if c_plus < hi:  # ((lo, 1), (c_plus, -1), (hi, 1))
        return ((6 * lo + 4) * base + 6 * c_plus + 2) * base + 6 * hi + 4
    # ((lo, 1), (hi, 1), (c_plus, -1))
    return ((6 * lo + 4) * base + 6 * hi + 4) * base + 6 * c_plus + 2


def _decode_row(code: int, base: int) -> tuple:
    """The normalized row of a code, as (column, coefficient) pairs."""
    high, low = divmod(code, base * base)
    mid, low = divmod(low, base)
    if low:
        return ((high // 6, high % 6 - 3), (mid // 6, mid % 6 - 3), (low // 6, low % 6 - 3))
    if mid:
        return ((high // 6, high % 6 - 3), (mid // 6, mid % 6 - 3))
    return ((high // 6, high % 6 - 3),)


class _Rows:
    """A sequence of normalized rows kept as one int code each (see
    _encode_row) and decoded as read."""

    __slots__ = ("codes", "base")

    def __init__(self, codes: list[int], base: int):
        self.codes = codes
        self.base = base

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i: int) -> tuple:
        return _decode_row(self.codes[i], self.base)


def _relation_rows(mul: list[list[int]], conj_by: list[list[int]], second) -> _Rows:
    """Distinct normalized rows of both relation families, for every
    second variable c in ``second`` and every g, h in G, in descending
    order.

    The rows are gathered and sorted as one int each, so equal rows are
    neighbours, and the duplicates are dropped in place.
    """
    ng = len(mul)
    rng = range(ng)
    base = 6 * ng * ng
    codes = []
    for c in second:
        act = conj_by[c]
        for g in rng:
            gc = mul[g][c]
            gt = act[g]
            for h in rng:
                ht = act[h]
                # (g c) (x) h = (g^c (x) h^c) (c (x) h), then its mirror, every
                # pair symbol swapped: the second family at h1 = c,
                # h (x) (g c) = (h (x) c) (h^c (x) g^c).
                codes.append(_encode_row(gc * ng + h, gt * ng + ht, c * ng + h, base))
                codes.append(_encode_row(h * ng + gc, ht * ng + gt, h * ng + c, base))
    codes.sort(reverse=True)
    kept = 0
    for code in codes:
        if not kept or code != codes[kept - 1]:
            codes[kept] = code
            kept += 1
    del codes[kept:]
    return _Rows(codes, base)


def _group_tables(p: GroupParams):
    """mul, conj_by, the sorted indices of G' and o', by index
    arithmetic on b^beta a^alpha, at index beta * m + alpha: a is 1, b
    is m and a^alpha is alpha.  The oracle numbers elements only this
    way.

    Right multiplication by b^beta2 sends a^alpha to a^(alpha r^beta2),
    so row g of mul is, block by block, a rotated run of indices; h^c
    keeps the b-exponent of h.  G' = <a^(r-1)> is the indices alpha < m
    divisible by (m, r-1), and o'(g) is the least k with g^k in it.
    """
    m, n, r, s = p.m, p.n, p.r, p.s
    rpow = [pow(r, beta, m) for beta in range(n)]
    mul = []
    conj_by = []
    for beta1 in range(n):
        for alpha1 in range(m):
            row = []
            for beta2 in range(n):
                beta, shift = beta1 + beta2, alpha1 * rpow[beta2]
                if beta >= n:
                    beta, shift = beta - n, shift + s
                shift %= m
                off = beta * m
                row += range(off + shift, off + m)
                row += range(off, off + shift)
            mul.append(row)
            rc = rpow[beta1]
            conj_by.append([
                beta * m + (alpha * rc + alpha1 * (1 - rpow[beta])) % m
                for beta in range(n)
                for alpha in range(m)
            ])
    da = gcd(m, r - 1)
    oprime = []
    for g in range(m * n):
        k, cur = 1, g
        while cur >= m or cur % da:
            k, cur = k + 1, mul[cur][g]
        oprime.append(k)
    return mul, conj_by, list(range(0, m, da)), oprime


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

    The distinct rows go to abgrp.peel, which reduces only the lattice
    they leave on its few free columns; each row waits there as one int
    code (see _relation_rows), decoded when read.  The quotient is that
    core lattice's, checked against M by _bounded_quotient.
    """
    ng = params.order
    if ng > GROUP_ORDER_LIMIT:
        raise ResourceLimitError(
            f"oracle needs |G|^2 = {ng * ng} columns; |G| = {ng} exceeds the "
            f"limit {GROUP_ORDER_LIMIT}"
        )
    mul, conj_by, derived_ids, oprime = _group_tables(params)
    second = (1, params.m)  # a, b
    rows = _relation_rows(mul, conj_by, second)
    core_map = peel(rows, ng * ng, tensor_exponent_bound(ng))
    return OracleModel(
        params=params,
        mul=mul,
        conj_by=conj_by,
        core_map=core_map,
        handle=_bounded_quotient(core_map.lattice),
        raw_rows=2 * len(second) * ng * ng,
        distinct_rows=len(rows),
        derived_ids=derived_ids,
        oprime=oprime,
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
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

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

    conj_by = model.conj_by
    mul = model.mul
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
        pow_b[be] = mul[pow_b[be - 1]][b_i]

    def binom2(x: int) -> int:
        x %= exp2
        return (x * (x - 1) // 2) % exp

    # Prefix data over beta: r^beta mod m / exp / 2*exp, E(r,beta) mod exp,
    # and S1(beta) = sum_{i=1}^{beta-1} binom(r^i, 2) mod exp.
    rb_m = [pow(r, be, m) for be in range(o_b)]
    rb_e = [pow(r, be, exp) for be in range(o_b)]
    rb_e2 = [pow(r, be, exp2) for be in range(o_b)]
    geom = [0] * o_b
    s1 = [0] * o_b
    for be in range(1, o_b):
        geom[be] = (geom[be - 1] + rb_e[be - 1]) % exp
        s1[be] = (s1[be - 1] + binom2(rb_e2[be - 1])) % exp if be > 1 else 0

    # Shapes of the power identities (i)-(vi).  Each instance is
    # (label args, x, y, k_ab, k_aa), stating
    # (x, y) = k_ab (a,b) + k_aa (r-1) (a,a).
    def shape_i():
        for al in range(m):
            yield (al,), a_i, conj_by[al][b_i], 1, al

    def shape_ii():
        for al in range(m):
            yield (al,), al, b_i, al, binom2(al)

    def shape_iii():
        for be in range(o_b):
            yield (be,), rb_m[be], b_i, rb_e[be], binom2(rb_e2[be])

    def shape_iv():
        for be in range(o_b):
            yield (be,), a_i, pow_b[be], geom[be], s1[be]

    def shape_v():
        for al in range(m):
            for be in range(o_b):
                yield (al, be), al * rb_m[be] % m, b_i, al * rb_e[be], binom2(al * rb_e2[be])

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
    def moved(conjugators, pairs):
        for c in conjugators:
            act = conj_by[c]
            for g, h in pairs:
                x, y = act[g] * ng + act[h], g * ng + h
                yield x == y or member({x: 1, y: -1}), (c, g, h)

    derived_ids = model.derived_ids
    checks.append(
        _check(
            "centrality: commutator conjugation fixes all symbols",
            "conj by commutator #{} moves ({},{})",
            moved(derived_ids, [(g, h) for g in range(ng) for h in range(ng)]),
        )
    )
    checks.append(
        _check(
            "centrality: diagonal symbols fixed by conjugation",
            "conj by #{} moves diagonal ({},{})",
            moved(range(ng), [(g, g) for g in range(ng)]),
        )
    )

    checks.append(
        _check(
            "derived diagonal trivial",
            "(g,g) nontrivial for derived #{}",
            ((member({g * dg: 1}), (g,)) for g in derived_ids),
        )
    )

    # Symmetric-pair facts.  The dict literals below give coefficient 1,
    # not 2, to (g,g) when g = h.
    def sym_product_rule():
        for g in range(ng):
            row = mul[g]
            for h in range(ng):
                gh, hg = g * ng + h, h * ng + g
                ok = member(_vec((gh, 1), (hg, 1), (row[h] * dg, -1), (h * dg, 1), (g * dg, 1)))
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
            ((member({g * ng + h: 1, h * ng + g: 1}), (g, h)) for h in derived_ids for g in range(ng)),
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

    oprime = model.oprime

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
        for h, op in enumerate(model.oprime):
            if op % 2:
                order = order_of({h * (ng + 1): 1})
                yield order != 0 and op % order == 0, (h, order, op)

    def derived_diagonal():
        for h in model.derived_ids:
            order = order_of({h * (ng + 1): 1})
            yield order == 1, (h, order)

    checks.append(_check("diagonal order divides odd o'(h)", "element #{}: order {}, o' = {}", odd_diagonal()))
    checks.append(_check("derived diagonal has order 1", "element #{}: order {}", derived_diagonal()))
    return SuiteReport(checks=checks)
