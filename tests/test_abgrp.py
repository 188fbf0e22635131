import random
from itertools import combinations, product
from math import gcd, prod

import pytest

from tensq import metagrp
from tensq.abgrp import (
    AbelianStructure,
    RowLattice,
    element_order,
    lattice_member,
    quotient_from_lattice,
    quotient_structure,
    smith_normal_form,
)
from tensq.errors import TensqError
from tensq.presentations import tensor_descriptor, tensor_relators
from reference import peel, walk_order
from reference import smith_normal_form as sparse_smith_normal_form
from support import FROZEN


def determinant(matrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise TensqError("determinant needs a square matrix")
    if n == 0:
        return 1
    M = [list(map(int, row)) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def sparse(matrix) -> list[dict]:
    """The {column: coefficient} rows of a dense matrix."""
    return [{j: v for j, v in enumerate(row) if v} for row in matrix]


def check_snf(matrix):
    """The diagonal against the determinantal divisors of the matrix:
    d1 * ... * dk is the gcd of all k x k minors.  The Smith form
    returns the nonzero entries only; zeros pad it to min(rows, cols)."""
    diag = smith_normal_form(matrix)
    R, C = len(matrix), len(matrix[0]) if matrix else 0
    assert all(diag) and len(diag) <= min(R, C)
    diag += [0] * (min(R, C) - len(diag))
    for k in range(1, len(diag) + 1):
        minors = [
            determinant([[matrix[i][j] for j in cols] for i in rows])
            for rows in combinations(range(R), k)
            for cols in combinations(range(C), k)
        ]
        assert prod(diag[:k]) == gcd(*minors), (matrix, diag, k)
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and ((a == 0 and b == 0) or (a != 0 and b % a == 0))
    return diag


def test_snf_examples():
    assert smith_normal_form([]) == []
    assert check_snf([[2, 0], [0, 3]]) == [1, 6]
    assert check_snf([[0, 0], [0, 0]]) == [0, 0]
    assert check_snf([[4, 6], [6, 4]]) == [2, 10]


def test_quotient_keeps_core_columns_between_cleared_unit_columns():
    # Core rows on columns with gaps between them; every other column is
    # a unit pivot whose row also touches the next two columns, core
    # ones included.  Clearing the unit columns leaves the core rows on
    # the gapped core columns, and the structure is that of the core
    # rows alone, renumbered 0, 1, ...; with and without a modulus.
    for (core_rows, ncols, factors), modulus in product(
        [([{3: 4, 17: 6}, {3: 6, 17: 4}], 18, (2, 10)), ([{5: 2}, {9: 3}, {5: 2, 9: 3}], 10, (6,))],
        [None, 60],
    ):
        core = sorted({j for row in core_rows for j in row})
        lat = RowLattice(ncols, modulus)
        for j in range(ncols):
            if j not in core:
                lat.insert({j: 1, **{k: k % 5 + 1 for k in range(j + 1, min(j + 3, ncols))}})
        for row in core_rows:
            lat.insert(row)
        handle = quotient_from_lattice(lat)
        assert handle.core_columns == core
        assert handle.structure == AbelianStructure(factors)
        compact = [{core.index(j): v for j, v in row.items()} for row in core_rows]
        assert quotient_structure(compact, len(core)).structure == handle.structure


def test_snf_rectangular_and_random():
    rng = random.Random(20260815)
    for _ in range(150):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        matrix = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        check_snf(matrix)
    for size, bound in [(5, 6)] * 20 + [(4, 40)] * 30 + [(5, 40)] * 20:
        matrix = [[rng.randint(-bound, bound) for _ in range(size)] for _ in range(size)]
        check_snf(matrix)


def tensor_pattern(e_u, e_v, e_w, e_z, s, n, big_e):
    """The dense 8 x 4 matrix of tensor_relators on columns u, v, w, z:
    four diagonal order rows, then the four cross rows."""
    return [
        [0, e_v, 0, 0],
        [0, 0, e_w, 0],
        [e_u, 0, 0, 0],
        [0, 0, 0, e_z],
        [s, 0, -n, 0],
        [s, 0, n, -s],
        [-big_e, s, 0, 0],
        [big_e, s, 0, -big_e],
    ]


def test_snf_on_tall_tensor_pattern_matrices():
    # The closed forms hand the eight tensor relations to the Smith form
    # directly; the entries here run from one digit to several hundred.
    # Each matrix is checked as given and with its rows and columns
    # shuffled, which moves the first pivot off the order rows.
    rng = random.Random(20261019)
    for bound in [9] * 40 + [10**6] * 20 + [10**300] * 10:
        e_u, e_v, e_w, e_z, n = (rng.randint(1, bound) for _ in range(5))
        s = rng.choice([0, rng.randint(1, bound)])
        big_e = rng.randint(1, bound)
        matrix = tensor_pattern(e_u, e_v, e_w, e_z, s, n, big_e)
        diag = check_snf(matrix)
        rng.shuffle(matrix)
        cols = rng.sample(range(4), 4)
        assert check_snf([[row[j] for j in cols] for row in matrix]) == diag


def test_snf_matches_the_sparse_reference_on_tensor_patterns():
    # The dense Smith form against the dict-row one it replaced, on the
    # seeded tensor_pattern matrices with entries up to 10^300, as given
    # and with the columns in the order v, w, z, u that the closed forms
    # use.
    rng = random.Random(20261020)
    for bound in [9] * 200 + [10**6] * 100 + [10**300] * 40:
        e_u, e_v, e_w, e_z, n = (rng.randint(1, bound) for _ in range(5))
        s = rng.choice([0, rng.randint(1, bound)])
        big_e = rng.randint(1, bound)
        matrix = tensor_pattern(e_u, e_v, e_w, e_z, s, n, big_e)
        expected = sparse_smith_normal_form(sparse(matrix))
        assert smith_normal_form(matrix) == expected, matrix
        assert smith_normal_form([row[1:] + row[:1] for row in matrix]) == expected, matrix


def test_snf_on_the_frozen_relation_matrices():
    for tup, (tensor, *_) in FROZEN.items():
        words = tensor_relators(tensor_descriptor(metagrp.validate(*tup)), 0, 1, 2, 3)
        matrix = [[dict(word).get(g, 0) for g in range(4)] for word in words]
        diag = check_snf(matrix)
        assert tuple(d for d in diag if d > 1) == tensor, tup


def test_snf_is_deterministic():
    rows = [[4, 6, 2], [6, 4, 0], [2, 2, 2]]
    first = smith_normal_form(rows)
    second = smith_normal_form(rows)
    assert first == second


def test_determinant_examples():
    assert determinant([[4, 6], [6, 4]]) == -20
    assert determinant([[1, 0], [0, 1]]) == 1
    assert determinant([]) == 1
    with pytest.raises(TensqError):
        determinant([[1, 2, 3], [4, 5, 6]])


def test_quotient_structure_examples():
    assert quotient_structure([{0: 6}], 1).structure.invariant_factors == (6,)
    assert quotient_structure([], 2).structure.invariant_factors == (0, 0)
    # tensor relation rows for (3,2,2,0): e_u=3, e_v=1, e_w=2, e_z=1,
    # cross rows with s=0, n=2, E=3.
    rows = [
        {0: 3},
        {1: 1},
        {2: 2},
        {3: 1},
        {2: -2},
        {2: 2},
        {0: 3},
        {0: 3, 3: -3},
    ]
    assert quotient_structure(rows, 4).structure.invariant_factors == (6,)


def test_structure_validation():
    with pytest.raises(TensqError):
        AbelianStructure((1, 2))
    with pytest.raises(TensqError):
        AbelianStructure((4, 2))
    with pytest.raises(TensqError):
        AbelianStructure((0, 2))
    with pytest.raises(TensqError):
        AbelianStructure((1,))
    assert AbelianStructure((2, 4, 0)).order == 0
    assert AbelianStructure(()).order == 1
    assert str(AbelianStructure((6, 0))) == "C6 x Z"
    assert AbelianStructure((3, 6)) == AbelianStructure((3, 6)) != AbelianStructure((18,))
    with pytest.raises(AttributeError):
        AbelianStructure((6,)).invariant_factors = (2,)


def reduce(lattice, vec):
    """Residue of vec after subtracting lattice rows, entries at pivot
    columns reduced into [0, pivot): a reference independent of
    RowLattice.order."""
    cur = dict(vec)
    j = -1
    while True:
        nxt = min((k for k in cur if k > j), default=None)
        if nxt is None:
            return cur
        j = nxt
        piv = lattice.pivots.get(j)
        if piv is not None:
            q = cur[j] // piv[j]
            for col, v in piv.items():
                cur[col] = cur.get(col, 0) - q * v
                if not cur[col]:
                    del cur[col]


def enumerate_quotient(handle):
    """All canonical residues, by closing {0} under generator addition."""
    ngens = handle.lattice.ncols
    lattice = handle.lattice
    zero = ()
    seen = {zero}
    frontier = [dict()]
    while frontier:
        vec = frontier.pop()
        for i in range(ngens):
            nxt = dict(vec)
            nxt[i] = nxt.get(i, 0) + 1
            residue = reduce(lattice, nxt)
            key = tuple(sorted(residue.items()))
            if key not in seen:
                seen.add(key)
                frontier.append(residue)
        if len(seen) > 4000:
            raise AssertionError("quotient unexpectedly large")
    return seen


def annihilator_count(elements, lattice, d):
    count = 0
    for key in elements:
        vec = {c: d * v for c, v in key}
        if lattice.contains(vec):
            count += 1
    return count


def test_quotient_structure_against_enumeration():
    rng = random.Random(987123)
    done = 0
    while done < 60:
        ngens = rng.randint(1, 3)
        nrows = rng.randint(ngens, ngens + 2)
        rows = sparse([[rng.randint(-6, 6) for _ in range(ngens)] for _ in range(nrows)])
        handle = quotient_structure(rows, ngens)
        structure = handle.structure
        if structure.order == 0 or structure.order > 400:
            continue
        done += 1
        elements = enumerate_quotient(handle)
        assert len(elements) == structure.order, (rows, structure)
        exponent = structure.torsion_exponent
        for d in range(1, exponent + 1):
            if exponent % d:
                continue
            expected = 1
            for f in structure.invariant_factors:
                expected *= gcd(d, f)
            assert annihilator_count(elements, handle.lattice, d) == expected, (rows, d)


def test_full_rank_order_is_absolute_determinant():
    rng = random.Random(5511)
    done = 0
    while done < 40:
        rows = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)]
        det = determinant(rows)
        if det == 0:
            continue
        done += 1
        structure = quotient_structure(sparse(rows), 3).structure
        assert structure.order == abs(det), (rows, det, structure)


def test_element_order_examples():
    handle = quotient_structure([{0: 6}], 1)
    assert element_order(handle, {}) == 1
    assert element_order(handle, {0: 1}) == 6
    assert element_order(handle, {0: 2}) == 3
    assert element_order(handle, {0: 3}) == 2
    handle = quotient_structure([{0: 2}], 2)
    assert element_order(handle, {0: 1}) == 2
    assert element_order(handle, {1: 1}) == 0


def test_element_order_against_brute_force():
    # The least k up to the torsion exponent whose k * v reduces to
    # nothing, or 0; rank-deficient lattices give elements of order 0.
    rng = random.Random(4242)
    done = 0
    while done < 60:
        ngens = rng.randint(1, 4)
        nrows = rng.randint(0, ngens + 1)
        rows = sparse([[rng.randint(-6, 6) for _ in range(ngens)] for _ in range(nrows)])
        handle = quotient_structure(rows, ngens)
        exponent = handle.structure.torsion_exponent
        if exponent > 300:
            continue
        done += 1
        for vec in sparse([[rng.randint(-8, 8) for _ in range(ngens)] for _ in range(6)]):
            expected = next(
                (k for k in range(1, exponent + 1) if not reduce(handle.lattice, {c: k * v for c, v in vec.items()})),
                0,
            )
            assert element_order(handle, vec) == expected, (rows, vec)
            assert lattice_member(handle, vec) == (expected == 1), (rows, vec)


def test_element_order_membership_properties():
    rng = random.Random(77)
    done = 0
    while done < 30:
        ngens = rng.randint(1, 3)
        rows = sparse([[rng.randint(-6, 6) for _ in range(ngens)] for _ in range(ngens + 1)])
        handle = quotient_structure(rows, ngens)
        if handle.structure.order == 0:
            continue
        done += 1
        for vec in sparse([[rng.randint(-8, 8) for _ in range(ngens)] for _ in range(5)]):
            order = element_order(handle, vec)
            assert order >= 1
            assert lattice_member(handle, {c: order * v for c, v in vec.items()})
            for p in (2, 3, 5, 7, 11, 13):
                if order % p == 0:
                    shrunk = {c: (order // p) * v for c, v in vec.items()}
                    assert not lattice_member(handle, shrunk), (rows, vec, order, p)


def test_lattice_member_examples():
    rows = [{0: 2}, {1: 3}]
    handle = quotient_structure(rows, 2)
    for row in rows:
        assert lattice_member(handle, row)
    assert lattice_member(handle, {})
    assert not lattice_member(handle, {0: 1})


def test_row_lattice_insert_accepts_pairs_and_dicts():
    lat = RowLattice(3)
    lat.insert({0: 2, 2: 4})
    lat.insert([(1, 3)])
    assert lat.contains({0: 2, 2: 4})
    assert lat.contains({1: -3})
    assert not lat.contains({0: 1})
    # A column outside [0, ncols) or an entry that is not an int is
    # refused, on insert before any row is stored, and by a query.
    before = {j: dict(r) for j, r in lat.pivots.items()}
    for row in ({0: 1.5}, {3: 1}, {5: 1}, {-1: 3}, [(0, 1), (3, 2)], {0: 1, 1.0: 2}):
        with pytest.raises(TensqError):
            lat.insert(row)
        assert lat.pivots == before, row
    for vec in ({-1: 3}, {3: 1}, {0: 0.5}):
        with pytest.raises(TensqError):
            RowLattice(2, 9).order(vec)


def test_modulus_lattice_is_the_exact_lattice_in_hermite_form():
    # Seeded with M * Z^n for M the exponent of the quotient, the
    # lattice is the exact one; its reduced basis, the Hermite normal
    # form, is the same for every insertion order.
    rng = random.Random(20261018)
    done = 0
    while done < 40:
        ngens = rng.randint(2, 5)
        rows = sparse([[rng.randint(-6, 6) for _ in range(ngens)] for _ in range(ngens + 1)])
        exact = quotient_structure(rows, ngens)
        if exact.structure.order == 0:
            continue
        done += 1
        bases = []
        for _ in range(3):
            rng.shuffle(rows)
            lat = RowLattice(ngens, modulus=exact.structure.torsion_exponent)
            for row in rows:
                lat.insert(row)
            handle = quotient_from_lattice(lat)
            assert handle.structure == exact.structure, rows
            bases.append(lat.pivots)
        assert bases[0] == bases[1] == bases[2], rows
        for _ in range(20):
            vec = {j: rng.randint(-9, 9) for j in range(ngens)}
            assert lat.order(vec) == exact.lattice.order(vec), (rows, vec)


def test_zero_coefficients_are_dropped_on_insert():
    # A stored explicit zero once kept smith_normal_form from ever
    # finishing on this input.
    handle = quotient_structure([{0: 9}, {1: 3, 0: 0}], 2)
    assert handle.structure.invariant_factors == (3, 9)
    lat = RowLattice(2, modulus=9)
    lat.insert([(0, 0), (1, 3)])
    assert all(v for row in lat.pivots.values() for v in row.values())


def test_row_lattice_copy_is_independent():
    lat = RowLattice(2)
    lat.insert({0: 2})
    dup = lat.copy()
    dup.insert({0: 1})
    assert dup.contains({0: 1})
    assert not lat.contains({0: 1})


@pytest.mark.parametrize("modulus", [None, 36], ids=["exact", "mod36"])
def test_walk_after_each_change_reads_the_current_rows(modulus):
    # Seeded random lattices walked after every change: inserts, new
    # columns, clearing, and inserts into a copy.  Each order is the
    # reference walk's on the rows as they are now, and each reduction
    # the reference residue.  Inserting into a copy leaves the
    # original's rows and orders as they were.
    rng = random.Random(20261028)
    coeffs = (-1, 1, 2, -3, 4, 6, 9)
    changes = ("insert", "insert", "insert", "add_column", "clear", "copy")
    for _ in range(20):
        lat = RowLattice(rng.randint(1, 4), modulus)
        for _ in range(30):
            change = rng.choice(changes)
            if change == "add_column":
                lat.add_column()
            elif change == "clear":
                lat.clear_unit_columns()
            else:
                cols = rng.sample(range(lat.ncols), rng.randint(1, min(3, lat.ncols)))
                row = {c: rng.choice(coeffs) for c in cols}
                if change == "insert":
                    lat.insert(row)
                else:
                    before = {j: dict(r) for j, r in lat.pivots.items()}
                    orders = [lat.order({j: 1}) for j in range(lat.ncols)]
                    dup = lat.copy()
                    dup.insert(row)
                    assert [dup.order({j: 1}) for j in range(dup.ncols)] == [
                        walk_order(dup, {j: 1}) for j in range(dup.ncols)
                    ]
                    assert lat.pivots == before
                    assert [lat.order({j: 1}) for j in range(lat.ncols)] == orders
            ncols = lat.ncols
            vectors = [{j: 1} for j in range(ncols)]
            vectors += [{j: rng.randint(-20, 20) for j in range(ncols)} for _ in range(3)]
            for vec in vectors:
                assert lat.order(vec) == walk_order(lat, vec), (change, lat.pivots, vec)
                w = [vec.get(j, 0) for j in range(ncols)]
                lat.reduce(w)
                residue = reduce(lat, vec)
                assert w == [residue.get(j, 0) for j in range(ncols)], (change, lat.pivots, vec)


@pytest.mark.parametrize("modulus", [None, 360], ids=["exact", "modulus"])
def test_rows_stay_reduced_and_whole_through_every_insert(modulus):
    # Seeded random rows of even entries with a unit now and then, so
    # that gcd steps shrink pivots, seed rows M * e_j are replaced both by
    # a unit and by a gcd step, and rows reduce to zero, while non-unit
    # pivots remain.  With a modulus every column holds a row throughout.
    rng = random.Random(20261020)
    ncols = 8
    coeffs = (-12, -8, -6, -4, -2, 2, 4, 6, 8, 12)
    whole = modulus is not None
    lat = RowLattice(ncols, modulus=modulus)
    assert len(lat.pivots) == (ncols if whole else 0)
    for i in range(60):
        cols = rng.sample(range(ncols), rng.randint(1, 4))
        row = {c: rng.choice(coeffs) for c in cols}
        if i % 7 == 0:
            row[cols[0]] = rng.choice((-1, 1))
        lat.insert(row)
        if whole:
            assert len(lat.pivots) == ncols, i
            # Every entry of a row other than a seed M * e_j, pivots
            # included, stays in [0, M).
            assert all(
                r == {j: modulus} or all(0 <= v < modulus for v in r.values()) for j, r in lat.pivots.items()
            ), i
        if i == 30:
            dup = lat.copy()
            assert dup.pivots == lat.pivots
            before = {j: dict(r) for j, r in lat.pivots.items()}
            for j in range(ncols):
                dup.insert({j: 1})
            assert [dup.pivots[j][j] for j in range(ncols)] == [1] * ncols
            assert lat.pivots == before != dup.pivots
    diagonal = [r[j] for j, r in lat.pivots.items()]
    assert 1 in diagonal and max(diagonal) > 1
    lat.clear_unit_columns()
    if whole:
        assert len(lat.pivots) == ncols


def test_clearing_unit_columns_keeps_every_order():
    # clear_unit_columns leaves the lattice as it is: every order is the
    # same before and after, and every M * e_j stays in it.
    rng = random.Random(20261021)
    for _ in range(30):
        ncols = rng.randint(2, 6)
        lat = RowLattice(ncols, modulus=36)
        for _ in range(rng.randint(0, ncols)):
            lat.insert({c: rng.randint(-9, 9) for c in rng.sample(range(ncols), 2 if ncols > 1 else 1)})
        vectors = [{j: rng.randint(-40, 40) for j in range(ncols)} for _ in range(20)]
        vectors += [{j: 36} for j in range(ncols)] + [{j: 1} for j in range(ncols)]
        before = [lat.order(vec) for vec in vectors]
        lat.clear_unit_columns()
        assert len(lat.pivots) == ncols
        assert before == [lat.order(vec) for vec in vectors]
        assert all(lat.contains({j: 36}) for j in range(ncols))


def random_lattice(rng, modulus):
    """A seeded lattice of sparse rows whose entries are units now and
    then, so that it has unit pivots, other pivots and, without a
    modulus, columns no row reaches."""
    ncols = rng.randint(2, 12)
    lat = RowLattice(ncols, modulus=modulus)
    for _ in range(rng.randint(0, ncols)):
        cols = rng.sample(range(ncols), rng.randint(1, min(4, ncols)))
        lat.insert({c: rng.choice((-1, 1, 1, 2, -3, 4, 6, 9)) for c in cols})
    return lat


def lattice_map(lat):
    """The CoreMap of a RowLattice, peeled from its pivot rows (with a
    modulus, the seeds M * e_j are the modulus's own)."""
    return peel([row.items() for row in lat.pivots.values()], lat.ncols, lat.modulus)


@pytest.mark.parametrize("modulus", [None, 36, 360], ids=["exact", "mod36", "mod360"])
@pytest.mark.parametrize("cleared", [False, True], ids=["uncleared", "cleared"])
def test_core_map_order_is_the_walk_order(modulus, cleared):
    # Through the core map peeled from a lattice's pivot rows, every unit
    # vector and seeded random vector has the order the reference walk
    # gives, 0 for infinite order included; so has each with its
    # coefficients reduced modulo 6, and each in the lattice extended by
    # two unit rows.
    rng = random.Random(20261022)
    seen = set()
    for _ in range(60):
        lat = random_lattice(rng, modulus)
        if cleared:
            lat.clear_unit_columns()
        cmap = lattice_map(lat)
        ncols = lat.ncols
        unit = {j for j, row in lat.pivots.items() if row[j] == 1}
        assert len(cmap.images) == ncols
        extra = rng.sample(range(ncols), 2)
        bigger = lat.copy()
        for j in extra:
            bigger.insert({j: 1})
        ext = cmap.extended(extra)
        vectors = [{j: 1} for j in range(ncols)]
        vectors += [{j: rng.randint(-40, 40) for j in rng.sample(range(ncols), rng.randint(1, ncols))} for _ in range(20)]
        for vec in vectors:
            order = walk_order(lat, vec)
            assert cmap.order(vec) == order, (lat.pivots, vec)
            assert cmap.order(vec, 6) == walk_order(lat, {j: v % 6 for j, v in vec.items()}), (lat.pivots, vec)
            assert ext.order(vec) == walk_order(bigger, vec), (lat.pivots, extra, vec)
            seen.add(min(order, 2))
        seen.add(("unit", bool(unit)))
        seen.add(("core", cmap.lattice.ncols > 0))
    # Orders 0 (without a modulus), 1 and more than 1 all occur, and so do
    # lattices with and without unit pivots and core columns.
    assert seen >= {1, 2, ("unit", True), ("unit", False), ("core", True)}
    assert (0 in seen) == (modulus is None)


def test_core_map_images_are_bounded_and_shared():
    # With a modulus each image has entries in [0, modulus), and equal
    # images are one tuple.  The pivot rows of an echelon basis give no
    # two columns equal nonempty images, so the last case has rows
    # e_j - e_k, k = 7 or 8, taking columns 0 to 6 to two images.
    rng = random.Random(20261023)
    for _ in range(40):
        lat = random_lattice(rng, 72)
        cmap = lattice_map(lat)
        for img in cmap.images:
            assert all(0 <= v < 72 for _, v in img), img
        assert len({id(img) for img in cmap.images}) == len(set(cmap.images))
    rows = [((j, 1), (7 + j % 2, -1)) for j in range(7)]
    cmap = peel(rows, 9, 72)
    assert len(set(cmap.images[:7])) == 2 and all(cmap.images[:7])
    assert len({id(img) for img in cmap.images}) == len(set(cmap.images))


@pytest.mark.parametrize("modulus", [None, 60], ids=["exact", "mod60"])
def test_peel_keeps_every_order_of_random_row_sets(modulus):
    # Seeded sparse row sets, not echelon: units, coefficients +-2 and
    # larger, rows of non-units only (which never peel), rows repeated
    # and zero entries.  Through the peeled map every unit vector and
    # random vector has the order the reference walk gives in the lattice
    # of the same rows, with and without reducing its coefficients
    # modulo 6; image entries lie in [0, modulus) and equal images are
    # one tuple.
    rng = random.Random(20261026)
    seen = set()
    for _ in range(80):
        ncols = rng.randint(1, 14)
        rows = []
        for _ in range(rng.randint(0, 2 * ncols)):
            cols = rng.sample(range(ncols), rng.randint(1, min(4, ncols)))
            coeffs = (2, -2, 4, 6) if rng.random() < 0.2 else (-1, 1, 1, 2, -2, 3, 0)
            rows.append({c: rng.choice(coeffs) for c in cols})
        if rows and rng.random() < 0.3:
            rows.append(rows[0])
        lat = RowLattice(ncols, modulus)
        for row in rows:
            lat.insert(row)
        cmap = peel([row.items() for row in rows], ncols, modulus)
        vectors = [{j: 1} for j in range(ncols)]
        vectors += [{j: rng.randint(-30, 30) for j in rng.sample(range(ncols), rng.randint(1, ncols))} for _ in range(20)]
        for vec in vectors:
            order = walk_order(lat, vec)
            assert cmap.order(vec) == order, (rows, vec)
            assert cmap.order(vec, 6) == walk_order(lat, {j: v % 6 for j, v in vec.items()}), (rows, vec)
            seen.add(min(order, 2))
        if modulus is not None:
            assert all(0 <= v < modulus for img in cmap.images for _, v in img)
        assert len({id(img) for img in cmap.images}) == len(set(cmap.images))
        assert quotient_from_lattice(cmap.lattice).structure == quotient_from_lattice(lat).structure
        seen.add(("free", min(cmap.lattice.ncols, 2)))
        seen.add(("stuck", any(all(v not in (1, -1) for v in row.values()) for row in rows)))
    # Orders 1 and more than 1 occur, 0 only without a modulus; cores of
    # no, one and several columns occur, and so do rows with no unit.
    assert seen >= {1, 2, ("free", 0), ("free", 1), ("free", 2), ("stuck", True)}
    assert (0 in seen) == (modulus is None)
