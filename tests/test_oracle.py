import hashlib
import json
import random
import tracemalloc
from functools import lru_cache
from pathlib import Path

import pytest

from tensq import abgrp, metagrp, oracle
from tensq.errors import FormulaInconsistencyError, ResourceLimitError, TensqError
from tensq.oracle import (
    build_tensor_oracle,
    exterior_oracle,
    oracle_schur_order,
    verify_bounds,
    verify_identities,
)
from tensq.presentations import exterior_and_schur
from reference import _relation_rows, group_tables, peel, walk_order
from support import enumerate_valid_tuples

DATA = Path(__file__).parent / "data"

# The benchmark's oracle-crosscheck panel.
ORACLE_PANEL = [(7, 3, 2, 0), (9, 3, 4, 0), (9, 3, 4, 3), (15, 2, 4, 10), (15, 2, 11, 3), (21, 2, 13, 7), (21, 2, 8, 6)]


def family_rows(p):
    """The distinct normalized rows of both relation families over every
    second variable c in G: 2|G|^3 rows before deduplication."""
    return _relation_rows(p, range(p.order))


@lru_cache(maxsize=None)
def reference_lattices(tup):
    """The relation lattice of G (x) G on all |G|^2 columns, and that of
    G ^ G: the generating rows (c in {a, b}) inserted into a RowLattice
    with the oracle's modulus, unit columns cleared, then a copy with
    every diagonal symbol (g, g) adjoined.  Both are Hermite normal
    forms, so they do not depend on insertion order; the oracle itself
    never builds them, and its map is checked against them."""
    p = metagrp.validate(*tup)
    ng = p.order
    tensor = abgrp.RowLattice(ng * ng, modulus=oracle.tensor_exponent_bound(ng))
    for row in _relation_rows(p, (1, p.m)):
        tensor.insert(row)
    tensor.clear_unit_columns()
    exterior = tensor.copy()
    for g in range(ng):
        exterior.insert({g * ng + g: 1})
    exterior.clear_unit_columns()
    return tensor, exterior


@lru_cache(maxsize=None)
def exact_reference(tup):
    """The generating rows (c in {a, b}) inserted into a lattice without
    a modulus, unit columns cleared: the oracle lattice built exactly,
    with no exponent bound.  Insertion walks each row down as one row
    through unimodular gcd steps and reduces each row it stores at the
    later pivot columns, as it does with a modulus; the insertion-order
    test holds every entry to 64 bits in a shuffled order too.

    Clearing leaves the Hermite normal form, which the lattice alone
    determines: another insertion order, or every family row, which
    spans the same lattice, gives the same basis rows.  The sublattice
    golden pins rows of this one.
    """
    p = metagrp.validate(*tup)
    lattice = abgrp.RowLattice(p.order ** 2)
    for row in _relation_rows(p, (1, p.m)):
        lattice.insert(row)
    lattice.clear_unit_columns()
    return lattice


def conjugation_permutation(model, c):
    """Column permutation induced by (g, h) -> (g^c, h^c), c an element index."""
    ng = model.params.order
    act_c = group_tables(model.params, (c,))[1][c]
    return [act_c[g] * ng + act_c[h] for g in range(ng) for h in range(ng)]


def act(model, vec, c):
    """Image of a dense coefficient vector under conjugation by the element
    of index c."""
    vec = list(vec)
    ncols = model.params.order**2
    if len(vec) != ncols:
        raise TensqError(f"vector of length {len(vec)}, expected {ncols}")
    out = [0] * ncols
    for col, target in enumerate(conjugation_permutation(model, c)):
        out[target] = vec[col]
    return out


@pytest.fixture(scope="module")
def model_3220():
    return build_tensor_oracle(metagrp.validate(3, 2, 2, 0))


@pytest.fixture(scope="module")
def model_9343():
    return build_tensor_oracle(metagrp.validate(9, 3, 4, 3))


def test_oracle_3220(model_3220):
    m = model_3220
    assert m.params.order == 6
    assert len(m.core_map.images) == 36
    assert m.raw_rows == 144
    assert m.distinct_rows == 131
    assert m.handle.structure.invariant_factors == (6,)
    assert exterior_oracle(m).invariant_factors == (3,)
    assert oracle_schur_order(m) == 1


def test_oracle_9343(model_9343):
    m = model_9343
    assert m.raw_rows == 2916
    assert m.distinct_rows == 2861
    assert m.handle.structure.invariant_factors == (3, 3, 3, 3)
    assert exterior_oracle(m).invariant_factors == (3,)
    assert oracle_schur_order(m) == 1


def test_oracle_core_map_shares_equal_images(model_9343):
    # Columns share their nonempty images, each value one tuple, its
    # entries in [0, M).
    images = model_9343.core_map.images
    bound = model_9343.core_map.lattice.modulus
    assert len(set(img for img in images if img)) < sum(1 for img in images if img)
    assert len({id(img) for img in images}) == len(set(images))
    assert all(0 <= v < bound for img in images for _, v in img)


def test_oracle_agrees_with_closed_delta(model_3220, model_9343):
    for model in (model_3220, model_9343):
        report = exterior_and_schur(model.params)
        assert model.handle.structure.order == exterior_oracle(model).order * report.delta_order
        assert oracle_schur_order(model) == report.schur.order


def test_index_arithmetic_matches_the_element_arithmetic():
    # mul, conj, G' and o' on the element indices against metagrp's
    # products, conjugates, derived subgroup and coset orders of Element
    # objects, element i of metagrp.elements being b^beta a^alpha at
    # i = beta * m + alpha.
    for p in enumerate_valid_tuples(40, include_s_zero=True):
        elems = metagrp.elements(p)
        assert [e.beta * p.m + e.alpha for e in elems] == list(range(p.order))
        assert elems[1] == metagrp.Element(0, 1) and elems[p.m] == metagrp.Element(1, 0)
        index = {e: i for i, e in enumerate(elems)}
        mul, conj = oracle._index_arithmetic(p)
        ids = range(p.order)
        assert [[mul(g, h) for h in ids] for g in ids] == [[index[metagrp.mul(g, h, p)] for h in elems] for g in elems]
        assert [[conj(h, c) for h in ids] for c in ids] == [
            [index[metagrp.conj(h, c, p)] for h in elems] for c in elems
        ]
        derived = metagrp.derived_subgroup(p)
        assert list(oracle._derived_ids(p)) == sorted(index[e] for e in derived)
        assert oracle._coset_orders(p) == [metagrp.coset_order(e, p, derived) for e in elems]


def test_generator_maps_match_the_element_arithmetic():
    # The build's O(|G|) maps x -> xc, xc^-1, x^c, x^(c^-1) for c = a, b
    # against the reference tables of metagrp's products and conjugates.
    for p in enumerate_valid_tuples(100, include_s_zero=True):
        elems = metagrp.elements(p)
        gens = [(c, elems.index(metagrp.inverse(elems[c], p))) for c in (1, p.m)]
        right, conj_by = group_tables(p, [x for gen in gens for x in gen])
        expected = [(c, right[c], right[cinv], conj_by[c], conj_by[cinv]) for c, cinv in gens]
        assert oracle._generator_tables(p) == expected, (p.m, p.n, p.r, p.s)


def test_group_order_limit():
    assert metagrp.validate(11, 100, 10, 0).order > oracle.GROUP_ORDER_LIMIT
    with pytest.raises(ResourceLimitError):
        build_tensor_oracle(metagrp.validate(11, 100, 10, 0))


def basis_digest(lattice):
    """sha256 of the sorted pivot rows, each row's entries sorted."""
    rows = sorted((j, sorted(row.items())) for j, row in lattice.pivots.items())
    return hashlib.sha256(repr(rows).encode()).hexdigest()


# Digests of the reduced bases of G (x) G and G ^ G, recorded with the
# earlier insertion that reduced a pivot row only once, when a gcd step
# built it.  The fully reduced basis is the Hermite normal form, so no
# change to how insertion reduces may move them.
BASIS_DIGESTS = {
    (3, 2, 2, 0): (
        "971ca91e140013e66b132376c494799e99643820651956c70565be230810ba17",
        "1be8333e8817946693255680c5a5d4c0589e5182735f5285d13a4307d06fd29b",
    ),
    (9, 3, 4, 3): (
        "10a95ba3fdc97f7ae5a83afcfa82387c64e58cd320630eedf44a9d05241b2c38",
        "349b72b420bee4953b47664c80d6930d3da861e1a17921c296011e89a5dee797",
    ),
    (15, 2, 4, 10): (
        "3c3253f66fc4082b9cace61cd5dd59d1180ad6bfdd528c71569ebf50c1bd8b17",
        "1a8c9a675f7482ec4f91591191d2329bd0d38bbbaa85bdffa6116c375a2c50bb",
    ),
    (21, 2, 8, 6): (
        "42868c63fab0b009b365992bc13e4bfa1cd1b39930f13a6457dd3d0bbda529c4",
        "330abe1ccd89f7eaa090ca251d9217cf91bd5fed2b81e9f0dc95df23b8b23986",
    ),
}


def test_reduced_bases_match_their_digests():
    for tup, (tensor_digest, exterior_digest) in BASIS_DIGESTS.items():
        tensor, exterior = reference_lattices(tup)
        assert basis_digest(tensor) == tensor_digest, tup
        assert basis_digest(exterior) == exterior_digest, tup


def test_oracle_and_exterior_bases_hold_a_row_per_column(model_9343):
    # The reference bases on all |G|^2 columns, and the core lattices
    # the oracle reads its two quotients off, each with a modulus: every
    # column holds the one row whose pivot it is.
    exterior_oracle(model_9343)
    lattices = reference_lattices((9, 3, 4, 3)) + (model_9343.handle.lattice, model_9343.ext_handle.lattice)
    for lattice in lattices:
        assert sorted(lattice.pivots) == list(range(lattice.ncols))
        assert all(min(row) == j and row[j] > 0 for j, row in lattice.pivots.items())


@pytest.mark.parametrize("exact", [False, True], ids=["modular", "exact"])
def test_reduced_basis_does_not_depend_on_insertion_order(exact):
    # The references insert the generating rows in descending order; the
    # ascending order, a shuffled one, and every family row (a larger
    # set spanning the same lattice) must reach the same Hermite normal
    # form, with the oracle's modulus and without one.  Every 64 rows no
    # stored entry may pass 64 bits, on either kind of lattice.
    for tup in ((7, 3, 2, 0), (9, 3, 4, 3)):
        p = metagrp.validate(*tup)
        ng = p.order
        second = (1, p.m)  # a, b
        rows = sorted(_relation_rows(p, second))
        shuffled = list(rows)
        random.Random(20261018).shuffle(shuffled)
        reference = exact_reference(tup) if exact else reference_lattices(tup)[0]
        for order in (rows, shuffled, family_rows(p)):
            lattice = abgrp.RowLattice(ng * ng, None if exact else oracle.tensor_exponent_bound(ng))
            for i, row in enumerate(order, 1):
                lattice.insert(row)
                if i % 64 == 0:
                    bits = max(abs(v).bit_length() for piv in lattice.pivots.values() for v in piv.values())
                    assert bits <= 64, (tup, i, bits)
            lattice.clear_unit_columns()
            assert lattice.pivots == reference.pivots, tup


def test_oracle_matches_closed_forms_past_order_45():
    for tup in ((9, 6, 4, 3), (27, 3, 10, 9)):
        model = build_tensor_oracle(metagrp.validate(*tup))
        report = exterior_and_schur(model.params)
        ng = model.params.order
        assert ng > 45
        assert model.distinct_rows == 4 * ng * ng - 2 * ng - 1, tup
        assert model.handle.structure == report.tensor, tup
        assert exterior_oracle(model) == report.exterior, tup
        assert oracle_schur_order(model) == report.schur.order, tup


def test_core_map_keeps_every_order(model_9343):
    # The model's map against the reference walk in the reference lattice:
    # unit vectors, every family row and seeded random vectors, in the
    # lattice and out of it, have the same order through the map.
    lattice = reference_lattices((9, 3, 4, 3))[0]
    cmap = model_9343.core_map
    assert any(row[j] == 1 for j, row in lattice.pivots.items())
    assert any(row[j] > 1 for j, row in lattice.pivots.items())
    assert cmap.lattice is model_9343.handle.lattice
    rng = random.Random(20261019)
    vectors = [((j, 1),) for j in range(lattice.ncols)] + list(family_rows(model_9343.params))
    vectors += [
        tuple((rng.randrange(lattice.ncols), rng.randint(-5, 5)) for _ in range(3)) for _ in range(500)
    ]
    orders = set()
    for row in vectors:
        vec = {}
        for col, coeff in row:
            vec[col] = vec.get(col, 0) + coeff
        order = walk_order(lattice, vec)
        assert cmap.order(vec) == order, row
        orders.add(order)
    assert 1 in orders and len(orders) > 1


@lru_cache(maxsize=None)
def small_models():
    """The oracle models of every valid tuple with |G| <= 45, s = 0
    included."""
    return [build_tensor_oracle(p) for p in enumerate_valid_tuples(45, include_s_zero=True)]


def test_distinct_rows_count_the_reference_rows():
    # The streamed build counts the distinct rows without storing one;
    # the reference stores, sorts and deduplicates them.  Both are
    # 4|G|^2 - 2|G| - 1, and a row the build read twice, or neither read
    # nor peeled, would move the build's count.
    for model in small_models():
        p = model.params
        rows = _relation_rows(p, (1, p.m))
        assert model.distinct_rows == len(rows) == 4 * p.order**2 - 2 * p.order - 1, (p.m, p.n, p.r, p.s)


def test_streamed_map_is_exact_on_the_rows_of_one_generator():
    # With the rows of c = a alone, or of c = b alone, the lattice is not
    # G (x) G's, and more of its relations are rows that give no column
    # its image, the mirror family's among them.  The streamed map must
    # still give every unit vector the order the reference walk gives in the
    # lattice of the reference rows, and count those rows.
    for p in enumerate_valid_tuples(21, include_s_zero=True):
        ng = p.order
        bound = oracle.tensor_exponent_bound(ng)
        for gen in oracle._generator_tables(p):
            second = gen[:1]
            cmap, distinct_rows = oracle._stream_core_map((gen,), bound)
            rows = _relation_rows(p, second)
            lattice = abgrp.RowLattice(ng * ng, bound)
            for row in rows:
                lattice.insert(row)
            assert distinct_rows == len(rows), (p.m, p.n, p.r, p.s, second)
            units = [{j: 1} for j in range(ng * ng)]
            assert [cmap.order(v) for v in units] == [walk_order(lattice, v) for v in units], (p.m, p.n, p.r, p.s, second)


def test_generating_set_spans_every_family_row():
    # Rows for c in {a, b} span the rows of every c in G.  Each of the
    # 2|G|^3 rows e_p - e_q - e_t of both families is read through the
    # model's own map, which test_oracle_map_agrees_with_the_reference_lattices
    # checks against the reference walk: the dense sum of its three
    # images, reduced by the core lattice, is 0 exactly for a row of the
    # lattice.  Images are numbered by their reductions by the cleared
    # core lattice, so rows whose three images reduce alike are one sum,
    # reduced once.
    for model in small_models():
        p = model.params
        cmap = model.core_map
        # The build leaves the paper's four symbols as the core.
        assert cmap.lattice.ncols == 4, (p.m, p.n, p.r, p.s)
        # Reading the quotient cleared the core lattice's unit columns.
        reduced, number = {}, {}
        for img in dict.fromkeys(cmap.images):
            w = [0] * cmap.lattice.ncols
            for i, v in img:
                w[i] = v
            cmap.lattice.reduce(w)
            number[img] = reduced.setdefault(tuple(w), len(reduced))
        image_of = [number[img] for img in cmap.images]
        dense = list(reduced)
        ng = p.order
        right_by, conj_by = group_tables(p)
        triples = set()
        for c in range(ng):
            act = conj_by[c]
            right = right_by[c]
            for h in range(ng):
                ht = act[h]
                # [gc, h] - [g^c, h^c] - [c, h] over every g, and its mirror.
                first = zip([image_of[x * ng + h] for x in right], [image_of[x * ng + ht] for x in act])
                triples.update((x, y, image_of[c * ng + h]) for x, y in first)
                mirror = zip([image_of[h * ng + x] for x in right], [image_of[ht * ng + x] for x in act])
                triples.update((x, y, image_of[h * ng + c]) for x, y in mirror)
        for triple in triples:
            w = [u - v - t for u, v, t in zip(*(dense[k] for k in triple))]
            cmap.lattice.reduce(w)
            assert not any(w), (p.m, p.n, p.r, p.s)


def test_exponent_bound_seeds_lie_in_the_exact_lattice():
    # M * e_j lies in the lattice of the generating rows (c in {a, b}),
    # built exactly, without a modulus.  That lattice lies inside the
    # lattice of all rows, so seeding with M * Z^N leaves it unchanged.
    # The reference walk reads only the columns each query reaches.
    for p in enumerate_valid_tuples(30, include_s_zero=True):
        ng = p.order
        exact = abgrp.RowLattice(ng * ng)
        for row in _relation_rows(p, (1, p.m)):
            exact.insert(row)
        bound = oracle.tensor_exponent_bound(ng)
        assert all(walk_order(exact, {j: bound}) == 1 for j in range(exact.ncols)), (p.m, p.n, p.r, p.s)


def test_exponent_bound_equal_to_the_exponent_raises(model_9343, monkeypatch):
    # With M the tensor exponent itself, M is an invariant factor.
    exponent = model_9343.handle.structure.torsion_exponent
    monkeypatch.setattr(oracle, "tensor_exponent_bound", lambda order: exponent)
    with pytest.raises(FormulaInconsistencyError):
        build_tensor_oracle(model_9343.params)


def test_act_on_basis_vector(model_3220):
    m = model_3220
    p = m.params
    a, b = 1, p.m
    vec = [0] * 36
    vec[a * 6 + b] = 1
    out = act(m, vec, b)
    expected = [0] * 36
    a_conj = p.r % p.m
    expected[a_conj * 6 + b] = 1
    assert out == expected
    assert act(m, vec, 0) == vec


def test_act_rejects_wrong_length(model_3220):
    with pytest.raises(TensqError):
        act(model_3220, [0] * 7, 0)


def test_act_preserves_lattice_membership(model_3220):
    # The reference basis rows, conjugated, are members through the
    # model's map.
    m = model_3220
    ncols = m.params.order**2
    rows = [dict(row) for row in reference_lattices((3, 2, 2, 0))[0].pivots.values()]
    for c in range(m.params.order):
        for row in rows:
            dense = [0] * ncols
            for col, val in row.items():
                dense[col] = val
            image = act(m, dense, c)
            assert m.core_map.order({col: v for col, v in enumerate(image) if v}) == 1


def test_conjugation_permutation_is_bijective(model_3220):
    for c in range(model_3220.params.order):
        perm = conjugation_permutation(model_3220, c)
        assert sorted(perm) == list(range(36))


def test_relabel_invariance(model_3220):
    # Permuting the element indexing permutes columns by (g, h) ->
    # (sg, sh); the quotient structure must not change.
    m = model_3220
    ng = m.params.order
    rng = random.Random(20260815)
    sigma = list(range(ng))
    rng.shuffle(sigma)
    lat = abgrp.RowLattice(ng * ng)
    for row in reference_lattices((3, 2, 2, 0))[0].pivots.values():
        lat.insert(
            {sigma[c // ng] * ng + sigma[c % ng]: v for c, v in row.items()}
        )
    handle = abgrp.quotient_from_lattice(lat)
    assert handle.structure == m.handle.structure


def test_transposition_maps_the_lattice_to_itself(model_9343):
    # The second relation family is the first with every pair symbol
    # (g, h) swapped to (h, g), so swapping maps the lattice onto itself:
    # each reference basis row, swapped, is a member through the map.
    for model in (build_tensor_oracle(metagrp.validate(7, 3, 2, 0)), model_9343):
        ng = model.params.order
        p = model.params
        for row in reference_lattices((p.m, p.n, p.r, p.s))[0].pivots.values():
            swapped = {(c % ng) * ng + c // ng: v for c, v in row.items()}
            assert model.core_map.order(swapped) == 1


def test_derived_diagonal_already_trivial(model_9343):
    m = model_9343
    p = m.params
    for d in metagrp.derived_subgroup(p):
        di = d.beta * p.m + d.alpha
        assert m.core_map.order({di * p.order + di: 1}) == 1


def test_diagonal_bb_order_divides_n(model_3220):
    m = model_3220
    bi = m.params.m
    assert 2 % m.core_map.order({bi * 6 + bi: 1}) == 0


def test_identity_suite_passes(model_3220, model_9343):
    for model, total in ((model_3220, 307), (model_9343, 4946)):
        report = verify_identities(model)
        assert report.passed
        assert report.failed_instances == 0
        assert sum(c.instances for c in report.checks) == total
        power = [c for c in report.checks if c.name.startswith("power identity")]
        assert len(power) == 12


def test_suites_keep_no_group_sized_state():
    # The suites compute each product and conjugate as they read it, so
    # their traced peak stays below 16 |G|^2 bytes, less than a |G|^2
    # list of pointers with its int objects.
    model = build_tensor_oracle(metagrp.validate(9, 6, 4, 3))
    tracemalloc.start()
    try:
        assert verify_identities(model).passed and verify_bounds(model).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * model.params.order ** 2, peak


def test_bounds_suite_passes(model_3220, model_9343):
    for model in (model_3220, model_9343):
        report = verify_bounds(model)
        assert report.passed
        names = [c.name for c in report.checks]
        assert "derived diagonal has order 1" in names
        assert any("odd o'(h)" in n for n in names)
        with pytest.raises(AttributeError):
            report.checks = []


# Sublattice models: the exact reference, a Hermite normal form, keeps only
# the pivot rows of the last half of its pivot columns, so every check
# family except the tautology fails somewhere.  With the first half, the
# two derived-diagonal checks would pass on every panel tuple.
# (15,2,4,10) takes the "2 || s" branch of the n-s relation.  The golden
# pins each check's (name, instances, failed, examples) from both suites.
FAILURE_PANEL = [(9, 3, 4, 3), (7, 3, 2, 0), (15, 2, 4, 10)]


def _sublattice_model(tup):
    """The oracle model of tup with its map peeled from the kept rows
    alone (no modulus), and those rows as a RowLattice basis: the exact
    reference's pivot rows at the last half of its pivot columns."""
    model = build_tensor_oracle(metagrp.validate(*tup))
    lat = exact_reference(tup)
    sub = abgrp.RowLattice(lat.ncols)
    for j in sorted(lat.pivots)[len(lat.pivots) // 2 :]:
        sub.insert(lat.pivots[j])
    model.core_map = peel([row.items() for row in sub.pivots.values()], sub.ncols)
    return model, sub


def _failure_reports():
    out = {}
    for tup in FAILURE_PANEL:
        model, _ = _sublattice_model(tup)
        out[",".join(map(str, tup))] = {
            suite.__name__: [
                [c.name, c.instances, c.failed, c.examples] for c in suite(model).checks
            ]
            for suite in (verify_identities, verify_bounds)
        }
    return out


def test_suite_failure_reports_match_golden():
    golden = json.loads((DATA / "verify_sublattice.json").read_text())
    assert _failure_reports() == golden


def test_core_map_keeps_orders_on_the_sublattices():
    # The suites read the failure panel's sublattices (no modulus, free
    # columns) through the map peeled from their rows; unit vectors and
    # seeded random vectors have the walk's orders, finite and infinite,
    # with and without the suites' reduction of coefficients modulo the
    # exponent.
    rng = random.Random(20261024)
    for tup in FAILURE_PANEL:
        model, lattice = _sublattice_model(tup)
        exp = model.handle.structure.torsion_exponent
        tensor = model.core_map
        vectors = [{j: 1} for j in range(lattice.ncols)]
        vectors += [{rng.randrange(lattice.ncols): rng.randint(-5, 5) for _ in range(4)} for _ in range(300)]
        infinite = set()
        for vec in vectors:
            order = walk_order(lattice, vec)
            assert tensor.order(vec) == order, (tup, vec)
            assert tensor.order(vec, exp) == walk_order(lattice, {c: v % exp for c, v in vec.items()}), (tup, vec)
            infinite.add(order == 0)
        assert infinite == {True, False}, tup


def test_exterior_membership_through_the_map_matches_the_exterior_lattice():
    # The exterior map (core lattice plus the diagonal symbols' images)
    # against the reference exterior lattice, the whole lattice with
    # every diagonal row inserted, on seeded random vectors and every
    # symbol.
    rng = random.Random(20261025)
    for tup in ((9, 3, 4, 3), (15, 2, 4, 10)):
        model = build_tensor_oracle(metagrp.validate(*tup))
        full = reference_lattices(tup)[1]
        ext = oracle._exterior_map(model)
        vectors = [{j: 1} for j in range(full.ncols)]
        vectors += [{rng.randrange(full.ncols): rng.randint(-5, 5) for _ in range(3)} for _ in range(500)]
        members = set()
        for vec in vectors:
            assert ext.order(vec) == walk_order(full, vec), (tup, vec)
            members.add(ext.order(vec) == 1)
        assert members == {True, False}, tup


def test_oracle_map_agrees_with_the_reference_lattices():
    # On the oracle panel the peel leaves four free columns, the number
    # of the paper's symbols u, v, w and z.  Through the model's tensor
    # and exterior maps, every unit vector and 500 seeded random vectors
    # have the order the reference walk gives in the reference lattices on
    # all |G|^2 columns, and the quotients are those of the references.
    rng = random.Random(20261027)
    for tup in ORACLE_PANEL:
        model = build_tensor_oracle(metagrp.validate(*tup))
        assert model.core_map.lattice.ncols == 4, tup
        tensor, exterior = reference_lattices(tup)
        ncols = tensor.ncols
        vectors = [{j: 1} for j in range(ncols)]
        vectors += [{rng.randrange(ncols): rng.randint(-9, 9) for _ in range(4)} for _ in range(500)]
        maps = ((model.core_map, tensor), (oracle._exterior_map(model), exterior))
        for cmap, lattice in maps:
            orders = [walk_order(lattice, vec) for vec in vectors]
            assert [cmap.order(vec) for vec in vectors] == orders, tup
            assert 1 in orders and max(orders) > 1, tup
        assert model.handle.structure == abgrp.quotient_from_lattice(tensor.copy()).structure, tup
        assert exterior_oracle(model) == abgrp.quotient_from_lattice(exterior.copy()).structure, tup
