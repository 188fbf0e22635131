import hashlib
import itertools
import json
import random
from functools import lru_cache
from pathlib import Path

import pytest

from tensq import abgrp, metagrp, oracle
from tensq.errors import FormulaInconsistencyError, ResourceLimitError, TensqError
from tensq.metagrp import Element
from tensq.oracle import (
    _normalized_row,
    _relation_rows,
    build_tensor_oracle,
    exterior_oracle,
    oracle_schur_order,
    verify_bounds,
    verify_identities,
)
from tensq.presentations import exterior_and_schur
from support import enumerate_valid_tuples

DATA = Path(__file__).parent / "data"


def family_rows(model):
    """The distinct normalized rows of both relation families over every
    second variable c in G: 2|G|^3 rows before deduplication."""
    return _relation_rows(model.mul, model.conj_by, range(model.params.order))


@lru_cache(maxsize=None)
def exact_reference(tup, descending=False):
    """Every family row inserted in sorted order into a lattice without a
    modulus, unit columns cleared: the oracle lattice built exactly, with
    no exponent bound and no generating set.

    Either order gives the same lattice, but not the same basis rows:
    the exact path does not reduce its pivot rows.  Descending order
    builds faster; the sublattice golden pins rows of the ascending one.
    """
    model = build_tensor_oracle(metagrp.validate(*tup))
    lattice = abgrp.RowLattice(model.params.order ** 2)
    for row in sorted(family_rows(model), reverse=descending):
        lattice.insert(row)
    lattice.clear_unit_columns()
    return lattice


def conjugation_permutation(model, c):
    """Column permutation induced by (g, h) -> (g^c, h^c)."""
    ng = model.params.order
    act_c = model.conj_by[model.index[c]]
    return [act_c[g] * ng + act_c[h] for g in range(ng) for h in range(ng)]


def act(model, vec, c):
    """Image of a dense coefficient vector under conjugation by c."""
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
    assert m.handle.lattice.ncols == 36
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


def test_oracle_agrees_with_closed_delta(model_3220, model_9343):
    for model in (model_3220, model_9343):
        report = exterior_and_schur(model.params)
        assert model.handle.structure.order == exterior_oracle(model).order * report.delta_order
        assert oracle_schur_order(model) == report.schur.order


def test_normalized_row_is_the_sorted_row_with_positive_lead():
    # Every order and coincidence pattern of the three columns.
    for cols in itertools.product(range(4), repeat=3):
        acc = {}
        for col, v in zip(cols, (1, -1, -1)):
            acc[col] = acc.get(col, 0) + v
        items = sorted((c, v) for c, v in acc.items() if v)
        sign = 1 if items[0][1] > 0 else -1
        assert _normalized_row(*cols) == tuple((c, sign * v) for c, v in items), cols


def test_group_order_limit():
    assert metagrp.validate(11, 20, 10, 0).order > oracle.GROUP_ORDER_LIMIT
    with pytest.raises(ResourceLimitError):
        build_tensor_oracle(metagrp.validate(11, 20, 10, 0))


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
        model = build_tensor_oracle(metagrp.validate(*tup))
        exterior_oracle(model)
        assert basis_digest(model.handle.lattice) == tensor_digest, tup
        assert basis_digest(model.ext_handle.lattice) == exterior_digest, tup


def test_reduced_basis_does_not_depend_on_insertion_order():
    # The oracle inserts its rows in descending order; ascending and
    # shuffled orders must reach the same Hermite normal form.
    for tup in ((7, 3, 2, 0), (9, 3, 4, 3)):
        model = build_tensor_oracle(metagrp.validate(*tup))
        ng = model.params.order
        second = (model.index[Element(0, 1)], model.index[Element(1, 0)])
        rows = sorted(_relation_rows(model.mul, model.conj_by, second))
        shuffled = list(rows)
        random.Random(20261018).shuffle(shuffled)
        for order in (rows, rows[::-1], shuffled):
            lattice = abgrp.RowLattice(ng * ng, modulus=oracle.tensor_exponent_bound(ng))
            for row in order:
                lattice.insert(row)
            lattice.clear_unit_columns()
            assert lattice.pivots == model.handle.lattice.pivots, tup


def test_oracle_matches_closed_forms_past_order_45():
    for tup in ((9, 6, 4, 3), (27, 3, 10, 9)):
        model = build_tensor_oracle(metagrp.validate(*tup))
        report = exterior_and_schur(model.params)
        assert model.params.order > 45
        assert model.handle.structure == report.tensor, tup
        assert exterior_oracle(model) == report.exterior, tup
        assert oracle_schur_order(model) == report.schur.order, tup


def test_generating_set_spans_every_family_row():
    # Rows for c in {a, b} span the rows of every c in G.
    for p in enumerate_valid_tuples(45, include_s_zero=True):
        model = build_tensor_oracle(p)
        lattice = model.handle.lattice
        assert all(lattice.contains(dict(row)) for row in family_rows(model)), (p.m, p.n, p.r, p.s)


def test_exponent_bound_seeds_lie_in_the_exact_lattice():
    # M * e_j lies in the lattice of all rows, so seeding with M * Z^N
    # leaves it unchanged.
    for p in enumerate_valid_tuples(30, include_s_zero=True):
        exact = exact_reference((p.m, p.n, p.r, p.s), descending=True)
        bound = oracle.tensor_exponent_bound(p.order)
        assert all(exact.contains({j: bound}) for j in range(exact.ncols)), (p.m, p.n, p.r, p.s)


def test_exponent_bound_equal_to_the_exponent_raises(model_9343, monkeypatch):
    # With M the tensor exponent itself, M is an invariant factor.
    exponent = model_9343.handle.structure.torsion_exponent
    monkeypatch.setattr(oracle, "tensor_exponent_bound", lambda order: exponent)
    with pytest.raises(FormulaInconsistencyError):
        build_tensor_oracle(model_9343.params)


def test_act_on_basis_vector(model_3220):
    m = model_3220
    p = m.params
    a = Element(0, 1)
    b = Element(1, 0)
    vec = [0] * 36
    vec[m.column(m.index[a], m.index[b])] = 1
    out = act(m, vec, b)
    expected = [0] * 36
    a_conj = Element(0, p.r % p.m)
    expected[m.column(m.index[a_conj], m.index[b])] = 1
    assert out == expected
    assert act(m, vec, Element(0, 0)) == vec


def test_act_rejects_wrong_length(model_3220):
    with pytest.raises(TensqError):
        act(model_3220, [0] * 7, Element(0, 0))


def test_act_preserves_lattice_membership(model_3220):
    m = model_3220
    ncols = m.params.order**2
    rows = [dict(row) for row in m.handle.lattice.pivots.values()]
    for c in m.elements:
        for row in rows:
            dense = [0] * ncols
            for col, val in row.items():
                dense[col] = val
            image = act(m, dense, c)
            assert abgrp.lattice_member(m.handle, {col: v for col, v in enumerate(image) if v})


def test_conjugation_permutation_is_bijective(model_3220):
    for c in model_3220.elements:
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
    for row in m.handle.lattice.pivots.values():
        lat.insert(
            {sigma[c // ng] * ng + sigma[c % ng]: v for c, v in row.items()}
        )
    handle = abgrp.quotient_from_lattice(lat)
    assert handle.structure == m.handle.structure


def test_transposition_maps_the_lattice_to_itself(model_9343):
    # The second relation family is the first with every pair symbol
    # (g, h) swapped to (h, g), so swapping maps the lattice onto itself.
    for model in (build_tensor_oracle(metagrp.validate(7, 3, 2, 0)), model_9343):
        ng = model.params.order
        for row in model.handle.lattice.pivots.values():
            swapped = {(c % ng) * ng + c // ng: v for c, v in row.items()}
            assert model.handle.lattice.contains(swapped)


def test_derived_diagonal_already_trivial(model_9343):
    m = model_9343
    p = m.params
    for d in metagrp.derived_subgroup(p):
        di = m.index[d]
        assert abgrp.lattice_member(m.handle, {m.column(di, di): 1})


def test_diagonal_bb_order_divides_n(model_3220):
    m = model_3220
    bi = m.index[Element(1, 0)]
    assert 2 % abgrp.element_order(m.handle, {m.column(bi, bi): 1}) == 0


def test_identity_suite_passes(model_3220, model_9343):
    for model, total in ((model_3220, 307), (model_9343, 4946)):
        report = verify_identities(model)
        assert report.passed
        assert report.failed_instances == 0
        assert sum(c.instances for c in report.checks) == total
        power = [c for c in report.checks if c.name.startswith("power identity")]
        assert len(power) == 12


def test_bounds_suite_passes(model_3220, model_9343):
    for model in (model_3220, model_9343):
        report = verify_bounds(model)
        assert report.passed
        names = [c.name for c in report.checks]
        assert "derived diagonal has order 1" in names
        assert any("odd o'(h)" in n for n in names)


# Sublattice models: the exact reference keeps only the pivot rows of the
# first half of its pivot columns, so every check family except the tautology
# fails somewhere.  (15,2,4,10) takes the "2 || s" branch of the n-s
# relation.  The golden pins each check's (name, instances, failed,
# examples) from both suites.
FAILURE_PANEL = [(9, 3, 4, 3), (7, 3, 2, 0), (15, 2, 4, 10)]


def _sublattice_model(tup):
    model = build_tensor_oracle(metagrp.validate(*tup))
    lat = exact_reference(tup)
    sub = abgrp.RowLattice(lat.ncols)
    keep = sorted(lat.pivots)[: len(lat.pivots) // 2]
    sub.pivots = {j: dict(lat.pivots[j]) for j in keep}
    model.handle.lattice = sub
    return model


def _failure_reports():
    out = {}
    for tup in FAILURE_PANEL:
        model = _sublattice_model(tup)
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
