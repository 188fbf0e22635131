from math import gcd
from pathlib import Path

import pytest

from tensq import metagrp, presentations
from tensq.abgrp import AbelianStructure, quotient_structure
from tensq.errors import FormulaInconsistencyError, TensqError
from tensq.fpgrp import todd_coxeter
from tensq.presentations import (
    NU_GENERATORS,
    TENSOR_GENERATORS,
    Presentation,
    exterior_and_schur,
    nu_presentation,
    presentation_to_gap,
    presentation_to_text,
    tensor_descriptor,
    tensor_presentation,
    tensor_relators,
    tensor_structure,
    upsilon_order_bounds,
)
from reference import smith_normal_form as sparse_smith_normal_form
from support import FROZEN, enumerate_valid_tuples

DATA = Path(__file__).parent / "data"


def test_frozen_structures():
    for tup, (tensor, ext, schur, delta, nu_order) in FROZEN.items():
        p = metagrp.validate(*tup)
        structure = tensor_structure(p)
        assert structure.invariant_factors == tensor, tup
        report = exterior_and_schur(p)
        assert report.tensor.invariant_factors == tensor, tup
        assert report.exterior.invariant_factors == ext, tup
        assert report.schur.invariant_factors == schur, tup
        assert report.delta_order == delta, tup
        assert report.nu_order_predicted == nu_order, tup


def test_tensor_structure_matches_the_lattice_quotient():
    # The closed form reads the Smith form of the eight relation rows
    # directly; the slow path inserts the same rows into a RowLattice.
    for p in enumerate_valid_tuples(300, include_s_zero=True):
        rows = []
        for word in tensor_relators(tensor_descriptor(p), 0, 1, 2, 3):
            row = {}
            for g, e in word:
                row[g] = row.get(g, 0) + e
            rows.append(row)
        assert tensor_structure(p) == quotient_structure(rows, 4).structure, p


def test_tensor_structure_matches_the_sparse_smith_form():
    # The dense Smith form, columns v, w, z, u, against the dict-row one
    # it replaced on the words' own rows, columns u, v, w, z.
    for p in enumerate_valid_tuples(300, include_s_zero=True):
        words = tensor_relators(tensor_descriptor(p), 0, 1, 2, 3)
        diag = sparse_smith_normal_form(dict(word) for word in words)
        factors = tuple(d for d in diag if d > 1) + (0,) * (4 - len(diag))
        assert tensor_structure(p).invariant_factors == factors, p


def test_section_report_guards_name_the_tuple(monkeypatch):
    # (3, 2, 2, 0): t = 3, exterior order 3, tensor order 6.
    p = metagrp.validate(3, 2, 2, 0)
    with monkeypatch.context() as patch:
        patch.setattr(presentations, "exterior_order", lambda params: 1)
        with pytest.raises(FormulaInconsistencyError) as err:
            exterior_and_schur(p)
    assert str(err.value) == "exterior order 1 not divisible by t = 3 for (m, n, r, s) = (3, 2, 2, 0)"
    monkeypatch.setattr(presentations, "tensor_structure", lambda params: AbelianStructure((2,)))
    with pytest.raises(FormulaInconsistencyError) as err:
        exterior_and_schur(p)
    assert str(err.value) == "tensor order 2 not divisible by exterior order 3 for (m, n, r, s) = (3, 2, 2, 0)"


def test_section_report_consistency_sweep():
    for p in enumerate_valid_tuples(120, include_s_zero=True):
        report = exterior_and_schur(p)
        t = p.m // gcd(p.m, p.r - 1)
        assert report.tensor.order == report.exterior.order * report.delta_order
        assert report.exterior.order == report.schur.order * t
        assert report.nu_order_predicted == (p.m * p.n) ** 2 * report.tensor.order


def test_tensor_descriptor_values():
    d = tensor_descriptor(metagrp.validate(9, 3, 4, 3))
    assert (d.e_u, d.e_v, d.e_w, d.e_z) == (3, 3, 3, 3)
    assert (d.s, d.n, d.big_e) == (3, 3, 3)  # E = 21, reduced into [1, lcm(3, 3)]
    d = tensor_descriptor(metagrp.validate(3, 2, 2, 0))
    assert (d.e_u, d.e_v, d.e_w, d.e_z) == (3, 1, 2, 1)
    assert d.big_e == 3


def test_upsilon_order_bounds_examples():
    assert upsilon_order_bounds(metagrp.validate(9, 3, 4, 3)) == {
        "u": 3,
        "v": 3,
        "w": 3,
        "z": 3,
    }
    bounds = upsilon_order_bounds(metagrp.validate(3, 2, 2, 0))
    assert bounds["u"] == 3
    assert bounds["v"] == 1
    assert bounds["w"] == 2
    assert bounds["z"] == 1


def test_nu_presentation_shape_is_fixed():
    for tup in [(3, 2, 2, 0), (9, 3, 4, 3), (21, 2, 13, 7)]:
        pres = nu_presentation(metagrp.validate(*tup))
        assert pres.generators == NU_GENERATORS
        assert len(pres.relators) == 43
        assert all(pres.relators), "empty relator emitted"


def test_nu_relator_matches_grammar_example():
    pres = nu_presentation(metagrp.validate(9, 3, 4, 3))
    assert pres.relators[4] == ((0, -1), (1, -1), (0, 1), (1, 1), (0, -3))
    line = presentation_to_text(pres).splitlines()[6]
    assert line == "x1^-1 * y1^-1 * x1^1 * y1^1 * x1^-3"


def test_split_family_exponent_of_v_is_one():
    pres = nu_presentation(metagrp.validate(9, 2, 8, 0))
    assert ((5, 1),) in pres.relators  # v^1, since gcd(m, m-2) = 1


def test_tensor_presentation_shape():
    pres = tensor_presentation(metagrp.validate(9, 3, 4, 3))
    assert pres.generators == TENSOR_GENERATORS
    assert len(pres.relators) == 14


def test_tensor_relators_are_the_nu_relators():
    for tup in [(3, 2, 2, 0), (9, 3, 4, 3), (21, 2, 13, 7)]:
        p = metagrp.validate(*tup)
        nu_words = nu_presentation(p).relators[10:18]
        shifted = tuple(tuple((g - 4, e) for g, e in word) for word in nu_words)
        assert tensor_presentation(p).relators[:8] == shifted, tup


def test_tensor_presentation_enumerates_to_closed_form_order():
    # The words carry E reduced, the rows sum them into the lattice; the
    # enumeration checks independently that both present the same group.
    for p in enumerate_valid_tuples(100, include_s_zero=True):
        assert todd_coxeter(tensor_presentation(p)).order == tensor_structure(p).order, p


def test_split_family_has_textbook_closed_forms():
    # r = m - 1, s = 0, n even: the tensor square is C_(m,n) x C_[m,n],
    # the exterior square is C_m and the multiplier is trivial.
    checked = 0
    for m in range(3, 1001, 2):
        for n in range(2, 2000 // m + 1, 2):
            report = exterior_and_schur(metagrp.validate(m, n, m - 1, 0))
            d = gcd(m, n)
            assert report.tensor.invariant_factors == tuple(f for f in (d, m * n // d) if f > 1), (m, n)
            assert report.exterior.invariant_factors == (m,), (m, n)
            assert report.schur.order == 1, (m, n)
            checked += 1
    assert checked == 2879


def test_beyl_tuples_have_trivial_schur():
    # s = m/(m, r-1) with s(r-1) = 0 mod m automatically satisfied.
    found = 0
    for p in enumerate_valid_tuples(200, include_s_zero=True):
        if p.s == p.m // gcd(p.m, p.r - 1) and p.s > 0:
            found += 1
            assert exterior_and_schur(p).schur.order == 1, p
    assert found >= 3


def test_presentation_text_golden():
    pres = nu_presentation(metagrp.validate(3, 2, 2, 0))
    expected = (DATA / "nu_3220.txt").read_text()
    assert presentation_to_text(pres) == expected


def test_presentation_text_rejects_empty_relator():
    with pytest.raises(TensqError, match="relator 1 is empty"):
        Presentation(generators=("x",), relators=(((0, 2),), ()))


def test_presentation_values_are_immutable():
    p = metagrp.validate(3, 2, 2, 0)
    values = (
        (nu_presentation(p), "relators"),
        (tensor_descriptor(p), "big_e"),
        (exterior_and_schur(p), "tensor"),
    )
    for obj, field in values:
        with pytest.raises(AttributeError):
            setattr(obj, field, None)


def test_gap_export_shape():
    text = presentation_to_gap(tensor_presentation(metagrp.validate(3, 2, 2, 0)))
    assert text.startswith('F := FreeGroup( "u", "v", "w", "z" );;')
    assert "G := F / rels;;" in text
    assert "u^3" in text
