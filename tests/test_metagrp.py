import pytest

from tensq import metagrp
from tensq.errors import OutOfScopeError, ResourceLimitError, ValidationError
from tensq.metagrp import IDENTITY, Element


def elt_order(g, p):
    """Order of g, found by repeated multiplication."""
    cur = g
    order = 1
    while cur != IDENTITY:
        cur = metagrp.mul(cur, g, p)
        order += 1
    return order


def mul_table(p):
    els = metagrp.elements(p)
    idx = {e: i for i, e in enumerate(els)}
    tbl = [[idx[metagrp.mul(g, h, p)] for h in els] for g in els]
    return els, idx, tbl


def test_validate_accepts_main_example():
    p = metagrp.validate(9, 3, 4, 3)
    assert (p.m, p.n, p.r, p.s) == (9, 3, 4, 3)
    assert p.order == 27


def test_validate_normalizes_s():
    assert metagrp.validate(9, 3, 4, 12).s == 3
    assert metagrp.validate(9, 3, 4, -3).s == 6


def test_validate_rejects_broken_power_condition():
    with pytest.raises(ValidationError) as err:
        metagrp.validate(5, 2, 3, 0)
    assert "r**n" in str(err.value)


def test_validate_even_m_is_out_of_scope():
    with pytest.raises(OutOfScopeError) as err:
        metagrp.validate(10, 2, 9, 0)
    assert "even" in str(err.value)
    assert isinstance(err.value, ValidationError)


def test_validate_collects_every_violation():
    with pytest.raises(ValidationError) as err:
        metagrp.validate(9, 2, 6, 1)
    text = str(err.value)
    assert "gcd(r, m)" in text
    assert "s*(r-1)" in text


def test_validate_rejects_abelian_scope():
    with pytest.raises(ValidationError):
        metagrp.validate(9, 3, 1, 0)
    with pytest.raises(ValidationError):
        metagrp.validate(1, 3, 1, 0)


def test_mul_examples():
    p = metagrp.validate(9, 3, 4, 3)
    assert metagrp.mul(Element(1, 2), Element(1, 1), p) == Element(2, 0)
    g = Element(2, 5)
    assert metagrp.mul(IDENTITY, g, p) == g
    assert metagrp.mul(g, IDENTITY, p) == g
    s3 = metagrp.validate(3, 2, 2, 0)
    assert metagrp.mul(Element(1, 0), Element(1, 0), s3) == Element(0, 0)


def test_conj_examples():
    p = metagrp.validate(9, 3, 4, 3)
    a, b = Element(0, 1), Element(1, 0)
    assert metagrp.conj(a, b, p) == Element(0, 4)
    assert metagrp.conj(Element(2, 7), IDENTITY, p) == Element(2, 7)
    s3 = metagrp.validate(3, 2, 2, 0)
    assert metagrp.conj(Element(1, 0), Element(0, 1), s3) == Element(1, 2)


def test_power_examples():
    p = metagrp.validate(9, 3, 4, 3)
    b = Element(1, 0)
    assert metagrp.power(b, 3, p) == Element(0, 3)
    assert metagrp.power(Element(2, 4), 0, p) == IDENTITY
    assert metagrp.power(b, 9, p) == IDENTITY
    assert elt_order(b, p) == 9


def test_inverse_on_full_enumeration():
    p = metagrp.validate(9, 3, 4, 3)
    for g in metagrp.elements(p):
        assert metagrp.mul(g, metagrp.inverse(g, p), p) == IDENTITY
        assert metagrp.mul(metagrp.inverse(g, p), g, p) == IDENTITY


def test_mul_associativity_full_sweep():
    for p in metagrp.enumerate_valid_tuples(60, include_s_zero=True):
        els, idx, tbl = mul_table(p)
        ng = len(els)
        for i in range(ng):
            ti = tbl[i]
            for j in range(ng):
                tij = tbl[ti[j]]
                tj = tbl[j]
                for k in range(ng):
                    assert tij[k] == ti[tj[k]], (p, i, j, k)


def test_conj_is_conjugation_full_sweep():
    for p in metagrp.enumerate_valid_tuples(60, include_s_zero=True):
        els = metagrp.elements(p)
        for g in els:
            ginv = metagrp.inverse(g, p)
            for h in els:
                expected = metagrp.mul(metagrp.mul(ginv, h, p), g, p)
                assert metagrp.conj(h, g, p) == expected, (p, g, h)


def test_power_matches_repeated_mul_full_sweep():
    for p in metagrp.enumerate_valid_tuples(60, include_s_zero=True):
        for g in metagrp.elements(p):
            order = elt_order(g, p)
            acc = IDENTITY
            for sigma in range(2 * order + 1):
                assert metagrp.power(g, sigma, p) == acc, (p, g, sigma)
                acc = metagrp.mul(acc, g, p)
            assert metagrp.power(g, -1, p) == metagrp.inverse(g, p)
            assert metagrp.power(g, -3, p) == metagrp.power(metagrp.inverse(g, p), 3, p)


def test_commutator_values_are_the_derived_subgroup():
    # The oracle's centrality check conjugates by G' in place of the set
    # of commutator values; the two sets are equal.  The values [g, h]
    # over all h are g^-1 times the conjugacy class of g, and that class
    # is the orbit of g under conjugation by the generators a and b.
    gens = (Element(0, 1), Element(1, 0))
    for p in metagrp.enumerate_valid_tuples(200, include_s_zero=True):
        values = set()
        for g in metagrp.elements(p):
            ginv = metagrp.inverse(g, p)
            orbit, frontier = {g}, [g]
            while frontier:
                x = frontier.pop()
                for c in gens:
                    y = metagrp.conj(x, c, p)
                    if y not in orbit:
                        orbit.add(y)
                        frontier.append(y)
            values |= {metagrp.mul(ginv, x, p) for x in orbit}
        assert values == metagrp.derived_subgroup(p), p


def test_split_tuple_validates_only_for_even_n():
    for m in (3, 5, 7, 9, 15):
        for n in (2, 4, 6):
            metagrp.validate(m, n, m - 1, 0)
        with pytest.raises(ValidationError):
            metagrp.validate(m, 3, m - 1, 0)


def test_r_equal_m_minus_one_forces_s_zero():
    # s(m-2) = 0 mod m with m odd means m | s, so only s = 0 survives.
    for m in (9, 15, 21):
        for s in range(1, m):
            with pytest.raises(ValidationError):
                metagrp.validate(m, 2, m - 1, s)


def test_brute_invariants_examples():
    p = metagrp.validate(3, 2, 2, 0)
    assert metagrp.brute_invariants(p) == []
    assert p.inv.o_b == 2
    p = metagrp.validate(9, 3, 4, 3)
    assert metagrp.brute_invariants(p) == []
    assert p.inv.t_derived == 3
    assert p.inv.oprime_b == 3


def test_brute_invariants_bound():
    # |G| = 10002 is just past BRUTE_ORDER_LIMIT; the guard fires before any enumeration.
    with pytest.raises(ResourceLimitError):
        metagrp.brute_invariants(metagrp.validate(3, 3334, 2, 0))


def test_brute_invariants_sweep_small():
    for p in metagrp.enumerate_valid_tuples(100, include_s_zero=True):
        mismatches = metagrp.brute_invariants(p)
        assert not mismatches, (p, mismatches)


def test_enumerate_valid_tuples_scope():
    tuples = metagrp.enumerate_valid_tuples(45)
    assert all(p.s > 0 for p in tuples)
    assert len(tuples) == 18
    with_zero = metagrp.enumerate_valid_tuples(45, include_s_zero=True)
    assert set(tuples) <= set(with_zero)
    assert all(p.order <= 45 for p in with_zero)
    assert metagrp.GroupParams(3, 2, 2, 0) in with_zero
    # ordering is deterministic
    assert with_zero == sorted(with_zero, key=lambda p: (p.m, p.n, p.r, p.s))
