from math import lcm

import pytest

from tensq import metagrp
from tensq.numth import capital_k, geom_sum, geom_sum_mod, mult_order
from support import enumerate_valid_tuples


def lcm_all(values) -> int:
    """Least common multiple of a non-empty sequence, with lcm(x, 0) = 0."""
    vals = list(values)
    if not vals:
        raise ValueError("lcm_all needs at least one value")
    return lcm(*vals)


def test_lcm_all_zero_convention():
    assert lcm_all([0, 5]) == 0
    assert lcm_all([4, 6]) == 12
    with pytest.raises(ValueError):
        lcm_all([])


def test_mult_order_examples():
    assert mult_order(4, 9) == 3
    assert mult_order(1, 7) == 1
    assert mult_order(1, 100) == 1
    assert mult_order(2, 7) == 3


def test_mult_order_rejects_non_units():
    with pytest.raises(ValueError):
        mult_order(3, 9)
    with pytest.raises(ValueError):
        mult_order(1, 1)


def test_geom_sum_examples():
    assert geom_sum(2, 3) == 7
    assert geom_sum(1, 11) == 11
    assert geom_sum(4, 9) == 87381


def test_geom_sum_mod_examples():
    assert geom_sum_mod(2, 3, 1000) == 7
    assert geom_sum_mod(5, 0, 17) == 0
    assert geom_sum_mod(1, 13, 1000) == 13
    assert geom_sum_mod(4, 9, 9) == 87381 % 9 == 0


def test_geom_sum_mod_against_naive_loop():
    for r in range(50):
        for modulus in range(1, 100, 7):
            acc = 0
            power = 1
            for x in range(200):
                assert geom_sum_mod(r, x, modulus) == acc % modulus, (r, x, modulus)
                acc += power
                power = power * r % (modulus * 10**6)


def test_geom_sum_mod_negative_exponent():
    with pytest.raises(ValueError):
        geom_sum_mod(2, -1, 81)
    with pytest.raises(ValueError):
        geom_sum(2, -1)


def test_geom_sum_divisibility_along_subgroup_orders():
    # E(r, o'(b)) divides E(r, o(b)) whenever o'(b) | o(b).
    for p in enumerate_valid_tuples(100, include_s_zero=True):
        inv = metagrp.derived_invariants(p)
        assert inv.o_b % inv.oprime_b == 0
        small = geom_sum(p.r, inv.oprime_b)
        big = geom_sum(p.r, inv.o_b)
        assert big % small == 0, p
        modulus = big + small + 1
        assert geom_sum_mod(p.r, inv.o_b, modulus) == big
        assert geom_sum_mod(p.r, inv.oprime_b, modulus) == small


def test_capital_k_examples():
    assert capital_k(metagrp.validate(9, 3, 4, 3)) == 1
    assert capital_k(metagrp.validate(3, 2, 2, 0)) == 1


def test_capital_k_odd_for_odd_m():
    for p in enumerate_valid_tuples(150, include_s_zero=True):
        k = capital_k(p)
        assert k >= 1
        assert k % 2 == 1, p
