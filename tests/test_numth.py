import random
from math import lcm

import pytest

from tensq import metagrp, numth
from tensq.errors import ResourceLimitError
from tensq.numth import _prime_factors, capital_k, geom_sum, geom_sum_mod, mult_order


def trial_prime_factors(x: int) -> list[int]:
    """Distinct prime factors of x >= 1, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= x:
        if x % d == 0:
            out.append(d)
            while x % d == 0:
                x //= d
        d += 1 if d == 2 else 2
    if x > 1:
        out.append(x)
    return out


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


def test_prime_factors_match_trial_division():
    rng = random.Random(20261018)
    primes = [p for p in range(43, 3000) if trial_prime_factors(p) == [p]]
    sample = list(range(1, 5000)) + [rng.randrange(1, 10**9) for _ in range(300)]
    # Products of primes above 41, with repeats, are what Pollard rho splits.
    for _ in range(500):
        x = 1
        for _ in range(rng.randint(1, 4)):
            x *= rng.choice(primes) ** rng.randint(1, 3)
        sample.append(x)
    for x in sample:
        assert _prime_factors(x) == trial_prime_factors(x), x
    p, q = 10**9 + 7, 10**9 + 9
    assert trial_prime_factors(p) == [p] and trial_prime_factors(q) == [q]
    assert _prime_factors(p * q) == [p, q]
    assert _prime_factors(2**3 * 3 * p**2 * q) == [2, 3, p, q]


def test_prime_factors_refuse_probable_primes_past_the_proof_bound(monkeypatch):
    # 8321 = 53 * 157 passes Miller-Rabin to base 2; with that base alone
    # and the bound lowered to 8321, it is an unprovable probable prime
    # and must raise instead of being reported as prime.
    monkeypatch.setattr(numth, "_MR_BASES", (2,))
    monkeypatch.setattr(numth, "_MR_LIMIT", 8321)
    with pytest.raises(ResourceLimitError, match="8321"):
        _prime_factors(8321)
    assert _prime_factors(8317) == [8317]


def test_mult_order_examples():
    assert mult_order(4, 9) == 3
    assert mult_order(1, 7) == 1
    assert mult_order(1, 100) == 1
    assert mult_order(2, 7) == 3
    assert mult_order(5, 10**9 + 7) == 10**9 + 6


def test_mult_order_matches_multiplication_loop():
    def loop_order(r, m):
        x, order = r % m, 1
        while x != 1:
            x, order = x * r % m, order + 1
        return order

    for p in metagrp.enumerate_valid_tuples(1000, include_s_zero=True):
        assert mult_order(p.r, p.m) == loop_order(p.r, p.m), p


def test_mult_order_rejects_non_units():
    with pytest.raises(ValueError):
        mult_order(3, 9)


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
    for p in metagrp.enumerate_valid_tuples(100, include_s_zero=True):
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
    for p in metagrp.enumerate_valid_tuples(150, include_s_zero=True):
        k = capital_k(p)
        assert k >= 1
        assert k % 2 == 1, p
