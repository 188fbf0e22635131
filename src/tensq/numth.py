"""Exact number-theoretic helpers used by every other module.

All arithmetic is plain Python integer arithmetic.  Degenerate arguments
follow the usual divisor-lattice conventions, which ``math.gcd`` and
``math.lcm`` already implement:

    gcd(x, 0) = |x|      gcd(0, 0) = 0      lcm(x, 0) = 0

so expressions such as m/(m, s) stay well defined when s = 0.
"""

from __future__ import annotations

from itertools import count
from math import gcd, lcm

from .errors import ResourceLimitError


# Miller-Rabin with the prime bases up to 41 proves primality for every x
# below _MR_LIMIT (Sorenson and Webster, "Strong pseudoprimes to twelve
# prime bases", Math. Comp. 86 (2017)).  Its "composite" is always right.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _miller_rabin(x: int) -> bool:
    """False when x is composite; x must be odd and greater than 41."""
    d, k = x - 1, 0
    while d % 2 == 0:
        d, k = d // 2, k + 1
    for a in _MR_BASES:
        y = pow(a, d, x)
        if y in (1, x - 1):
            continue
        for _ in range(k - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True


# Brent steps one _prime_factors call may spend, over all restarts and
# cofactors: about 4 s.  Every composite below _MR_LIMIT has a prime factor
# below 1.9*10^12, which rho finds in about 10^6 to 2.3*10^6 steps.
_RHO_BUDGET = 1 << 22


# Brent steps whose differences |y - saved| are multiplied modulo x before
# one gcd is taken.
_RHO_BLOCK = 128


def _rho_factor(x: int, budget: int) -> tuple[int, int]:
    """A proper divisor of a composite x and the budget left over.

    Pollard rho with Brent's cycle search, spending at most ``budget``
    steps over every restart; raises ResourceLimitError when they run out.
    The differences of a block of up to _RHO_BLOCK steps are multiplied
    modulo x and share one gcd; a block whose gcd is x is replayed step
    by step, since its factors may have met in different steps.
    """
    for c in count(1):
        y = saved = 2
        steps = limit = g = 1
        while g == 1:
            if not budget:
                raise ResourceLimitError(
                    f"Pollard rho did not split the composite cofactor {x} within {_RHO_BUDGET} steps"
                )
            block = (y, saved, steps, limit)
            size = min(_RHO_BLOCK, budget)
            budget -= size
            product = 1
            for _ in range(size):
                if steps == limit:
                    saved, steps, limit = y, 0, 2 * limit
                y = (y * y + c) % x
                steps += 1
                product = product * (y - saved) % x
            g = gcd(product, x)
        if g == x:
            y, saved, steps, limit = block
            g = 1
            while g == 1:
                if steps == limit:
                    saved, steps, limit = y, 0, 2 * limit
                y = (y * y + c) % x
                steps += 1
                g = gcd(y - saved, x)
        if g != x:
            return g, budget


def _prime_factors(x: int) -> list[int]:
    """Distinct prime factors of x >= 1, ascending.

    Composites are split by Pollard rho within _RHO_BUDGET steps per
    call; a cofactor left unsplit raises ResourceLimitError.  A probable
    prime at or above _MR_LIMIT cannot be proved prime here, so it
    raises ResourceLimitError instead of risking a wrong answer.
    """
    found = set()
    for p in _MR_BASES:
        if p * p > x:
            break
        if x % p == 0:
            found.add(p)
            while x % p == 0:
                x //= p
    pending = [x] if x > 1 else []
    budget = _RHO_BUDGET
    while pending:
        y = pending.pop()
        if y < 43 * 43:
            # No prime below 43 divides y, or none up to sqrt(y): y is prime.
            d = y
        elif not _miller_rabin(y):
            d, budget = _rho_factor(y, budget)
        elif y < _MR_LIMIT:
            d = y
        else:
            raise ResourceLimitError(f"probable prime factor {y} is past the proof bound {_MR_LIMIT}")
        if d == y:
            found.add(y)
        else:
            pending += [d, y // d]
    return sorted(found)


def mult_order(r: int, m: int) -> int:
    """Least l >= 1 with r**l == 1 (mod m).

    Requires m >= 2 and gcd(r, m) == 1.  The order divides phi(m), so
    each prime of phi(m) is stripped from phi(m) while r still reaches
    1.  Factoring m and phi(m) costs about m**(1/4) steps of Pollard
    rho at worst; a cofactor rho cannot split within its budget, or a
    probable prime factor at or above _MR_LIMIT, raises
    ResourceLimitError.
    """
    if m < 2:
        raise ValueError(f"mult_order needs a modulus >= 2, got {m}")
    if gcd(r, m) != 1:
        raise ValueError(f"r = {r} is not a unit modulo {m}")
    phi = m
    for p in _prime_factors(m):
        phi -= phi // p
    order = phi
    for p in _prime_factors(phi):
        while order % p == 0 and pow(r, order // p, m) == 1:
            order //= p
    return order


def geom_sum(r: int, x: int) -> int:
    """Exact 1 + r + ... + r**(x-1), x >= 0: the tests' reference for geom_sum_mod."""
    if x < 0:
        raise ValueError(f"geom_sum needs x >= 0, got {x}")
    if r == 1:
        return x
    return (r**x - 1) // (r - 1)


def geom_sum_mod(r: int, x: int, modulus: int) -> int:
    """1 + r + r**2 + ... + r**(x-1) reduced modulo ``modulus``.

    Computed without any division through the doubling recursion

        S(2k)   = S(k) * (1 + r**k)
        S(2k+1) = S(2k) + r**(2k)

    so r - 1 need not be invertible.  x = 0 gives 0; x < 0 raises.
    """
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    if x < 0:
        raise ValueError(f"geom_sum_mod needs x >= 0, got {x}")
    r %= modulus
    result = 0
    power = 1  # r**k for the prefix length k built up so far
    for bit in bin(x)[2:] if x else "":
        result = result * (1 + power) % modulus
        power = power * power % modulus
        if bit == "1":
            result = (result + power) % modulus
            power = power * r % modulus
    return result


def capital_k(params) -> int:
    """Order-bound constant attached to a validated parameter tuple.

    k = gcd( m/(m,s),  2*lcm(s,r-1)/(m,s),  n*lcm(s,r-1)**2/(m,s)**2,
             geom_sum(r, o(b)) )

    with o(b) = n*m/(m,s).  The geometric-sum argument is reduced
    modulo the partial gcd of the other three terms, so the value never
    has to be expanded as a full integer.  k is odd whenever m is odd,
    because k divides m/(m,s).
    """
    m, n, r, s = params.m, params.n, params.r, params.s
    d = gcd(m, s)
    q = lcm(s, r - 1)
    o_b = n * (m // d)
    partial = gcd(m // d, 2 * q // d, n * q * q // (d * d))
    return gcd(partial, geom_sum_mod(r, o_b, partial))
