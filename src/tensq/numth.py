"""Exact number-theoretic helpers used by every other module.

All arithmetic is plain Python integer arithmetic.  Degenerate arguments
follow the usual divisor-lattice conventions, which ``math.gcd`` and
``math.lcm`` already implement:

    gcd(x, 0) = |x|      gcd(0, 0) = 0      lcm(x, 0) = 0

so expressions such as m/(m, s) stay well defined when s = 0.
"""

from __future__ import annotations

from math import gcd, lcm


def mult_order(r: int, m: int) -> int:
    """Least l >= 1 with r**l == 1 (mod m), by repeated multiplication.

    The tests' reference for the centre Z(G) = <a^t, b^l>, like geom_sum
    for geom_sum_mod; it takes up to m steps, so no closed form calls it.
    Requires m >= 2 and gcd(r, m) == 1.
    """
    if m < 2:
        raise ValueError(f"mult_order needs a modulus >= 2, got {m}")
    if gcd(r, m) != 1:
        raise ValueError(f"r = {r} is not a unit modulo {m}")
    x, order = r % m, 1
    while x != 1:
        x, order = x * r % m, order + 1
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
