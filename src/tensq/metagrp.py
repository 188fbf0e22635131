"""Finite metacyclic groups  G = < a, b | a^m = 1, b^n = a^s, a^b = a^r >.

Every element has a unique normal form b^beta * a^alpha with
0 <= beta < n and 0 <= alpha < m, stored as an :class:`Element`.
The defining data must satisfy the congruences

    r**n == 1 (mod m)        s*(r - 1) == 0 (mod m)

together with gcd(r, m) == 1.  Only odd m is supported, and r > 1 so
that the group is non-abelian.  The multiplication rule follows from
a^alpha * b^beta = b^beta * a^(alpha * r^beta).

Closed forms used throughout (all re-checked against enumeration by
``brute_invariants`` in tests/test_metagrp.py):

    o(a) = m                     o(b)  = n*m/(m,s)
    G'   = <a^(r-1)> = C_t       t     = m/(m,r-1)
    o'(a) = (m, r-1)             o'(b) = n*(m, lcm(s, r-1))/(m, s)

where o'(g) is the order of the image of g in G/G'.  The centre is
Z(G) = <a^t, b^l>, l the multiplicative order of r mod m, which the
tests check by enumeration.  No closed form reads l, and finding it
fast means factoring phi(m), so it is not computed here.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import cached_property
from math import gcd, lcm

from . import numth
from .errors import OutOfScopeError, ValidationError

# Every integer tensq prints is at most m^6 n^3, since |nu(G)| = (mn)^2
# |G (x) G| and |G (x) G| <= m^4 n.  With m and n below 10^400 that stays
# under Python's 4300-digit limit on int-to-str conversion.
DIGIT_LIMIT = 400
_DIGIT_BOUND = 10**DIGIT_LIMIT


class GroupParams(namedtuple("GroupParams", "m n r s")):
    """A validated parameter tuple (m, n, r, s) of ints.

    It declares no ``__slots__``, so each instance has the dict that
    caches ``inv``.
    """

    @property
    def order(self) -> int:
        return self.m * self.n

    @cached_property
    def inv(self) -> DerivedInvariants:
        """The closed-form invariants, computed once per tuple."""
        return derived_invariants(self)


class Element(namedtuple("Element", "beta alpha")):
    """Normal form b^beta * a^alpha of a group element."""

    __slots__ = ()


def validate(m: int, n: int, r: int, s: int) -> GroupParams:
    """Check the defining conditions and return a validated tuple.

    Every violated condition is reported.  s is normalized into
    [0, m) first.  Even m raises :class:`OutOfScopeError`, a subclass
    of :class:`ValidationError`, since only odd m is modelled.  m or n
    of more than DIGIT_LIMIT digits is rejected before any other check.
    """
    oversized = [
        f"{name} has more than {DIGIT_LIMIT} digits; m and n are limited to {DIGIT_LIMIT} digits"
        for name, x in (("m", m), ("n", n))
        if abs(x) >= _DIGIT_BOUND
    ]
    if oversized:
        raise ValidationError(oversized)
    violations = []
    out_of_scope = False
    if m < 1:
        violations.append(f"m must be a positive integer, got {m}")
    elif m % 2 == 0:
        out_of_scope = True
        violations.append(f"m = {m} is even and out of scope; only odd m is modelled")
    elif m < 3:
        violations.append("m = 1 gives a cyclic group; m >= 3 is required")
    if n < 1:
        violations.append(f"n must be a positive integer, got {n}")
    if m >= 1:
        s = s % m
    else:
        violations.append(f"s = {s} cannot be normalized into [0, m) without a valid m")
    if m >= 3:
        if not 1 < r < m:
            violations.append(f"r = {r} must lie strictly between 1 and m = {m}")
        if gcd(r, m) != 1:
            violations.append(f"gcd(r, m) must be 1, got gcd({r}, {m}) = {gcd(r, m)}")
        if n >= 1 and gcd(r, m) == 1 and pow(r, n, m) != 1:
            violations.append(f"r**n == 1 (mod m) fails: {r}**{n} % {m} = {pow(r, n, m)}")
        if s * (r - 1) % m != 0:
            violations.append(
                f"s*(r-1) == 0 (mod m) fails: {s}*{r - 1} % {m} = {s * (r - 1) % m}"
            )
    if violations:
        if out_of_scope:
            raise OutOfScopeError(violations)
        raise ValidationError(violations)
    return GroupParams(m, n, r, s)


def elements(p: GroupParams) -> list[Element]:
    """All group elements in the fixed enumeration order."""
    return [Element(beta, alpha) for beta in range(p.n) for alpha in range(p.m)]


def mul(g: Element, h: Element, p: GroupParams) -> Element:
    """Product g*h in normal form."""
    beta = g.beta + h.beta
    alpha = h.alpha + g.alpha * pow(p.r, h.beta, p.m)
    if beta >= p.n:
        beta -= p.n
        alpha += p.s
    return Element(beta, alpha % p.m)


def inverse(g: Element, p: GroupParams) -> Element:
    """Inverse of g.

    Uses g^-1 = b^-beta * a^(-alpha * r^-beta) and, for beta > 0,
    b^-beta = b^(n-beta) * a^-s, which is valid because
    s*(r^beta - 1) == 0 (mod m).
    """
    if g.beta == 0:
        return Element(0, -g.alpha % p.m)
    rinv = pow(p.r, -1, p.m)
    alpha = (-p.s - g.alpha * pow(rinv, g.beta, p.m)) % p.m
    return Element(p.n - g.beta, alpha)


def conj(h: Element, g: Element, p: GroupParams) -> Element:
    """Conjugate h^g = g^-1 * h * g."""
    alpha = h.alpha * pow(p.r, g.beta, p.m) + g.alpha * (1 - pow(p.r, h.beta, p.m))
    return Element(h.beta, alpha % p.m)


def power(g: Element, sigma: int, p: GroupParams) -> Element:
    """Power g**sigma via b-exponent reduction and a geometric sum."""
    if sigma < 0:
        return power(inverse(g, p), -sigma, p)
    x = pow(p.r, g.beta, p.m)
    e = numth.geom_sum_mod(x, sigma, p.m)
    q, beta = divmod(sigma * g.beta, p.n)
    return Element(beta, (p.s * q + g.alpha * e) % p.m)


class DerivedInvariants(namedtuple("DerivedInvariants", "o_b t_derived oprime_a oprime_b k")):
    """Closed-form invariants of the group; o(a) = m and |G| = mn are on GroupParams.

    t_derived is |G'| = m/(m, r-1).
    """

    __slots__ = ()


def derived_invariants(p: GroupParams) -> DerivedInvariants:
    d = gcd(p.m, p.s)
    return DerivedInvariants(
        o_b=p.n * p.m // d,
        t_derived=p.m // gcd(p.m, p.r - 1),
        oprime_a=gcd(p.m, p.r - 1),
        oprime_b=p.n * gcd(p.m, lcm(p.s, p.r - 1)) // d,
        k=numth.capital_k(p),
    )


def derived_subgroup(p: GroupParams) -> frozenset[Element]:
    """G' = <a^(r-1)> as a set of elements."""
    da = gcd(p.m, p.r - 1)
    return frozenset(Element(0, alpha) for alpha in range(0, p.m, da))


def coset_order(g: Element, p: GroupParams, derived: frozenset[Element]) -> int:
    """Order o'(g) of the image of g in G/G', with G' given as ``derived``."""
    cur = g
    order = 1
    while cur not in derived:
        cur = mul(cur, g, p)
        order += 1
    return order


def iter_valid_tuples(max_order: int, include_s_zero: bool = False) -> Iterator[tuple[int, int, int, int]]:
    """Yield every valid (m, n, r, s) with m*n <= max_order, ordered by (m, n, r, s).

    s runs over the multiples of m/(m, r-1) in [0, m); s = 0 only when
    requested.  The tuples are not passed through :func:`validate`, and
    nothing is kept, so a sweep of any size runs in constant memory.
    """
    for m in range(3, max_order // 2 + 1, 2):
        for n in range(2, max_order // m + 1):
            for r in range(2, m):
                if gcd(r, m) != 1 or pow(r, n, m) != 1:
                    continue
                step = m // gcd(m, r - 1)
                for s in range(0 if include_s_zero else step, m, step):
                    yield m, n, r, s
