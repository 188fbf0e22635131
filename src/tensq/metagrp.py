"""Finite metacyclic groups  G = < a, b | a^m = 1, b^n = a^s, a^b = a^r >.

Every element has a unique normal form b^beta * a^alpha with
0 <= beta < n and 0 <= alpha < m, stored as an :class:`Element`.
The defining data must satisfy the congruences

    r**n == 1 (mod m)        s*(r - 1) == 0 (mod m)

together with gcd(r, m) == 1.  Only odd m is supported, and r > 1 so
that the group is non-abelian.  The multiplication rule follows from
a^alpha * b^beta = b^beta * a^(alpha * r^beta).

Closed forms used throughout (all re-checked against enumeration by
:func:`brute_invariants`):

    o(a) = m                     o(b)  = n*m/(m,s)
    G'   = <a^(r-1)> = C_t       t     = m/(m,r-1)
    Z(G) = <a^t, b^l>            l     = mult_order(r, m)
    o'(a) = (m, r-1)             o'(b) = n*(m, lcm(s, r-1))/(m, s)

where o'(g) is the order of the image of g in G/G'.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm

from . import numth
from .errors import OutOfScopeError, ResourceLimitError, ValidationError

BRUTE_ORDER_LIMIT = 10_000

# Every integer tensq prints is at most m^6 n^3, since |nu(G)| = (mn)^2
# |G (x) G| and |G (x) G| <= m^4 n.  With m and n below 10^400 that stays
# under Python's 4300-digit limit on int-to-str conversion.
DIGIT_LIMIT = 400
_DIGIT_BOUND = 10**DIGIT_LIMIT


@dataclass(frozen=True)
class GroupParams:
    """A validated parameter tuple (m, n, r, s)."""

    m: int
    n: int
    r: int
    s: int

    @property
    def order(self) -> int:
        return self.m * self.n

    @cached_property
    def inv(self) -> DerivedInvariants:
        """The closed-form invariants, computed once per tuple."""
        return derived_invariants(self)


@dataclass(frozen=True)
class Element:
    """Normal form b^beta * a^alpha of a group element."""

    beta: int
    alpha: int


IDENTITY = Element(0, 0)


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


@dataclass(frozen=True)
class DerivedInvariants:
    """Closed-form invariants of the group; o(a) = m and |G| = mn are on GroupParams."""

    o_b: int
    t_derived: int  # |G'| = m/(m, r-1)
    l: int  # multiplicative order of r mod m
    oprime_a: int
    oprime_b: int
    k: int


def derived_invariants(p: GroupParams) -> DerivedInvariants:
    d = gcd(p.m, p.s)
    return DerivedInvariants(
        o_b=p.n * p.m // d,
        t_derived=p.m // gcd(p.m, p.r - 1),
        l=numth.mult_order(p.r, p.m),
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


def brute_invariants(p: GroupParams) -> list[str]:
    """Re-derive o(a), o(b), |G'|, o'(a), o'(b) and Z(G) by enumeration.

    Returns one line per invariant that differs from its closed form, so
    an empty list means agreement.  Elements are handled as raw
    (beta, alpha) pairs inside the loops; the commutator of x and y is
    computed as (yx)^-1 * (xy), whose normal form is
    a^(alpha(xy) - alpha(yx)) because both products carry the same
    b-exponent.
    """
    m, n, r, s = p.m, p.n, p.r, p.s
    if m * n > BRUTE_ORDER_LIMIT:
        raise ResourceLimitError(
            f"brute-force enumeration limited to |G| <= {BRUTE_ORDER_LIMIT}, got {m * n}"
        )
    rpow = [pow(r, b, m) for b in range(n)]
    pairs = [(beta, alpha) for beta in range(n) for alpha in range(m)]

    def mul_raw(b1, a1, b2, a2):
        b = b1 + b2
        a = a2 + a1 * rpow[b2]
        if b >= n:
            b -= n
            a += s
        return b, a % m

    def order_until(b0, a0, done):
        """Least k >= 1 with done(g**k) for g = b^b0 a^a0, by repeated multiplication."""
        cur, order = (b0, a0), 1
        while not done(cur):
            cur = mul_raw(cur[0], cur[1], b0, a0)
            order += 1
        return order

    def closure(gens, op, start):
        """Close {start} under op(element, generator)."""
        seen, frontier = {start}, [start]
        while frontier:
            d = frontier.pop()
            for e in gens:
                v = op(d, e)
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        return seen

    # Commutator values; [x, y]^-1 = [y, x], so ordered pairs one way
    # round still give a generating set of G'.
    comm_exps = set()
    for b1, a1 in pairs:
        for b2, a2 in pairs:
            xy = mul_raw(b1, a1, b2, a2)
            yx = mul_raw(b2, a2, b1, a1)
            comm_exps.add((xy[1] - yx[1]) % m)
    # Closure under addition mod m (all commutators are powers of a).
    derived_exps = closure(sorted(comm_exps), lambda d, e: (d + e) % m, 0)

    # Center by centralizing the two generators.
    center = {
        g for g in pairs
        if mul_raw(*g, 0, 1) == mul_raw(0, 1, *g) and mul_raw(*g, 1, 0) == mul_raw(1, 0, *g)
    }

    closed = p.inv

    # Closure of the closed-form center generators a^t and b^l.
    gen_a = (0, closed.t_derived % m)
    gen_b = (1, 0)
    for _ in range(closed.l - 1):
        gen_b = mul_raw(gen_b[0], gen_b[1], 1, 0)
    closed_center = closure((gen_a, gen_b), lambda d, e: mul_raw(*d, *e), (0, 0))

    def is_identity(g):
        return g == (0, 0)

    def in_derived(g):
        return g[0] == 0 and g[1] in derived_exps

    mismatches = []
    for name, got, want in [
        ("o(a)", order_until(0, 1, is_identity), m),
        ("o(b)", order_until(1, 0, is_identity), closed.o_b),
        ("|G'|", len(derived_exps), closed.t_derived),
        ("o'(a)", order_until(0, 1, in_derived), closed.oprime_a),
        ("o'(b)", order_until(1, 0, in_derived), closed.oprime_b),
    ]:
        if got != want:
            mismatches.append(f"{name}: enumerated {got}, closed form {want}")
    if center != closed_center:
        mismatches.append("Z(G) differs from <a^t, b^l>")
    return mismatches


def enumerate_valid_tuples(max_order: int, include_s_zero: bool = False) -> list[GroupParams]:
    """All validated tuples with m*n <= max_order, ordered by (m, n, r, s).

    s runs over the multiples of m/(m, r-1) in [0, m); s = 0 only when
    requested.
    """
    out = []
    for m in range(3, max_order // 2 + 1, 2):
        for n in range(2, max_order // m + 1):
            for r in range(2, m):
                if gcd(r, m) != 1 or pow(r, n, m) != 1:
                    continue
                step = m // gcd(m, r - 1)
                start = 0 if include_s_zero else step
                for s in range(start, m, step):
                    out.append(validate(m, n, r, s))
    return out
