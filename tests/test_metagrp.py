import pytest

from tensq import metagrp, numth
from tensq.errors import OutOfScopeError, ResourceLimitError, ValidationError
from tensq.metagrp import Element
from support import IDENTITY, enumerate_valid_tuples


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


BRUTE_ORDER_LIMIT = 10_000


def brute_invariants(p):
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

    # Closure of the center generators a^t and b^l, l the order of r mod m.
    gen_a = (0, closed.t_derived % m)
    gen_b = (1, 0)
    for _ in range(numth.mult_order(r, m) - 1):
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


def test_value_types_are_immutable_keys_and_cache_their_invariants():
    p = metagrp.validate(3, 2, 2, 0)
    assert p == metagrp.GroupParams(3, 2, 2, 0)
    assert repr(p) == "GroupParams(m=3, n=2, r=2, s=0)"
    assert p.inv is p.inv
    for obj, field in ((p, "m"), (p.inv, "o_b"), (Element(1, 2), "beta")):
        with pytest.raises(AttributeError):
            setattr(obj, field, 0)
    index = {g: i for i, g in enumerate(metagrp.elements(p))}
    assert index[Element(1, 0)] == 3
    derived = metagrp.derived_subgroup(p)
    assert type(derived) is frozenset
    assert all(type(g) is Element for g in derived)
    assert derived == {Element(0, 0), Element(0, 1), Element(0, 2)}


def test_inverse_on_full_enumeration():
    p = metagrp.validate(9, 3, 4, 3)
    for g in metagrp.elements(p):
        assert metagrp.mul(g, metagrp.inverse(g, p), p) == IDENTITY
        assert metagrp.mul(metagrp.inverse(g, p), g, p) == IDENTITY


def test_mul_associativity_full_sweep():
    for p in enumerate_valid_tuples(60, include_s_zero=True):
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
    for p in enumerate_valid_tuples(60, include_s_zero=True):
        els = metagrp.elements(p)
        for g in els:
            ginv = metagrp.inverse(g, p)
            for h in els:
                expected = metagrp.mul(metagrp.mul(ginv, h, p), g, p)
                assert metagrp.conj(h, g, p) == expected, (p, g, h)


def test_power_matches_repeated_mul_full_sweep():
    for p in enumerate_valid_tuples(60, include_s_zero=True):
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
    for p in enumerate_valid_tuples(200, include_s_zero=True):
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
    assert brute_invariants(p) == []
    assert p.inv.o_b == 2
    p = metagrp.validate(9, 3, 4, 3)
    assert brute_invariants(p) == []
    assert p.inv.t_derived == 3
    assert p.inv.oprime_b == 3


def test_brute_invariants_bound():
    # |G| = 10002 is just past BRUTE_ORDER_LIMIT; the guard fires before any enumeration.
    with pytest.raises(ResourceLimitError):
        brute_invariants(metagrp.validate(3, 3334, 2, 0))


def test_enumerate_valid_tuples_scope():
    tuples = enumerate_valid_tuples(45)
    assert all(p.s > 0 for p in tuples)
    assert len(tuples) == 18
    with_zero = enumerate_valid_tuples(45, include_s_zero=True)
    assert set(tuples) <= set(with_zero)
    assert all(p.order <= 45 for p in with_zero)
    assert metagrp.GroupParams(3, 2, 2, 0) in with_zero
    # ordering is deterministic
    assert with_zero == sorted(with_zero, key=lambda p: (p.m, p.n, p.r, p.s))


def test_enumerate_valid_tuples_is_the_validated_generator():
    # validate accepts every generated tuple and leaves it as it is.
    for include_s_zero in (False, True):
        listed = [(p.m, p.n, p.r, p.s) for p in enumerate_valid_tuples(300, include_s_zero)]
        assert listed == list(metagrp.iter_valid_tuples(300, include_s_zero))


def test_iter_valid_tuples_yields_every_valid_tuple():
    # Against the definition: every (m, n, r, s) that validate accepts,
    # with s already in [0, m), in (m, n, r, s) order.
    for include_s_zero in (False, True):
        accepted = []
        for m in range(1, 51):
            for n in range(1, 100 // m + 1):
                for r in range(m):
                    for s in range(0 if include_s_zero else 1, m):
                        try:
                            metagrp.validate(m, n, r, s)
                        except ValidationError:
                            continue
                        accepted.append((m, n, r, s))
        assert list(metagrp.iter_valid_tuples(100, include_s_zero)) == accepted
