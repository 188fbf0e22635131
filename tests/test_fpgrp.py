import random
from pathlib import Path

import pytest

from tensq import fpgrp, metagrp
from tensq.fpgrp import (
    DEFAULT_MAX_COSETS,
    PresentationSyntaxError,
    certify_nu_order,
    parse_presentation,
    todd_coxeter,
)
from tensq.presentations import (
    NU_GENERATORS,
    Presentation,
    nu_presentation,
    presentation_to_text,
    tensor_presentation,
)
import reference
from support import IDENTITY, enumerate_valid_tuples

DATA = Path(__file__).parent / "data"


def pres(gens, relators):
    return Presentation(generators=gens, relators=relators)


CLASSICS = [
    (pres(("x",), (((0, 5),),)), 5),
    (pres(("x",), (((0, 1),),)), 1),
    # Klein four group
    (pres(("x", "y"), (((0, 2),), ((1, 2),), ((0, -1), (1, -1), (0, 1), (1, 1)))), 4),
    # S3 as <x, y | x^2, y^3, (xy)^2>
    (pres(("x", "y"), (((0, 2),), ((1, 3),), ((0, 1), (1, 1), (0, 1), (1, 1)))), 6),
    # quaternion group
    (pres(("x", "y"), (((0, 4),), ((0, 2), (1, -2)), ((1, -1), (0, 1), (1, 1), (0, 1)))), 8),
]


def test_enumeration_classics():
    for presentation, order in CLASSICS:
        result = todd_coxeter(presentation)
        assert result.order == order


def inverse(word):
    return tuple((gen, -exp) for gen, exp in reversed(word))


def test_relator_normalization_leaves_the_order_unchanged():
    # Relators are deduplicated up to inversion and rotation and scanned
    # shortest first; none of these rewrites changes the normal closure.
    # ((0, 0),) spells the empty word, which Presentation cannot hold.
    rng = random.Random(20261020)
    cases = CLASSICS + [(nu_presentation(metagrp.validate(3, 2, 2, 0)), 216)]
    for presentation, order in cases:
        relators = list(presentation.relators)
        shuffled = relators[:]
        rng.shuffle(shuffled)
        k = rng.randrange(len(relators))
        variants = [
            relators[::-1],
            shuffled,
            [inverse(w) for w in relators],
            [w[1:] + w[:1] for w in relators],
            relators + [inverse(relators[k][1:] + relators[k][:1]), relators[k]],
            [((0, 0),)] + relators,
        ]
        for variant in variants:
            result = todd_coxeter(pres(presentation.generators, tuple(variant)))
            assert result.order == order, (presentation, variant)


def random_presentation(rng):
    ngens = rng.choice((2, 3))
    relators = []
    for _ in range(rng.randint(ngens, ngens + 2)):
        word, prev = [], None
        for _ in range(rng.randint(1, 5)):
            gen = rng.choice([g for g in range(ngens) if g != prev])
            word.append((gen, rng.choice((1, 2, 3, 4, -1, -2, -3))))
            prev = gen
        relators.append(tuple(word))
    return pres(("x", "y", "z")[:ngens], tuple(relators))


def test_enumeration_agrees_with_the_reference_on_random_presentations():
    # The reference scans the relators as listed and keeps dead rows; the
    # strategies differ, so either may overflow alone, but a closed table
    # gives the group order.
    rng = random.Random(20261021)
    orders = []
    for _ in range(400):
        presentation = random_presentation(rng)
        new = todd_coxeter(presentation, max_cosets=3000)
        old = reference.todd_coxeter(presentation, max_cosets=3000)
        if new.order is not None and old.order is not None:
            assert new.order == old.order, presentation
            orders.append(new.order)
    assert len(orders) >= 300
    assert len(set(orders)) >= 20


def test_enumeration_over_a_subgroup_gives_its_index():
    s3 = pres(("x", "y"), (((0, 2),), ((1, 3),), ((0, 1), (1, 1), (0, 1), (1, 1))))
    x, y = ((0, 1),), ((1, 1),)
    assert todd_coxeter(s3, subgroup=(x,)).order == 3
    assert todd_coxeter(s3, subgroup=(y,)).order == 2
    assert todd_coxeter(s3, subgroup=(x, y)).order == 1


def test_enumeration_overflow_is_a_value():
    result = todd_coxeter(pres(("x",), (((0, 5),),)), max_cosets=2)
    assert result.order is None
    assert result.cosets_used == 2
    with pytest.raises(AttributeError):
        result.order = 5


def test_parse_minimal():
    p = parse_presentation("gens: x\nx^5\n")
    assert p.generators == ("x",)
    assert p.relators == (((0, 5),),)


def test_parse_header_commas_and_bare_names():
    p = parse_presentation("tensq-pres v1\ngens: x, y\n\nx * y^2\ny^-1 * x\n")
    assert p.generators == ("x", "y")
    assert p.relators == (((0, 1), (1, 2)), ((1, -1), (0, 1)))


@pytest.mark.parametrize(
    "text,line,column,fragment",
    [
        ("gens: x\nx^", 2, 3, "integer exponent"),
        ("gens: x\nx^0", 2, 3, "zero exponent"),
        ("gens: x\ny^2", 2, 1, "unknown generator"),
        ("gens: x\nx^2 x^3", 2, 5, "expected '*'"),
        ("gens: x\nx^2 *", 2, 6, "generator name"),
        ("x^2\n", 1, 1, "gens:"),
        ("", 1, 1, "gens:"),
        ("gens: x x\nx^2", 1, 1, "duplicate"),
        ("gens: 2x\n", 1, 1, "bad generator name"),
        ("gens:\nx^2", 1, 1, "no generators"),
        pytest.param("gens: x\nx^" + "9" * 5000, 2, 3, "too many digits", id="long-exponent"),
    ],
)
def test_parse_errors(text, line, column, fragment):
    with pytest.raises(PresentationSyntaxError) as info:
        parse_presentation(text)
    err = info.value
    assert err.line == line
    assert err.column == column
    assert fragment in str(err)


def test_round_trip_nu_and_tensor():
    # Two hand-picked tuples, a seeded draw over |G| <= 2000, and two
    # tuples with m, n near 10^6 and 10^9 whose exact E has millions of
    # digits.  Every exponent must stay within |G|.
    pool = enumerate_valid_tuples(2000, include_s_zero=True)
    tuples = [metagrp.validate(3, 2, 2, 0), metagrp.validate(9, 3, 4, 3)]
    tuples += random.Random(20251018).sample(pool, 300)
    tuples += [metagrp.validate(931657, 116457, 917707, 0),
               metagrp.validate(1000000007, 1000000006, 5, 0)]
    for p in tuples:
        for build in (nu_presentation, tensor_presentation):
            original = build(p)
            parsed = parse_presentation(presentation_to_text(original))
            assert parsed == original, p
            assert all(abs(e) <= p.order for word in original.relators for _, e in word), p

    # Seeded character mutations of two emitted texts: each mutant either
    # parses, and its own text re-parses to the same presentation, or
    # raises PresentationSyntaxError.
    rng = random.Random(20251019)
    alphabet = "\t\r\n :*^-0123456789xyuvwz_\u00e9\u2028\u00a0\u0663"
    texts = [
        presentation_to_text(build(metagrp.validate(*t)))
        for t in ((3, 2, 2, 0), (9, 3, 4, 3))
        for build in (nu_presentation, tensor_presentation)
    ]
    outcomes = {"parsed": 0, "rejected": 0}
    for _ in range(2000):
        chars = list(rng.choice(texts))
        for _ in range(rng.randint(1, 3)):
            pos = rng.randrange(len(chars))
            edit = rng.choice(["insert", "delete", "replace"])
            if edit == "delete":
                del chars[pos]
            elif edit == "insert":
                chars.insert(pos, rng.choice(alphabet))
            else:
                chars[pos] = rng.choice(alphabet)
        mutant = "".join(chars)
        try:
            parsed = parse_presentation(mutant)
        except PresentationSyntaxError:
            outcomes["rejected"] += 1
            continue
        again = parse_presentation(presentation_to_text(parsed))
        assert again == parsed, mutant
        outcomes["parsed"] += 1
    assert all(outcomes.values()), outcomes


def test_golden_text_parses_to_nu():
    parsed = parse_presentation((DATA / "nu_3220.txt").read_text())
    original = nu_presentation(metagrp.validate(3, 2, 2, 0))
    assert parsed.generators == NU_GENERATORS
    assert parsed.relators == original.relators


def test_certify_small_group():
    result = certify_nu_order(metagrp.validate(3, 2, 2, 0))
    assert result.status == "PASS"
    assert result.predicted == 216
    assert result.enumerated == 216
    assert result.cosets_used == 75
    with pytest.raises(AttributeError):
        result.status = "FAIL"


def test_trivial_subgroup_enumeration_of_small_nu():
    # The definitional run, |nu(G)| cosets at least, that the H = <x1, y1>
    # certificate replaced.
    result = todd_coxeter(nu_presentation(metagrp.validate(3, 2, 2, 0)))
    assert result.order == 216
    assert result.cosets_used == 402


def test_certify_reaches_past_the_trivial_subgroup_budget():
    # Over the trivial subgroup (13,3,3,0) takes 399,199 cosets and
    # (7,6,2,0) more than 4*10^5.
    for tup, order, cosets in (((7, 6, 2, 0), 74088, 8438), ((13, 3, 3, 0), 59319, 7802)):
        result = certify_nu_order(metagrp.validate(*tup))
        assert result.status == "PASS", tup
        assert result.enumerated == result.predicted == order, tup
        assert result.cosets_used == cosets, tup


def evaluate(word, images, p):
    out = IDENTITY
    for gen, exp in word:
        out = metagrp.mul(out, metagrp.power(images[gen], exp, p), p)
    return out


def test_projection_to_g_kills_every_nu_relator():
    # x1 -> a, y1 -> b, every other generator -> 1 is a homomorphism
    # nu(G) -> G mapping H = <x1, y1> onto G: the |H| >= |G| half of the
    # certificate's |H| = mn.
    images = [metagrp.Element(0, 1), metagrp.Element(1, 0)] + [IDENTITY] * 6
    for p in enumerate_valid_tuples(100, include_s_zero=True):
        for word in nu_presentation(p).relators:
            assert evaluate(word, images, p) == IDENTITY, (p, word)


def test_certificate_agrees_with_the_trivial_subgroup_run():
    pool = enumerate_valid_tuples(21, include_s_zero=True)
    assert len(pool) == 11
    for p in pool:
        full = todd_coxeter(nu_presentation(p))
        assert full.order is not None, p
        assert certify_nu_order(p).enumerated == full.order, p


def test_certificate_agrees_with_the_reference_enumerator(monkeypatch):
    pool = enumerate_valid_tuples(30, include_s_zero=True)
    new = [certify_nu_order(p) for p in pool]
    monkeypatch.setattr(fpgrp, "todd_coxeter", reference.todd_coxeter)
    old = [certify_nu_order(p) for p in pool]
    for p, a, b in zip(pool, new, old):
        assert a.status == b.status == "PASS", p
        assert a.enumerated == b.enumerated, p
        assert a.cosets_used <= b.cosets_used, p


def test_certify_inconclusive_on_tiny_table():
    result = certify_nu_order(metagrp.validate(3, 2, 2, 0), max_cosets=10)
    assert result.status == "INCONCLUSIVE"
    assert result.predicted == 216
    assert result.enumerated is None
    assert result.cosets_used == 10


def test_certify_skips_enumeration_when_g_exceeds_the_table(monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("todd_coxeter called although |G| > max_cosets")

    monkeypatch.setattr(fpgrp, "todd_coxeter", no_enumeration)
    result = certify_nu_order(metagrp.validate(9, 3, 4, 3), max_cosets=20)
    assert result.status == "INCONCLUSIVE"
    assert result.predicted == 59049
    assert result.enumerated is None
    assert result.cosets_used == 0


def test_default_budget_is_generous():
    assert DEFAULT_MAX_COSETS >= 10**5
