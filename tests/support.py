"""Names only the tests use: the identity element, the validated tuple
list and the frozen panel of closed-form structures."""

from tensq import metagrp

IDENTITY = metagrp.Element(0, 0)

# (m, n, r, s) -> (tensor, exterior, schur, delta, nu order)
FROZEN = {
    (9, 3, 4, 3): ((3, 3, 3, 3), (3,), (), 27, 59049),
    (9, 3, 4, 0): ((3, 3, 3, 3), (3,), (), 27, 59049),
    (3, 2, 2, 0): ((6,), (3,), (), 2, 216),
    (7, 3, 2, 0): ((21,), (7,), (), 3, 9261),
    (5, 4, 2, 0): ((20,), (5,), (), 4, 8000),
    (9, 2, 8, 0): ((18,), (9,), (), 2, 5832),
    (3, 6, 2, 0): ((3, 6), (3,), (), 6, 5832),
    (7, 2, 6, 0): ((14,), (7,), (), 2, 2744),
    (15, 2, 11, 3): ((30,), (3,), (), 10, 27000),
    (21, 2, 8, 3): ((42,), (3,), (), 14, 74088),
}


def enumerate_valid_tuples(max_order: int, include_s_zero: bool = False) -> list[metagrp.GroupParams]:
    """The tuples of metagrp.iter_valid_tuples, validated, as a list."""
    return [metagrp.validate(*t) for t in metagrp.iter_valid_tuples(max_order, include_s_zero)]
