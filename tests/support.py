"""Names only the tests use: the identity element and the validated tuple list."""

from tensq import metagrp

IDENTITY = metagrp.Element(0, 0)


def enumerate_valid_tuples(max_order: int, include_s_zero: bool = False) -> list[metagrp.GroupParams]:
    """The tuples of metagrp.iter_valid_tuples, validated, as a list."""
    return [metagrp.validate(*t) for t in metagrp.iter_valid_tuples(max_order, include_s_zero)]
