"""Closed-form presentations and structures built on the tensor square.

For a group G the group nu(G) is generated by two commuting copies of G
subject to the crossed conjugation relations between them; the subgroup
generated by the cross commutators is the non-abelian tensor square
G (x) G, the quotient by the diagonal elements g (x) g is the exterior
square, and the kernel of the commutator map out of the exterior square
is the Schur multiplier.

For the metacyclic groups in scope (odd m) everything is explicit: the
tensor square is abelian on the four generators u, v, w, z subject to
the eight relations of :func:`tensor_relators`, nu(G) has the fixed
43-relator presentation of :func:`nu_presentation`, the
exterior square is cyclic of order gcd(m, E, s) with
E = 1 + r + ... + r**(n-1), and the Schur multiplier is the cyclic
quotient of that by t = m / gcd(m, r - 1).

Relator words are tuples of (generator_index, exponent) pairs; factors
with exponent 0 are dropped from the word but the relator count of a
schema never changes.  Every exponent is a bounded integer: E enters
the words reduced into [1, lcm(e_u, e_z)] (see :func:`tensor_descriptor`),
so no closed form expands r**n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd, lcm

from . import numth
from .abgrp import AbelianStructure, quotient_structure
from .errors import FormulaInconsistencyError, TensqError
from .metagrp import GroupParams

Word = tuple[tuple[int, int], ...]

NU_GENERATORS = ("x1", "y1", "x2", "y2", "u", "v", "w", "z")
TENSOR_GENERATORS = ("u", "v", "w", "z")


@dataclass(frozen=True)
class Presentation:
    """A finite presentation: generator names plus relator words."""

    name: str
    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        if not all(self.relators):
            raise TensqError(f"{self.name}: empty relator")


@dataclass(frozen=True)
class TensorDescriptor:
    """Exponent table of the tensor-square relation matrix.

    e_u, e_v, e_w, e_z are the generator order exponents; s, n and
    big_e appear in the cross relations.  big_e is E = 1 + r + ... +
    r**(n-1) reduced into [1, lcm(e_u, e_z)].
    """

    e_u: int
    e_v: int
    e_w: int
    e_z: int
    s: int
    n: int
    big_e: int


@dataclass(frozen=True)
class SectionReport:
    """The abelian sections attached to one parameter tuple."""

    tensor: AbelianStructure
    exterior: AbelianStructure
    schur: AbelianStructure
    delta_order: int
    nu_order_predicted: int


def _word(*factors: tuple[int, int]) -> Word:
    return tuple((g, e) for g, e in factors if e)


def _comm(i: int, j: int) -> Word:
    # [g_i, g_j] = g_i^-1 g_j^-1 g_i g_j
    return ((i, -1), (j, -1), (i, 1), (j, 1))


def _cyclic(order: int) -> AbelianStructure:
    if order < 1:
        raise TensqError(f"cyclic group of order {order} requested")
    return AbelianStructure(() if order == 1 else (order,))


def tensor_descriptor(params: GroupParams) -> TensorDescriptor:
    """Exponents of the tensor-square relations for one tuple.

    Geometric sums are reduced modulo the gcd of the remaining terms of
    their gcd chain, so nothing grows beyond machine-friendly size.
    """
    inv = params.inv
    m, n, r, s = params.m, params.n, params.r, params.s
    sk = s * inv.k
    part_u = gcd(m, sk)
    e_u = gcd(part_u, numth.geom_sum_mod(r, inv.o_b, part_u))
    e_v = gcd(m, r - 1)
    e_w = n * gcd(inv.k, r - 1)
    part_z = gcd(inv.oprime_a, inv.oprime_b, sk)
    e_z = gcd(part_z, numth.geom_sum_mod(r, inv.oprime_b, part_z))
    # E only ever multiplies u and z, and u^e_u and z^e_z are relators of
    # nu(G), of G (x) G and of the row lattice, so E is needed modulo
    # lcm(e_u, e_z) only.  Taking the representative in [1, L] rather
    # than [0, L) keeps v^s u^-E non-empty when s = 0.
    period = lcm(e_u, e_z)
    return TensorDescriptor(
        e_u=e_u,
        e_v=e_v,
        e_w=e_w,
        e_z=e_z,
        s=s,
        n=n,
        big_e=numth.geom_sum_mod(r, n, period) or period,
    )


def tensor_relators(desc: TensorDescriptor, u: int, v: int, w: int, z: int) -> list[Word]:
    """The eight relations of G (x) G as words on generator indices u, v, w, z.

    The orders of v, w, u and z, then the cross relations
    u^s = w^n = (u^-1 z)^s and v^s = u^E = (u^-1 z)^E, two words per
    chained equality.
    """
    s, n, big_e = desc.s, desc.n, desc.big_e
    return [
        _word((v, desc.e_v)),
        _word((w, desc.e_w)),
        _word((u, desc.e_u)),
        _word((z, desc.e_z)),
        _word((u, s), (w, -n)),
        _word((w, n), (u, s), (z, -s)),
        _word((v, s), (u, -big_e)),
        _word((v, s), (u, big_e), (z, -big_e)),
    ]


def tensor_structure(params: GroupParams) -> AbelianStructure:
    """Canonical invariant factors of G (x) G."""
    ngens = len(TENSOR_GENERATORS)
    rows = []
    for word in tensor_relators(tensor_descriptor(params), *range(ngens)):
        row = {}
        for g, e in word:
            row[g] = row.get(g, 0) + e
        rows.append(row)
    return quotient_structure(rows, ngens).structure


def exterior_order(params: GroupParams) -> int:
    """Order of the exterior square: gcd(m, 1 + r + ... + r**(n-1), s)."""
    partial = gcd(params.m, params.s)
    return gcd(partial, numth.geom_sum_mod(params.r, params.n, partial))


def exterior_and_schur(params: GroupParams) -> SectionReport:
    """Tensor, exterior and multiplier structures with order identities.

    The multiplier order is |exterior| / t with t = m / gcd(m, r - 1);
    that quotient is exact for every tuple in scope, but both divisions
    here are still guarded so a bad closed form fails loudly instead of
    returning a wrong report.
    """
    t = params.inv.t_derived
    tensor = tensor_structure(params)
    ext = exterior_order(params)
    where = f"(m, n, r, s) = ({params.m}, {params.n}, {params.r}, {params.s})"
    if ext % t:
        raise FormulaInconsistencyError(
            f"exterior order {ext} not divisible by t = {t} for {where}"
        )
    if tensor.order % ext:
        raise FormulaInconsistencyError(
            f"tensor order {tensor.order} not divisible by exterior order {ext} for {where}"
        )
    return SectionReport(
        tensor=tensor,
        exterior=_cyclic(ext),
        schur=_cyclic(ext // t),
        delta_order=tensor.order // ext,
        nu_order_predicted=params.order**2 * tensor.order,
    )


def upsilon_order_bounds(params: GroupParams) -> dict[str, int]:
    """Proved order bounds for the four tensor-square generators."""
    desc = tensor_descriptor(params)
    return {"u": desc.e_u, "v": desc.e_v, "w": desc.e_w, "z": desc.e_z}


def nu_presentation(params: GroupParams) -> Presentation:
    """The fixed 43-relator presentation of nu(G) on eight generators.

    Generator order is x1, y1, x2, y2, u, v, w, z where x/y are the two
    commuting copies of a/b, u = [x1, y2], v = [x1, x2], w = [y1, y2]
    and [y1, x2] = u^-1 z.  The relator schema never changes shape;
    only the integer exponents depend on (m, n, r, s).
    """
    desc = tensor_descriptor(params)
    m, n, r, s = params.m, params.n, params.r, params.s
    x1, y1, x2, y2, u, v, w, z = range(8)
    relators = [
        _word((x1, m)),
        _word((x2, m)),
        _word((y1, n), (x1, -s)),
        _word((y2, n), (x2, -s)),
        _word(*_comm(x1, y1), (x1, -(r - 1))),
        _word(*_comm(x2, y2), (x2, -(r - 1))),
        _word(*_comm(x1, y2), (u, -1)),
        _word(*_comm(x1, x2), (v, -1)),
        _word(*_comm(y1, y2), (w, -1)),
        _word(*_comm(y1, x2), (z, -1), (u, 1)),
        *tensor_relators(desc, u, v, w, z),
        _word(*_comm(u, x1)),
        _word(*_comm(u, x2)),
        _word((y1, -1), (u, 1), (y1, 1), (u, -r)),
        _word((y2, -1), (u, 1), (y2, 1), (u, -r)),
    ]
    for c in (v, w, z):
        for g in range(8):
            if g != c:
                relators.append(_word(*_comm(c, g)))
    return Presentation(
        name=f"nu(g({m},{n};{r},{s}))",
        generators=NU_GENERATORS,
        relators=tuple(relators),
    )


def tensor_presentation(params: GroupParams) -> Presentation:
    """Abelian presentation of G (x) G on the generators u, v, w, z."""
    gens = range(len(TENSOR_GENERATORS))
    relators = tensor_relators(tensor_descriptor(params), *gens)
    relators += [_comm(i, j) for i, j in combinations(gens, 2)]
    return Presentation(
        name=f"g({params.m},{params.n};{params.r},{params.s}) tensor square",
        generators=TENSOR_GENERATORS,
        relators=tuple(relators),
    )


def presentation_to_text(pres: Presentation) -> str:
    """Serialize to the line-oriented text format.

    Header line, then the generator list, then one relator per line with
    every factor written name^exponent and factors joined by " * ".
    """
    lines = ["tensq-pres v1", "gens: " + " ".join(pres.generators)]
    for rel in pres.relators:
        lines.append(" * ".join(f"{pres.generators[g]}^{e}" for g, e in rel))
    return "\n".join(lines) + "\n"


def presentation_to_gap(pres: Presentation) -> str:
    """Serialize to a GAP input fragment defining G := F / rels."""
    gens = ", ".join(f'"{g}"' for g in pres.generators)
    body = []
    for rel in pres.relators:
        body.append(
            "  "
            + "*".join(
                pres.generators[g] if e == 1 else f"{pres.generators[g]}^{e}"
                for g, e in rel
            )
        )
    lines = [
        f"F := FreeGroup( {gens} );;",
        "AssignGeneratorVariables( F );;",
        "rels := [",
        ",\n".join(body),
        "];;",
        "G := F / rels;;",
    ]
    return "\n".join(lines) + "\n"
