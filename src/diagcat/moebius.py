"""Moebius idempotents on the coarsening lattice and symmetrizers.

x(f) and x'(f) are one closed form over two sets of blocks of f:

    sum over partitions pi of the chosen blocks of
        mu(pi) * (f with each group of pi merged)

with mu the partition-lattice Moebius function mu(pi) = prod over groups B
of (-1)^(|B|-1) (|B|-1)!.  x(f) chooses every block: it inverts the
coarsening order, f = sum of x(f') over coarsenings f' of f, and its
coefficients are the integer Moebius numbers of the partition lattice.
x'(f) chooses the "active" blocks of f: the blocks containing lower
points, or, for diagrams without lower points, the blocks of odd size.

The closed form is what the absorption and computation identities pin
down for x'.  The recursion x'(f) = f - sum of x'(f') over the proper
coarsenings f' that merge active blocks of f, with each x'(f') merging the
blocks active in f' itself, would differ once a merge of odd blocks
produces an even block, and fails those identities.

Each (diagram, chosen blocks, field) closed form is built once and kept
in a bounded lru_cache, shared by x and x', and so are x_j e_j per (j,
field) and the scalar of each Moebius number per field.  A memoised
morphism is shared by every caller, so nothing may change its terms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from itertools import permutations

from . import partition
from .partition import PartitionDiagram
from .homspace import LinMorphism, derived_lin
from .scalar import FieldSpec


def _partition_moebius(grouping) -> int:
    out = 1
    for group in grouping:
        k = len(group)
        out *= (-1) ** (k - 1) * factorial(k - 1)
    return out


@lru_cache(maxsize=256)
def _moebius_number(mu: int, field: FieldSpec):
    """The one scalar of the Moebius number mu in field, which every closed
    form shares."""
    return field.rational(mu)


@lru_cache(maxsize=4096)
def _moebius(f: PartitionDiagram, blocks: tuple, field: FieldSpec) -> LinMorphism:
    """The closed form over the given block indices of f; distinct
    groupings give distinct diagrams."""
    return derived_lin(f.m, f.n, {
        partition.merge_blocks(f, g): _moebius_number(_partition_moebius(g), field)
        for g in partition.set_partitions(blocks)
    })


def moebius_x(f: PartitionDiagram, field: FieldSpec) -> LinMorphism:
    """x(f): the Moebius inverse of f along the coarsening order."""
    return _moebius(f, tuple(range(len(f.blocks))), field)


def active_blocks(f: PartitionDiagram):
    """Indices of the blocks x' may merge."""
    if f.n > 0:
        return [i for i, b in enumerate(f.blocks) if f.lower_count(b) > 0]
    return [i for i, b in enumerate(f.blocks) if len(b) % 2 == 1]


def moebius_x_prime(f: PartitionDiagram, field: FieldSpec) -> LinMorphism:
    """x'(f): Moebius inversion merging only the active blocks of f."""
    return _moebius(f, tuple(active_blocks(f)), field)


def symmetrizer(j: int, field: FieldSpec) -> LinMorphism:
    """e_j = (1/j!) sum of all permutation diagrams on j strands."""
    coeff = field.rational(Fraction(1, factorial(j)))
    perms = map(PartitionDiagram.permutation, permutations(range(j)))
    return derived_lin(j, j, dict.fromkeys(perms, coeff))


def x_j(j: int, field: FieldSpec) -> LinMorphism:
    """x(id_[j])."""
    return moebius_x(PartitionDiagram.identity(j), field)


@lru_cache(maxsize=64)
def x_e(j: int, field: FieldSpec) -> LinMorphism:
    """The commuting product x_j e_j, an idempotent on [j], composed once
    per (j, field)."""
    return x_j(j, field).compose(symmetrizer(j, field), field)


def special_morphisms(name: str, j: int, field: FieldSpec) -> LinMorphism:
    """Named distinguished morphisms.

    p_j: the diagram in P_{j,0} with every point a singleton.
    e_1_sprime: (1/t) * the diagram {{1}, {1'}}, the unit-summand idempotent
    on [1] in the even-many-odd-blocks class; needs t != 0.
    """
    if name == "p_j":
        return LinMorphism.from_diagram(PartitionDiagram.singletons(j), field)
    if name == "e_1_sprime":
        if j != 1:
            raise ValueError("e_1_sprime lives on the word [1]")
        field.require_nonzero_t("e_1_sprime")
        d = PartitionDiagram(1, 1, [(1,), (2,)])
        return LinMorphism(1, 1, {d: field.t_power(1).inv()})
    raise ValueError(f"unknown special morphism {name!r}")
