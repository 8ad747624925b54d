"""Partition diagrams: set partitions of m upper and n lower points.

A diagram in P_{m,n} is a set partition of the m+n boundary points.  Upper
points are 1..m, lower points are stored internally as m+1..m+n and printed
primed ("1'", "2'", ...).  A diagram is the tuple (m, n, blocks), its
blocks sorted tuples ordered by their minimum, so equal diagrams are equal
tuples.  Every diagram is built through one bounded lru_cache, _canonical,
which hands out one shared instance per diagram, so a memo hit or a dict
lookup keyed by a diagram mostly compares it by identity.
PartitionDiagram() checks its points, once per block tuple as given,
through a second bounded lru_cache, _checked; diagrams derived from
diagrams or walks are right by construction and built through _from_valid.

Composition glues the lower boundary of the inner diagram to the upper
boundary of the outer one; merged blocks that end up with middle points only
are removed and counted as loops (each contributes one factor of t at the
linear level).

`compose` and `tensor` are each memoised in a bounded lru_cache too: they
are pure functions of two immutable, hashable diagrams, and every
criterion runs them over and over on the same few pairs.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import namedtuple
from enum import Enum
from functools import lru_cache
from math import comb, prod
from typing import Iterable, NamedTuple


class DiagramParseError(ValueError):
    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


def set_partitions(items):
    """Yield all set partitions of the given sequence, as tuples of tuples."""
    items = list(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield ((first,),) + part
        for i, block in enumerate(part):
            yield part[:i] + ((first,) + block,) + part[i + 1 :]


def bell_number(size):
    """How many set partitions `set_partitions` yields for `size` items."""
    row = [1]  # Bell triangle: each row starts with the previous row's end
    for _ in range(size):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def perfect_matchings(items):
    """Yield all perfect matchings of the given sequence, as tuples of
    pairs; there are none when it has an odd number of items."""
    items = list(items)
    if len(items) % 2:
        return
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for i, partner in enumerate(rest):
        for part in perfect_matchings(rest[:i] + rest[i + 1 :]):
            yield ((first, partner),) + part


def matching_count(size):
    """How many perfect matchings `perfect_matchings` yields: (size-1)!!,
    or 0 for an odd size."""
    return 0 if size % 2 else prod(range(size - 1, 0, -2))


def non_crossing_count(size):
    """How many non-crossing perfect matchings `size` points have: the
    Catalan number C(size/2), or 0 for an odd size."""
    half = size // 2
    return 0 if size % 2 else comb(size, half) // (half + 1)


class PartitionDiagram(namedtuple("PartitionDiagram", "m n blocks")):
    """An element of the diagram basis of Hom([m], [n]).

    A diagram is the tuple (m, n, blocks), and tuple equality, hashing and
    order are its own.  So it equals the plain tuple (m, n, blocks), and the
    empty diagram equals the empty cobordism; no dict or set in the package
    mixes them, because the terms of a LinMorphism are all of one kind.
    """

    __slots__ = ()

    def __new__(cls, m, n, blocks):
        if not isinstance(blocks, tuple):  # a list, or a one-shot iterable read once
            return _checked.__wrapped__(m, n, tuple(blocks))
        try:
            hash(blocks)
        except TypeError:  # a tuple of lists goes unmemoised
            return _checked.__wrapped__(m, n, blocks)
        return _checked(m, n, blocks)

    @classmethod
    def _from_valid(cls, m, n, blocks):
        """The diagram of blocks already known to partition 1..m+n exactly once."""
        return _canonical(m, n, tuple(sorted(tuple(sorted(b)) for b in blocks)))

    @classmethod
    def identity(cls, m):
        return cls._from_valid(m, m, [(i, m + i) for i in range(1, m + 1)])

    @classmethod
    def permutation(cls, sigma):
        """Strand diagram of a permutation given as a 0-based tuple."""
        j = len(sigma)
        return cls._from_valid(j, j, [(i + 1, j + sigma[i] + 1) for i in range(j)])

    @classmethod
    def singletons(cls, m, n=0):
        return cls._from_valid(m, n, [(p,) for p in range(1, m + n + 1)])

    def upper_part(self, block):
        return tuple(p for p in block if p <= self.m)

    def lower_count(self, block):
        return sum(1 for p in block if p > self.m)

    def to_text(self):
        if not self.blocks:
            return "<empty>"
        parts = []
        for block in self.blocks:
            parts.append(
                " ".join(str(p) if p <= self.m else f"{p - self.m}'" for p in block)
            )
        return " | ".join(parts)

    @classmethod
    def parse(cls, text):
        """Parse diagram text like "1 2' | 2 1'"; shape is inferred.

        Rejects duplicate points and gaps (a missing point below the
        maximum seen label).
        """
        stripped = text.strip()
        if stripped in ("", "<empty>"):
            return cls(0, 0, [])
        token_re = re.compile(r"(\d+)(')?")
        upper_seen, lower_seen = {}, {}
        raw_blocks = []
        pos = 0
        for chunk in stripped.split("|"):
            block = []
            for tok in chunk.split():
                base = stripped.find(tok, pos)
                m = token_re.fullmatch(tok)
                if not m:
                    raise DiagramParseError(
                        f"bad token {tok!r} at position {base}", position=base
                    )
                label, prime = int(m.group(1)), bool(m.group(2))
                if label < 1:
                    raise DiagramParseError(
                        f"point labels start at 1, got {tok!r} at position {base}",
                        position=base,
                    )
                seen = lower_seen if prime else upper_seen
                if label in seen:
                    raise DiagramParseError(
                        f"duplicate point {tok!r} at position {base}", position=base
                    )
                seen[label] = base
                block.append((label, prime))
                pos = base + len(tok)
            if not block:
                raise DiagramParseError(
                    f"empty block in {text!r}", position=pos
                )
            raw_blocks.append(block)
        m_max = max(upper_seen, default=0)
        n_max = max(lower_seen, default=0)
        for label in range(1, m_max + 1):
            if label not in upper_seen:
                raise DiagramParseError(f"missing point {label} in {text!r}")
        for label in range(1, n_max + 1):
            if label not in lower_seen:
                raise DiagramParseError(f"missing point {label}' in {text!r}")
        blocks = [
            tuple(m_max + label if prime else label for label, prime in block)
            for block in raw_blocks
        ]
        return cls(m_max, n_max, blocks)

    def __repr__(self):
        return f"PartitionDiagram({self.m}, {self.n}, {self.to_text()!r})"


@lru_cache(maxsize=16384)
def _canonical(m, n, blocks) -> PartitionDiagram:
    """The one shared PartitionDiagram with canonical blocks."""
    return tuple.__new__(PartitionDiagram, (m, n, blocks))


@lru_cache(maxsize=4096, typed=True)
def _checked(m, n, blocks) -> PartitionDiagram:
    """The diagram of blocks checked to partition 1..m+n exactly once,
    memoised by the blocks as given, so each block tuple is checked and
    sorted once; an invalid one raises again, since no exception is kept."""
    points = sorted(p for b in blocks for p in b)
    if points != list(range(1, m + n + 1)):
        raise ValueError(
            f"blocks must partition 1..{m + n} exactly once, got {blocks!r}"
        )
    return PartitionDiagram._from_valid(m, n, blocks)


class ComposeResult(NamedTuple):
    diagram: PartitionDiagram
    loops: int


@lru_cache(maxsize=4096)
def compose(g: PartitionDiagram, f: PartitionDiagram) -> ComposeResult:
    """Glue f's lower boundary to g's upper boundary (g after f)."""
    if f.n != g.m:
        raise ValueError(
            f"shape mismatch: inner has {f.n} lower points, outer has {g.m} upper"
        )
    m, k = f.m, f.n
    # The components start as f's blocks.  Each block of g joins, through
    # its upper (middle) points, the components of the f blocks that hold
    # those points as lower points; a component left with no outer point
    # is a loop.
    owner = [0] * k
    parent = list(range(len(f.blocks)))
    outer = []
    for i, block in enumerate(f.blocks):
        cut = bisect_right(block, m)
        for p in block[cut:]:
            owner[p - m - 1] = i
        outer.append(list(block[:cut]))
    shift = m - k
    for block in g.blocks:
        cut = bisect_right(block, k)
        lower = [p + shift for p in block[cut:]]
        if not cut:
            outer.append(lower)
            continue
        root = None
        for p in block[:cut]:
            r = owner[p - 1]
            while parent[r] != r:
                r = parent[r]
            if root is None:
                root = r
            elif r != root:
                parent[r] = root
                outer[root] += outer[r]
                outer[r] = None
        outer[root] += lower
    out_blocks = [pts for pts in outer if pts]
    loops = outer.count([])
    return ComposeResult(PartitionDiagram._from_valid(m, g.n, out_blocks), loops)


@lru_cache(maxsize=1024)
def tensor(f: PartitionDiagram, g: PartitionDiagram) -> PartitionDiagram:
    """Place g to the right of f."""
    m, n = f.m + g.m, f.n + g.n
    blocks = [tuple(p if p <= f.m else p + g.m for p in b) for b in f.blocks]
    blocks += [tuple(p + f.m if p <= g.m else p + f.m + f.n for p in b) for b in g.blocks]
    return PartitionDiagram._from_valid(m, n, blocks)


def merge_blocks(f: PartitionDiagram, grouping) -> PartitionDiagram:
    """Coarsen f by merging the given groups of block indices."""
    taken = set(i for group in grouping for i in group)
    merged = [
        tuple(sorted(p for i in group for p in f.blocks[i])) for group in grouping
    ]
    merged += [b for i, b in enumerate(f.blocks) if i not in taken]
    return PartitionDiagram._from_valid(f.m, f.n, merged)


def factors_through_unit(f: PartitionDiagram) -> bool:
    """True iff no block contains both an upper and a lower point: the
    blocks are sorted, so their two ends tell."""
    m = f.m
    return all(b[-1] <= m or b[0] > m for b in f.blocks)


def upper_partition(f: PartitionDiagram) -> PartitionDiagram:
    """The partition induced on the upper points (lower points dropped)."""
    blocks = []
    for block in f.blocks:
        ups = f.upper_part(block)
        if ups:
            blocks.append(ups)
    return PartitionDiagram._from_valid(f.m, 0, blocks)


def odd_block_legs(f: PartitionDiagram) -> PartitionDiagram:
    """f, a diagram with no lower points, with one new lower point added
    to each odd block, numbered in block order."""
    if f.n:
        raise ValueError("odd_block_legs needs a diagram with no lower points")
    blocks, lower = [], f.m
    for b in f.blocks:
        if len(b) % 2:
            lower += 1
            b += (lower,)
        blocks.append(b)
    return PartitionDiagram._from_valid(f.m, lower - f.m, blocks)


def _is_noncrossing_matching(f: PartitionDiagram) -> bool:
    # Boundary order of the rectangle: upper 1..m left to right, then lower
    # n'..1' right to left; a matching is planar iff no two chords interleave.
    chords = []
    for block in f.blocks:
        if len(block) != 2:
            return False
        a, b = (
            p if p <= f.m else 2 * f.m + f.n + 1 - p for p in block
        )
        chords.append((min(a, b), max(a, b)))
    for i, (a, b) in enumerate(chords):
        for c, d in chords[i + 1 :]:
            if a < c < b < d or c < a < d < b:
                return False
    return True


class DiagramClass(Enum):
    """Subcategories of the partition category, as predicates on diagrams."""

    ALL = "all"
    EVEN_BLOCKS = "even-blocks"
    EVEN_MANY_ODD_BLOCKS = "even-many-odd-blocks"
    BLOCKS_SIZE_2 = "blocks-size-2"
    NON_CROSSING_SIZE_2 = "non-crossing-size-2"

    def member(self, f: PartitionDiagram) -> bool:
        if self is DiagramClass.ALL:
            return True
        if self is DiagramClass.EVEN_BLOCKS:
            return all(len(b) % 2 == 0 for b in f.blocks)
        if self is DiagramClass.EVEN_MANY_ODD_BLOCKS:
            return sum(1 for b in f.blocks if len(b) % 2 == 1) % 2 == 0
        if self is DiagramClass.BLOCKS_SIZE_2:
            return all(len(b) == 2 for b in f.blocks)
        return _is_noncrossing_matching(f)

    def require(self, diagrams, role: str):
        """Raise ValueError naming the first diagram outside the class."""
        for d in diagrams:
            if not self.member(d):
                raise ValueError(f"{role} term {d.to_text()} is not in class {self.value}")

    @classmethod
    def from_text(cls, text):
        for member in cls:
            if member.value == text:
                return member
        raise ValueError(f"unknown diagram class {text!r}")


def all_diagrams(m, n) -> Iterable[PartitionDiagram]:
    """All of P_{m,n} (every set partition of the m+n points)."""
    for part in set_partitions(range(1, m + n + 1)):
        yield PartitionDiagram._from_valid(m, n, part)


def all_matchings(m, n) -> Iterable[PartitionDiagram]:
    """The perfect matchings in P_{m,n}; none when m+n is odd."""
    for part in perfect_matchings(range(1, m + n + 1)):
        yield PartitionDiagram._from_valid(m, n, part)


def non_crossing_matchings(m, n) -> Iterable[PartitionDiagram]:
    """The non-crossing perfect matchings in P_{m,n}, none when m+n is odd.
    In the boundary order of _is_noncrossing_matching, the first point is
    paired with each point that leaves an even number of points on both
    sides, and both sides are matched the same way."""

    def pairings(items):
        if not items:
            yield ()
        for i in range(1, len(items), 2):
            for inner in pairings(items[1:i]):
                for outer in pairings(items[i + 1 :]):
                    yield ((items[0], items[i]),) + inner + outer

    if (m + n) % 2 == 0:
        order = list(range(1, m + 1)) + list(range(m + n, m, -1))
        for part in pairings(order):
            yield PartitionDiagram._from_valid(m, n, part)
