"""Partition diagrams: set partitions of m upper and n lower points.

A diagram in P_{m,n} is a set partition of the m+n boundary points.  Upper
points are 1..m, lower points are stored internally as m+1..m+n and printed
primed ("1'", "2'", ...).  Diagrams are immutable and canonical: blocks are
sorted tuples ordered by their minimum, so equal diagrams are structurally
equal and hashable.

Composition glues the lower boundary of the inner diagram to the upper
boundary of the outer one; merged blocks that end up with middle points only
are removed and counted as loops (each contributes one factor of t at the
linear level).
"""

from __future__ import annotations

import re
from bisect import bisect_right
from enum import Enum
from typing import Iterable, NamedTuple


class DiagramParseError(ValueError):
    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class _UnionFind:
    def __init__(self, size):
        self.parent = list(range(size))

    def find(self, a):
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


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


class PartitionDiagram:
    """An element of the diagram basis of Hom([m], [n])."""

    __slots__ = ("m", "n", "blocks", "_hash")

    def __init__(self, m, n, blocks):
        points = sorted(p for b in blocks for p in b)
        if points != list(range(1, m + n + 1)):
            raise ValueError(
                f"blocks must partition 1..{m + n} exactly once, got {blocks!r}"
            )
        self._fill(m, n, blocks)

    @classmethod
    def _from_valid(cls, m, n, blocks):
        """Build from blocks already known to partition 1..m+n exactly once."""
        d = object.__new__(cls)
        d._fill(m, n, blocks)
        return d

    def _fill(self, m, n, blocks):
        self.m = m
        self.n = n
        self.blocks = tuple(sorted(tuple(sorted(b)) for b in blocks))
        self._hash = hash((m, n, self.blocks))

    @classmethod
    def identity(cls, m):
        return cls(m, m, [(i, m + i) for i in range(1, m + 1)])

    @classmethod
    def permutation(cls, sigma):
        """Strand diagram of a permutation given as a 0-based tuple."""
        j = len(sigma)
        return cls(j, j, [(i + 1, j + sigma[i] + 1) for i in range(j)])

    @classmethod
    def singletons(cls, m, n=0):
        return cls(m, n, [(p,) for p in range(1, m + n + 1)])

    def upper_part(self, block):
        return tuple(p for p in block if p <= self.m)

    def lower_count(self, block):
        return sum(1 for p in block if p > self.m)

    def __eq__(self, other):
        if not isinstance(other, PartitionDiagram):
            return NotImplemented
        return (self.m, self.n, self.blocks) == (other.m, other.n, other.blocks)

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return (self.m, self.n, self.blocks) < (other.m, other.n, other.blocks)

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


class ComposeResult(NamedTuple):
    diagram: PartitionDiagram
    loops: int


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


def tensor(f: PartitionDiagram, g: PartitionDiagram) -> PartitionDiagram:
    """Place g to the right of f."""
    m, n = f.m + g.m, f.n + g.n
    blocks = [tuple(p if p <= f.m else p + g.m for p in b) for b in f.blocks]
    blocks += [tuple(p + f.m if p <= g.m else p + f.m + f.n for p in b) for b in g.blocks]
    return PartitionDiagram._from_valid(m, n, blocks)


def coarsenings(f: PartitionDiagram, proper=False):
    """All diagrams obtained by merging blocks of f, canonically sorted."""
    out = set()
    nblocks = len(f.blocks)
    for grouping in set_partitions(range(nblocks)):
        if proper and len(grouping) == nblocks:
            continue
        merged = [
            tuple(sorted(p for i in group for p in f.blocks[i])) for group in grouping
        ]
        out.add(PartitionDiagram(f.m, f.n, merged))
    return sorted(out)


def merge_blocks(f: PartitionDiagram, grouping) -> PartitionDiagram:
    """Coarsen f by merging the given groups of block indices."""
    taken = set(i for group in grouping for i in group)
    merged = [
        tuple(sorted(p for i in group for p in f.blocks[i])) for group in grouping
    ]
    merged += [b for i, b in enumerate(f.blocks) if i not in taken]
    return PartitionDiagram(f.m, f.n, merged)


def factors_through_unit(f: PartitionDiagram) -> bool:
    """True iff no block contains both an upper and a lower point."""
    for block in f.blocks:
        ups = sum(1 for p in block if p <= f.m)
        if 0 < ups < len(block):
            return False
    return True


def upper_partition(f: PartitionDiagram) -> PartitionDiagram:
    """The partition induced on the upper points (lower points dropped)."""
    blocks = []
    for block in f.blocks:
        ups = f.upper_part(block)
        if ups:
            blocks.append(ups)
    return PartitionDiagram(f.m, 0, blocks)


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

    @classmethod
    def from_text(cls, text):
        for member in cls:
            if member.value == text:
                return member
        raise ValueError(f"unknown diagram class {text!r}")


def class_member(f: PartitionDiagram, cls: DiagramClass) -> bool:
    return cls.member(f)


def all_diagrams(m, n) -> Iterable[PartitionDiagram]:
    """All of P_{m,n} (every set partition of the m+n points)."""
    for part in set_partitions(range(1, m + n + 1)):
        yield PartitionDiagram(m, n, part)
