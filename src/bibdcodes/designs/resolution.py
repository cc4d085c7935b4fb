"""Resolution search: exact-cover backtracking over block bitmasks.

One search serves both entry points. It is given a permutation of the
blocks and the periods a class may have under it. A class of period s
is fixed by the s-th power of the permutation, so it is a union of
+s orbits of blocks (its units), and the search places the class
together with its s - 1 images. find_resolution passes the identity
and period 1: a unit is one block and a class is its own orbit.
find_cyclic_resolution passes the +1 shift of a cyclic design and the
divisors of v, so the class set it finds is closed under the shift.

The search is deterministic (the lowest free block seeds a class,
periods ascend, the lowest uncovered point branches, and its units
ascend by lowest block index) and budgeted: exceeding the node budget
raises Timeout, while exhausting the space proves Infeasible.
"""

from __future__ import annotations

from ..errors import Infeasible, Timeout
from .types import Design, shift_map, shift_orbit, verify_resolution

DEFAULT_NODE_BUDGET = 10**8


class _Budget:
    __slots__ = ("left",)

    def __init__(self, limit: int):
        self.left = limit

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise Timeout("resolution search exceeded its node budget")


def _search(d: Design, shift_of, periods, limit: int):
    """A resolution whose classes have periods in `periods` under the
    block permutation shift_of, closed under it, or None if none exists."""
    blocks, b = d.blocks, d.b
    masks = []
    for blk in blocks:
        m = 0
        for x in blk:
            m |= 1 << x
        masks.append(m)
    full = (1 << d.v) - 1
    free = [True] * b
    budget = _Budget(limit)
    classes: list[list[int]] = []
    searches = {}  # period -> its class search, built on first use

    def class_search(s: int):
        """The search for a class of period s, seeded by a given block.

        Its units are the +s orbits of blocks under shift_of whose
        blocks are pairwise disjoint, each named by its lowest block:
        by that block, the unit's blocks in orbit order (else None) and
        point mask; by point, the units through it in ascending order.
        """
        step = list(range(b))
        for _ in range(s):
            step = [shift_of[i] for i in step]
        orbits: list = [None] * b
        unit_masks = [0] * b
        by_point: list[list[int]] = [[] for _ in range(d.v)]
        seen = [False] * b
        for start in range(b):
            if seen[start]:
                continue
            orbit, mask, i = [start], masks[start], step[start]
            while i != start:
                orbit.append(i)
                seen[i] = True
                mask |= masks[i]
                i = step[i]
            if mask.bit_count() != d.k * len(orbit):
                continue  # its blocks overlap in points; no class can use it
            orbits[start] = orbit
            unit_masks[start] = mask
            for i in orbit:
                for x in blocks[i]:
                    by_point[x].append(start)

        def extend_class(covered: int, chosen: list[int]) -> bool:
            budget.spend()
            if covered == full:
                return commit_orbit([i for u in chosen for i in orbits[u]], s)
            low = (~covered) & full
            low = (low & -low).bit_length() - 1
            # the placed classes are closed under shift_of, so a unit is
            # wholly free or wholly taken; a chosen unit meets covered
            for u in by_point[low]:
                if not free[u] or (unit_masks[u] & covered):
                    continue
                chosen.append(u)
                if extend_class(covered | unit_masks[u], chosen):
                    return True
                chosen.pop()
            return False

        def seeded(seed: int) -> bool:
            return orbits[seed] is not None and extend_class(unit_masks[seed], [seed])

        return seeded

    def commit_orbit(members: list[int], s: int) -> bool:
        orbit = shift_orbit(members, shift_of)
        if len(orbit) != s:
            return False  # already enumerated under its true period
        # the free blocks are closed under shift_of, so the images of the
        # class are free; they must not share a block
        taken = set().union(*orbit)
        if len(taken) != s * len(members):
            return False
        for i in taken:
            free[i] = False
        classes.extend(orbit)
        if place_next_class():
            return True
        del classes[-s:]
        for i in taken:
            free[i] = True
        return False

    def place_next_class() -> bool:
        for seed in range(b):
            if free[seed]:
                break
        else:
            return True  # every block is placed
        # the free blocks are closed under shift_of, so the lowest one
        # is the lowest block of its unit
        for s in periods:
            if s not in searches:
                searches[s] = class_search(s)
            if searches[s](seed):
                return True
        return False

    if not place_next_class():
        return None
    resolution = tuple(tuple(c) for c in classes)
    report = verify_resolution(d.with_resolution(resolution))
    if not report.ok:
        raise Infeasible(f"search produced an invalid resolution: {report.problems}")
    return resolution


def find_resolution(d: Design, limit: int = DEFAULT_NODE_BUDGET):
    """Partition the blocks into parallel classes, or prove it impossible.

    Returns the resolution as a tuple of classes (tuples of block
    indices), checked with verify_resolution before returning.
    """
    if d.v % d.k != 0:
        raise Infeasible(f"v={d.v} not divisible by k={d.k}; no parallel class can exist")
    if d.b * d.k != d.v * d.r:
        raise Infeasible("block count does not match a resolvable design")
    resolution = _search(d, list(range(d.b)), (1,), limit)
    if resolution is None:
        raise Infeasible("exhaustive search found no resolution")
    return resolution


def find_cyclic_resolution(d: Design, limit: int = DEFAULT_NODE_BUDGET):
    """Resolution whose class set is permuted by the +1 point shift.

    Any shift-closed resolution decomposes into orbits of classes, and a
    class whose orbit has period s is a union of +s orbits of blocks.
    For the class holding the lowest free block the search tries each
    divisor s of v in ascending order, then places the class's whole
    shift orbit at once.
    """
    if d.v % d.k != 0:
        raise Infeasible(f"v={d.v} not divisible by k={d.k}; no parallel class can exist")
    shift_of = shift_map(d)
    if shift_of is None:
        raise Infeasible("blocks repeat or are not closed under the +1 shift; design is not cyclic")
    divisors = [s for s in range(1, d.v + 1) if d.v % s == 0]
    resolution = _search(d, shift_of, divisors, limit)
    if resolution is None:
        raise Infeasible("exhaustive search found no shift-closed resolution")
    return resolution
