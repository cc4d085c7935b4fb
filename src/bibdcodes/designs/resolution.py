"""Resolution search: exact-cover backtracking over block bitmasks.

find_resolution groups blocks into parallel classes one class at a
time; find_cyclic_resolution additionally requires the class set to be
closed under the +1 shift of a cyclic design, which lets it search over
whole shift-orbits of blocks instead of single blocks.

Both searches are deterministic (lowest free block seeds a class,
lowest uncovered point branches, candidates ascend by block index) and
budgeted: exceeding the node budget raises Timeout, while exhausting
the space proves Infeasible.
"""

from __future__ import annotations

from ..errors import Infeasible, Timeout
from .types import Design, shift_map, verify_resolution

DEFAULT_NODE_BUDGET = 10**8


class _Budget:
    __slots__ = ("left",)

    def __init__(self, limit: int):
        self.left = limit

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise Timeout("resolution search exceeded its node budget")


def _point_masks(d: Design) -> list[int]:
    masks = []
    for blk in d.blocks:
        m = 0
        for x in blk:
            m |= 1 << x
        masks.append(m)
    return masks


def find_resolution(d: Design, limit: int = DEFAULT_NODE_BUDGET):
    """Partition the blocks into parallel classes, or prove it impossible.

    Returns the resolution as a tuple of classes (tuples of block
    indices), checked with verify_resolution before returning.
    """
    if d.v % d.k != 0:
        raise Infeasible(f"v={d.v} not divisible by k={d.k}; no parallel class can exist")
    if d.b * d.k != d.v * d.r:
        raise Infeasible("block count does not match a resolvable design")
    masks = _point_masks(d)
    full = (1 << d.v) - 1
    by_point: list[list[int]] = [[] for _ in range(d.v)]
    for i, blk in enumerate(d.blocks):
        for x in blk:
            by_point[x].append(i)
    free = [True] * d.b
    budget = _Budget(limit)
    classes: list[list[int]] = []

    def next_free() -> int:
        for i in range(d.b):
            if free[i]:
                return i
        return -1

    def extend_class(covered: int, members: list[int]) -> bool:
        budget.spend()
        if covered == full:
            classes.append(list(members))
            if place_next_class():
                return True
            classes.pop()
            return False
        low = (~covered) & full
        low = (low & -low).bit_length() - 1
        for b in by_point[low]:
            if not free[b] or (masks[b] & covered):
                continue
            free[b] = False
            members.append(b)
            if extend_class(covered | masks[b], members):
                return True
            members.pop()
            free[b] = True
        return False

    def place_next_class() -> bool:
        seed = next_free()
        if seed < 0:
            return True
        free[seed] = False
        ok = extend_class(masks[seed], [seed])
        free[seed] = True
        return ok

    if not place_next_class():
        raise Infeasible("exhaustive search found no resolution")
    resolution = tuple(tuple(c) for c in classes)
    report = verify_resolution(d.with_resolution(resolution))
    if not report.ok:
        raise Infeasible(f"search produced an invalid resolution: {report.problems}")
    return resolution


def find_cyclic_resolution(d: Design, limit: int = DEFAULT_NODE_BUDGET):
    """Resolution whose class set is permuted by the +1 point shift.

    Any shift-closed resolution decomposes into orbits of classes, and a
    class whose orbit has period s is itself fixed by the +s shift, so
    it is a union of +s-orbits of blocks. The search tries each divisor
    s of v in ascending order for the class containing the lowest free
    block, covers the points with whole +s-orbits, then places the
    class's entire shift orbit at once.
    """
    if d.v % d.k != 0:
        raise Infeasible(f"v={d.v} not divisible by k={d.k}; no parallel class can exist")
    shift_of = shift_map(d)
    if shift_of is None:
        raise Infeasible("blocks repeat or are not closed under the +1 shift; design is not cyclic")

    masks = _point_masks(d)
    full = (1 << d.v) - 1
    free = [True] * d.b
    budget = _Budget(limit)
    classes: list[list[int]] = []
    divisors = [s for s in range(1, d.v + 1) if d.v % s == 0]

    def shift_index(i: int, steps: int) -> int:
        for _ in range(steps):
            i = shift_of[i]
        return i

    def block_orbit(start: int, step: int):
        """The +step-orbit through start with its point mask, or None if
        the orbit's blocks overlap in points (no class can use it)."""
        orbit = [start]
        mask = masks[start]
        i = shift_index(start, step)
        while i != start:
            if masks[i] & mask:
                return None
            mask |= masks[i]
            orbit.append(i)
            i = shift_index(i, step)
        return orbit, mask

    def class_period(members: list[int]) -> int:
        mset = frozenset(members)
        for s in divisors:
            if frozenset(shift_index(i, s) for i in members) == mset:
                return s
        return d.v

    def next_free() -> int:
        for i in range(d.b):
            if free[i]:
                return i
        return -1

    def extend_class(covered: int, members: list[int], units, s: int) -> bool:
        budget.spend()
        if covered == full:
            if class_period(members) != s:
                return False  # already enumerated under its true period
            return commit_orbit(members, s)
        low = (~covered) & full
        low = (low & -low).bit_length() - 1
        for orbit, mask in units:
            if (mask & covered) or not (mask >> low) & 1:
                continue
            if not all(free[i] for i in orbit):
                continue
            for i in orbit:
                free[i] = False
            members.extend(orbit)
            if extend_class(covered | mask, members, units, s):
                return True
            del members[len(members) - len(orbit):]
            for i in orbit:
                free[i] = True
        return False

    def commit_orbit(members: list[int], period: int) -> bool:
        orbit_classes = [list(members)]
        for _ in range(period - 1):
            orbit_classes.append([shift_of[i] for i in orbit_classes[-1]])
        flat = [i for cls in orbit_classes[1:] for i in cls]
        if len(set(flat)) != len(flat) or any(not free[i] for i in flat):
            return False
        for i in flat:
            free[i] = False
        classes.extend(orbit_classes)
        if place_next_class():
            return True
        del classes[len(classes) - len(orbit_classes):]
        for i in flat:
            free[i] = True
        return False

    def place_next_class() -> bool:
        seed = next_free()
        if seed < 0:
            return True
        for s in divisors:
            seeded = block_orbit(seed, s)
            if seeded is None:
                continue
            seed_orbit, seed_mask = seeded
            units = []
            taken = set(seed_orbit)
            for i in range(d.b):
                if not free[i] or i in taken:
                    continue
                res = block_orbit(i, s)
                if res is None:
                    continue
                orbit, mask = res
                taken.update(orbit)
                units.append((orbit, mask))
            for i in seed_orbit:
                free[i] = False
            if extend_class(seed_mask, list(seed_orbit), units, s):
                return True
            for i in seed_orbit:
                free[i] = True
        return False

    if not place_next_class():
        raise Infeasible("exhaustive search found no shift-closed resolution")
    resolution = tuple(tuple(c) for c in classes)
    report = verify_resolution(d.with_resolution(resolution))
    if not report.ok:
        raise Infeasible(f"search produced an invalid resolution: {report.problems}")
    return resolution
