#!/usr/bin/env python3
"""Generate the committed test designs in tests/data/.

Two fixtures are produced, both verified by the library's own oracles:

* crcbibd39.design - a cyclic design on 39 points (k=3) together with a
  shift-closed resolution recovered by find_cyclic_resolution. Serves
  the cyclically-resolvable accumulator transforms.

* kts21.design - a resolvable design on 21 points whose last three
  classes are stacks of shifted identity circulants. Built by finding a
  cyclic resolution of a cyclic design on Z_21 and relabeling points
  through the CRT map x -> 7*(x mod 3) + (x mod 7), which turns the
  period-3 class orbit into the circulant tail; the remaining classes
  are listed first so the tail sits at the end.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from bibdcodes.designs import (
    Design,
    DifferenceFamily,
    expand_cdf_to_design,
    find_cyclic_resolution,
    format_design,
    shift_map,
    shift_orbit,
    verify_bibd,
    verify_resolution,
)

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "tests", "data")

# Hand-picked difference families (full-orbit base blocks; the regular
# short orbit completes the multiples of v/k).
FAMILY_39 = [(0, 3, 12), (0, 6, 24), (0, 7, 17), (0, 8, 19), (0, 1, 5), (0, 2, 16)]
FAMILY_21 = [(0, 3, 15), (0, 2, 10), (0, 1, 5)]


def build_cyclic_resolved(v: int, family) -> Design:
    fam = DifferenceFamily(v=v, k=3, base_blocks=tuple(family), has_short_orbit_block=True)
    design = expand_cdf_to_design(fam)
    assert verify_bibd(design).ok
    resolution = find_cyclic_resolution(design, limit=10**7)
    design = design.with_resolution(resolution)
    assert verify_resolution(design).ok
    return design


def crt_relabel_21(design: Design) -> Design:
    """Relabel Z_21 points by (x mod 3, x mod 7) and reorder classes so
    the shift-period-3 classes (which become the circulant tail) are last."""
    relabel = {x: 7 * (x % 3) + (x % 7) for x in range(21)}
    new_blocks = [tuple(sorted(relabel[x] for x in blk)) for blk in design.blocks]

    # classify old classes by shift period before relabeling
    shift = shift_map(design)
    periods = [len(shift_orbit(cls, shift)) for cls in design.resolution]
    order = [i for i, s in enumerate(periods) if s != 3] + [
        i for i, s in enumerate(periods) if s == 3
    ]
    assert sum(1 for s in periods if s == 3) == 3, periods

    # rebuild blocks class-major, sorted within each class, so the file
    # reads naturally and class indices are contiguous runs
    blocks_out = []
    classes_out = []
    for ci in order:
        members = sorted(new_blocks[bi] for bi in design.resolution[ci])
        start = len(blocks_out)
        blocks_out.extend(members)
        classes_out.append(tuple(range(start, start + len(members))))
    out = Design(v=21, k=3, blocks=tuple(blocks_out), resolution=tuple(classes_out))
    assert verify_bibd(out).ok
    assert verify_resolution(out).ok
    return out


def fixture_texts() -> dict:
    """The text of each fixture file, keyed by its name in tests/data/."""
    d39 = build_cyclic_resolved(39, FAMILY_39)
    k21 = crt_relabel_21(build_cyclic_resolved(21, FAMILY_21))
    return {
        "crcbibd39.design": "# cyclic design on 39 points with a shift-closed resolution\n"
        + format_design(d39),
        "kts21.design": "# resolvable design on 21 points; last three classes are "
        "circulant stacks\n" + format_design(k21),
    }


def main():
    os.makedirs(DATA_DIR, exist_ok=True)
    for name, text in fixture_texts().items():
        with open(os.path.join(DATA_DIR, name), "w", encoding="utf-8") as f:
            f.write(text)
        print(f"wrote {name}")


if __name__ == "__main__":
    main()
