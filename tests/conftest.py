import os
import re

import numpy as np
import pytest
from hypothesis import strategies as st

from bibdcodes.designs import Design, DifferenceFamily, read_design
from bibdcodes.matrices import SparseBinaryMatrix

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

# the blocks of base 0,1,3 under a cyclic line naming another Fano base
MISMATCHED_FANO = ("design v=7 k=3 b=7\ncyclic base=0,1,5\n"
                   + "".join(f"{x},{(x + 1) % 7},{(x + 3) % 7}\n" for x in range(7)))


def swapped_kts21_text() -> str:
    """tests/data/kts21.design with block 6 of class 0 and block 7 of
    class 1 swapped: the blocks still form the design, but neither class
    partitions the points. Class 0 is on line 73."""
    with open(os.path.join(DATA_DIR, "kts21.design"), encoding="utf-8") as f:
        text = f.read()
    swapped = (text.replace("class 0: 0 1 2 3 4 5 6\n", "class 0: 0 1 2 3 4 5 7\n")
               .replace("class 1: 7 8 9 ", "class 1: 6 8 9 "))
    assert swapped.count("class 0: 0 1 2 3 4 5 7\n") == swapped.count("class 1: 6 8 9 ") == 1
    return swapped


def emptied_crcbibd39_text() -> str:
    """tests/data/crcbibd39.design with classes 0 and 1 emptied: both
    name the same (empty) block set, which only a trusted load accepts."""
    with open(os.path.join(DATA_DIR, "crcbibd39.design"), encoding="utf-8") as f:
        text = f.read()
    emptied = re.sub(r"^class ([01]):.*$", r"class \1:", text, flags=re.M)
    assert emptied.count("\nclass 0:\n") == emptied.count("\nclass 1:\n") == 1
    return emptied


def affine_plane_order3(class_order=("columns", "diag1", "diag2", "rows")) -> Design:
    """AG(2,3) by brute force: points 3r+c, lines = triples summing to
    zero componentwise; classes grouped by parallel direction."""
    points = [(r, c) for r in range(3) for c in range(3)]
    lines = []
    for i in range(9):
        for j in range(i + 1, 9):
            for k in range(j + 1, 9):
                a, b, c = points[i], points[j], points[k]
                if (a[0] + b[0] + c[0]) % 3 == 0 and (a[1] + b[1] + c[1]) % 3 == 0:
                    lines.append(tuple(sorted(3 * p[0] + p[1] for p in (a, b, c))))
    assert len(lines) == 12

    def direction(line):
        pts = [(x // 3, x % 3) for x in line]
        dr = (pts[1][0] - pts[0][0]) % 3
        dc = (pts[1][1] - pts[0][1]) % 3
        if dr == 0:
            return "rows"
        if dc == 0:
            return "columns"
        return "diag1" if dc == dr else "diag2"

    grouped = {name: [] for name in ("rows", "columns", "diag1", "diag2")}
    for line in sorted(lines):
        grouped[direction(line)].append(line)
    blocks = []
    classes = []
    for name in class_order:
        start = len(blocks)
        blocks.extend(grouped[name])
        classes.append(tuple(range(start, start + 3)))
    return Design(v=9, k=3, blocks=tuple(blocks), resolution=tuple(classes))


@pytest.fixture(scope="session")
def ag23() -> Design:
    return affine_plane_order3()


@pytest.fixture(scope="session")
def kts21() -> Design:
    return read_design(os.path.join(DATA_DIR, "kts21.design"))


@pytest.fixture(scope="session")
def crcbibd39() -> Design:
    return read_design(os.path.join(DATA_DIR, "crcbibd39.design"))


@st.composite
def random_families(draw):
    """Families that need not tile: repeated differences, bases fixed by a
    shift used as full orbits, and short orbits, even v included."""
    k = draw(st.integers(1, 5))
    v = k * draw(st.integers(1, 9)) if draw(st.booleans()) else draw(st.integers(k, 40))
    blocks = st.lists(st.integers(0, v - 1), min_size=k, max_size=k, unique=True)
    bases = draw(st.lists(blocks, max_size=4))
    if v % k == 0 and draw(st.booleans()):  # a periodic base as a full orbit
        shift = draw(st.integers(0, v - 1))
        bases.append([(x + shift) % v for x in range(0, v, v // k)])
    short = v % k == 0 and draw(st.booleans())
    return DifferenceFamily(v, k, tuple(map(tuple, bases)), has_short_orbit_block=short)


def random_parity_checks(seed: int, count: int) -> list[SparseBinaryMatrix]:
    """Seeded random 0/1 matrices up to 8 x 13 with a row that is the sum
    of two others, a repeated row, an empty row and an empty column where
    the shape allows, plus the shapes with no rows or no columns."""
    rng = np.random.default_rng(seed)
    shapes = [(0, 0), (0, 5), (4, 0)]
    shapes += [(int(rng.integers(1, 9)), int(rng.integers(1, 14))) for _ in range(count)]
    out = []
    for rows, cols in shapes:
        dense = rng.random((rows, cols)) < rng.uniform(0.1, 0.7)
        if rows >= 3 and rng.random() < 0.7:
            a, b, c = rng.choice(rows, 3, replace=False)
            dense[c] = dense[a] ^ dense[b]
        if rows >= 2 and rng.random() < 0.5:
            a, b = rng.choice(rows, 2, replace=False)
            dense[b] = dense[a]
        if rows >= 1 and rng.random() < 0.5:
            dense[rng.integers(rows)] = False
        if cols >= 1 and rng.random() < 0.5:
            dense[:, rng.integers(cols)] = False
        out.append(SparseBinaryMatrix(rows, cols, [np.flatnonzero(c) for c in dense.T]))
    return out
