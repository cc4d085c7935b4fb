import math
import random
import tracemalloc
from collections import Counter
from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bibdcodes import gf2
from bibdcodes.algebra import is_prime
from bibdcodes.alist import from_alist, to_alist
from bibdcodes.designs import (
    Design,
    DifferenceFamily,
    buratti_cdf,
    expand_cdf_to_design,
    find_base_block_with_difference,
    netto_cdf,
)
from bibdcodes.errors import TooLarge
from bibdcodes.matrices import (
    SparseBinaryMatrix,
    _bfs_roots,
    _girth_floor,
    _orbits,
    code_dimensions,
    girth,
    girth_with_witness,
    incidence_matrix,
    key_dtype,
    min_distance_exhaustive,
    owners,
    rank_gf2,
    regularity,
    sorted_keys,
)
from bibdcodes.ra import sra_from_cdf, wqra_from_cdf

from conftest import random_families, random_parity_checks
from oracles import blocks, col_rows, expand_orbits, identity, row_cols, to_dense


@pytest.fixture(scope="module")
def fano():
    return incidence_matrix(expand_cdf_to_design(netto_cdf(7)))


def test_matrix_mirrors_agree(fano):
    dense = to_dense(fano)
    for j, rows in enumerate(col_rows(fano)):
        assert list(rows) == list(np.nonzero(dense[:, j])[0])
    for i, cols in enumerate(row_cols(fano)):
        assert list(cols) == list(np.nonzero(dense[i, :])[0])


def test_matrix_rejects_duplicates():
    with pytest.raises(ValueError):
        SparseBinaryMatrix(3, 1, [(0, 0)])
    with pytest.raises(ValueError):
        SparseBinaryMatrix(3, 1, [(5,)])


def test_incidence_examples(fano, ag23):
    assert (fano.rows, fano.cols) == (7, 7)
    assert set(fano.column_weights()) == {3} and set(np.diff(fano.row_ptr)) == {3}
    h = incidence_matrix(ag23)
    assert (h.rows, h.cols) == (9, 12)
    assert set(h.column_weights()) == {3} and set(np.diff(h.row_ptr)) == {4}
    single = incidence_matrix_from_blocks(2, [(0, 1)])
    assert to_dense(single).tolist() == [[1], [1]]


def test_netto997_incidence_peak_memory():
    d = expand_cdf_to_design(netto_cdf(997))
    tracemalloc.start()
    try:
        h = incidence_matrix(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h == SparseBinaryMatrix(d.v, d.b, d.cyclic.expansion())
    assert h.cyclic is d.cyclic
    # the matrix holds 9.28 MB. It peaked at 17.2 MB with the expansion
    # copied into row_idx while the expansion was alive, and with
    # np.bincount copying the read-only row_idx for row_ptr. Now row_idx
    # is the expansion itself and row_ptr is searched (11.9 MB)
    assert peak < 13.5e6


def test_plain_netto997_incidence_adopts_the_blocks():
    d = expand_cdf_to_design(netto_cdf(997))
    plain = Design(d.v, d.k, d.array)  # the blocks, 3.97 MB, without the family
    tracemalloc.start()
    try:
        h = incidence_matrix(plain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.shares_memory(h.row_idx, plain.array)
    assert h == incidence_matrix(d) and h.cyclic is None
    # col_ptr (1.32 MB) and col_idx (3.97 MB) are new, beside the
    # temporaries that build them: 7.95 MB. Copying and checking the
    # blocks again peaked at 13.24 MB
    assert peak < 8.5e6


@st.composite
def plain_designs(draw):
    """Block-list designs from random valid blocks, k = 0 and repeated
    blocks included."""
    v = draw(st.integers(1, 12))
    k = draw(st.integers(0, min(v, 4)))
    block = st.lists(st.integers(0, v - 1), min_size=k, max_size=k, unique=True)
    return Design(v, k, draw(st.lists(block, max_size=10)))


@settings(max_examples=150, deadline=None)
@given(st.one_of(plain_designs(), random_families().map(lambda f: Design(f.v, f.k, cyclic=f))))
def test_incidence_adopts_what_the_checked_constructor_builds(d):
    rows = d.array if d.cyclic is None else d.cyclic.expansion()
    checked = SparseBinaryMatrix(d.v, d.b, rows)
    h = incidence_matrix(d)
    assert h == checked and h.cyclic is d.cyclic
    for name in ("col_ptr", "row_idx", "row_ptr", "col_idx"):
        a = getattr(h, name)
        assert np.array_equal(a, getattr(checked, name)) and a.dtype == np.int64, name
        assert not a.flags.writeable, name
    if d.cyclic is None and d.array.size:  # empty arrays share no memory
        assert np.shares_memory(h.row_idx, d.array)


def incidence_matrix_from_blocks(v, blocks):
    return SparseBinaryMatrix(v, len(blocks), [tuple(b) for b in blocks])


def test_girth_examples(fano):
    assert girth(fano) == 6
    assert girth(identity(5)) == math.inf
    assert girth(SparseBinaryMatrix(2, 2, [(0, 1), (0, 1)])) == 4


def _assert_real_cycle(m, witness):
    """The witness visits distinct vertices, alternately columns and
    rows, each joined to the next (the last to the first) by an entry."""
    assert len(set(witness)) == len(witness) and len(witness) % 2 == 0
    for i, label in enumerate(witness):
        nxt = witness[(i + 1) % len(witness)]
        col_label, row_label = (label, nxt) if label[0] == "c" else (nxt, label)
        assert (col_label[0], row_label[0]) == ("c", "r")
        j = int(col_label[1:])
        assert int(row_label[1:]) in m.row_idx[m.col_ptr[j] : m.col_ptr[j + 1]].tolist()


def test_girth_witness_is_a_real_cycle(fano):
    g, witness = girth_with_witness(fano)
    assert g == 6 and len(witness) == 6
    _assert_real_cycle(fano, witness)
    assert girth_with_witness(identity(2)) == (float("inf"), None)


def test_netto997_girth_six_with_a_real_cycle():
    # the floor (no two blocks share two points) ends the search at the
    # first root; a search of every orbit root gave the same witness
    h = incidence_matrix(expand_cdf_to_design(netto_cdf(997)))
    assert _girth_floor(h) == 6
    assert girth_with_witness(h) == (6, ["c127", "r134", "c0", "r7", "c35170", "r261"])
    _assert_real_cycle(h, girth_with_witness(h)[1])


def test_girth_holds_nothing_once_it_returns():
    h = incidence_matrix(expand_cdf_to_design(netto_cdf(199)))
    tracemalloc.start()
    try:
        g = girth(h)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert g == 6
    # the per-column and per-row lists are built for the search and freed
    # with it (under 0.01 MB remains); cached on the matrix they held 1.25 MB
    assert held < 0.3e6


def test_girth_brute_force_cross_check():
    # enumerate simple cycles on a small random-ish matrix via networkx-free DFS
    m = SparseBinaryMatrix(4, 5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    # cycle through cols 0,1,4: rows 0-1-2 -> length 6
    assert girth(m) == 6


def test_rank_examples(fano):
    assert rank_gf2(fano) == 4
    dims = code_dimensions(fano)
    assert (dims.k, dims.rate) == (3, 3 / 7)
    assert rank_gf2(identity(6)) == 6
    assert rank_gf2(SparseBinaryMatrix(3, 3, [(), (), ()])) == 0


def test_rank_parity_facts():
    # 2 | (v-1)/(k-1): rank >= v-1 with equality iff k even
    d13 = expand_cdf_to_design(buratti_cdf(13, 4))  # (v-1)/(k-1) = 4
    h = incidence_matrix(d13)
    assert rank_gf2(h) == 12  # k even: rank = v-1
    d13n = expand_cdf_to_design(netto_cdf(13))  # (v-1)/(k-1) = 6, k odd
    assert rank_gf2(incidence_matrix(d13n)) == 13


def test_regularity(fano):
    reg = regularity(fano)
    assert (reg.column_weight, reg.row_weight) == (3, 3)
    mixed = SparseBinaryMatrix(3, 2, [(0, 1), (2,)])
    r2 = regularity(mixed)
    assert r2.column_weight is None and r2.column_histogram == {2: 1, 1: 1}
    empty = SparseBinaryMatrix(0, 0, [])
    assert regularity(empty).column_weight == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 2**30 - 1))
def test_regularity_matches_counting_reference(rows, cols, seed):
    m = SparseBinaryMatrix(rows, cols, _column_lists(rows, cols, random.Random(seed)))
    reg = regularity(m)
    for weights, hist, constant in ((m.column_weights(), reg.column_histogram, reg.column_weight),
                                    (np.diff(m.row_ptr).tolist(), reg.row_histogram, reg.row_weight)):
        counts = Counter(weights)  # keys in order of first appearance
        assert list(hist.items()) == list(counts.items())
        assert all(type(x) is int for x in chain(hist, hist.values()))
        assert constant == (weights[0] if len(counts) == 1 else 0 if not weights else None)


def test_orbits_of_an_alist_copy():
    h = incidence_matrix(expand_cdf_to_design(netto_cdf(13)))
    loaded = from_alist(to_alist(h))
    assert loaded.cyclic is None
    orbits = _orbits(loaded)
    assert orbits == _orbits(h) and len(orbits) == 2
    assert expand_orbits(13, orbits) == h


def test_orbits_of_the_identity():
    eye = identity(4)
    assert _orbits(eye) == (((0,), 4),)
    assert expand_orbits(4, _orbits(eye)) == eye


def test_orbits_reject_a_non_circulant():
    assert _orbits(SparseBinaryMatrix(3, 3, [(0,), (1,), (0,)])) is None
    # a block is v = rows columns, so the column count must be a multiple of v
    assert _orbits(SparseBinaryMatrix(3, 4, [(0,), (1,), (2,), (0,)])) is None
    assert _orbits(SparseBinaryMatrix(0, 0, [])) is None
    assert _orbits(SparseBinaryMatrix(3, 0, [])) == ()


def test_min_distance_examples(fano):
    assert min_distance_exhaustive(fano) == 4
    eye_pair = SparseBinaryMatrix(4, 8, [(i,) for i in range(4)] * 2)
    assert min_distance_exhaustive(eye_pair) == 2
    assert min_distance_exhaustive(identity(3)) == math.inf


def test_min_distance_matches_direct_enumeration(ag23):
    h = incidence_matrix(ag23)
    # independent oracle: all 2^12 column subsets
    cols = to_dense(h).astype(int)
    best = None
    for mask in range(1, 1 << 12):
        picked = [j for j in range(12) if (mask >> j) & 1]
        if not (cols[:, picked].sum(axis=1) % 2).any():
            w = len(picked)
            best = w if best is None else min(best, w)
    assert min_distance_exhaustive(h) == best
    assert best >= 4  # k + 1


def test_min_distance_cap_path(monkeypatch):
    # K is checked before a basis is built, so no call here builds one
    monkeypatch.setattr(gf2, "rref", lambda rows: pytest.fail("basis built"))
    # force the bounded search by a wide identity pair (K = 30 > limit)
    n = 30
    h = SparseBinaryMatrix(n, 2 * n, [(i,) for i in range(n)] * 2)
    assert min_distance_exhaustive(h, cap=2) == 2
    tall = SparseBinaryMatrix(2, 32, [(0,), (1,)] * 16)
    assert min_distance_exhaustive(tall, cap=1) is None  # above cap
    with pytest.raises(TooLarge, match="dimension 30 exceeds exhaustive limit 24; pass a cap"):
        min_distance_exhaustive(h)


# --- girth: one BFS root per circulant orbit ---------------------------------


def _girth_all_roots(m):
    """Reference girth search: BFS from every column, in column order."""
    n_cols, columns, rows = m.cols, col_rows(m), row_cols(m)
    best, best_cycle = math.inf, None
    for start in range(n_cols):
        if best == 4:
            break
        dist, parent, frontier, depth = {start: 0}, {start: -1}, [start], 0
        while frontier and 2 * depth + 1 < best:
            nxt = []
            for u in frontier:
                if u < n_cols:
                    neighbors = [n_cols + r for r in columns[u]]
                else:
                    neighbors = rows[u - n_cols]
                for w in neighbors:
                    if w == parent[u]:
                        continue
                    if w not in dist:
                        dist[w], parent[w] = depth + 1, u
                        nxt.append(w)
                    elif depth + dist[w] + 1 < best:
                        best = depth + dist[w] + 1
                        best_cycle = _tree_cycle(parent, u, w)
            frontier = nxt
            depth += 1
    if best_cycle is None:
        return best, None
    return best, [f"c{x}" if x < n_cols else f"r{x - n_cols}" for x in best_cycle]


def _tree_cycle(parent, u, w):
    def to_root(x):
        path = [x]
        while parent[path[-1]] != -1:
            path.append(parent[path[-1]])
        return path

    pu, pw = to_root(u), to_root(w)
    at = {x: i for i, x in enumerate(pu)}
    j = next(j for j, x in enumerate(pw) if x in at)
    return pu[: at[pw[j]]] + [pw[j]] + pw[:j][::-1]


def _short_orbit_family_21():
    return DifferenceFamily(v=21, k=3, base_blocks=((0, 3, 15), (0, 2, 10), (0, 1, 5)),
                            has_short_orbit_block=True)


@pytest.mark.parametrize("family,roots", [
    (lambda: netto_cdf(13), [0, 13]),
    (lambda: netto_cdf(61), list(range(0, 610, 61))),
    (lambda: buratti_cdf(37, 4), [0, 37, 74]),
    (lambda: buratti_cdf(41, 5), [0, 41]),
    # three full orbits of 21 columns, then the short orbit of 7
    (_short_orbit_family_21, [0, 21, 42, 63]),
], ids=["netto13", "netto61", "buratti37-k4", "buratti41-k5", "short-orbit21"])
def test_girth_orbit_roots_match_all_roots(family, roots):
    h = incidence_matrix(expand_cdf_to_design(family()))
    assert _bfs_roots(h) == roots
    assert girth_with_witness(h) == _girth_all_roots(h)


def _netto61_ra(kind):
    fam = netto_cdf(61)
    acc = find_base_block_with_difference(fam, 1)
    h1 = [i for i in range(1, fam.t + 1) if i != acc]
    return (sra_from_cdf(fam, h1) if kind == "sra" else wqra_from_cdf(fam, 1, h1)).h


@pytest.mark.parametrize("build", [
    lambda: _netto61_ra("sra"),
    lambda: _netto61_ra("w3ra"),
    # Fano incidence with two columns swapped: square, but not circulant
    lambda: SparseBinaryMatrix(7, 7, [(0, 1, 3), (2, 3, 5), (1, 2, 4), (3, 4, 6),
                                      (4, 5, 0), (5, 6, 1), (6, 0, 2)]),
], ids=["netto61-sra", "netto61-w3ra", "non-circulant"])
def test_girth_fallback_roots_match_all_roots(build):
    h = build()
    assert _bfs_roots(h) == range(h.cols)
    assert girth_with_witness(h) == _girth_all_roots(h)


def _gq22_incidence():
    """Points (2-subsets of 0..5) by lines (partitions of 0..5 into three
    2-subsets) of the generalized quadrangle GQ(2, 2): girth 8."""
    points = list(combinations(range(6), 2))
    lines = {frozenset(p for p in points if p in (a, b, c))
             for a in points for b in points for c in points
             if len(set(a) | set(b) | set(c)) == 6}
    index = {p: i for i, p in enumerate(points)}
    return SparseBinaryMatrix(15, 15, [sorted(index[p] for p in line) for line in sorted(lines, key=sorted)])


@pytest.mark.parametrize("build,g", [
    # columns 0-2 close a 6-cycle, so the first root finds 6; columns 3
    # and 4 share rows 3 and 4, a 4-cycle that only a later root finds
    (lambda: SparseBinaryMatrix(5, 5, [(0, 1), (1, 2), (0, 2), (3, 4), (3, 4)]), 4),
    (lambda: SparseBinaryMatrix(3, 3, [(0, 1, 2), (0, 1), (2,)]), 4),
    # one 8-cycle: the floor of 6 is never met and every root is searched
    (lambda: SparseBinaryMatrix(4, 4, [(0, 1), (1, 2), (2, 3), (0, 3)]), 8),
    (_gq22_incidence, 8),
], ids=["four-after-six", "four-irregular", "eight-cycle", "gq22"])
def test_girth_floor_cases_match_all_roots(build, g):
    h = build()
    assert _girth_floor(h) == (4 if g == 4 else 6)
    assert girth_with_witness(h) == _girth_all_roots(h)
    assert girth_with_witness(h)[0] == g
    _assert_real_cycle(h, girth_with_witness(h)[1])


def _keys_reference(pieces, span):
    """The keys major * span + minor as sorted Python ints."""
    return sorted(int(a) * span + int(b) for major, minor in pieces for a, b in zip(major, minor))


@pytest.mark.parametrize("top,dtype", [(0, np.uint32), (2**32 - 1, np.uint32), (2**32, np.uint64)])
def test_key_dtype_is_the_narrowest_that_holds_the_keys(top, dtype):
    assert key_dtype(top) is dtype


@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 4), (4, 0), (9, 11), (1 << 16, (1 << 16) + 1)],
                         ids=["empty", "no-rows", "no-cols", "small", "64-bit"])
def test_sorted_keys_and_row_mirror_match_the_int64_reference(rows, cols):
    # rows * cols reaches 2**32 only in the last case, whose keys are 64-bit
    rng = np.random.default_rng(rows + cols)
    col_rows_in = [rng.choice(rows, rng.integers(0, min(rows, 4) + 1), replace=False)
                   if rows and j % 3 else [] for j in range(cols)]
    m = SparseBinaryMatrix(rows, cols, col_rows_in)  # unsorted columns: normalize_columns sorts keys
    assert col_rows(m) == tuple(tuple(sorted(rs)) for rs in map(list, col_rows_in))
    col = owners(m.col_ptr)
    key = sorted_keys([(m.row_idx, col)], len(col), cols, rows * cols)
    assert key.dtype == key_dtype(rows * cols)
    assert key.tolist() == _keys_reference([(m.row_idx, col)], cols)
    ref = np.sort(m.row_idx * cols + col)  # the int64 keys the mirror used to sort
    assert np.array_equal(m.row_ptr, np.searchsorted(ref, np.arange(rows + 1) * cols))
    assert np.array_equal(m.col_idx, ref % max(cols, 1))
    assert m.row_ptr.dtype == m.col_idx.dtype == np.int64


def test_sorted_keys_of_pieces_fill_one_buffer():
    pieces = [(np.array([3, 0]), np.array([1, 2])), (np.zeros(0, dtype=np.int64),) * 2,
              (np.array([2]), np.array([0]))]
    assert sorted_keys(pieces, 3, 5, 20).tolist() == [2, 10, 16] == _keys_reference(pieces, 5)


# --- rank and girth from the family's circulant orbits ------------------------


def _sweep_families(below):
    for name, build, step in (("netto", netto_cdf, 6), ("buratti4", lambda p: buratti_cdf(p, 4), 12),
                              ("buratti5", lambda p: buratti_cdf(p, 5), 20)):
        for p in range(step + 1, below, step):
            if is_prime(p):
                yield pytest.param(lambda build=build, p=p: build(p), id=f"{name}-{p}")


def _assert_orbits_match_elimination(fam):
    """The family's matrix, and its alist copy, which carries no family,
    have elimination's rank and the same girth witness; returns the rank."""
    h = incidence_matrix(Design(fam.v, fam.k, cyclic=fam))
    loaded = from_alist(to_alist(h))
    assert h.cyclic is fam and loaded.cyclic is None
    assert loaded == h and hash(loaded) == hash(h)
    # the alist copy's orbits come from the circulant check alone, which
    # finds none when a short orbit leaves a block of v columns unfilled
    full = all(n == fam.v for n in fam.orbit_lengths)
    assert _orbits(loaded) == (_orbits(h) if full else None)
    rank = gf2.rank(h.packed_rows())
    assert rank_gf2(h) == rank_gf2(loaded) == rank
    assert girth_with_witness(h) == girth_with_witness(loaded)
    return rank


@pytest.mark.parametrize("family", [*_sweep_families(200),
                                    pytest.param(lambda: netto_cdf(997), id="netto-997")])
def test_rank_from_orbits_matches_elimination(family):
    _assert_orbits_match_elimination(family())


@pytest.mark.parametrize("family,rank", [
    # STS(15), the design file line cyclic base=0,1,4;0,2,8;0,5,10
    (DifferenceFamily(15, 3, ((0, 1, 4), (0, 2, 8)), has_short_orbit_block=True), 11),
    (_short_orbit_family_21(), 21),
], ids=["sts15", "short-orbit21"])
def test_rank_from_orbits_with_a_short_orbit(family, rank):
    assert _assert_orbits_match_elimination(family) == rank


@settings(max_examples=150, deadline=None)
@given(random_families())
@example(DifferenceFamily(9, 3, ((0, 3, 6),), has_short_orbit_block=True))
@example(DifferenceFamily(12, 3, ((0, 1, 3), (0, 1, 3)), has_short_orbit_block=True))
@example(DifferenceFamily(13, 3, ((0, 1, 4), (0, 2, 7))))
def test_rank_from_orbits_matches_elimination_on_random_families(fam):
    _assert_orbits_match_elimination(fam)


@pytest.mark.parametrize("p", [13, 61])
def test_cyclic_incidence_matches_the_block_list_and_leaves_array_unbuilt(p):
    d = expand_cdf_to_design(netto_cdf(p))
    h = incidence_matrix(d)
    assert "array" not in d.__dict__
    assert h == incidence_matrix_from_blocks(d.v, blocks(d))
    assert h.cyclic is d.cyclic


def test_only_incidence_matrices_carry_the_family():
    fam = netto_cdf(13)
    h = incidence_matrix(expand_cdf_to_design(fam))
    assert h.cyclic is fam
    plain = SparseBinaryMatrix(h.rows, h.cols, col_rows(h))
    assert plain.cyclic is None and plain == h and hash(plain) == hash(h)
    assert h.hstack(identity(13)).cyclic is None
    assert _netto61_ra("sra").cyclic is None


# --- array storage: one normaliser, every consumer on the arrays --------------


def _column_lists(rows, cols, rng, weight=None):
    """Random sorted column tuples; all of one weight when weight is given."""
    return [tuple(sorted(rng.sample(range(rows), rng.randint(0, rows) if weight is None
                                    else weight)))
            for _ in range(cols)]


def _packed_rows_reference(m):
    """Rows as int bitsets, one bit at a time."""
    out = []
    for cs in row_cols(m):
        x = 0
        for c in cs:
            x |= 1 << c
        out.append(x)
    return out


def _row_cols_reference(rows, col_rows):
    out = [[] for _ in range(rows)]
    for j, rs in enumerate(col_rows):
        for r in rs:
            out[r].append(j)
    return tuple(tuple(cs) for cs in out)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 8), st.integers(0, 2**30 - 1), st.booleans())
def test_constructor_inputs_agree(rows, cols, seed, regular):
    rng = random.Random(seed)
    weight = rng.randint(0, rows) if regular else None
    columns = _column_lists(rows, cols, rng, weight)
    shuffled = [rng.sample(c, len(c)) for c in columns]
    built = [SparseBinaryMatrix(rows, cols, columns),
             SparseBinaryMatrix(rows, cols, shuffled),
             SparseBinaryMatrix(rows, cols, [list(reversed(c)) for c in columns])]
    if regular:
        arr = np.array(shuffled, dtype=np.int32).reshape(cols, weight)
        built.append(SparseBinaryMatrix(rows, cols, arr))
    ref = built[0]
    assert col_rows(ref) == tuple(columns)
    assert row_cols(ref) == _row_cols_reference(rows, columns)
    for m in built:
        assert m == ref and hash(m) == hash(ref)
        assert col_rows(m) == col_rows(ref) and row_cols(m) == row_cols(ref)
        assert m.packed_rows() == _packed_rows_reference(m)
        dense = to_dense(m)
        assert dense.tolist() == [[int(r in c) for c in columns] for r in range(rows)]
        x = np.array([rng.randint(0, 1) for _ in range(cols)], dtype=np.uint8)
        assert m.mul_vector(x).tolist() == ((dense.astype(int) @ x) % 2).tolist()


def _mul_vector_reference(m, x):
    """H @ x over GF(2) for one vector, by counting the hits of each row."""
    hit = m.row_idx[np.repeat(np.asarray(x) != 0, np.diff(m.col_ptr))]
    return (np.bincount(hit, minlength=m.rows) & 1).astype(np.uint8)


def test_mul_vector_matches_the_bincount_reference():
    rng = np.random.default_rng(17)
    for m in random_parity_checks(17, 200):
        for frames in (0, 1, 7, 8, 9, 70):
            x = rng.integers(0, 2, size=(frames, m.cols), dtype=np.uint8)
            want = np.array([_mul_vector_reference(m, v) for v in x]).reshape(frames, m.rows)
            for v, syndrome in zip(x, want):
                got = m.mul_vector(v)
                assert got.dtype == np.uint8
                assert np.array_equal(got, syndrome), m
            got = m.mul_vector(x)
            assert got.dtype == np.uint8 and np.array_equal(got, want), (m, frames)
        # any batch shape, and any nonzero entry counts as 1
        x = rng.integers(0, 3, size=(2, 3, m.cols))
        want = np.array([_mul_vector_reference(m, v) for v in x.reshape(6, m.cols)])
        assert np.array_equal(m.mul_vector(x), want.reshape(2, 3, m.rows)), m
        for bad in (np.zeros(m.cols + 1), np.zeros((3, m.cols + 1)), np.array(0)):
            with pytest.raises(ValueError, match="vector length mismatch"):
                m.mul_vector(bad)


@pytest.mark.parametrize("rows", [1 << 16, (1 << 16) + 1])
def test_row_mirror_matches_the_int64_sort(rows):
    # 65536 rows still fit 16-bit sort keys, 65537 do not
    rng = np.random.default_rng(rows)
    col_rows = [np.append(rng.choice(rows - 1, 40, replace=False), rows - 1) for _ in range(300)]
    m = SparseBinaryMatrix(rows, len(col_rows), col_rows)
    assert np.array_equal(m.col_idx, owners(m.col_ptr)[np.argsort(m.row_idx, kind="stable")])
    assert row_cols(m)[rows - 1] == tuple(range(300))


def test_constructor_copies_array_input():
    arr = np.array([[0, 1], [1, 2]])
    m = SparseBinaryMatrix(3, 2, arr)
    arr[0, 0] = 2
    assert col_rows(m) == ((0, 1), (1, 2))
    with pytest.raises(ValueError):
        m.row_idx[0] = 2


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 4), st.lists(st.lists(st.integers(-2, 5), max_size=4), max_size=5))
def test_constructor_errors_name_the_first_bad_column(rows, columns):
    # the per-column checks the arrays replace: range first, then repeats
    expected = None
    for j, rs in enumerate(columns):
        if any(r < 0 or r >= rows for r in rs):
            expected = f"row index out of range in column {j}"
        elif len(set(rs)) != len(rs):
            expected = f"duplicate entry in column {j}"
        if expected:
            break
    if expected is None:
        m = SparseBinaryMatrix(rows, len(columns), columns)
        assert col_rows(m) == tuple(tuple(sorted(rs)) for rs in columns)
    else:
        with pytest.raises(ValueError, match=f"^{expected}$"):
            SparseBinaryMatrix(rows, len(columns), columns)


def test_packed_rows_of_designs_and_ra_codes():
    for h in (incidence_matrix(expand_cdf_to_design(netto_cdf(61))), _netto61_ra("sra"),
              _netto61_ra("w3ra")):
        assert h.packed_rows() == _packed_rows_reference(h)


def test_hstack_concatenates_columns():
    rng = random.Random(5)
    a = SparseBinaryMatrix(5, 4, _column_lists(5, 4, rng))
    b = SparseBinaryMatrix(5, 3, _column_lists(5, 3, rng))
    ab = a.hstack(b)
    assert ab == SparseBinaryMatrix(5, 7, list(col_rows(a)) + list(col_rows(b)))
    assert row_cols(ab) == _row_cols_reference(5, col_rows(ab))
    assert SparseBinaryMatrix(5, 0, []).hstack(a) == a
    with pytest.raises(ValueError):
        a.hstack(SparseBinaryMatrix(4, 1, [(0,)]))


def _circulant_reference(m):
    """Whether every column is its block's first column shifted down by
    its place in the block, checked one column at a time; blocks have
    m.rows columns."""
    v, columns = m.rows, col_rows(m)
    return all(columns[c] == tuple(sorted((r + c % v) % v for r in columns[c - c % v]))
               for c in range(m.cols))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(0, 3), st.integers(0, 2**30 - 1), st.integers(0, 3))
def test_orbits_match_per_column_reference(rows, blocks, seed, damage):
    rng = random.Random(seed)
    firsts = _column_lists(rows, blocks, rng)
    orbits = tuple((f, rows) for f in firsts)
    m = expand_orbits(rows, orbits)
    assert _orbits(m) == orbits
    assert col_rows(m) == tuple(
        tuple(sorted((r + j) % rows for r in f)) for f in firsts for j in range(rows))
    cols = [list(c) for c in col_rows(m)]
    for _ in range(damage if cols else 0):
        c = cols[rng.randrange(len(cols))]
        r = rng.randrange(rows)
        if r in c:
            c.remove(r)
        else:
            c.append(r)
    damaged = SparseBinaryMatrix(rows, len(cols), cols)
    if _circulant_reference(damaged):
        assert expand_orbits(rows, _orbits(damaged)) == damaged
    else:
        assert _orbits(damaged) is None


def test_orbits_read_past_the_first_block():
    h = incidence_matrix(expand_cdf_to_design(netto_cdf(13)))
    cols = list(col_rows(h))
    cols[13 + 5] = cols[13 + 4]  # block 1, column 5 repeats column 4
    assert _orbits(SparseBinaryMatrix(13, 26, cols)) is None
    cols = list(col_rows(h))
    cols[13 + 2] = cols[13 + 2][:2]  # block 1, column 2 loses an entry
    assert _orbits(SparseBinaryMatrix(13, 26, cols)) is None
