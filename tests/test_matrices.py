import math

import numpy as np
import pytest

from bibdcodes.designs import (
    DifferenceFamily,
    buratti_cdf,
    expand_cdf_to_design,
    find_base_block_with_difference,
    netto_cdf,
)
from bibdcodes.errors import NotQuasiCyclic, TooLarge
from bibdcodes.matrices import (
    SparseBinaryMatrix,
    _bfs_roots,
    code_dimensions,
    expand_qc_layout,
    girth,
    girth_with_witness,
    incidence_matrix,
    min_distance_exhaustive,
    qc_layout,
    rank_gf2,
    regularity,
)
from bibdcodes.ra import sra_from_cdf, wqra_from_cdf


@pytest.fixture(scope="module")
def fano():
    return incidence_matrix(expand_cdf_to_design(netto_cdf(7)))


def test_matrix_mirrors_agree(fano):
    dense = fano.to_dense()
    for j, rows in enumerate(fano.col_rows):
        assert list(rows) == list(np.nonzero(dense[:, j])[0])
    for i, cols in enumerate(fano.row_cols):
        assert list(cols) == list(np.nonzero(dense[i, :])[0])


def test_matrix_rejects_duplicates():
    with pytest.raises(ValueError):
        SparseBinaryMatrix(3, 1, [(0, 0)])
    with pytest.raises(ValueError):
        SparseBinaryMatrix(3, 1, [(5,)])


def test_incidence_examples(fano, ag23):
    assert (fano.rows, fano.cols) == (7, 7)
    assert set(fano.column_weights()) == {3} and set(fano.row_weights()) == {3}
    h = incidence_matrix(ag23)
    assert (h.rows, h.cols) == (9, 12)
    assert set(h.column_weights()) == {3} and set(h.row_weights()) == {4}
    single = incidence_matrix_from_blocks(2, [(0, 1)])
    assert single.to_dense().tolist() == [[1], [1]]


def incidence_matrix_from_blocks(v, blocks):
    return SparseBinaryMatrix(v, len(blocks), [tuple(b) for b in blocks])


def test_girth_examples(fano):
    assert girth(fano) == 6
    assert girth(SparseBinaryMatrix.identity(5)) == math.inf
    assert girth(SparseBinaryMatrix(2, 2, [(0, 1), (0, 1)])) == 4


def test_girth_witness_is_a_real_cycle(fano):
    g, witness = girth_with_witness(fano)
    assert g == 6 and len(witness) == 6
    for i, label in enumerate(witness):
        nxt = witness[(i + 1) % len(witness)]
        col_label, row_label = (label, nxt) if label[0] == "c" else (nxt, label)
        assert int(row_label[1:]) in fano.col_rows[int(col_label[1:])]
    assert girth_with_witness(SparseBinaryMatrix.identity(2)) == (float("inf"), None)


def test_girth_brute_force_cross_check():
    # enumerate simple cycles on a small random-ish matrix via networkx-free DFS
    m = SparseBinaryMatrix(4, 5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    # cycle through cols 0,1,4: rows 0-1-2 -> length 6
    assert girth(m) == 6


def test_rank_examples(fano):
    assert rank_gf2(fano) == 4
    dims = code_dimensions(fano)
    assert (dims.k, dims.rate) == (3, 3 / 7)
    assert rank_gf2(SparseBinaryMatrix.identity(6)) == 6
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


def test_qc_layout_roundtrip():
    h = incidence_matrix(expand_cdf_to_design(netto_cdf(13)))
    layout = qc_layout(h, 13)
    assert len(layout.block_columns) == 2
    assert expand_qc_layout(layout) == h


def test_qc_layout_identity():
    eye = SparseBinaryMatrix.identity(4)
    layout = qc_layout(eye, 4)
    assert len(layout.block_columns) == 1
    assert expand_qc_layout(layout) == eye


def test_qc_layout_rejects_non_circulant():
    m = SparseBinaryMatrix(3, 3, [(0,), (1,), (0,)])
    with pytest.raises(NotQuasiCyclic) as err:
        qc_layout(m, 3)
    assert err.value.block_index == 0


def test_min_distance_examples(fano):
    assert min_distance_exhaustive(fano) == 4
    eye_pair = SparseBinaryMatrix(4, 8, [(i,) for i in range(4)] * 2)
    assert min_distance_exhaustive(eye_pair) == 2
    assert min_distance_exhaustive(SparseBinaryMatrix.identity(3)) == math.inf


def test_min_distance_matches_direct_enumeration(ag23):
    h = incidence_matrix(ag23)
    # independent oracle: all 2^12 column subsets
    cols = h.to_dense().astype(int)
    best = None
    for mask in range(1, 1 << 12):
        picked = [j for j in range(12) if (mask >> j) & 1]
        if not (cols[:, picked].sum(axis=1) % 2).any():
            w = len(picked)
            best = w if best is None else min(best, w)
    assert min_distance_exhaustive(h) == best
    assert best >= 4  # k + 1


def test_min_distance_cap_path():
    # force the bounded search by a wide identity pair (K = 30 > limit)
    n = 30
    h = SparseBinaryMatrix(n, 2 * n, [(i,) for i in range(n)] * 2)
    assert min_distance_exhaustive(h, cap=2) == 2
    tall = SparseBinaryMatrix(2, 32, [(0,), (1,)] * 16)
    assert min_distance_exhaustive(tall, cap=1) is None  # above cap
    with pytest.raises(TooLarge):
        min_distance_exhaustive(h)


# --- girth: one BFS root per circulant orbit ---------------------------------


def _girth_all_roots(m):
    """Reference girth search: BFS from every column, in column order."""
    n_cols = m.cols
    best, best_cycle = math.inf, None
    for start in range(n_cols):
        if best == 4:
            break
        dist, parent, frontier, depth = {start: 0}, {start: -1}, [start], 0
        while frontier and 2 * depth + 1 < best:
            nxt = []
            for u in frontier:
                if u < n_cols:
                    neighbors = [n_cols + r for r in m.col_rows[u]]
                else:
                    neighbors = m.row_cols[u - n_cols]
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


@pytest.mark.parametrize("family", [
    lambda: netto_cdf(13),
    lambda: netto_cdf(61),
    lambda: buratti_cdf(37, 4),
    lambda: buratti_cdf(41, 5),
], ids=["netto13", "netto61", "buratti37-k4", "buratti41-k5"])
def test_girth_orbit_roots_match_all_roots(family):
    h = incidence_matrix(expand_cdf_to_design(family()))
    assert _bfs_roots(h) == range(0, h.cols, h.rows)
    assert girth_with_witness(h) == _girth_all_roots(h)


def _short_orbit_design_matrix():
    fam = DifferenceFamily(v=21, k=3, base_blocks=((0, 3, 15), (0, 2, 10), (0, 1, 5)),
                           has_short_orbit_block=True)
    return incidence_matrix(expand_cdf_to_design(fam))


def _netto61_ra(kind):
    fam = netto_cdf(61)
    acc = find_base_block_with_difference(fam, 1)
    h1 = [i for i in range(1, fam.t + 1) if i != acc]
    return (sra_from_cdf(fam, h1) if kind == "sra" else wqra_from_cdf(fam, 1, h1)).h


@pytest.mark.parametrize("build", [
    _short_orbit_design_matrix,
    lambda: _netto61_ra("sra"),
    lambda: _netto61_ra("w3ra"),
    # Fano incidence with two columns swapped: square, but not circulant
    lambda: SparseBinaryMatrix(7, 7, [(0, 1, 3), (2, 3, 5), (1, 2, 4), (3, 4, 6),
                                      (4, 5, 0), (5, 6, 1), (6, 0, 2)]),
], ids=["short-orbit21", "netto61-sra", "netto61-w3ra", "non-circulant"])
def test_girth_fallback_roots_match_all_roots(build):
    h = build()
    assert _bfs_roots(h) == range(h.cols)
    assert girth_with_witness(h) == _girth_all_roots(h)
