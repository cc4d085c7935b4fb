import pytest

from bibdcodes.designs import (
    Design,
    DifferenceFamily,
    expand_cdf_to_design,
    find_cyclic_resolution,
    find_resolution,
    format_design,
    netto_cdf,
    parse_design,
    verify_bibd,
    verify_resolution,
)
from bibdcodes.errors import Infeasible, MissingResolution, Timeout

from conftest import affine_plane_order3


def test_expand_netto7_is_fano_sized():
    d = expand_cdf_to_design(netto_cdf(7))
    rep = verify_bibd(d)
    assert rep.ok and rep.r == 3 and rep.b == 7


def test_expand_netto13_counts():
    d = expand_cdf_to_design(netto_cdf(13))
    rep = verify_bibd(d)
    assert rep.ok and rep.b == 26 and rep.r == 6
    assert rep.b * d.k == d.v * rep.r


def test_expand_block_order_is_base_major_shift_minor():
    fam = netto_cdf(13)
    d = expand_cdf_to_design(fam)
    b1 = fam.base_blocks[0]
    assert d.blocks[0] == b1
    assert d.blocks[1] == tuple(sorted((x + 1) % 13 for x in b1))
    assert d.blocks[13] == fam.base_blocks[1]


def test_expand_with_short_orbit():
    fam = DifferenceFamily(v=21, k=3, base_blocks=((0, 3, 15), (0, 2, 10), (0, 1, 5)),
                           has_short_orbit_block=True)
    d = expand_cdf_to_design(fam)
    assert d.b == 3 * 21 + 7
    assert verify_bibd(d).ok
    assert d.blocks[-7] == (0, 7, 14)
    assert d.cyclic.orbit_lengths == (21, 21, 21, 7)


def test_verify_bibd_flags_duplicated_block():
    d = expand_cdf_to_design(netto_cdf(7))
    dup = Design(v=7, k=3, blocks=d.blocks + d.blocks[:1])
    rep = verify_bibd(dup)
    assert not rep.ok
    assert rep.lambda_histogram.get(2, 0) > 0


def test_verify_bibd_empty_design():
    rep = verify_bibd(Design(v=3, k=2, blocks=()))
    assert not rep.ok


def test_verify_resolution_ag23(ag23):
    rep = verify_resolution(ag23)
    assert rep.ok
    assert all(h == {1: 9} for h in rep.class_histograms)


def test_verify_resolution_detects_cross_class_swap(ag23):
    classes = [list(c) for c in ag23.resolution]
    classes[0][0], classes[1][0] = classes[1][0], classes[0][0]
    rep = verify_resolution(ag23.with_resolution(classes))
    assert not rep.ok


def test_verify_resolution_requires_resolution():
    d = expand_cdf_to_design(netto_cdf(7))
    with pytest.raises(MissingResolution):
        verify_resolution(d)


def test_find_resolution_recovers_ag23(ag23):
    stripped = ag23.without_resolution()
    resolution = find_resolution(stripped)
    assert len(resolution) == 4
    assert verify_resolution(stripped.with_resolution(resolution)).ok


def test_find_resolution_rejects_fano():
    d = expand_cdf_to_design(netto_cdf(7))
    with pytest.raises(Infeasible):
        find_resolution(d)


def test_find_resolution_budget():
    d = affine_plane_order3().without_resolution()
    with pytest.raises(Timeout):
        find_resolution(d, limit=2)


def test_find_cyclic_resolution_on_crcbibd39(crcbibd39):
    stripped = crcbibd39.without_resolution()
    resolution = find_cyclic_resolution(stripped, limit=10**7)
    restored = stripped.with_resolution(resolution)
    assert verify_resolution(restored).ok
    # shift closure: shifting every block of a class lands on another class
    index_of = {blk: i for i, blk in enumerate(restored.blocks)}
    class_sets = [frozenset(c) for c in resolution]
    for cls in class_sets:
        shifted = frozenset(
            index_of[tuple(sorted((x + 1) % 39 for x in restored.blocks[b]))] for b in cls
        )
        assert shifted in class_sets


def test_find_cyclic_resolution_rejects_noncyclic(ag23):
    with pytest.raises(Infeasible):
        find_cyclic_resolution(ag23.without_resolution())


def test_kts21_fixture_resolution(kts21):
    assert verify_bibd(kts21).ok
    assert verify_resolution(kts21).ok
    assert len(kts21.resolution) == 10


def test_crcbibd39_fixture(crcbibd39):
    assert verify_bibd(crcbibd39).ok
    assert verify_resolution(crcbibd39).ok
    assert len(crcbibd39.resolution) == 19


# --- file format ------------------------------------------------------------


def test_design_io_roundtrip():
    d = expand_cdf_to_design(netto_cdf(13))
    assert parse_design(format_design(d)) == d


def test_design_io_compact_expansion():
    d = expand_cdf_to_design(netto_cdf(13))
    compact = format_design(d, compact=True)
    assert len(compact.splitlines()) == 2
    assert parse_design(compact).blocks == d.blocks


def test_design_io_resolution_roundtrip(kts21):
    text = format_design(kts21)
    again = parse_design(text)
    assert again.resolution == kts21.resolution


def test_design_io_rejects_coverage_violation():
    d = expand_cdf_to_design(netto_cdf(7))
    bad = Design(v=7, k=3, blocks=d.blocks[:-1] + ((0, 1, 2),))
    text = format_design(bad)
    with pytest.raises(ValueError):
        parse_design(text)
    assert parse_design(text, trusted=True).b == 7


def test_design_io_header_mismatch():
    with pytest.raises(ValueError):
        parse_design("design v=7 k=3 b=2\n0,1,3\n")


@pytest.mark.parametrize("key", ["v", "k", "b"])
def test_design_io_header_missing_key(key):
    fields = {"v": "v=7", "k": "k=3", "b": "b=1"}
    del fields[key]
    with pytest.raises(ValueError, match=f"lacks {key}="):
        parse_design("design " + " ".join(fields.values()) + "\n0,1,3\n", trusted=True)


def test_find_cyclic_resolution_proves_infeasible_family():
    # valid cyclic design whose family has no block transversal to the
    # residues mod 3, so no shift-closed resolution can exist
    fam = DifferenceFamily(v=21, k=3, base_blocks=((0, 1, 3), (0, 4, 12), (0, 5, 11)),
                           has_short_orbit_block=True)
    d = expand_cdf_to_design(fam)
    assert verify_bibd(d).ok
    with pytest.raises(Infeasible):
        find_cyclic_resolution(d, limit=10**6)
