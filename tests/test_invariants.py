"""Cross-module invariants tying designs, transforms and the codec together."""

import numpy as np
import pytest

from bibdcodes.alist import from_alist, to_alist
from bibdcodes.codec import BpGraph, ChannelConfig, DecoderConfig, transmit
from bibdcodes.designs import (
    DifferenceFamily,
    expand_cdf_to_design,
    find_base_block_with_difference,
    find_cyclic_resolution,
    netto_cdf,
)
from bibdcodes.errors import Infeasible
from bibdcodes.matrices import girth
from bibdcodes.ra import sra_from_cdf, sra_from_crcbibd, sra_from_kts, w3ra_from_kts, wqra_from_cdf


def _netto_ra_pair(p):
    fam = netto_cdf(p)
    acc = find_base_block_with_difference(fam, 1)
    h1 = [i for i in range(1, fam.t + 1) if i != acc]
    return sra_from_cdf(fam, h1), wqra_from_cdf(fam, 1, h1)


def test_full_parity_checks_keep_girth_six(kts21, crcbibd39):
    sra31, w331 = _netto_ra_pair(31)
    candidates = {
        "sra31": sra31.h,
        "w3ra31": w331.h,
        "kts-sra": sra_from_kts(kts21, h1_classes=list(range(7))).h,
        "kts-w3ra": w3ra_from_kts(kts21, h1_classes=list(range(7))).h,
        "crc-sra": sra_from_crcbibd(crcbibd39, class_orbit=13, h1_classes=[16, 17, 18]).h,
    }
    for name, h in candidates.items():
        assert girth(h) >= 6, name


def test_decoding_uses_only_h(kts21):
    # the same matrix shipped through the alist format decodes identically
    ra = sra_from_kts(kts21, h1_classes=list(range(7)))
    h = ra.h
    h_again = from_alist(to_alist(h))
    assert h_again == h
    cfg = ChannelConfig(ebno_db=2.0, rate=ra.k / (ra.k + ra.m))
    llrs = transmit(np.zeros((12, h.cols), dtype=np.uint8), cfg,
                    [np.random.default_rng(s) for s in range(12)])
    a = BpGraph(h).decode_batch(llrs, DecoderConfig())
    b = BpGraph(h_again).decode_batch(llrs, DecoderConfig())
    assert (a[0] == b[0]).all() and (a[1] == b[1]).all() and (a[2] == b[2]).all()


def test_kts21_file_is_not_shift_closed(kts21):
    # the relabeled tail fixture is resolvable but no longer cyclic under +1
    with pytest.raises(Infeasible):
        find_cyclic_resolution(kts21.with_resolution(None))


def test_cyclic_21_point_design_recovers_resolution():
    fam = DifferenceFamily(v=21, k=3, base_blocks=((0, 3, 15), (0, 2, 10), (0, 1, 5)),
                           has_short_orbit_block=True)
    d = expand_cdf_to_design(fam)
    resolution = find_cyclic_resolution(d, limit=10**6)
    assert len(resolution) == 10
