"""Pinned campaign CSVs.

Campaign CSVs are a byte-for-byte contract: a refactor or speed-up of
the encoder, channel or decoder must reproduce these SHA-256 values,
at any batch size.
"""

import hashlib

import pytest

from bibdcodes.alist import from_alist, to_alist
from bibdcodes.codec import EncoderState, ber_campaign, records_to_csv
from bibdcodes.designs import expand_cdf_to_design, find_base_block_with_difference, netto_cdf
from bibdcodes.matrices import incidence_matrix
from bibdcodes.ra import sra_from_cdf, wqra_from_cdf

BATCH_SIZES = [256, 7]


def _sha(records) -> str:
    return hashlib.sha256(records_to_csv(records).encode()).hexdigest()


@pytest.fixture(scope="module")
def netto61_ra():
    fam = netto_cdf(61)
    acc = find_base_block_with_difference(fam, 1)
    h1 = [i for i in range(1, fam.t + 1) if i != acc]
    return {"sra": sra_from_cdf(fam, h1), "w3ra": wqra_from_cdf(fam, 1, h1)}


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_golden_netto31_ldpc(batch_size):
    # the acceptance-9 workload, with H reloaded through the alist text
    h = from_alist(to_alist(incidence_matrix(expand_cdf_to_design(netto_cdf(31)))))
    records = ber_campaign(h, [2.0, 3.0], seed=314, min_frame_errors=20, max_frames=400,
                           batch_size=batch_size)
    assert _sha(records) == "e29c9d42983d35be5a98c9fd380c4a78c734dc66b4b4c10f314d6ac31d7ed9dc"


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("name,digest", [
    ("sra", "5307a724724141cf3025a82a7788cbb9eb9a3953efdb075e873f5f1b65b90f30"),
    ("w3ra", "179c8c2cb308b208b1a6fdd33d034fd85f3a4eb03b6a4fba08b233323b424bd4"),
])
def test_golden_netto61_ra(netto61_ra, name, digest, batch_size):
    ra = netto61_ra[name]
    records = ber_campaign(ra.h, [4.0], seed=61, min_frame_errors=100,
                           encoder=EncoderState.from_ra(ra), batch_size=batch_size)
    assert _sha(records) == digest
