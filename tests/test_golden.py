"""Pinned campaign CSVs and structure outputs.

Campaign CSVs are a byte-for-byte contract: a refactor or speed-up of
the encoder, channel or decoder must reproduce these SHA-256 values,
at any batch size. The design-file text, the alist text, the girth
witness and the RA transforms' alist and sidecar text are pinned the
same way, so a change to how designs or matrices are stored, or to how
the RA transforms assemble [H1 H2], must give the same bytes, not just
consistent ones. The exhaustive ML decisions and minimum distances are
pinned too, so a change to how the codewords are enumerated must keep
every tie resolved as before.
"""

import hashlib

import numpy as np
import pytest

from bibdcodes.alist import from_alist, to_alist
from bibdcodes.codec import EncoderState, ber_campaign, ml_decode_exhaustive, records_to_csv
from bibdcodes.designs import (
    buratti_cdf,
    expand_cdf_to_design,
    find_base_block_with_difference,
    format_design,
    netto_cdf,
    radical_df_search,
)
from bibdcodes.matrices import (
    SparseBinaryMatrix,
    girth_with_witness,
    incidence_matrix,
    min_distance_exhaustive,
    rank_gf2,
)
from bibdcodes.ra import (
    sidecar_text,
    sra_from_cdf,
    sra_from_crcbibd,
    sra_from_kts,
    w3ra_from_kts,
    wqra_from_cdf,
    wqra_from_crcbibd,
)

BATCH_SIZES = [256, 7, 1, 64]


def _sha(records) -> str:
    return _sha_text(records_to_csv(records))


def _sha_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def netto199():
    return expand_cdf_to_design(netto_cdf(199))


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


@pytest.mark.parametrize("compact,digest", [
    (False, "1f579d2019652058a4e40589b084f95e2d45eadea9cac4727936d32260324bf9"),
    (True, "0dee3f328a81e9174cb5cc23d788e1543f3ab242ae87d53c5fc3c6d548492018"),
])
def test_golden_netto997_design_file(compact, digest):
    d = expand_cdf_to_design(netto_cdf(997))
    assert _sha_text(format_design(d, compact=compact)) == digest


def test_golden_netto199_alist(netto199):
    text = to_alist(incidence_matrix(netto199))
    assert _sha_text(text) == "b9a1ab55a275ca50fa24279473d02903ad6c0afc893f4dee4b8ca717797ee904"


def test_golden_netto997_alist():
    text = to_alist(incidence_matrix(expand_cdf_to_design(netto_cdf(997))))
    assert _sha_text(text) == "7efa7cd3df46eb92888f3449c70d4e8414d54dea858fdee31538152593920695"


def test_golden_girth_witness_netto61():
    h = incidence_matrix(expand_cdf_to_design(netto_cdf(61)))
    assert girth_with_witness(h) == (6, ["c24", "r26", "c0", "r2", "c120", "r50"])


def test_golden_girth_witness_netto199(netto199):
    h = incidence_matrix(netto199)
    assert girth_with_witness(h) == (6, ["c74", "r77", "c0", "r3", "c1550", "r151"])


def _other_orbits(fam, g1):
    acc = find_base_block_with_difference(fam, g1)
    return [i for i in range(1, fam.t + 1) if i != acc]


# each case builds one transform from (netto61, buratti37, kts21, crcbibd39)
RA_TRANSFORMS = {
    "sra-cdf-netto61": lambda n, b, k, c: sra_from_cdf(n, _other_orbits(n, 1)),
    "wqra-cdf-netto61-g1": lambda n, b, k, c: wqra_from_cdf(n, 1, _other_orbits(n, 1)),
    "wqra-cdf-netto61-g2": lambda n, b, k, c: wqra_from_cdf(n, 2, _other_orbits(n, 2)),
    "wqra-cdf-buratti37-g3": lambda n, b, k, c: wqra_from_cdf(b, 3, _other_orbits(b, 3)),
    "sra-kts21": lambda n, b, k, c: sra_from_kts(k, list(range(7))),
    "w3ra-kts21": lambda n, b, k, c: w3ra_from_kts(k, list(range(7))),
    "sra-crcbibd39": lambda n, b, k, c: sra_from_crcbibd(c, 13, [16, 17, 18]),
    "wqra-crcbibd39-g1": lambda n, b, k, c: wqra_from_crcbibd(c, 13, 1, [16, 17, 18]),
    "wqra-crcbibd39-g2": lambda n, b, k, c: wqra_from_crcbibd(c, 13, 2, [16, 17, 18]),
}


@pytest.mark.parametrize("name,digest", [
    ("sra-cdf-netto61", "fd2b9c3e3c94d18ec8be69ada43fc0530911a0883d0f7cdb9397cc224807f5b0"),
    ("wqra-cdf-netto61-g1", "d80f045fed47f315d671e631e0900381351b5fb62b3192ba71ea30ef914363c6"),
    ("wqra-cdf-netto61-g2", "5af3f308586cf73adb5a4d9be84ec6264902e5b5c751384cb41c9335ef10ed3e"),
    ("wqra-cdf-buratti37-g3", "b770ec3d2d2636549d6c87b1b5a9137cd42dcd3892c7efd64f4da0eb42cdc4d3"),
    ("sra-kts21", "4d76940b85323c065aafd3041d11ebcce630b26be2ff1389f37a620fcc070773"),
    ("w3ra-kts21", "d0b3c0f5515709251d9692e0cf50335a795ead6aa1b774ae3d584bc64d6afd56"),
    ("sra-crcbibd39", "b180ab073dbf35a5f137f10fded80d8a3ffcdf1d2146014c9272cb2fea25f968"),
    ("wqra-crcbibd39-g1", "c00571ebe6625ec6826fa3a0e4558d8ccdabde2833b1fbb5d6280d209a1b2684"),
    ("wqra-crcbibd39-g2", "6148d9d0f493bcb92139a4a1f6f93784aff6e6dda3da61047fc37944bd8be352"),
])
def test_golden_ra_transform(kts21, crcbibd39, name, digest):
    ra = RA_TRANSFORMS[name](netto_cdf(61), buratti_cdf(37, 4), kts21, crcbibd39)
    assert _sha_text(to_alist(ra.h) + sidecar_text(ra)) == digest


def _random_code(rows: int, cols: int, seed: int) -> SparseBinaryMatrix:
    """Columns of weight 2 or 3 on seeded random rows."""
    rng = np.random.default_rng(seed)
    return SparseBinaryMatrix(rows, cols, [
        rng.choice(rows, size=int(rng.integers(2, 4)), replace=False) for _ in range(cols)
    ])


def _ml_decisions(h, count: int, seed: int) -> bytes:
    """ML decisions for count seeded LLR vectors: even ones Gaussian,
    odd ones integers in -2..2, so that exact ties occur."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        if i % 2:
            llr = rng.integers(-2, 3, size=h.cols).astype(np.float64)
        else:
            llr = rng.normal(0.5, 1.5, size=h.cols)
        out.append(ml_decode_exhaustive(h, llr).tobytes())
    return b"".join(out)


@pytest.mark.parametrize("name,digest", [
    ("fano", "b32ffa6cf5e05222ec2d955802dbf76c9d47855ebdfa3c0a7074d1295000514e"),
    ("ag23", "c302a68c1347a02179b66a50b4a5314b2997c9b8cb23debbbc755831bf589a34"),
    ("random-k16", "bb6c4e40e19c10afd452c7e076d4faef42068976cb57241bd04a1a11d358b60a"),
])
def test_golden_ml_decisions(ag23, name, digest):
    h, count = {
        "fano": lambda: (incidence_matrix(expand_cdf_to_design(netto_cdf(7))), 256),
        "ag23": lambda: (incidence_matrix(ag23), 256),
        "random-k16": lambda: (_random_code(8, 24, 16), 4),
    }[name]()
    if name == "random-k16":
        assert h.cols - rank_gf2(h) == 16
    assert hashlib.sha256(_ml_decisions(h, count, seed=7)).hexdigest() == digest


def test_golden_min_distances():
    # the acceptance-4 designs whose codes have dimension K <= 24
    designs = [
        ("netto7", expand_cdf_to_design(netto_cdf(7))),
        ("netto13", expand_cdf_to_design(netto_cdf(13))),
        ("buratti4-13", expand_cdf_to_design(buratti_cdf(13, 4))),
        ("rdf13", expand_cdf_to_design(radical_df_search(13, 3))),
    ]
    text = "".join(f"{name} {min_distance_exhaustive(incidence_matrix(d))}\n"
                   for name, d in designs)
    assert _sha_text(text) == "e8824a1c93d48905ed27cc78dd0a36301e233f47f858f58b343bde3b6a675ed6"
