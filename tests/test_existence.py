import pytest

from bibdcodes.designs import (
    Status,
    cdf_exists,
    crcbibd_exists,
    ldpc_parameters,
    rbibd_existence_status,
)
from bibdcodes.errors import BadModulus


def test_crcbibd_k3_always_exists():
    for p in (7, 13, 19, 31, 97):
        assert crcbibd_exists(p, 3).value is Status.EXISTS


def test_crcbibd_k5_examples():
    assert crcbibd_exists(41, 5).value is Status.EXISTS
    assert crcbibd_exists(101, 5).value is Status.UNKNOWN
    assert crcbibd_exists(881, 5).value is Status.EXISTS


def test_crcbibd_k9_table():
    assert crcbibd_exists(73, 9).value is Status.EXISTS
    assert crcbibd_exists(1153, 9).value is Status.EXISTS
    # 433 = 1 mod 72 and prime but not tabulated
    assert crcbibd_exists(433, 9).value is Status.UNKNOWN


def test_crcbibd_k7_condition_matches_table():
    table = {337, 421, 463, 883, 1723, 3067, 3319, 3823, 3907,
             4621, 4957, 5167, 5419, 5881, 6133, 8233, 8527, 8821,
             9619, 9787, 9829}
    for p in (337, 463, 43, 127, 2143):
        expected = p in table
        assert bool(crcbibd_exists(p, 7)) == expected, p


def test_crcbibd_rejects_bad_inputs():
    with pytest.raises(BadModulus):
        crcbibd_exists(40, 5)
    with pytest.raises(BadModulus):
        crcbibd_exists(41, 4)


def test_rbibd_examples():
    assert rbibd_existence_status(45, 5).value is Status.UNKNOWN
    assert rbibd_existence_status(185, 5).value is Status.EXISTS
    assert rbibd_existence_status(10, 4).value is Status.IMPOSSIBLE
    assert rbibd_existence_status(9, 3).value is Status.EXISTS
    assert rbibd_existence_status(176, 8).value is Status.UNKNOWN
    assert rbibd_existence_status(64, 8).value is Status.EXISTS  # same prime power
    assert rbibd_existence_status(36, 6).value is Status.UNKNOWN  # famously open
    assert rbibd_existence_status(3, 3).value is Status.EXISTS


def test_cdf_examples():
    assert cdf_exists(7, 3).value is Status.EXISTS
    assert cdf_exists(61, 6).value is Status.UNKNOWN  # the excluded t=2 case
    assert cdf_exists(31, 6).value is Status.EXISTS
    assert cdf_exists(127, 7).value is Status.UNKNOWN  # listed possible exception
    assert cdf_exists(337, 8).value is Status.UNKNOWN
    assert cdf_exists(449, 8).value is Status.EXISTS
    assert cdf_exists(433, 9).value is Status.EXISTS
    assert cdf_exists(11, 3).value is Status.IMPOSSIBLE  # wrong residue
    assert cdf_exists(25, 4).value is Status.IMPOSSIBLE  # composite


def test_parameter_lines():
    params = ldpc_parameters(19, 3, 9)
    assert params.n == 57
