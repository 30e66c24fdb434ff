"""Strict-partition combinatorics for the Schubert index set."""

import pytest
from hypothesis import given, strategies as st

from ogq.partitions import (
    InvalidPartitionError,
    all_strict,
    dual,
    format_partition,
    is_valid,
    parse_partition,
    rho,
    validate,
    weight,
)


def test_all_strict_small_cases():
    assert all_strict(0) == [()]
    assert all_strict(1) == [(), (1,)]
    assert all_strict(2) == [(), (1,), (2,), (2, 1)]


@pytest.mark.parametrize("m", range(13))
def test_all_strict_count_is_two_to_the_m(m):
    parts = all_strict(m)
    assert len(parts) == 2 ** m
    assert len(set(parts)) == len(parts)
    assert parts == sorted(parts)
    assert all(is_valid(lam, m) for lam in parts)


def test_weight():
    assert weight(()) == 0
    assert weight((2, 1)) == 3
    assert weight(rho(4)) == 10


def test_rho_examples():
    assert rho(0) == ()
    assert rho(2) == (2, 1)
    assert rho(3) == (3, 2, 1)
    # staircase weight is the dimension of the target space
    assert weight(rho(3)) == 6


def test_dual_examples():
    assert dual((), 2) == (2, 1)
    assert dual((1,), 2) == (2,)
    assert dual((3, 1), 3) == (2,)


@pytest.mark.parametrize("m", range(1, 9))
def test_dual_is_an_involution_with_complementary_weight(m):
    full = m * (m + 1) // 2
    for lam in all_strict(m):
        mu = dual(lam, m)
        assert is_valid(mu, m)
        assert dual(mu, m) == lam
        assert weight(lam) + weight(mu) == full


def test_is_valid_rejects_bad_shapes():
    assert not is_valid((2, 2), 3)
    assert not is_valid((3, 1), 2)
    assert not is_valid((1, 2), 3)
    assert not is_valid((0,), 3)
    assert not is_valid((2.0, 1), 3)
    assert not is_valid((2, "1"), 3)
    assert not is_valid((-1,), 3)
    assert not is_valid((2, -1), 3)
    assert is_valid((2, 1), 2)
    assert is_valid((), 5)


def test_validate_raises_on_invalid():
    with pytest.raises(InvalidPartitionError):
        validate((2, 2), 3)
    with pytest.raises(InvalidPartitionError):
        validate((3,), 2)
    with pytest.raises(InvalidPartitionError):
        dual((3,), 2)
    assert validate([3, 1], 4) == (3, 1)


def test_parse_partition_empty_forms():
    assert parse_partition("") == ()
    assert parse_partition("0") == ()
    assert parse_partition(" 0 ") == ()


def test_parse_partition_examples():
    assert parse_partition("3,1") == (3, 1)
    assert parse_partition(" 2 , 1 ") == (2, 1)


@pytest.mark.parametrize("text", ["1,1", "1,2", "-1", "a", "2,,1", "2,0"])
def test_parse_partition_rejects(text):
    with pytest.raises(InvalidPartitionError):
        parse_partition(text)


def test_format_partition():
    assert format_partition(()) == ""
    assert format_partition((3, 1)) == "3,1"


@given(m=st.integers(0, 8), data=st.data())
def test_parse_format_round_trip(m, data):
    lam = data.draw(st.sampled_from(all_strict(m)))
    assert parse_partition(format_partition(lam)) == lam
