import pytest
from hypothesis import given
from hypothesis import strategies as st

from addcomb import is_prime, smallest_prime_in


def test_small_values():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_carmichael_numbers_rejected():
    for n in (561, 1105, 1729, 2465, 2821, 6601):
        assert not is_prime(n)


def test_large_known():
    assert is_prime(10007)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)


@given(st.integers(2, 10**6))
def test_matches_trial_division(n):
    ref = n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))
    assert is_prime(n) == ref


def test_first_prime_in_interval():
    assert smallest_prime_in(10, 20) == 11
    assert smallest_prime_in(13, 20) == 17  # interval is open on the left
    with pytest.raises(ValueError):
        smallest_prime_in(24, 28)


def test_every_modulus_up_to_2_62_is_decided():
    # strong pseudoprimes to the bases 2..17 and 2..23, the second below 2^62; then two primes
    assert not is_prime(341_550_071_728_321)
    assert not is_prime(3_825_123_056_546_413_051)
    assert 3_825_123_056_546_413_051 < 1 << 62
    assert is_prime((1 << 61) - 1)
    assert is_prime((1 << 62) - 57)


def test_memoized():
    is_prime.cache_clear()
    assert is_prime(2**31 - 1) and is_prime(2**31 - 1)
    info = is_prime.cache_info()
    assert (info.hits, info.misses) == (1, 1)
