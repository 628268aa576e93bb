import math

import numpy as np
import pytest

from smallgen.sievelab import primes_upto


@pytest.fixture(scope="session")
def small_primes():
    return [int(p) for p in primes_upto(1000) if p >= 3]


@pytest.fixture(scope="session")
def simple_prime_flags():
    """The reference sieve: one flag per integer <= limit, f[n] iff n is prime."""

    def flags(limit):
        f = np.zeros(limit + 1, dtype=bool)
        if limit >= 2:
            f[2] = True
            f[3::2] = True
            for p in range(3, math.isqrt(limit) + 1, 2):
                if f[p]:
                    f[p * p :: 2 * p] = False
        return f

    return flags
