"""SplitMix64 streams: the vectorized permutation against one draw per swap."""
import numpy as np
import pytest

from aegem.rng import SplitMix64
from oracles import permutation_fisher_yates


@pytest.mark.parametrize("seed", [0, 3, 2**63 + 5])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 577])
def test_permutation_matches_one_draw_per_swap(seed, n):
    fast, slow = SplitMix64(seed), SplitMix64(seed)
    got = fast.permutation(n)
    want = permutation_fisher_yates(slow, n)
    assert np.array_equal(got, want) and got.dtype == want.dtype
    # the stream continues where the per-swap loop leaves it
    assert fast.uniform() == slow.uniform()
