"""SplitMix64 streams: the vectorized permutation against one draw per swap, and
the blocked draws against the whole-array ones, value for value and in memory."""
import numpy as np
import pytest

from aegem import rng as rng_module
from aegem.rng import SplitMix64
from oracles import SplitMix64Whole, permutation_fisher_yates
from page_faults import traced_peak

B = rng_module._BLOCK
# around one and two block boundaries; `normal` blocks its ceil(n / 2) pairs,
# so its boundaries sit near 2 * B and 4 * B values
SIZES = [0, 1, 2, 7, B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1, 2 * B + 3, 4 * B + 1]


@pytest.mark.parametrize("seed", [0, 3, 2**63 + 5])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 577])
def test_permutation_matches_one_draw_per_swap(seed, n):
    fast, slow = SplitMix64(seed), SplitMix64(seed)
    got = fast.permutation(n)
    want = permutation_fisher_yates(slow, n)
    assert np.array_equal(got, want) and got.dtype == want.dtype
    # the stream continues where the per-swap loop leaves it
    assert fast.uniform() == slow.uniform()


@pytest.mark.parametrize("counter", [0, 5, B - 2, 2**64 - 3])
@pytest.mark.parametrize("n", SIZES)
def test_raw_from_any_counter_matches_the_whole_array_draw(counter, n):
    got = SplitMix64(2**63 + 5)._raw(np.empty(n, dtype=np.uint64), counter)
    assert np.array_equal(got, SplitMix64Whole(2**63 + 5, counter).raw(n))


@pytest.mark.parametrize("draw", ["uniform", "normal", "dirichlet_flat"])
@pytest.mark.parametrize("n", SIZES)
def test_blocked_draws_match_the_whole_array_draws(draw, n):
    fast, slow = SplitMix64(7).split(3), SplitMix64Whole(7).split(3)
    # start off a block boundary, as a later draw of a stream does
    assert fast.uniform(-1.0, 2.0, (5,)).tobytes() == slow.uniform(-1.0, 2.0, (5,)).tobytes()
    if draw == "uniform":
        got, want = fast.uniform(0.2, 0.7, (n,)), slow.uniform(0.2, 0.7, (n,))
    elif draw == "normal":
        got, want = fast.normal((n,)), slow.normal((n,))
    else:
        got, want = fast.dirichlet_flat((n, 1), 3), slow.dirichlet_flat((n, 1), 3)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # both streams have advanced by the same count
    assert fast.uniform() == slow.uniform()


def test_scalar_draws_match_the_whole_array_draws():
    fast, slow = SplitMix64(11), SplitMix64Whole(11)
    assert [fast.uniform(), fast.normal(), fast.uniform(-2.0, 3.0)] == \
           [slow.uniform(), slow.normal(), slow.uniform(-2.0, 3.0)]


@pytest.mark.parametrize("draw", ["uniform", "normal"])
def test_a_draw_holds_its_output_and_one_blocks_scratch(draw):
    # the scratch of a block: at most four buffers of B values (two uint64 for
    # the mix, two float64 for Box-Muller's pair), whatever the output's size;
    # the whole-array draws peaked at 3 (uniform) and 3.5 (normal) outputs
    n = 2**18
    scratch = 4 * B * 8
    peak = traced_peak(lambda: getattr(SplitMix64(1), draw)(shape=(n,)))
    assert peak <= 8 * n + scratch + 16 * 2**10, peak
