"""Shared fixtures: small benchmark instances used throughout the suite, and
the seeded random profiles and orders the sampled tests draw."""
import pytest

from propmatch import AgentOrder, profile

# Four agents; the first three rank a>b>c>d, the fourth b>a>c>d.  All eight
# engine configurations give distinguishable behaviour on this instance.
BENCH4 = profile([[0, 1, 2, 3], [0, 1, 2, 3], [0, 1, 2, 3], [1, 0, 2, 3]])

# Four agents; the fourth ranks a>c>d>b.  The uniform-order lotteries of the
# eight engine configurations on this instance are pinned in the acceptance
# suite.
LOTTERY4 = profile([[0, 1, 2, 3], [0, 1, 2, 3], [0, 1, 2, 3], [0, 2, 3, 1]])

# Two-sided instance with both proposer and proposee preferences.
TWO_SIDED4 = profile(
    [[0, 1, 2, 3], [0, 3, 2, 1], [1, 0, 2, 3], [3, 1, 2, 0]],
    [[3, 2, 0, 1], [1, 3, 0, 2], [3, 0, 1, 2], [2, 1, 0, 3]],
)

# Three agents; agents 1 and 2 rank a>b>c, agent 3 ranks b>a>c.  Every
# accept-last configuration has an order with an inefficient outcome here.
TRIO = profile([[0, 1, 2], [0, 1, 2], [1, 0, 2]])


@pytest.fixture
def bench4():
    return BENCH4


@pytest.fixture
def lottery4():
    return LOTTERY4


@pytest.fixture
def two_sided4():
    return TWO_SIDED4


@pytest.fixture
def trio():
    return TRIO


# Seeded tests pin cases drawn with these helpers, so they must keep making
# exactly these ``rng`` calls: one ``shuffle`` per preference list or order.


def random_permutation(rng, n):
    """``list(range(n))`` shuffled by ``rng``."""
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def random_prefs(rng, n):
    """n uniform preference lists over n items, drawn in turn."""
    return [random_permutation(rng, n) for _ in range(n)]


def random_profile(rng, n):
    """A uniform one-sided profile on n agents."""
    return profile(random_prefs(rng, n))


def random_order(rng, n):
    """A uniform initial order of n agents."""
    return AgentOrder(tuple(random_permutation(rng, n)))
