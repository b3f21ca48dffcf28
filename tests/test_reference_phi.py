"""phi and phi_inv against the seed's literal recursive transcription.

``reference_phi`` relabels every surgery from scratch and shares no code
with the library, so agreement pins the history-form walks behind ``phi``
and ``phi_inv`` to the seed's reading of the paper's definition.
"""

import math
import random

import pytest

import reference_phi
from wedgematch import Matching, phi, phi_inv
from wedgematch.bijections import _partner_from_code


def check_against_the_seed(partners):
    """Assert that phi and phi_inv agree with the seed's on every partner
    table given; return how many were compared."""
    count = 0
    for partner in partners:
        m, seed = Matching(partner), reference_phi.Matching(partner)
        assert phi(m).partner == reference_phi.phi(seed).partner, partner
        assert phi_inv(m).partner == reference_phi.phi_inv(seed).partner, partner
        count += 1
    return count


def every_matching(n):
    """The partner table of every perfect matching on [2n], from the
    oracle's own generator."""
    return (m.partner for m in reference_phi.all_matchings(n))


def random_codes(n, count, seed):
    """The insertion images of ``count`` seeded random codes of size n."""
    rng = random.Random(seed)
    for _ in range(count):
        yield _partner_from_code(tuple(rng.randint(1, 2 * (n - i) + 1) for i in range(1, n + 1)))


@pytest.mark.parametrize("n", range(1, 7))
def test_phi_agrees_with_the_seed_on_every_matching(n):
    assert check_against_the_seed(every_matching(n)) == math.prod(range(1, 2 * n, 2))


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_phi_agrees_with_the_seed_on_random_codes(n):
    assert check_against_the_seed(random_codes(n, 200, seed=n)) == 200

