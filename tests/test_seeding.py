"""The block draw of a seeding stream replays random() bit for bit."""

import pytest

from cyclecover.seeding import random_doubles, spawn


# lengths on both sides of MT19937's 624-word refill; each double takes two
# words, so 312 doubles empty one block
@pytest.mark.parametrize("k", [0, 1, 311, 312, 313, 624, 625, 5000])
@pytest.mark.parametrize("burn", [0, 1, 400])
def test_block_draw_equals_random_calls(k, burn):
    rng, twin = spawn(5, "gnp", k), spawn(5, "gnp", k)
    for _ in range(burn):  # start from the middle of a block too
        rng.random()
        twin.random()
    assert random_doubles(rng, k).tolist() == [twin.random() for _ in range(k)]
    assert rng.getstate() == twin.getstate()


def test_block_draw_after_an_odd_word():
    # a 32-bit draw leaves the stream between the two words of a double
    rng, twin = spawn(9, "gnp", 40), spawn(9, "gnp", 40)
    assert rng.getrandbits(32) == twin.getrandbits(32)
    assert random_doubles(rng, 700).tolist() == [twin.random() for _ in range(700)]
    assert rng.getstate() == twin.getstate()
