"""``pcg64.PCG64Stream`` against numpy's ``Generator(PCG64(seed))``: equal
draws and equal stream position, draw by draw, and equal instances from
``generate_instance`` with either stream."""

import numpy as np
import pytest

from ostflow import GenConfig, generate_instance, serialize_instance
from ostflow.pcg64 import PCG64Stream


def streams(seed: int):
    return PCG64Stream(seed), np.random.Generator(np.random.PCG64(seed))


def assert_same_position(stream: PCG64Stream, rng) -> None:
    """Both streams hold the same 128-bit state and the same buffered half."""
    state = rng.bit_generator.state
    assert stream._state == state["state"]["state"]
    assert stream._half == (state["uinteger"] if state["has_uint32"] else None)


def words_drawn(seed: int, stream: PCG64Stream) -> int:
    """How many 64-bit words ``stream`` has drawn since it was seeded."""
    fresh, count = PCG64Stream(seed), 0
    while fresh._state != stream._state:
        fresh.next64()
        count += 1
    return count


@pytest.mark.parametrize("seed", [0, 1, 2**32, 2**64 - 1])
def test_raw_words_match_numpy(seed):
    stream = PCG64Stream(seed)
    expected = np.random.PCG64(seed).random_raw(1000).tolist()
    assert [stream.next64() for _ in range(1000)] == expected


def test_integers_below_1_are_0_without_a_draw():
    stream, rng = streams(5)
    assert stream.integers(1, 7) == rng.integers(1, size=7).tolist() == [0] * 7
    assert words_drawn(5, stream) == 0
    assert_same_position(stream, rng)
    assert stream.random(3) == rng.random(3).tolist()


@pytest.mark.parametrize("high,bits", [(3 * 2**30, 32), (3 * 2**61, 64)])
def test_integers_on_the_lemire_rejection_path(high, bits):
    # a quarter of the draws are rejected at these bounds, so the 2000
    # integers take more than 2000 halves (32-bit) or words (64-bit)
    stream, rng = streams(11)
    assert stream.integers(high, 2000) == rng.integers(high, size=2000).tolist()
    assert_same_position(stream, rng)
    assert words_drawn(11, stream) > 2000 * bits // 64


@pytest.mark.parametrize("high", [2, 7, 2**32, 2**40])
def test_integers_match_numpy(high):
    stream, rng = streams(2)
    assert stream.integers(high, 501) == rng.integers(high, size=501).tolist()
    assert_same_position(stream, rng)


def test_halves_interleave_with_doubles():
    stream, rng = streams(3)
    assert stream.integers(7, 3) == rng.integers(7, size=3).tolist()
    assert stream._half is not None  # the third integer left a half buffered
    assert stream.random(2) == rng.random(2).tolist()  # doubles leave it there
    assert stream.integers(7, 1) == rng.integers(7, size=1).tolist()  # and this reads it
    assert stream._half is None
    assert stream.permutation(9) == rng.permutation(9).tolist()
    assert stream.random(1) == rng.random(1).tolist()
    assert stream.integers(1000, 5) == rng.integers(1000, size=5).tolist()
    assert_same_position(stream, rng)


@pytest.mark.parametrize("n", [1, 2, 3, 100, 5000])
def test_permutation_matches_numpy(n):
    for seed in range(3):
        stream, rng = streams(seed)
        assert stream.permutation(n) == rng.permutation(n).tolist()
        assert_same_position(stream, rng)


@pytest.mark.parametrize(
    "pop,size",
    [
        (1, 1),
        (7, 7),
        (1000, 3),
        (10000, 10000),  # size == pop, Floyd's algorithm up to pop 10000
        (20000, 400),  # size == pop // 50: still Floyd's algorithm
        (20000, 401),  # the tail shuffle
        (10001, 10001),
    ],
)
def test_sample_without_replacement_matches_numpy(pop, size):
    stream, rng = streams(pop)
    got = stream.sample(pop, size)
    assert got == rng.choice(pop, size, replace=False).tolist()
    assert len(set(got)) == size
    assert_same_position(stream, rng)


@pytest.mark.parametrize(
    "p", [(0.25, 0.0, 0.75), (0.0, 1 / 3, 2 / 3), (1 / 3, 1 / 3, 1 / 3, 0.0)]
)
def test_weighted_choice_matches_numpy_and_skips_zero_probability(p):
    stream, rng = streams(4)
    got = stream.weighted(p, 2000)
    assert got == rng.choice(len(p), 2000, p=p).tolist()
    assert {i for i, q in enumerate(p) if q == 0} & set(got) == set()
    assert_same_position(stream, rng)


@pytest.mark.parametrize(
    "n,degree,demands",
    [
        (2, 1.0, None),
        (30, 58 / 30, None),  # tree only
        (57, 2.5, None),
        (100, 4.0, None),
        (400, 30.0, None),  # extra pairs drawn by the tail shuffle
        (20, 19.0, None),  # complete
        (50, 4.0, ((2.0, 0.1), (0.7, 0.6), (0.3, 0.3))),
    ],
)
def test_generate_instance_equal_from_both_streams(n, degree, demands):
    for seed in range(3):
        cfg = GenConfig(n, degree, min(6, n - 1), seed=seed)
        if demands is not None:
            cfg = GenConfig(n, degree, min(6, n - 1), demands, seed=seed)
        expected = serialize_instance(generate_instance(cfg))
        assert serialize_instance(generate_instance(cfg, PCG64Stream)) == expected, cfg
