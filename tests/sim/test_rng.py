"""Unit tests for the named random stream factory."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import RandomStreams


def test_same_name_returns_same_generator_object():
    streams = RandomStreams(seed=1)
    assert streams.stream("a") is streams.stream("a")


def test_different_names_give_independent_streams():
    streams = RandomStreams(seed=1)
    a = streams.stream("alpha").random(100)
    b = streams.stream("beta").random(100)
    assert not np.allclose(a, b)


def test_same_seed_reproduces_the_same_draws():
    first = RandomStreams(seed=99).stream("network.latency").random(50)
    second = RandomStreams(seed=99).stream("network.latency").random(50)
    assert np.allclose(first, second)


def test_different_seeds_give_different_draws():
    first = RandomStreams(seed=1).stream("x").random(50)
    second = RandomStreams(seed=2).stream("x").random(50)
    assert not np.allclose(first, second)


def test_adding_streams_does_not_perturb_existing_ones():
    plain = RandomStreams(seed=5)
    baseline = plain.stream("workload").random(20)

    mixed = RandomStreams(seed=5)
    mixed.stream("some.other.consumer").random(7)  # extra consumer first
    perturbed = mixed.stream("workload").random(20)
    assert np.array_equal(baseline, perturbed)


@st.composite
def interleavings(draw):
    """Distinct stream names, some created up front in a random order, and a
    schedule of (name, how many draws) steps."""
    names = draw(
        st.lists(
            st.text(alphabet="abcxyz.0123", min_size=1, max_size=12),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    up_front = draw(st.permutations(names))[: draw(st.integers(0, len(names)))]
    steps = draw(
        st.lists(st.tuples(st.sampled_from(names), st.integers(1, 40)), min_size=1, max_size=30)
    )
    return up_front, steps


@given(seed=st.integers(0, 2**32 - 1), case=interleavings())
@settings(max_examples=60, deadline=None)
def test_a_stream_draws_the_same_whatever_else_exists(seed, case):
    # The contract that lets a stream be created at first use: its draws
    # depend on its name alone, not on which streams exist, when it was
    # created relative to them, or how their draws interleave with its own.
    up_front, steps = case
    streams = RandomStreams(seed=seed)
    for name in up_front:
        streams.stream(name)
    drawn = {}
    for name, count in steps:
        drawn.setdefault(name, []).extend(streams.stream(name).random(count).tolist())
    for name, values in drawn.items():
        alone = RandomStreams(seed=seed).stream(name).random(len(values)).tolist()
        assert values == alone, name


def test_fork_produces_deterministic_children():
    a = RandomStreams(seed=3).fork("node1").stream("svc").random(10)
    b = RandomStreams(seed=3).fork("node1").stream("svc").random(10)
    c = RandomStreams(seed=3).fork("node2").stream("svc").random(10)
    assert np.allclose(a, b)
    assert not np.allclose(a, c)


def test_names_lists_created_streams():
    streams = RandomStreams(seed=0)
    streams.stream("b")
    streams.stream("a")
    assert streams.names() == ["a", "b"]


def test_seed_property_round_trips():
    assert RandomStreams(seed=17).seed == 17
