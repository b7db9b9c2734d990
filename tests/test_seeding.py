"""The vectorised noise-stream derivation against NumPy's own seeding.

`derive_seeds` and `pcg64_states` must give, for every path, the state of
np.random.default_rng(derive_seed(...)); `PhaseStreams` must hand out the
generators that expression builds, and fall back to it when they differ.
"""

import warnings

import numpy as np
import pytest

from boundary_distill import seeding
from boundary_distill.seeding import PhaseStreams, derive_seed, derive_seeds, pcg64_states

# negative roots are masked to 64 bits; derived phase seeds are what the
# phase loop passes
EDGE_ROOTS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -1, -(2**63), -12345,
              derive_seed(0, "phase", 1), derive_seed(7, "phase", 10),
              derive_seed(2**64 - 1, "phase", 3)]


def _state(generator):
    state = generator.bit_generator.state
    return state["state"]["state"], state["state"]["inc"]


@pytest.fixture()
def fresh_guard():
    """The first-use check runs again in this test, and again after it."""
    seeding._derivation_matches.cache_clear()
    yield
    seeding._derivation_matches.cache_clear()


def test_streams_match_default_rng_on_random_paths():
    rng = np.random.default_rng(2024)
    count = 10_000
    # roots of every magnitude: below 2**32, up to 2**63, up to 2**64
    roots = [int(r) >> int(s) for r, s in zip(rng.integers(0, 2**64, count, dtype=np.uint64),
                                              rng.choice([0, 16, 31, 32, 33, 60], count))]
    roots[: len(EDGE_ROOTS)] = EDGE_ROOTS
    epochs = rng.integers(1, 200, count)
    batches = rng.integers(0, 40, count)
    seeds = derive_seeds(np.array([r & (2**64 - 1) for r in roots], dtype=np.uint64), "noise",
                         epochs, batches)
    states = pcg64_states(seeds)
    generator = np.random.Generator(np.random.PCG64(0))
    for root, epoch, batch, seed, (state, inc) in zip(roots, epochs.tolist(), batches.tolist(),
                                                      seeds.tolist(), states):
        expected = np.random.default_rng(derive_seed(root, "noise", epoch, batch))
        assert seed == derive_seed(root, "noise", epoch, batch)
        assert (state, inc) == _state(expected)
        generator.bit_generator.state = {"bit_generator": "PCG64",
                                         "state": {"state": state, "inc": inc},
                                         "has_uint32": 0, "uinteger": 0}
        dim = 2 + batch % 3
        np.testing.assert_array_equal(generator.standard_normal((64, dim)),
                                      expected.standard_normal((64, dim)))


def test_derive_seeds_takes_ints_strings_and_arrays():
    # negative ints wrap to 64 bits, as derive_seed masks them
    assert int(derive_seeds(-5, "noise", 3, 1)) == derive_seed(-5, "noise", 3, 1)
    wrapped = derive_seeds(np.array([-5, 7], dtype=np.int64), "noise", 3, np.arange(2)[:, None])
    assert wrapped.shape == (2, 2)
    assert wrapped.tolist() == [[derive_seed(r, "noise", 3, b) for r in (-5, 7)] for b in (0, 1)]
    # every path length, including entropy shorter than the 4-word pool
    for path in ((), ("phase",), ("phase", 2), (2**40, "x", 2**33, 0, 5)):
        assert int(derive_seeds(11, *path)) == derive_seed(11, *path)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1])
def test_pcg64_state_from_a_derived_seed(seed):
    # a seed below 2**32 is a single entropy word, a larger one two
    [state] = pcg64_states(np.array([seed], dtype=np.uint64))
    assert state == _state(np.random.default_rng(seed))


def test_pcg64_states_of_random_seeds():
    seeds = np.random.default_rng(5).integers(0, 2**64, 2000, dtype=np.uint64)
    seeds[::2] >>= np.uint64(32)  # half of them below 2**32
    for seed, state in zip(seeds.tolist(), pcg64_states(seeds)):
        assert state == _state(np.random.default_rng(seed))


def test_phase_streams_are_the_default_rng_streams(fresh_guard):
    roots = [derive_seed(3, "phase", 1), 2**64 - 1]
    streams = PhaseStreams(roots, "noise", 4, 3)
    for epoch in range(1, 5):
        for batch in range(3):
            for root, generator in zip(roots, streams.at(epoch, batch)):
                expected = np.random.default_rng(derive_seed(root, "noise", epoch, batch))
                np.testing.assert_array_equal(generator.standard_normal((9, 2)),
                                              expected.standard_normal((9, 2)))


def test_a_mismatching_numpy_falls_back_and_warns_once(fresh_guard, monkeypatch):
    real = seeding.pcg64_states
    monkeypatch.setattr(seeding, "pcg64_states",
                        lambda seeds: [(state + 1, inc) for state, inc in real(seeds)])
    roots = [4, 2**40]
    with pytest.warns(RuntimeWarning, match=f"NumPy {np.__version__}"):
        streams = PhaseStreams(roots, "noise", 2, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        again = PhaseStreams(roots, "noise", 2, 2)
    assert streams.states is again.states is None
    for epoch, batch in ((1, 0), (2, 1)):
        for root, generator in zip(roots, again.at(epoch, batch)):
            expected = np.random.default_rng(derive_seed(root, "noise", epoch, batch))
            np.testing.assert_array_equal(generator.standard_normal(5),
                                          expected.standard_normal(5))
