import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellsim.errors import ConfigError, DomainError
from bellsim.rng import (
    MAX_SAMPLE_SIZE,
    _edges,
    _state_words,
    categorical,
    category_runs,
    default_rngs,
    derive_seed,
    derive_seeds,
    sample_size,
    spawn_rng,
)


def test_derivation_is_deterministic():
    assert derive_seed(42, "trial", 7) == derive_seed(42, "trial", 7)
    assert spawn_rng(1, "a").random() == spawn_rng(1, "a").random()


def test_paths_are_unambiguous():
    # string/int boundaries must not collide
    assert derive_seed(1, "ab", 1) != derive_seed(1, "a", "b1")
    assert derive_seed(1, "x", 12) != derive_seed(1, "x1", 2)
    assert derive_seed(1, 2) != derive_seed(1, "2")
    assert derive_seed(0) != derive_seed(1)


def test_streams_are_independent_of_evaluation_order():
    forward = [spawn_rng(9, "ctx", k).random(3).tolist() for k in range(4)]
    backward = [spawn_rng(9, "ctx", k).random(3).tolist() for k in reversed(range(4))]
    assert forward == backward[::-1]


def test_categorical_matches_probabilities():
    rng = np.random.default_rng(0)
    probs = np.array([0.05, 0.45, 0.3, 0.2])
    draws = categorical(rng, probs, 200_000)
    freqs = np.bincount(draws, minlength=4) / draws.size
    assert np.abs(freqs - probs).max() < 0.005
    assert draws.min() >= 0 and draws.max() <= 3


def test_categorical_degenerate_vector():
    rng = np.random.default_rng(1)
    draws = categorical(rng, np.array([0.0, 1.0, 0.0, 0.0]), 1000)
    assert (draws == 1).all()


class _Answers:
    """Stands in for ``st.data()`` in an explicit example: ``draw`` returns the given values in turn."""

    def __init__(self, *values):
        self._values = iter(values)

    def draw(self, strategy):
        return next(self._values)


@settings(max_examples=200, deadline=None)
@given(
    masses=st.lists(st.sampled_from([0.0, 0.0, 1e-9, 0.1, 0.25, 0.3, 1.0, 7.0]), min_size=1, max_size=16)
    .filter(lambda m: sum(m) > 0),
    size=st.one_of(st.just(1), st.integers(1, 3000)),
    seed=st.integers(0, 2**64 - 1),
    data=st.data(),
)
# masses 0, then the gaps between the sorted first six uniforms of default_rng(0),
# then 0: the alternating plus pattern has six run edges, each exactly on a
# uniform of the block's first row, and full = 1
@example(
    masses=[0.0, 0.016527635528529094, 0.024445888407665595, 0.22881318982767562, 0.367174973557584,
            0.1763085518788181, 0.0994853380774493, 0.08724442272227828, 0.0],
    size=8,
    seed=0,
    data=_Answers([False, True] * 4 + [False], 3),
)
def test_category_runs_count_bincount_of_categorical(masses, size, seed, data):
    probs = np.array(masses) / sum(masses)  # zero-mass categories included
    counts = np.bincount(categorical(np.random.default_rng(seed), probs, size), minlength=len(probs))
    u = np.random.default_rng(seed).random(size)
    # every category alone, so each per-category count is checked, and a random plus pattern
    patterns = [np.arange(len(probs)) == k for k in range(len(probs))]
    patterns.append(np.array(data.draw(st.lists(st.booleans(), min_size=len(probs), max_size=len(probs)))))
    # a block of streams, one per row, is counted along its last axis: row by row the 1-D count
    block = np.random.default_rng(seed).random((data.draw(st.integers(0, 4)), size))
    for chosen in patterns:
        runs = category_runs(probs, chosen)
        assert runs.count(u) == int(counts[chosen].sum())
        assert runs.count(block).dtype == np.int64
        assert runs.count(block).tolist() == [runs.count(row) for row in block]


@st.composite
def coded_laws(draw):
    """(probs, codes): 1-300 categories, zero masses among them, coded 0-15 in long runs that cycle through 1-4 codes."""
    cycle = draw(st.lists(st.integers(0, 15), min_size=1, max_size=4))
    lengths = draw(st.lists(st.integers(1, 60), min_size=1, max_size=40))
    codes = np.repeat([cycle[k % len(cycle)] for k in range(len(lengths))], lengths)[:300]
    masses = draw(st.lists(st.sampled_from([0.0, 0.0, 1e-9, 0.1, 0.25, 1.0, 7.0]),
                           min_size=codes.size, max_size=codes.size).filter(lambda m: sum(m) > 0))
    return np.array(masses) / sum(masses), codes


@settings(max_examples=200, deadline=None)
@given(law=coded_laws(), size=st.integers(0, 500), seed=st.integers(0, 2**64 - 1))
def test_category_codes_are_the_codes_of_categorical_draws(law, size, seed):
    probs, codes = law
    edges = _edges(probs)
    # every edge, the float just below it and 0.0 (as uniforms: in [0, 1)), then random uniforms
    u = np.concatenate([edges, np.nextafter(edges, 0.0), [0.0], np.random.default_rng(seed).random(size)])
    u = u[(u >= 0.0) & (u < 1.0)]
    expected = codes[np.searchsorted(edges, u, side="right")]
    runs = category_runs(probs, codes)
    drawn = runs.codes(u)
    assert drawn.dtype == np.uint8
    assert np.array_equal(drawn, expected)
    assert runs.count(u) == int(expected.sum())


@settings(max_examples=50, deadline=None)
@given(law=coded_laws(), seed=st.integers(0, 2**64 - 1))
def test_block_count_needs_codes_0_and_1(law, seed):
    # a block is counted by parity, which only 0/1 codes allow
    probs, codes = law
    runs = category_runs(probs, codes)
    block = np.random.default_rng(seed).random((2, 50))
    # every category that uniforms in [0, 1) reach starts at 0.0 or at an edge below 1
    edges = _edges(probs)
    drawn = set(codes[np.searchsorted(edges, np.append(edges[edges < 1.0], 0.0), side="right")].tolist())
    if drawn <= {0, 1}:
        assert runs.count(block).tolist() == [runs.count(row) for row in block]
    else:
        with pytest.raises(DomainError, match="codes must be 0 and 1"):
            runs.count(block)


@pytest.mark.parametrize("codes", [[0, 256], [-1, 3]], ids=["256", "negative"])
def test_category_codes_must_fit_a_byte(codes):
    with pytest.raises(DomainError, match="category codes must be integers in 0..255"):
        category_runs(np.array([0.5, 0.5]), codes)


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def _default_rng_draws(seeds):
    return [np.random.default_rng(seed).random(5).tolist() for seed in seeds]


def test_default_rngs_are_default_rng_at_edge_seeds():
    assert [rng.random(5).tolist() for rng in default_rngs(EDGE_SEEDS)] == _default_rng_draws(EDGE_SEEDS)


@settings(max_examples=100, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1), max_size=40))
def test_default_rngs_are_default_rng(seeds):
    # the bulk seeding redoes numpy's SeedSequence and PCG64 seeding; if numpy
    # ever seeds differently this fails, so no stream can move unnoticed
    assert [rng.random(5).tolist() for rng in default_rngs(seeds)] == _default_rng_draws(seeds)


def test_default_rngs_match_spawn_rng_on_derived_seeds():
    seeds = derive_seeds(range(8), ("ctx",), range(4))
    draws = [rng.random(7).tolist() for rng in default_rngs(seeds)]
    assert draws == [spawn_rng(m, "ctx", c).random(7).tolist() for m in range(8) for c in range(4)]


def test_default_rngs_streams_are_independent():
    # every seed has its own generator: draws interleaved across streams are still default_rng's
    first, second = default_rngs([3, 2**64 - 1])
    draws = [first.random(2), second.random(3), first.random(4), second.random(1)]
    one, two = np.random.default_rng(3), np.random.default_rng(2**64 - 1)
    expected = [one.random(2), two.random(3), one.random(4), two.random(1)]
    assert [d.tolist() for d in draws] == [e.tolist() for e in expected]


@pytest.mark.parametrize(
    "seeds",
    [[1.5], ["3"], [True], [np.bool_(True)], [None], [-1], [2**64], [7, 2**64 + 7], np.array([1.5]),
     np.array([True]), np.array([-1, 5]), np.array([[1, 2]])],
    ids=["float", "str", "bool", "np-bool", "none", "negative", "2**64", "one-of-two", "float-array", "bool-array",
         "negative-array", "2-d-array"],
)
def test_default_rngs_seeds_must_be_64_bit_integers(seeds):
    # default_rng refuses each, or takes it as other than a 64-bit seed (True, 2**64); the check runs at the call
    with pytest.raises(ConfigError, match=r"seeds must be integers in \[0, 2\*\*64\)"):
        default_rngs(seeds)


def test_state_words_refuse_any_request_but_pcg64s():
    # PCG64 reads the words raw, so a request for more of them must not be served
    words = _state_words()(np.arange(4, dtype=np.uint64))
    state = words.generate_state(4, np.uint64)
    assert state.dtype == np.uint64 and state.flags.c_contiguous and state.tolist() == [0, 1, 2, 3]
    for request in [(8,), (8, np.uint32), (2, np.uint64), (4, np.uint32)]:
        with pytest.raises(DomainError, match="the state words are 4 uint64"):
            words.generate_state(*request)


def test_default_rngs_integer_types_give_one_stream():
    expected = np.random.default_rng(2**63 + 5).random(3).tolist()
    for seeds in ([2**63 + 5], [np.uint64(2**63 + 5)], np.array([2**63 + 5], dtype=np.uint64)):
        assert [rng.random(3).tolist() for rng in default_rngs(seeds)] == [expected]
    expected = np.random.default_rng(5).random(3).tolist()
    for seeds in ([5], [np.int64(5)], [np.uint64(5)], [np.uint8(5)], np.array([5]), np.array([5], dtype=np.uint8)):
        assert [rng.random(3).tolist() for rng in default_rngs(seeds)] == [expected]


integer_seeds = st.one_of(
    st.integers(-(2**70), 2**70),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
)


@settings(max_examples=200, deadline=None)
@given(
    masters=st.lists(integer_seeds, max_size=5),
    path=st.lists(st.one_of(st.text(max_size=6), integer_seeds, st.booleans()), max_size=3),
    last=st.lists(st.one_of(st.integers(0, 10**6), st.text(max_size=4), st.booleans()), max_size=6),
)
def test_derive_seeds_is_derive_seed(masters, path, last):
    expected = [derive_seed(master, *path, part) for master in masters for part in last]
    assert derive_seeds(masters, tuple(path), last) == expected


def test_derive_seeds_of_a_row():
    assert derive_seeds([42], ("trial",), range(300)) == [derive_seed(42, "trial", t) for t in range(300)]


def test_numpy_and_python_int_seeds_give_equal_streams():
    for make in (np.int64, np.int32, np.uint64, np.uint8):
        assert derive_seed(make(7), "x") == derive_seed(7, "x")
        assert derive_seed(7, "trial", make(3)) == derive_seed(7, "trial", 3)
        assert spawn_rng(make(9), "ctx", make(2)).random(4).tolist() == spawn_rng(9, "ctx", 2).random(4).tolist()
    # bool keeps its own encoding; it is not the integer 1
    assert derive_seed(1, True) != derive_seed(1, 1)


def test_python_int_seeds_are_unchanged():
    # values recorded before integer seeds were normalized; existing streams must not move
    assert derive_seed(7, "x") == 15647060205696623661
    assert derive_seed(42, "trial", 7) == 1837239193255546802
    assert derive_seed(0) == 10859181324133925864
    assert derive_seed(2**63 + 5, "curve-n", 10000) == 1471924542904625261
    assert derive_seed(-3, "a", 0) == 13440618888737295997
    assert derive_seed(1, True) == 16888354520136515430
    assert derive_seed(9, "ctx", 3, "weak-source") == 12970295843029836468
    assert spawn_rng(42, "trial", 7).random(3).tolist() == [
        0.38277346550837044, 0.30790164072816373, 0.8606150415921476,
    ]


@pytest.mark.parametrize("master", [1.0, np.float64(1.0), "1", True, np.bool_(True), None, 1.5, 1 + 0j],
                         ids=["float", "np-float", "str", "bool", "np-bool", "none", "one-and-a-half", "complex"])
def test_master_seed_must_be_an_integer(master):
    # each would hash to a stream unrelated to the integer's
    for derive in (derive_seed, spawn_rng, lambda m: derive_seeds([m], ("x",), [1])):
        with pytest.raises(ConfigError, match="seed must be an integer"):
            derive(master)


def test_sample_size_stops_at_the_largest_representable_table():
    # an (n, 4) float64 array has 32 n bytes, and numpy sizes arrays in intp
    assert MAX_SAMPLE_SIZE == np.iinfo(np.intp).max // 32
    assert sample_size(MAX_SAMPLE_SIZE) == MAX_SAMPLE_SIZE
    assert sample_size(np.uint64(MAX_SAMPLE_SIZE)) == MAX_SAMPLE_SIZE
    for n in (MAX_SAMPLE_SIZE + 1, np.uint64(2**62), 2**62, 10**30):
        with pytest.raises(ConfigError, match=f"^n must be at most {MAX_SAMPLE_SIZE} "):
            sample_size(n, "n")
