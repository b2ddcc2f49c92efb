"""The batched SeedSequence/PCG64 first-draw kernel against numpy itself."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ecosystem.seeding import (
    entropy_matrix,
    entropy_words,
    first_draws,
)

# Entropy integers covering every assembled length: zero (one word), below
# 2**32 (one word), full 64-bit values and values near 2**64 (two words),
# and wider values that push [s, h] past the 4-word pool.
_entropy_int = st.one_of(
    st.just(0),
    st.integers(1, 2 ** 32 - 1),
    st.integers(2 ** 32, 2 ** 64 - 1),
    st.integers(2 ** 64 - 2 ** 16, 2 ** 64 - 1),
    st.integers(2 ** 64, 2 ** 160),
)


def _reference(row):
    rng = np.random.default_rng(np.random.SeedSequence(list(row)))
    return rng, rng.random()


class TestEntropyWords:
    @pytest.mark.parametrize("value, words", [
        (0, [0]),
        (1, [1]),
        (2 ** 32 - 1, [2 ** 32 - 1]),
        (2 ** 32, [0, 1]),
        (2 ** 64 - 1, [2 ** 32 - 1, 2 ** 32 - 1]),
        (2 ** 64, [0, 0, 1]),
    ])
    def test_matches_seed_sequence_assembly(self, value, words):
        assert entropy_words(value) == words
        assert np.random.SeedSequence(value).entropy == value

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            entropy_words(-1)

    def test_matrix_pads_rows(self):
        matrix, lengths = entropy_matrix([[0], [2 ** 64, 5]])
        assert lengths.tolist() == [1, 4]
        assert matrix.tolist() == [[0, 0, 0, 0], [0, 0, 1, 5]]


class TestFirstDraws:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(_entropy_int, _entropy_int), min_size=1, max_size=12))
    def test_first_draw_equals_default_rng(self, rows):
        """One batch mixes lanes of different entropy lengths."""
        matrix, lengths = entropy_matrix(rows)
        draws = first_draws(matrix, lengths)
        assert draws.uniforms.tolist() == [_reference(row)[1] for row in rows]

    @settings(max_examples=30, deadline=None)
    @given(st.tuples(_entropy_int, _entropy_int))
    def test_resumed_stream_continues_the_lane(self, row):
        matrix, lengths = entropy_matrix([row])
        (state,) = first_draws(matrix, lengths).resume_states([0])
        reference, _first = _reference(row)
        resumed = np.random.Generator(np.random.PCG64(1))
        resumed.bit_generator.state = state
        assert resumed.lognormal(5.0, 1.2) == reference.lognormal(5.0, 1.2)
        assert resumed.random(3).tolist() == reference.random(3).tolist()

    @pytest.mark.parametrize("row", [
        (0, 0),
        (0, 2 ** 64 - 1),
        (2 ** 64 - 1, 0),
        (2 ** 63 - 2, 2 ** 32 - 1),
        (12345, 2 ** 64 - 1),
        (2 ** 96 + 3, 2 ** 128 + 9),
        (7,),
        (1, 2, 3, 4, 5, 6, 7, 8, 9),
    ])
    def test_edge_cases(self, row):
        matrix, lengths = entropy_matrix([row])
        assert first_draws(matrix, lengths).uniforms[0] == _reference(row)[1]

    def test_large_batch(self):
        rng = np.random.default_rng(11)
        rows = [
            (int(rng.integers(0, 2 ** 63 - 1)), int(rng.integers(0, 2 ** 63 - 1)) * 2 + 1)
            for _ in range(2000)
        ]
        matrix, lengths = entropy_matrix(rows)
        draws = first_draws(matrix, lengths)
        assert draws.uniforms.tolist() == [_reference(row)[1] for row in rows]
