"""Unit tests for sampling helpers."""

import pytest

from repro.sim.sampling import (
    counts_to_probabilities,
    sample_counts,
    total_variation_distance,
)


class TestSampleCounts:
    def test_deterministic_distribution(self):
        counts = sample_counts([0, 1, 0, 0], shots=50, num_bits=2, seed=0)
        assert counts == {"01": 50}

    def test_shots_conserved(self):
        counts = sample_counts([0.25] * 4, shots=200, num_bits=2, seed=1)
        assert sum(counts.values()) == 200

    def test_unnormalised_input_accepted(self):
        counts = sample_counts([2, 2], shots=100, num_bits=1, seed=2)
        assert sum(counts.values()) == 100
        assert set(counts) <= {"0", "1"}

    def test_bit_width_padding(self):
        counts = sample_counts([1, 0, 0, 0, 0, 0, 0, 0], 10, num_bits=3, seed=3)
        assert counts == {"000": 10}

    def test_more_outcomes_than_bits_rejected(self):
        # Four outcomes need two bits; one bit would mix key widths.
        with pytest.raises(ValueError, match="do not fit"):
            sample_counts([0.25] * 4, shots=10, num_bits=1, seed=4)


class TestProbabilities:
    def test_counts_to_probabilities(self):
        probs = counts_to_probabilities({"00": 75, "11": 25})
        assert probs == {"00": 0.75, "11": 0.25}

    def test_empty(self):
        assert counts_to_probabilities({}) == {}


class TestTVD:
    def test_identical_distributions(self):
        p = {"0": 0.5, "1": 0.5}
        assert total_variation_distance(p, p) == 0.0

    def test_disjoint_distributions(self):
        assert total_variation_distance({"0": 1.0}, {"1": 1.0}) == pytest.approx(1.0)

    def test_partial_overlap(self):
        assert total_variation_distance(
            {"0": 0.5, "1": 0.5}, {"0": 1.0}
        ) == pytest.approx(0.5)

    def test_missing_keys_treated_as_zero(self):
        # keys absent on one side contribute their full mass
        assert total_variation_distance(
            {"a": 0.5, "b": 0.5}, {"a": 0.5, "c": 0.5}
        ) == pytest.approx(0.5)
