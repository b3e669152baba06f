"""Streaming statistics against two-pass oracles; activation-time summaries."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import baseline_merge
from volpath.errors import ConfigurationError, DataError
from volpath.stats import (
    BaselineStats,
    ensemble_summarize,
    first_activation,
    total_active,
)


def fill(stats, members):
    for m in members:
        stats.update(m)
    return stats


class TestBaselineStats:
    def test_hand_example(self):
        # Members 2, 4, 6 (constant in time): mean 4, sample std 2.
        stats = BaselineStats("q", n_steps=3)
        fill(stats, [np.full(4, v) for v in (2.0, 4.0, 6.0)])
        assert np.allclose(stats.mean, 4.0)
        assert np.allclose(stats.std(), 2.0)

    def test_matches_two_pass(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            members = rng.standard_normal((7, 50)) * rng.uniform(0.1, 100)
            stats = fill(BaselineStats("q", 49), members)
            assert np.allclose(stats.mean, members.mean(axis=0), rtol=1e-12, atol=1e-12)
            assert np.allclose(
                stats.std(), members.std(axis=0, ddof=1), rtol=1e-12, atol=1e-12
            )

    def test_length_mismatch_rejected(self):
        stats = BaselineStats("q", 3)
        with pytest.raises(ConfigurationError):
            stats.update(np.zeros(3))

    def test_nonfinite_rejected(self):
        stats = BaselineStats("q", 3)
        bad = np.array([0.0, np.nan, 0.0, 0.0])
        with pytest.raises(DataError):
            stats.update(bad)

    def test_std_requires_two_members(self):
        stats = fill(BaselineStats("q", 3), [np.zeros(4)])
        with pytest.raises(ConfigurationError):
            stats.std()

    def test_from_arrays_round_trip(self):
        rng = np.random.default_rng(1)
        stats = fill(BaselineStats("q", 20), rng.standard_normal((5, 21)))
        rebuilt = BaselineStats.from_arrays("q", stats.n, list(stats.mean), list(stats.m2))
        assert rebuilt.n == 5
        assert np.array_equal(rebuilt.mean, stats.mean)
        assert np.array_equal(rebuilt.m2, stats.m2)
        assert np.array_equal(rebuilt.std(), stats.std())


class TestBaselineMerge:
    def test_merge_equals_sequential(self):
        rng = np.random.default_rng(2)
        members = rng.standard_normal((9, 30))
        sequential = fill(BaselineStats("q", 29), members)
        a = fill(BaselineStats("q", 29), members[:4])
        b = fill(BaselineStats("q", 29), members[4:])
        merged = baseline_merge(a, b)
        assert merged.n == 9
        assert np.allclose(merged.mean, sequential.mean, rtol=1e-12)
        assert np.allclose(merged.std(), sequential.std(), rtol=1e-12)

    def test_merge_commutes(self):
        rng = np.random.default_rng(3)
        a = fill(BaselineStats("q", 9), rng.standard_normal((3, 10)))
        b = fill(BaselineStats("q", 9), rng.standard_normal((5, 10)))
        ab, ba = baseline_merge(a, b), baseline_merge(b, a)
        assert np.allclose(ab.mean, ba.mean, rtol=1e-12)
        assert np.allclose(ab.m2, ba.m2, rtol=1e-12)

    def test_merge_associative(self):
        rng = np.random.default_rng(4)
        parts = [fill(BaselineStats("q", 9), rng.standard_normal((3, 10))) for _ in range(3)]
        left = baseline_merge(baseline_merge(parts[0], parts[1]), parts[2])
        right = baseline_merge(parts[0], baseline_merge(parts[1], parts[2]))
        assert np.allclose(left.mean, right.mean, rtol=1e-12)
        assert np.allclose(left.m2, right.m2, rtol=1e-12)

    def test_merge_with_empty(self):
        rng = np.random.default_rng(5)
        a = fill(BaselineStats("q", 9), rng.standard_normal((4, 10)))
        empty = BaselineStats("q", 9)
        for merged in (baseline_merge(a, empty), baseline_merge(empty, a)):
            assert merged.n == 4
            assert np.allclose(merged.mean, a.mean)
            assert np.allclose(merged.m2, a.m2)

    def test_mismatches_rejected(self):
        with pytest.raises(ConfigurationError):
            baseline_merge(BaselineStats("a", 9), BaselineStats("b", 9))
        with pytest.raises(ConfigurationError):
            baseline_merge(BaselineStats("a", 9), BaselineStats("a", 8))


@st.composite
def member_splits(draw):
    """Random members (integer multiples of a random scale) and random split points."""
    n_members = draw(st.integers(1, 12))
    n_steps = draw(st.integers(0, 5))
    ints = st.lists(st.integers(-50, 50), min_size=n_steps + 1, max_size=n_steps + 1)
    scale = draw(st.floats(1e-3, 1e3))
    # integer multiples keep the variance, when nonzero, within a bounded
    # factor of the squared magnitude, so a relative tolerance is meaningful
    members = scale * np.array(draw(st.lists(ints, min_size=n_members, max_size=n_members)))
    cuts = sorted(draw(st.lists(st.integers(0, n_members), max_size=4)))
    return members, scale, [0, *cuts, n_members]


@settings(max_examples=300, deadline=None)
@given(member_splits())
def test_merge_of_split_members_equals_sequential(instance):
    members, scale, bounds = instance
    n_steps = members.shape[1] - 1
    sequential = fill(BaselineStats("q", n_steps), members)
    merged = BaselineStats("q", n_steps)
    for a, b in zip(bounds[:-1], bounds[1:]):  # empty parts included
        merged = baseline_merge(merged, fill(BaselineStats("q", n_steps), members[a:b]))
    assert merged.n == sequential.n == len(members)
    # absolute floors at 1e-12 of the data's magnitude, for means that cancel to ~0
    assert np.allclose(merged.mean, sequential.mean, rtol=1e-12, atol=1e-12 * 50 * scale)
    assert np.allclose(merged.m2, sequential.m2, rtol=1e-12, atol=1e-12 * scale**2)


class TestActivationTimes:
    def test_hand_examples(self):
        taus = np.array([0, 0, 1, 1, 0, 1])
        assert first_activation(taus, dt=0.5, never_value=10.0) == 1.0
        assert total_active(taus, dt=0.5) == 1.5
        assert first_activation(np.zeros(6), dt=0.5, never_value=10.0) == 10.0
        assert total_active(np.zeros(6), dt=0.5) == 0.0
        # a matrix reduces each column (vertex) along the step axis
        matrix = np.stack([taus, np.zeros(6), taus[::-1]], axis=1)
        assert first_activation(matrix, 0.5, 10.0).tolist() == [1.0, 10.0, 0.0]
        assert total_active(matrix, 0.5).tolist() == [1.5, 0.0, 1.5]

    def test_matches_index_scan(self):
        rng = np.random.default_rng(6)
        never = 80.0
        for _ in range(100):
            taus = rng.random((80, 5)) < 0.1
            dt = float(rng.uniform(0.1, 2.0))
            firsts, totals = first_activation(taus, dt, never), total_active(taus, dt)
            for column, first, total in zip(taus.T, firsts, totals):
                hits = [m for m, t in enumerate(column) if t]
                assert first_activation(column, dt, never) == first
                assert first == (hits[0] * dt if hits else never)
                assert total_active(column, dt) == total == len(hits) * dt


class TestEnsembleSummary:
    def test_hand_example(self):
        # two members (rows), two QOIs (columns)
        mean, se = ensemble_summarize(np.array([[100.0, 10.0], [200.0, 30.0]]))
        assert mean.tolist() == [150.0, 20.0]
        assert se == pytest.approx([50.0, 10.0])

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ensemble_summarize(np.ones((1, 3)))

    @pytest.mark.parametrize("members", [2, 3, 9, 10, 17])
    def test_bit_equal_to_one_dimensional_reductions(self, members):
        # summary.csv is compared byte for byte against 1-D reductions of each
        # column; an axis-0 reduction sums in another order once members >= 9
        values = np.random.default_rng(members).uniform(0.0, 1200.0, (members, 64))
        mean, se = ensemble_summarize(values)
        for column, m, s in zip(values.T, mean, se):
            column = column.copy()
            assert m == column.mean()
            assert s == column.std(ddof=1) / np.sqrt(members)
