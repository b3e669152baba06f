"""Bounds tests, base-DAG validation, and the activation algorithm."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import pathway_from_tests, stats_from_sigma, vertex_series
from volpath.errors import ConfigurationError, DegenerateBaselineError
from volpath.pathway import (
    ABSOLUTE_BOUNDS,
    AbsoluteHysteresis,
    BaseDag,
    PathwayDag,
    ZScoreHysteresis,
    base_dag_canonical,
    canonical_tests,
    hysteresis,
    materialize_dag,
)


def taus_oracle_absolute(values, lower, upper):
    """Independent reference implementation of the absolute hysteresis rules."""
    out, prev = [], 0
    for v in values:
        if v <= lower:
            prev = 0
        elif v >= upper:
            prev = 1
        out.append(prev)
    return out


def taus_oracle_zscore(values, mu, sigma, t_l, t_u):
    out, prev = [], 0
    for m, v in enumerate(values):
        if m == 0:
            prev = 0
        else:
            z = (v - mu[m]) / sigma[m]
            if z <= t_l:
                prev = 0
            elif z >= t_u:
                prev = 1
        out.append(prev)
    return out


def step_tau(score, lower, upper, prev):
    """One step of the hysteresis kernel from a previous tau, set by a deciding first row."""
    scores = np.array([[np.inf if prev else -np.inf], [score]])
    taus = hysteresis(scores, np.array([lower]), np.array([upper]))
    return int(taus[1, 0])


def zscore_taus(zs, t_l, t_u):
    """Taus of one z-score test, through compute_pathway, over steps with z-scores zs."""
    mu = np.full(len(zs), 10.0)
    sigma = np.full(len(zs), 2.0)  # a power of two: stats_from_sigma keeps it exactly
    baselines = {"T": stats_from_sigma("T", 5, mu, sigma)}
    values = mu + sigma * np.asarray(zs, dtype=float)
    base = BaseDag(vertices=("T",), edges=())
    pw = pathway_from_tests(base, {"T": values}, {"T": ZScoreHysteresis(t_l, t_u)}, baselines)
    return list(vertex_series(pw, "T").astype(int))


def subgraph_oracle(vertices, edges, active_flags):
    """Set-definition reference: V_m from flags, E_m edges with active endpoints."""
    active = {v for v, f in zip(vertices, active_flags) if f}
    return (
        [v for v in vertices if v in active],
        [e for e in edges if e[0] in active and e[1] in active],
    )


class TestBaseDag:
    def test_canonical_shape(self):
        dag = base_dag_canonical()
        assert dag.r == 16
        assert len(dag.edges) == 24
        assert ("SO2(e)", "SUL(e)") in dag.edges
        assert ("AOD(p)", "T(p)") in dag.edges
        assert ("SO2(e)", "SO2(s)") in dag.edges
        assert ("T(t)", "T(p)") in dag.edges
        assert ("SO2(e)", "AOD(e)") not in dag.edges

    @pytest.mark.parametrize(
        "vertices,edges",
        [
            (("a", "a"), ()),
            (("a", "b"), (("a", "b"), ("a", "b"))),
            (("a", "b"), (("a", "a"),)),
            (("a", "b"), (("a", "x"),)),
            (("a", "b", "c"), (("a", "b"), ("b", "c"), ("c", "a"))),
        ],
    )
    def test_invalid_dags_rejected(self, vertices, edges):
        with pytest.raises(ConfigurationError):
            BaseDag(vertices=vertices, edges=edges)

    def test_cycle_detected(self):
        with pytest.raises(ConfigurationError, match="graph contains a cycle"):
            BaseDag(vertices=("a", "b"), edges=(("a", "b"), ("b", "a")))


class TestBoundsTestBranches:
    # (previous tau, value, expected tau) for the tracer-style absolute test.
    ABSOLUTE_CASES = [
        (0, 3.9e-10, 0),  # below lower, stays inactive
        (0, 4.0e-10, 0),  # exactly lower -> inactive branch
        (0, 6.0e-10, 0),  # in band, holds inactive
        (0, 8.0e-10, 1),  # exactly upper -> active branch
        (0, 9.0e-10, 1),  # above upper
        (1, 9.0e-10, 1),  # stays active
        (1, 6.0e-10, 1),  # in band, holds active
        (1, 4.0e-10, 0),  # exactly lower deactivates even from active
        (1, 3.0e-10, 0),  # below lower deactivates
    ]

    @pytest.mark.parametrize("prev,value,expected", ABSOLUTE_CASES)
    def test_absolute_branches(self, prev, value, expected):
        assert step_tau(value, *ABSOLUTE_BOUNDS["SO2"], prev) == expected

    ZSCORE_CASES = [
        (0, 0.4, 0),  # below t_l
        (0, 0.5, 0),  # exactly t_l -> inactive branch
        (0, 0.7, 0),  # in band, holds
        (0, 1.0, 1),  # exactly t_u -> active branch
        (1, 0.7, 1),  # in band, holds active
        (1, 0.5, 0),  # exactly t_l deactivates
    ]

    @pytest.mark.parametrize("prev,z,expected", ZSCORE_CASES)
    def test_zscore_branches(self, prev, z, expected):
        assert step_tau(z, 0.5, 1.0, prev) == expected
        # the same z reached through a baseline: step 1 sets prev, step 2 tests z
        assert zscore_taus([0.0, 5.0 if prev else -5.0, z], 0.5, 1.0)[-1] == expected

    def test_zscore_step_zero_always_inactive(self):
        assert zscore_taus([1e9, 1e9], 0.5, 1.0) == [0, 1]

    def test_equal_thresholds_inactive_wins(self):
        # With t_l == t_u the inactive branch takes the tie.
        # the first row makes the previous tau active
        scores = np.array([[np.inf], [1.0], [1.1]])
        taus = hysteresis(scores, np.array([1.0]), np.array([1.0]))
        assert list(taus[1:, 0]) == [False, True]

    def test_hold_band_has_zero_chatter(self):
        rng = np.random.default_rng(0)
        in_band = rng.uniform(0.0076, 0.0149, 150)
        values = np.concatenate(([0.02], in_band, [0.001], in_band))
        lower, upper = ABSOLUTE_BOUNDS["AOD"]
        taus = hysteresis(values[:, None], np.array([lower]), np.array([upper]))[:, 0]
        assert list(taus) == [True] * 151 + [False] * 151

    def test_inactive_test_never_activates(self):
        # without a baseline a z-score test never activates
        base = BaseDag(vertices=("T",), edges=())
        values = np.array([1e9, np.inf, -1e9, np.nan, 1e9])
        pw = pathway_from_tests(base, {"T": values}, {"T": ZScoreHysteresis(0.5, 1.0)})
        assert not pw.activation.any()

    def test_degenerate_sigma_rejected(self):
        base = BaseDag(vertices=("A", "T"), edges=())
        tests = {"A": AbsoluteHysteresis(1.0, 2.0), "T": ZScoreHysteresis(0.5, 1.0)}
        series = {"A": np.zeros(5), "T": np.ones(5)}

        def baselines(sigma):
            return {"T": stats_from_sigma("T", 4, np.zeros(5), np.array(sigma))}

        with pytest.raises(DegenerateBaselineError, match=r"for T .* step 3"):
            pathway_from_tests(base, series, tests, baselines([0.0, 1.0, 1.0, 0.0, 1.0]))
        # sigma = 0 at m = 0 alone is fine: step 0 is forced inactive
        pw = pathway_from_tests(base, series, tests, baselines([0.0, 1.0, 1.0, 1.0, 1.0]))
        assert list(vertex_series(pw, "T").astype(int)) == [0, 1, 1, 1, 1]

    def test_missing_baseline_rejected(self):
        base = BaseDag(vertices=("T",), edges=())
        with pytest.raises(ConfigurationError, match="no baseline"):
            pathway_from_tests(base, {"T": np.zeros(4)}, {"T": ZScoreHysteresis(0.5, 1.0)}, {})

    def test_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            AbsoluteHysteresis(2.0, 1.0)
        with pytest.raises(ConfigurationError):
            AbsoluteHysteresis(1.0, 1.0)
        with pytest.raises(ConfigurationError):
            ZScoreHysteresis(2.0, 1.0)
        with pytest.raises(ConfigurationError):
            ZScoreHysteresis(-1.0, 0.0)

    def test_canonical_tests_cover_registry(self):
        tests = canonical_tests(0.5, 1.0)
        assert len(tests) == 16
        assert tests["SO2(t)"] == AbsoluteHysteresis(*ABSOLUTE_BOUNDS["SO2"])
        assert tests["SUL(p)"] == AbsoluteHysteresis(*ABSOLUTE_BOUNDS["SUL"])
        assert tests["AOD(e)"] == AbsoluteHysteresis(*ABSOLUTE_BOUNDS["AOD"])
        assert tests["T(s)"] == ZScoreHysteresis(0.5, 1.0)


def one_step(base, taus):
    """A one-step pathway whose only row is taus."""
    return PathwayDag(base=base, activation=np.array([taus], dtype=bool), dt=1.0)


class TestPathwayStep:
    def test_isolated_actives_have_no_edges(self):
        base = BaseDag(vertices=("A", "B", "C"), edges=(("A", "B"), ("B", "C")))
        v, e = materialize_dag(one_step(base, [1, 0, 1]), 0)
        assert v == ["A", "C"]
        assert e == []

    def test_edge_included_when_both_endpoints_active(self):
        base = BaseDag(vertices=("A", "B", "C"), edges=(("A", "B"), ("B", "C")))
        v, e = materialize_dag(one_step(base, [1, 1, 0]), 0)
        assert v == ["A", "B"]
        assert e == [("A", "B")]

    def test_wrong_tau_count_rejected(self):
        base = BaseDag(vertices=("A", "B"), edges=(("A", "B"),))
        with pytest.raises(ConfigurationError):
            materialize_dag(one_step(base, [1]), 0)

    def test_materialize_out_of_range(self):
        base = BaseDag(vertices=("A",), edges=())
        pw = PathwayDag(base=base, activation=np.zeros((3, 1), dtype=bool), dt=1.0)
        materialize_dag(pw, 2)
        with pytest.raises(IndexError):
            materialize_dag(pw, 3)
        with pytest.raises(IndexError):
            materialize_dag(pw, -1)


def hand_series():
    """Two-vertex chain with a hand-traced hysteresis history."""
    base = BaseDag(vertices=("A", "B"), edges=(("A", "B"),))
    tests = {"A": AbsoluteHysteresis(1.0, 2.0), "B": AbsoluteHysteresis(1.0, 2.0)}
    series = {
        #               m: 0    1    2    3    4    5
        "A": np.array([0.0, 2.5, 1.5, 0.5, 1.5, 2.0]),
        "B": np.array([0.0, 1.5, 2.5, 1.5, 1.0, 0.9]),
    }
    expected = {
        "A": [0, 1, 1, 0, 0, 1],
        "B": [0, 0, 1, 1, 0, 0],
    }
    return base, tests, series, expected


class TestComputePathway:
    def test_hand_traced_history(self):
        base, tests, series, expected = hand_series()
        pw = pathway_from_tests(base, series, tests, dt=0.5)
        assert pw.n_steps == 5
        assert pw.dt == 0.5
        assert list(vertex_series(pw, "A").astype(int)) == expected["A"]
        assert list(vertex_series(pw, "B").astype(int)) == expected["B"]
        v2, e2 = materialize_dag(pw, 2)
        assert v2 == ["A", "B"] and e2 == [("A", "B")]

    def test_missing_series_rejected(self):
        base, tests, series, _ = hand_series()
        del series["B"]
        with pytest.raises(ConfigurationError, match="no series for vertices"):
            pathway_from_tests(base, series, tests)

    def test_length_mismatch_rejected(self):
        base, tests, series, _ = hand_series()
        series["B"] = series["B"][:-1]
        with pytest.raises(ConfigurationError):
            pathway_from_tests(base, series, tests)

    def test_missing_test_rejected(self):
        base, tests, series, _ = hand_series()
        del tests["B"]
        with pytest.raises(ConfigurationError, match="no bounds test"):
            pathway_from_tests(base, series, tests)

    def test_random_instances_match_oracles(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            r = int(rng.integers(2, 12))
            vertices = tuple(f"v{i}" for i in range(r))
            edges = tuple(
                (f"v{i}", f"v{j}")
                for i in range(r)
                for j in range(i + 1, r)
                if rng.random() < 0.3
            )
            base = BaseDag(vertices=vertices, edges=edges)
            n = int(rng.integers(2, 40))
            tests, series, taus = {}, {}, {}
            for v in vertices:
                lo = float(rng.uniform(0.2, 0.5))
                hi = float(rng.uniform(0.6, 0.9))
                tests[v] = AbsoluteHysteresis(lo, hi)
                series[v] = rng.uniform(0.0, 1.1, n)
                taus[v] = taus_oracle_absolute(series[v], lo, hi)
            pw = pathway_from_tests(base, series, tests, dt=1.0)
            for v in vertices:
                assert list(vertex_series(pw, v).astype(int)) == taus[v]
            for m in range(n):
                flags = [taus[v][m] for v in vertices]
                assert materialize_dag(pw, m) == subgraph_oracle(vertices, edges, flags)

    def test_zscore_series_matches_oracle(self):
        base = BaseDag(vertices=("T",), edges=())
        rng = np.random.default_rng(5)
        n = 200
        mu = rng.standard_normal(n)
        sigma = rng.uniform(0.5, 2.0, n)
        values = mu + sigma * rng.standard_normal(n) * 2
        baselines = {"T": stats_from_sigma("T", 4, mu, sigma)}
        tests = {"T": ZScoreHysteresis(0.5, 1.0)}
        pw = pathway_from_tests(base, {"T": values}, tests, baselines)
        # stats_from_sigma reconstructs sigma through m2, so compare against std()
        sig = baselines["T"].std()
        expected = taus_oracle_zscore(values, mu, sig, 0.5, 1.0)
        assert list(vertex_series(pw, "T").astype(int)) == expected

    def test_zscore_without_baseline_rejected(self):
        base = BaseDag(vertices=("T",), edges=())
        tests = {"T": ZScoreHysteresis(0.5, 1.0)}
        with pytest.raises(ConfigurationError):
            pathway_from_tests(base, {"T": np.zeros(4)}, tests, {})

    def test_smaller_upper_threshold_dominates(self):
        # For the same trajectory, a lower activation threshold can only
        # produce a superset of active steps.
        rng = np.random.default_rng(9)
        base = BaseDag(vertices=("T",), edges=())
        n = 500
        mu = np.zeros(n)
        sigma = np.ones(n)
        values = np.cumsum(rng.standard_normal(n)) * 0.3
        baselines = {"T": stats_from_sigma("T", 4, mu, sigma)}
        taus = {}
        for t_u in (0.75, 1.0, 1.5, 2.0):
            pw = pathway_from_tests(
                base, {"T": values}, {"T": ZScoreHysteresis(0.5, t_u)}, baselines
            )
            taus[t_u] = vertex_series(pw, "T")
        for small, large in [(0.75, 1.0), (1.0, 1.5), (1.5, 2.0)]:
            assert np.all(taus[small] >= taus[large])


values_st = st.floats(-3.0, 3.0, allow_nan=False, width=32)


@st.composite
def series_instances(draw):
    """Random absolute and z-score columns, thresholds, and baselines or none at all."""
    n = draw(st.integers(1, 40))
    n_abs = draw(st.integers(0, 3))
    n_z = draw(st.integers(0 if n_abs else 1, 3))
    with_baseline = draw(st.booleans())
    cols = []
    for kind in ["abs"] * n_abs + ["z"] * n_z:
        if kind == "abs":  # lower < upper
            lo = draw(st.sampled_from([-1.0, -0.5, 0.0, 0.5]))
            hi = lo + draw(st.sampled_from([0.25, 1.0]))
        else:  # t_l <= t_u and t_u > 0
            hi = draw(st.sampled_from([0.25, 0.75, 1.5]))
            lo = hi - draw(st.sampled_from([0.0, 0.5, 1.0]))
        # values exactly on a threshold are drawn often; without a baseline, so are NaN and ±inf
        special = [lo, hi] if with_baseline else [lo, hi, np.nan, np.inf, -np.inf]
        picks = st.one_of(values_st, st.sampled_from(special))
        values = np.array(draw(st.lists(picks, min_size=n, max_size=n)))
        mu = sigma = None
        if kind == "z" and with_baseline:
            mu = np.array(draw(st.lists(values_st, min_size=n, max_size=n)))
            # powers of two survive stats_from_sigma exactly, keeping z on a threshold
            sigmas = st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.01, 10.0))
            sigma = np.array(draw(st.lists(sigmas, min_size=n, max_size=n)))
            values = mu + sigma * values  # z equals the drawn value, ties included
        cols.append((kind, lo, hi, values, mu, sigma))
    return cols, with_baseline


@settings(max_examples=200, deadline=None)
@given(series_instances())
def test_whole_series_equals_oracles(instance):
    cols, with_baseline = instance
    vertices = tuple(f"v{i}" for i in range(len(cols)))
    base = BaseDag(vertices=vertices, edges=())
    tests, baselines, series, oracle = {}, {}, {}, {}
    for v, (kind, lo, hi, values, mu, sigma) in zip(vertices, cols):
        series[v] = values
        if kind == "abs":
            tests[v] = AbsoluteHysteresis(lo, hi)
            oracle[v] = taus_oracle_absolute(values, lo, hi)
        elif with_baseline:
            tests[v] = ZScoreHysteresis(lo, hi)
            stats = stats_from_sigma(v, 5, mu, sigma)
            baselines[v] = stats
            oracle[v] = taus_oracle_zscore(values, stats.mean, stats.std(), lo, hi)
        else:  # no baseline: never active, whatever the value
            tests[v] = ZScoreHysteresis(lo, hi)
            oracle[v] = [0] * len(values)
    pw = pathway_from_tests(base, series, tests, baselines if with_baseline else None)
    for v in vertices:
        assert list(vertex_series(pw, v).astype(int)) == oracle[v]
