import contextlib
import os
import threading
from unittest import mock

import numpy as np
import pytest
from conftest import (PINNED, Planted, blas_pinned, blas_unpinned, cpus, gaussian_sample,
                      no_children_left, split_work)
from hypothesis import given, settings
from hypothesis import strategies as st

import pla.core
import pla.simulate
from pla import (
    ConfigError,
    DimensionError,
    DispersionMatrix,
    FactorizationError,
    MonteCarloSpec,
    PlaConfig,
    ScenarioSpec,
    draw_covariance,
    generate_population,
    reproduce_table,
    run_pla,
    type_one_error,
)
from pla.simulate import _iteration_seeds, _recovered, _wilson_ci95


def spec(**kw):
    base = dict(
        m_total=6, scenario="single-vars", count=1, n_sample=200, tau=0.4
    )
    base.update(kw)
    return ScenarioSpec(**base)


class TestScenarioSpec:
    def test_rejects_small_core(self):
        with pytest.raises(ConfigError):
            spec(m_total=3, count=2)

    def test_rejects_bad_kappa(self):
        with pytest.raises(ConfigError):
            spec(scenario="one-block", count=1)
        with pytest.raises(ConfigError):
            spec(scenario="one-block", count=5)

    def test_rejects_unknown_scenario(self):
        with pytest.raises(ValueError):
            spec(scenario="two-blocks")

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            spec(tau=1.0)

    def test_rejects_unknown_mode_at_construction(self):
        with pytest.raises(ValueError, match="unknown mode"):
            spec(mode="pca")


class TestGeneratePopulation:
    def test_single_vars_structure(self):
        s = spec(count=2)
        cov = generate_population(s, seed=1)
        assert s.planted == range(4, 6)
        # planted singletons: unit variance, zero covariance everywhere
        np.testing.assert_array_equal(cov[np.ix_(s.planted, s.planted)], np.eye(2))
        np.testing.assert_array_equal(cov[:4, 4:], np.zeros((4, 2)))
        # core is a unit-diagonal correlated block
        np.testing.assert_array_equal(np.diag(cov), np.ones(6))
        assert np.abs(cov[:4, :4] - np.eye(4)).max() > 0.05

    def test_one_block_structure(self):
        s = spec(scenario="one-block", count=3, m_total=8)
        cov = generate_population(s, seed=2)
        assert s.planted == range(5, 8)
        planted = cov[np.ix_(s.planted, s.planted)]
        np.testing.assert_array_equal(np.diag(planted), np.ones(3))
        off = planted[~np.eye(3, dtype=bool)]
        assert np.all(off > 0.5)
        np.testing.assert_array_equal(cov[:5, 5:], np.zeros((5, 3)))

    def test_positive_definite(self):
        for seed in range(10):
            cov = generate_population(spec(m_total=20, count=1), seed=seed)
            assert np.linalg.eigvalsh(cov).min() > 0.0

    def test_epsilon_scale_couples_blocks(self):
        cov = generate_population(spec(epsilon_scale=0.01), seed=3)
        assert np.abs(cov[:5, 5:]).max() > 0.0

    def test_deterministic(self):
        a = generate_population(spec(), seed=7)
        b = generate_population(spec(), seed=7)
        assert a.tobytes() == b.tobytes()


class TestDrawSample:
    def test_shape_and_determinism(self):
        pop = generate_population(spec(), seed=4)
        a = gaussian_sample(pop, 50, seed=9)
        b = gaussian_sample(pop, 50, seed=9)
        assert a.values.shape == (50, 6)
        assert a.values.tobytes() == b.values.tobytes()

    def test_recovers_population_covariance(self):
        # sampling oracle: large-N sample covariance near the population one
        pop = generate_population(spec(m_total=4, count=1), seed=5)
        data = gaussian_sample(pop, 100_000, seed=11)
        sample_cov = np.cov(data.values, rowvar=False, ddof=1)
        assert np.abs(sample_cov - pop).max() < 0.02


class TestDrawCovariance:
    def test_determinism_and_metadata(self):
        pop = generate_population(spec(), seed=4)
        a = draw_covariance(pop, 50, seed=9)
        b = draw_covariance(pop, 50, seed=9)
        assert isinstance(a, np.ndarray)
        assert a.shape == (6, 6)
        assert a.tobytes() == b.tobytes()
        np.testing.assert_array_equal(a, a.T)

    @pytest.mark.parametrize("m, n", [(6, 4), (4, 10), (20, 50)])
    def test_draw_is_a_valid_covariance(self, m, n):
        # Returned unvalidated: a Gram matrix must pass validation as drawn,
        # singular (n - 1 < m) or not.
        pop = generate_population(spec(m_total=m, count=1), seed=m)
        for s in range(20):
            DispersionMatrix(draw_covariance(pop, n, seed=s), "covariance")

    @pytest.mark.parametrize("m, n", [(4, 10), (6, 4)])
    def test_wishart_moments_and_rank(self, m, n):
        # (n-1) S ~ W(Sigma, n-1): E S = Sigma and
        # Var S_ij = (Sigma_ij^2 + Sigma_ii Sigma_jj) / (n-1), also when
        # n - 1 < m and S is singular.
        sigma = generate_population(spec(m_total=m, count=1), seed=m)
        draws = np.array(
            [draw_covariance(sigma, n, seed=s) for s in range(10_000)]
        )
        var = (sigma**2 + np.outer(np.diag(sigma), np.diag(sigma))) / (n - 1)
        se = np.sqrt(var / len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - sigma) < 4.5 * se)
        np.testing.assert_allclose(draws.var(axis=0, ddof=1), var, rtol=0.1)
        ranks = {int(np.linalg.matrix_rank(d)) for d in draws[:20]}
        assert ranks == {min(n - 1, m)}

    def test_needs_two_observations(self):
        pop = generate_population(spec(), seed=4)
        with pytest.raises(DimensionError):
            draw_covariance(pop, 1, seed=0)

    def test_indefinite_population_is_factorization_error(self):
        with pytest.raises(FactorizationError):
            draw_covariance(np.diag([1.0, -1.0]), 10, seed=0)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_cholesky_failure_counts_as_numerical(self, cpus):
        # LAPACK's error is translated where LAPACK is called, for draw_covariance
        failure = np.linalg.LinAlgError("planted")
        with mock.patch.object(np.linalg, "cholesky", side_effect=failure):
            with pytest.raises(FactorizationError, match="not positive definite: planted"):
                draw_covariance(np.eye(3), 10, seed=0)
            with split_work(cpus):
                est = type_one_error(spec(), MonteCarloSpec(iterations=40, master_seed=1))
        assert (est.failures, est.numerical_failures) == (40, 40)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(m_total=6, count=1, n_sample=200, tau=0.4),
            dict(m_total=6, scenario="one-block", count=2, n_sample=300, tau=0.6),
        ],
    )
    def test_failure_rate_matches_row_sampler(self, kw):
        # Reference loop at the data level: draw the rows, estimate S from
        # them.  Same populations, independent sample streams.
        s = spec(**kw)
        iterations = 600
        config = PlaConfig(tau=s.tau, mode=s.mode, ev_cutoff=0.0)
        row_failures = 0
        for i in range(iterations):
            pop_seed, sample_seed = _iteration_seeds(1, i)
            pop = generate_population(s, pop_seed)
            report = run_pla(gaussian_sample(pop, s.n_sample, sample_seed), config)
            row_failures += not _recovered(report.partition, s)
        rows_lo, rows_hi = _wilson_ci95(row_failures, iterations)
        est = type_one_error(s, MonteCarloSpec(iterations=iterations, master_seed=1))
        lo, hi = est.wilson_ci95
        assert 0.1 < est.rate < 0.9
        assert lo <= rows_hi and rows_lo <= hi


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 12),
    st.integers(0, 2**32),
    st.sampled_from(["single-vars", "one-block"]),
    st.sampled_from(pla.core.MODES),
)
def test_the_estimate_does_not_depend_on_the_cpu_count(
    cpus, iterations, seed, scenario, mode
):
    s = spec(scenario=scenario, count=2, mode=mode)
    with split_work(1):
        serial = type_one_error(s, MonteCarloSpec(iterations=iterations, master_seed=seed))
    with split_work(cpus), mock.patch.object(os, "fork", wraps=os.fork) as fork:
        got = type_one_error(s, MonteCarloSpec(iterations=iterations, master_seed=seed))
    assert got == serial
    assert fork.call_count == (min(cpus, iterations) - 1) * PINNED
    no_children_left()


def _no_fork():
    raise AssertionError("no process should be forked")


class TestRangeCount:
    @pytest.fixture(autouse=True)
    def _every_iteration_may_fork(self, monkeypatch):
        monkeypatch.setattr(pla.simulate, "one_blas_thread", blas_pinned)
        monkeypatch.setattr(pla.simulate, "_RANGE_WORK", 1)

    @pytest.mark.parametrize("count, iterations", [(1, 3), (8, 1), (None, 3)])
    def test_a_lone_range_forks_nothing(self, monkeypatch, count, iterations):
        if count is None:  # the CPU set is unknown, so no quota is read
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        s = spec(n_sample=200)
        with cpus(count) if count else contextlib.nullcontext():
            seq = type_one_error(s, MonteCarloSpec(iterations=iterations, master_seed=2))
            monkeypatch.setattr(os, "fork", _no_fork)
            got = type_one_error(s, MonteCarloSpec(iterations=iterations, master_seed=2))
        assert got == seq

    def test_there_are_no_more_ranges_than_cpus_or_iterations(self, monkeypatch):
        sizes = []

        def inline_fork_map(fn, tasks):  # records the range count, runs in-process
            sizes.append(len(tasks))
            return [fn(task) for task in tasks]

        monkeypatch.setattr(pla.simulate, "fork_map", inline_fork_map)
        s = spec(n_sample=200)
        with cpus(3):
            type_one_error(s, MonteCarloSpec(iterations=5, master_seed=2))
            type_one_error(s, MonteCarloSpec(iterations=2, master_seed=2))
        assert sizes == [3, 2]


class TestRangeFloor:
    """A range holds at least ceil(_RANGE_WORK / M) iterations."""

    @pytest.mark.parametrize(
        "m, iterations, forks", [(200, 10, 1), (20, 10, 0), (20, 31, 0), (20, 32, 1)]
    )
    def test_the_floor_shrinks_as_m_grows(self, m, iterations, forks):
        s = spec(m_total=m, n_sample=500)
        with split_work(1):
            serial = type_one_error(s, MonteCarloSpec(iterations=iterations, master_seed=6))
        with cpus(2), mock.patch.object(os, "fork", wraps=os.fork) as fork:
            got = type_one_error(s, MonteCarloSpec(iterations=iterations, master_seed=6))
        assert got == serial
        assert fork.call_count == forks * PINNED


class TestBlasFallback:
    @pytest.fixture(autouse=True)
    def _two_cpus(self):
        with split_work(2):
            yield

    def test_a_run_that_cannot_pin_blas_warns(self, monkeypatch):
        monkeypatch.setattr(pla.simulate, "one_blas_thread", blas_unpinned)
        with split_work(1):
            serial = type_one_error(spec(), MonteCarloSpec(iterations=4, master_seed=7))
        monkeypatch.setattr(os, "fork", _no_fork)
        with pytest.warns(RuntimeWarning, match="runs in one process"):
            got = type_one_error(spec(), MonteCarloSpec(iterations=4, master_seed=7))
        assert got == serial

    def test_beside_another_thread_the_fallback_is_silent(self):
        errors = []

        def run():
            try:
                type_one_error(spec(), MonteCarloSpec(iterations=4, master_seed=7))
            except Warning as exc:  # pytest turns any warning into an error
                errors.append(exc)

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert errors == []


class TestForkedRanges:
    def test_an_exception_in_a_forked_range_reaches_the_caller(self, monkeypatch):
        run_iteration = pla.simulate._run_iteration

        def failing(spec, master_seed, s):
            if s == 4:  # in the first child's range, 3 to 6
                raise Planted(s)
            return run_iteration(spec, master_seed, s)

        monkeypatch.setattr(pla.simulate, "_run_iteration", failing)
        with split_work(3), mock.patch.object(os, "fork", wraps=os.fork) as fork, \
                pytest.raises(Planted):
            type_one_error(spec(), MonteCarloSpec(iterations=9))
        assert fork.call_count == 2 * PINNED

    def test_a_range_whose_child_failed_runs_again_here(self, monkeypatch):
        parent, run_iteration = os.getpid(), pla.simulate._run_iteration

        def failing_in_children(*args):
            if os.getpid() != parent:
                raise Planted
            return run_iteration(*args)

        with split_work(1):
            serial = type_one_error(spec(), MonteCarloSpec(iterations=9, master_seed=4))
        monkeypatch.setattr(pla.simulate, "_run_iteration", failing_in_children)
        with split_work(3):
            got = type_one_error(spec(), MonteCarloSpec(iterations=9, master_seed=4))
        assert got == serial


class TestTypeOneError:
    def test_single_iteration_rate(self):
        mc = MonteCarloSpec(iterations=1, master_seed=3)
        est = type_one_error(spec(n_sample=2000), mc)
        assert est.rate in (0.0, 1.0)
        assert est.failures + (1 - est.failures) == mc.iterations

    def test_reproducible(self):
        mc = MonteCarloSpec(iterations=20, master_seed=12)
        a = type_one_error(spec(n_sample=1000), mc)
        b = type_one_error(spec(n_sample=1000), mc)
        assert a == b

    def test_workers_match_sequential(self):
        s = spec(n_sample=500)
        with split_work(1):
            seq = type_one_error(s, MonteCarloSpec(iterations=16, master_seed=5))
        with split_work(2):
            par = type_one_error(s, MonteCarloSpec(iterations=16, master_seed=5))
        assert seq == par

    def test_iterations_draw_no_rows(self):
        # Each iteration: one drawn covariance, no np.cov, and one eigh, of
        # the correlation or of the covariance, whichever detection reads.
        for mode in pla.core.MODES:
            with mock.patch.object(np, "cov", wraps=np.cov) as cov, \
                    mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
                est = type_one_error(
                    spec(n_sample=500, mode=mode), MonteCarloSpec(iterations=3)
                )
            assert est.numerical_failures == 0
            assert (cov.call_count, eigh.call_count) == (0, 3), mode

    def test_iterations_do_not_score(self, monkeypatch):
        # The Type I error reads only the partition: no explained variance,
        # no covariance eigenvector assignment.
        def forbidden(*args, **kwargs):
            raise AssertionError("scoring ran inside a Monte Carlo iteration")

        for name in (
            "explained_variance_exact",
            "explained_variance_approx",
            "_assign_cov_eigen_indices",
        ):
            monkeypatch.setattr(pla.core, name, forbidden)
        for mode in pla.core.MODES:
            est = type_one_error(
                spec(n_sample=500, mode=mode), MonteCarloSpec(iterations=2)
            )
            assert est.numerical_failures == 0

    def test_wilson_interval_brackets_rate(self):
        est = type_one_error(
            spec(n_sample=500), MonteCarloSpec(iterations=30, master_seed=6)
        )
        lo, hi = est.wilson_ci95
        assert 0.0 <= lo <= est.rate <= hi <= 1.0

    def test_low_rate_on_easy_instance(self):
        # wide threshold, large sample: the planted singleton is found nearly
        # always
        est = type_one_error(
            spec(m_total=10, n_sample=5000, tau=0.7),
            MonteCarloSpec(iterations=50, master_seed=8),
        )
        assert est.rate <= 0.1


class TestReproduceTable:
    def test_row_grid(self):
        mc = MonteCarloSpec(iterations=5, master_seed=1)
        rows = list(reproduce_table(
            "I", mc, m_values=[8], count_values=[1], n_values=[200],
            taus=[0.4, 0.6],
        ))
        assert [r["tau"] for r in rows] == [0.4, 0.6]
        assert all(r["M"] == 8 and r["N"] == 200 and r["S"] == 5 for r in rows)
        assert all(0.0 <= r["ci_low"] <= r["rate"] <= r["ci_high"] for r in rows)

    def test_empty_filter_empty_rows(self):
        mc = MonteCarloSpec(iterations=1)
        assert list(reproduce_table("I", mc, m_values=[])) == []

    def test_unknown_table(self):
        with pytest.raises(ConfigError, match="unknown table 'III'"):
            reproduce_table("III", MonteCarloSpec(iterations=1))

    def test_table_two_uses_block_scenario(self):
        mc = MonteCarloSpec(iterations=3, master_seed=2)
        rows = list(reproduce_table(
            "II", mc, m_values=[8], count_values=[2], n_values=[500],
            taus=[0.6],
        ))
        assert len(rows) == 1
        assert rows[0]["k_or_kappa"] == 2
