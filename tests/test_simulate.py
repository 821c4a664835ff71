import concurrent.futures
import os

import numpy as np
import pytest

import pla.core
from pla import (
    DataMatrix,
    DimensionError,
    DispersionMatrix,
    ErrorEstimate,
    FactorizationError,
    MonteCarloSpec,
    PlaConfig,
    PopulationModel,
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
        with pytest.raises(DimensionError):
            spec(m_total=3, count=2)

    def test_rejects_bad_kappa(self):
        with pytest.raises(DimensionError):
            spec(scenario="one-block", count=1)
        with pytest.raises(DimensionError):
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
        pop = generate_population(spec(count=2), seed=1)
        cov = pop.covariance
        assert pop.planted == (4, 5)
        # planted singletons: unit variance, zero covariance everywhere
        np.testing.assert_array_equal(cov[4:, 4:], np.eye(2))
        np.testing.assert_array_equal(cov[:4, 4:], np.zeros((4, 2)))
        # core is a unit-diagonal correlated block
        np.testing.assert_array_equal(np.diag(cov), np.ones(6))
        assert np.abs(cov[:4, :4] - np.eye(4)).max() > 0.05

    def test_one_block_structure(self):
        pop = generate_population(
            spec(scenario="one-block", count=3, m_total=8), seed=2
        )
        cov = pop.covariance
        assert pop.planted == (5, 6, 7)
        planted = cov[5:, 5:]
        np.testing.assert_array_equal(np.diag(planted), np.ones(3))
        off = planted[~np.eye(3, dtype=bool)]
        assert np.all(off > 0.5)
        np.testing.assert_array_equal(cov[:5, 5:], np.zeros((5, 3)))

    def test_positive_definite(self):
        for seed in range(10):
            pop = generate_population(spec(m_total=20, count=1), seed=seed)
            assert np.linalg.eigvalsh(pop.covariance).min() > 0.0

    def test_epsilon_scale_couples_blocks(self):
        pop = generate_population(spec(epsilon_scale=0.01), seed=3)
        assert np.abs(pop.covariance[:5, 5:]).max() > 0.0

    def test_deterministic(self):
        a = generate_population(spec(), seed=7)
        b = generate_population(spec(), seed=7)
        assert a.covariance.tobytes() == b.covariance.tobytes()


def draw_sample(pop, n, seed):
    """n Gaussian rows with covariance ``pop.covariance``, drawn via Cholesky.

    The data-level reference that ``draw_covariance`` is checked against.
    """
    chol = np.linalg.cholesky(pop.covariance)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, pop.covariance.shape[0])) @ chol.T
    return DataMatrix(values)


class TestDrawSample:
    def test_shape_and_determinism(self):
        pop = generate_population(spec(), seed=4)
        a = draw_sample(pop, 50, seed=9)
        b = draw_sample(pop, 50, seed=9)
        assert a.values.shape == (50, 6)
        assert a.values.tobytes() == b.values.tobytes()

    def test_recovers_population_covariance(self):
        # sampling oracle: large-N sample covariance near the population one
        pop = generate_population(spec(m_total=4, count=1), seed=5)
        data = draw_sample(pop, 100_000, seed=11)
        sample_cov = np.cov(data.values, rowvar=False, ddof=1)
        assert np.abs(sample_cov - pop.covariance).max() < 0.02


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
        pop = generate_population(spec(m_total=m, count=1), seed=m)
        sigma = pop.covariance
        draws = np.array(
            [draw_covariance(pop, n, seed=s) for s in range(10_000)]
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
        pop = PopulationModel(np.diag([1.0, -1.0]), (1,))
        with pytest.raises(FactorizationError):
            draw_covariance(pop, 10, seed=0)

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
            report = run_pla(draw_sample(pop, s.n_sample, sample_seed), config)
            row_failures += not _recovered(report.partition, pop.planted, s.scenario)
        rows_lo, rows_hi = _wilson_ci95(row_failures, iterations)
        est = type_one_error(s, MonteCarloSpec(iterations=iterations, master_seed=1))
        lo, hi = est.wilson_ci95
        assert 0.1 < est.rate < 0.9
        assert lo <= rows_hi and rows_lo <= hi


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("no process pool should be started")


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its size, runs in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


class TestWorkerCount:
    @pytest.mark.parametrize(
        "cpus, workers, iterations", [(1, 4, 3), (8, 4, 1), (None, 2, 3)]
    )
    def test_single_effective_worker_starts_no_pool(
        self, monkeypatch, cpus, workers, iterations
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
        s = spec(n_sample=200)
        seq = type_one_error(s, MonteCarloSpec(iterations=iterations, master_seed=2))
        got = type_one_error(
            s, MonteCarloSpec(iterations=iterations, master_seed=2, workers=workers)
        )
        assert got == seq

    def test_pool_size_is_clamped(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
        monkeypatch.setattr(_InlinePool, "sizes", [])
        s = spec(n_sample=200)
        type_one_error(s, MonteCarloSpec(iterations=5, master_seed=2, workers=8))
        type_one_error(s, MonteCarloSpec(iterations=2, master_seed=2, workers=8))
        assert _InlinePool.sizes == [3, 2]


class TestTypeOneError:
    def test_single_iteration_rate(self):
        est = type_one_error(
            spec(n_sample=2000), MonteCarloSpec(iterations=1, master_seed=3)
        )
        assert est.rate in (0.0, 1.0)
        assert est.failures + (1 - est.failures) == est.iterations

    def test_reproducible(self):
        mc = MonteCarloSpec(iterations=20, master_seed=12)
        a = type_one_error(spec(n_sample=1000), mc)
        b = type_one_error(spec(n_sample=1000), mc)
        assert a == b

    def test_workers_match_sequential(self):
        s = spec(n_sample=500)
        seq = type_one_error(s, MonteCarloSpec(iterations=16, master_seed=5))
        par = type_one_error(
            s, MonteCarloSpec(iterations=16, master_seed=5, workers=2)
        )
        assert seq == par

    def test_iterations_draw_no_rows(self, monkeypatch):
        # Each iteration: one drawn covariance, no np.cov, and one eigh, of
        # the correlation or of the covariance, whichever detection reads.
        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(np, "cov", counted("cov", np.cov))
        monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
        for mode in pla.core.MODES:
            calls = {"cov": 0, "eigh": 0}
            est = type_one_error(
                spec(n_sample=500, mode=mode), MonteCarloSpec(iterations=3)
            )
            assert est.numerical_failures == 0
            assert calls == {"cov": 0, "eigh": 3}, mode

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
        with pytest.raises(ValueError):
            reproduce_table("III", MonteCarloSpec(iterations=1))

    def test_table_two_uses_block_scenario(self):
        mc = MonteCarloSpec(iterations=3, master_seed=2)
        rows = list(reproduce_table(
            "II", mc, m_values=[8], count_values=[2], n_values=[500],
            taus=[0.6],
        ))
        assert len(rows) == 1
        assert rows[0]["k_or_kappa"] == 2
