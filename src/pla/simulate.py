"""Monte Carlo harness: planted block populations and Type-I-error estimation.

A scenario plants either k mutually uncorrelated single variables or one
internally correlated block of size kappa, both uncorrelated with a generic
correlated remainder.  The Type I error is the share of iterations in which
the detection step fails to isolate the planted structure.

The analysis sees a simulated dataset only through its sample covariance S,
and for N Gaussian rows (N-1)*S is Wishart W(Sigma, N-1).  Each iteration
therefore draws S directly (``draw_covariance``, Bartlett decomposition) in
O(M^3) time and O(M^2) memory, whatever N is, and runs only detection on
it, with one eigensolve.  ``draw_sample`` draws the rows themselves and
serves as the data-level reference.
"""

from __future__ import annotations

import itertools
import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import MODES, _detect
from .dispersion import DispersionMatrix, _unit_diagonal
from .errors import ConfigError, DimensionError, FactorizationError, PlaError
from .ingest import DataMatrix

__all__ = [
    "ScenarioSpec",
    "MonteCarloSpec",
    "PopulationModel",
    "ErrorEstimate",
    "generate_population",
    "draw_sample",
    "draw_covariance",
    "type_one_error",
    "reproduce_table",
    "TABLE_GRIDS",
]

log = logging.getLogger(__name__)

# Reference-table grids: (scenario, plant sizes, thresholds).
TABLE_GRIDS = {
    "I": ("single-vars", (1, 2, 3, 4, 5), (0.4, 0.5, 0.6, 0.7)),
    "II": ("one-block", (2, 3, 4, 5, 6), (0.6, 0.7, 0.8, 0.9)),
}
TABLE_M_VALUES = tuple(range(20, 201, 20))
TABLE_N_VALUES = (5000, 10000)


@dataclass(frozen=True)
class ScenarioSpec:
    """One cell of the simulation design.

    ``count`` is k (number of planted singletons) for scenario
    ``single-vars`` and kappa (planted block size) for ``one-block``.
    The remainder of the population is a generic correlated block built
    from a random factor model; ``epsilon_scale`` adds cross-block
    covariances (0 keeps the planted structure exactly uncorrelated).
    """

    m_total: int
    scenario: str
    count: int
    n_sample: int
    tau: float
    mode: str = "correlation-rescaled"
    epsilon_scale: float = 0.0
    core_loading_range: tuple[float, float] = (0.32, 0.8)
    planted_loading_range: tuple[float, float] = (0.79, 0.81)

    def __post_init__(self):
        if self.scenario not in ("single-vars", "one-block"):
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.scenario == "single-vars":
            if self.count < 1 or self.m_total - self.count < 2:
                raise DimensionError(
                    f"single-vars needs k >= 1 and M - k >= 2, got "
                    f"M={self.m_total}, k={self.count}"
                )
        else:
            if not 2 <= self.count <= self.m_total - 2:
                raise DimensionError(
                    f"one-block needs 2 <= kappa <= M - 2, got "
                    f"M={self.m_total}, kappa={self.count}"
                )
        if self.n_sample < 2:
            raise DimensionError(f"n_sample must be >= 2, got {self.n_sample}")
        if not 0.0 < self.tau < 1.0:
            raise ConfigError(f"tau must lie in (0, 1), got {self.tau}")
        if not 0.0 <= self.epsilon_scale < math.inf:
            raise ConfigError(
                f"epsilon_scale must be finite and >= 0, got {self.epsilon_scale}"
            )


@dataclass(frozen=True)
class MonteCarloSpec:
    iterations: int
    master_seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")


@dataclass(frozen=True)
class PopulationModel:
    """Mean-zero Gaussian population with an explicit covariance."""

    covariance: np.ndarray
    planted: tuple[int, ...]
    scenario: str


@dataclass(frozen=True)
class ErrorEstimate:
    failures: int
    iterations: int
    rate: float
    wilson_ci95: tuple[float, float]
    iteration_seeds: tuple[int, ...] = field(repr=False, default=())
    numerical_failures: int = 0


def _one_factor_block(size: int, loading_range: tuple[float, float], rng) -> np.ndarray:
    """Random one-factor correlation block: c c^T plus diagonal filler.

    Loadings c_i are uniform over ``loading_range``, so the block has unit
    diagonal, one dominant eigenvalue near 1 + sum(c^2), and the remaining
    eigenvalues confined to [1 - max(c)^2, 1 - min(c)^2].  That confinement
    keeps the rest of the spectrum clear of the planted eigenvalues, which
    is what makes the detection failure rate decay with the threshold.
    """
    lo, hi = loading_range
    c = rng.uniform(lo, hi, size=size)
    block = np.outer(c, c)
    np.fill_diagonal(block, 1.0)
    return block


def generate_population(spec: ScenarioSpec, seed) -> PopulationModel:
    """Build the planted covariance: correlated core first, planted part last."""
    rng = np.random.default_rng(seed)
    m = spec.m_total
    plant = spec.count
    core = m - plant

    cov = np.zeros((m, m))
    cov[:core, :core] = _one_factor_block(core, spec.core_loading_range, rng)
    if spec.scenario == "single-vars":
        cov[core:, core:] = np.eye(plant)
    else:
        cov[core:, core:] = _one_factor_block(plant, spec.planted_loading_range, rng)
    if spec.epsilon_scale > 0.0:
        eps = spec.epsilon_scale * rng.uniform(-1.0, 1.0, size=(core, plant))
        cov[:core, core:] = eps
        cov[core:, :core] = eps.T

    return PopulationModel(
        covariance=cov,
        planted=tuple(range(core, m)),
        scenario=spec.scenario,
    )


def _cholesky(pop: PopulationModel) -> np.ndarray:
    try:
        return np.linalg.cholesky(pop.covariance)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(
            f"population covariance is not positive definite: {exc}"
        ) from exc


def draw_sample(pop: PopulationModel, n: int, seed) -> DataMatrix:
    """Draw n i.i.d. Gaussian rows via Cholesky; deterministic under seed.

    The Monte Carlo draws ``draw_covariance`` instead; the rows are the
    data-level reference that its distribution is checked against.
    """
    chol = _cholesky(pop)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, pop.covariance.shape[0])) @ chol.T
    return DataMatrix(values)


def draw_covariance(pop: PopulationModel, n: int, seed) -> np.ndarray:
    """Sample covariance of n Gaussian rows, drawn without drawing the rows.

    With Sigma = L L^T and df = n - 1, the Bartlett decomposition (Smith &
    Hocking 1972, Algorithm AS 53) gives df * S = (L A)(L A)^T, where A is
    M x min(df, M), lower trapezoidal, with sqrt(chi2(df - i)) on the
    diagonal and N(0, 1) entries below it.  When df < M this is the rank-df
    matrix that n rows would give.  Costs O(M^3), not O(n M^2); same
    distribution as the entries of ``sample_covariance(draw_sample(...))``,
    but a different random stream, and returned unvalidated as an array: a
    Gram matrix is PSD by construction.
    """
    if n < 2:
        raise DimensionError("sample covariance needs at least 2 observations")
    chol = _cholesky(pop)
    m = chol.shape[0]
    df = n - 1
    k = min(df, m)
    rng = np.random.default_rng(seed)
    a = np.tril(rng.standard_normal((m, k)), -1)
    a[np.arange(k), np.arange(k)] = np.sqrt(rng.chisquare(df - np.arange(k)))
    la = chol @ a
    cov = la @ la.T / df
    return (cov + cov.T) / 2.0


def _recovered(partition, planted: tuple[int, ...], scenario: str) -> bool:
    """Did the detection step lead to a drop of the planted variables?

    single-vars: every planted variable sits in a balanced block made up of
    planted variables only (uncorrelated singletons have identical unit
    correlation eigenvalues, so they may legitimately land in one shared
    block; they are still separated from the core and dropped together).
    one-block: the planted variables form exactly one block.
    """
    planted_set = set(planted)
    if scenario == "single-vars":
        covered = set()
        for b in partition.blocks:
            vars_ = set(b.variables)
            if vars_ <= planted_set:
                covered |= vars_
        return covered == planted_set
    return tuple(planted) in {b.variables for b in partition.blocks}


def _iteration_seeds(master_seed: int, s: int):
    root = np.random.SeedSequence([master_seed, s])
    pop_seed, sample_seed = root.spawn(2)
    return int(root.generate_state(1)[0]), pop_seed, sample_seed


def _run_iteration(spec: ScenarioSpec, master_seed: int, s: int) -> tuple[int, bool, bool]:
    """One Monte Carlo draw: (recorded seed, success, numerical failure).

    Only detection runs; the one ``eigh`` of its matrix also validates it.
    """
    recorded, pop_seed, sample_seed = _iteration_seeds(master_seed, s)
    try:
        pop = generate_population(spec, pop_seed)
        cov = draw_covariance(pop, spec.n_sample, sample_seed)
        if spec.mode.startswith("correlation"):
            matrix = DispersionMatrix(_unit_diagonal(cov), "correlation")
        else:
            matrix = DispersionMatrix(cov, "covariance")
        partition = _detect(matrix.eigensystem, spec.mode, spec.tau)
    except (PlaError, np.linalg.LinAlgError) as exc:
        log.warning("iteration %d failed numerically: %s", s, exc)
        return recorded, False, True
    return recorded, _recovered(partition, pop.planted, spec.scenario), False


def _wilson_ci95(failures: int, n: int) -> tuple[float, float]:
    z = 1.959963984540054
    phat = failures / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def type_one_error(spec: ScenarioSpec, mc: MonteCarloSpec) -> ErrorEstimate:
    """Estimate the share of iterations where the planted drop was missed.

    Each iteration regenerates a fresh population, draws the sample
    covariance of ``spec.n_sample`` Gaussian rows (``draw_covariance``), and
    runs only the detection step on it (one ``eigh``); success means every
    planted variable lies in a block made only of planted variables
    (single-vars: the singletons may share one block, see ``_recovered``) or
    the planted variables form exactly one block (one-block).  Per-iteration
    seeds are derived from the master seed, so the estimate is independent of
    worker scheduling.  At most ``min(workers, iterations, os.cpu_count())``
    processes run; with one, no pool is started.
    """
    indices = range(mc.iterations)
    workers = min(mc.workers, mc.iterations, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(
                    _run_iteration,
                    [spec] * mc.iterations,
                    [mc.master_seed] * mc.iterations,
                    indices,
                    chunksize=max(1, mc.iterations // (4 * workers)),
                )
            )
    else:
        results = [_run_iteration(spec, mc.master_seed, s) for s in indices]

    seeds = tuple(r[0] for r in results)
    successes = sum(1 for r in results if r[1])
    numerical = sum(1 for r in results if r[2])
    failures = mc.iterations - successes
    return ErrorEstimate(
        failures=failures,
        iterations=mc.iterations,
        rate=failures / mc.iterations,
        wilson_ci95=_wilson_ci95(failures, mc.iterations),
        iteration_seeds=seeds,
        numerical_failures=numerical,
    )


def reproduce_table(
    table: str,
    mc: MonteCarloSpec,
    m_values=None,
    count_values=None,
    n_values=None,
    taus=None,
) -> list[dict]:
    """Estimate Type I error over a grid matching the reference table layout.

    Returns one row dict per (M, k-or-kappa, N, tau) cell with keys
    M, k_or_kappa, N, tau, rate, ci_low, ci_high, S.  Passing an empty
    sequence for any filter yields no rows.
    """
    if table not in TABLE_GRIDS:
        raise ValueError(f"unknown table {table!r}; expected 'I' or 'II'")
    scenario, default_counts, default_taus = TABLE_GRIDS[table]
    m_values = TABLE_M_VALUES if m_values is None else tuple(m_values)
    count_values = default_counts if count_values is None else tuple(count_values)
    n_values = TABLE_N_VALUES if n_values is None else tuple(n_values)
    taus = default_taus if taus is None else tuple(taus)

    # Every cell is validated before the first one runs.
    specs = [
        ScenarioSpec(m_total=m, scenario=scenario, count=k, n_sample=n, tau=tau)
        for m, k, n, tau in itertools.product(m_values, count_values, n_values, taus)
    ]
    rows = []
    for spec in specs:
        est = type_one_error(spec, mc)
        rows.append(
            {
                "M": spec.m_total,
                "k_or_kappa": spec.count,
                "N": spec.n_sample,
                "tau": spec.tau,
                "rate": est.rate,
                "ci_low": est.wilson_ci95[0],
                "ci_high": est.wilson_ci95[1],
                "S": mc.iterations,
            }
        )
    return rows
