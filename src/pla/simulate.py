"""Monte Carlo harness: planted block populations and Type-I-error estimation.

A scenario plants either k mutually uncorrelated single variables or one
internally correlated block of size kappa, both uncorrelated with a generic
correlated remainder.  The Type I error is the share of iterations in which
the detection step fails to isolate the planted structure.

The analysis sees a simulated dataset only through its sample covariance S,
and for N Gaussian rows (N-1)*S is Wishart W(Sigma, N-1).  Each iteration
therefore draws S directly (``draw_covariance``, Bartlett decomposition) in
O(M^3) time and O(M^2) memory, whatever N is, and runs only detection on
it, with one eigensolve.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ._fork import even_cuts, fork_map, one_blas_thread
from .core import MODES, _detect, check_tau
from .dispersion import DispersionMatrix, cholesky_factor, correlation_from_covariance
from .errors import ConfigError, DimensionError, PlaError

__all__ = [
    "ScenarioSpec",
    "MonteCarloSpec",
    "ErrorEstimate",
    "generate_population",
    "draw_covariance",
    "type_one_error",
    "reproduce_table",
]

SCENARIOS = ("single-vars", "one-block")
# Reference-table grids: (scenario, plant sizes, thresholds).
TABLE_GRIDS = {
    "I": ("single-vars", (1, 2, 3, 4, 5), (0.4, 0.5, 0.6, 0.7)),
    "II": ("one-block", (2, 3, 4, 5, 6), (0.6, 0.7, 0.8, 0.9)),
}
TABLE_M_VALUES = tuple(range(20, 201, 20))
TABLE_N_VALUES = (5000, 10000)
# The fields of each reproduce_table row, in the CLI's CSV column order.
TABLE_COLUMNS = ("M", "k_or_kappa", "N", "tau", "rate", "ci_low", "ci_high", "S",
                 "numerical_failures")
# Uniform ranges of the one-factor loadings of the core and the planted block.
CORE_LOADING_RANGE = (0.32, 0.8)
PLANTED_LOADING_RANGE = (0.79, 0.81)
# Work per process, at least, in iterations times M: a range holds at least
# ceil(_RANGE_WORK / M) iterations.  An extra process cost about 3.5 ms on a
# 2-vCPU host (fork, pipe, and the wait for the child's exit), seven
# iterations at M=20, where forking paid from 16 on.  An iteration's cost
# grows faster than M (0.41, 2.55 and 8.4 ms at M = 20, 100, 200), so every
# range holds about twice a fork's cost or more: 16 iterations at M=20, 2 at
# M=200.
_RANGE_WORK = 16 * 20


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

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        # the plant leaves a core of at least 2 variables; a block has 2 or more
        low, name = (1, "k") if self.scenario == "single-vars" else (2, "kappa")
        if not low <= self.count <= self.m_total - 2:
            raise ConfigError(f"{self.scenario} needs {low} <= {name} <= M - 2, got "
                              f"M={self.m_total}, {name}={self.count}")
        if self.n_sample < 2:
            raise ConfigError(f"n_sample must be >= 2, got {self.n_sample}")
        check_tau(self.tau)
        if not 0.0 <= self.epsilon_scale < math.inf:
            raise ConfigError(
                f"epsilon_scale must be finite and >= 0, got {self.epsilon_scale}"
            )

    @property
    def planted(self) -> range:
        """Indices of the planted variables: the last ``count`` of the M."""
        return range(self.m_total - self.count, self.m_total)


@dataclass(frozen=True)
class MonteCarloSpec:
    """Iterations and the master seed their seeds derive from."""

    iterations: int
    master_seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")


@dataclass(frozen=True)
class ErrorEstimate:
    failures: int
    rate: float
    wilson_ci95: tuple[float, float]
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


def generate_population(spec: ScenarioSpec, seed) -> np.ndarray:
    """Population covariance for ``spec``: correlated core first, plant at ``spec.planted``."""
    rng = np.random.default_rng(seed)
    core = spec.planted.start
    plant = len(spec.planted)

    cov = np.zeros((spec.m_total, spec.m_total))
    cov[:core, :core] = _one_factor_block(core, CORE_LOADING_RANGE, rng)
    if spec.scenario == "single-vars":
        cov[core:, core:] = np.eye(plant)
    else:
        cov[core:, core:] = _one_factor_block(plant, PLANTED_LOADING_RANGE, rng)
    if spec.epsilon_scale > 0.0:
        eps = spec.epsilon_scale * rng.uniform(-1.0, 1.0, size=(core, plant))
        cov[:core, core:] = eps
        cov[core:, :core] = eps.T

    return cov


def draw_covariance(covariance: np.ndarray, n: int, seed) -> np.ndarray:
    """Sample covariance of n Gaussian rows, drawn without drawing the rows.

    With the population covariance Sigma = ``covariance`` = L L^T (as from
    ``generate_population``) and df = n - 1, the Bartlett decomposition
    (Smith & Hocking 1972, Algorithm AS 53) gives df * S = (L A)(L A)^T,
    where A is M x min(df, M), lower trapezoidal, with sqrt(chi2(df - i)) on
    the diagonal and N(0, 1) entries below it.  When df < M this is the
    rank-df matrix that n rows would give.  Costs O(M^3), not O(n M^2); same
    distribution as the sample covariance of n rows drawn as ``Z L^T``, but
    a different random stream, and returned unvalidated as an array: a Gram
    matrix is PSD by construction.
    """
    if n < 2:
        raise DimensionError("sample covariance needs at least 2 observations")
    chol = cholesky_factor(covariance)
    m = chol.shape[0]
    df = n - 1
    k = min(df, m)
    rng = np.random.default_rng(seed)
    a = np.tril(rng.standard_normal((m, k)), -1)
    a[np.arange(k), np.arange(k)] = np.sqrt(rng.chisquare(df - np.arange(k)))
    la = chol @ a
    return la @ la.T / df


def _recovered(partition, spec: ScenarioSpec) -> bool:
    """Did the detection step lead to a drop of ``spec.planted``?

    single-vars: every planted variable sits in a balanced block made up of
    planted variables only (uncorrelated singletons have identical unit
    correlation eigenvalues, so they may legitimately land in one shared
    block; they are still separated from the core and dropped together).
    one-block: the planted variables form exactly one block.
    """
    planted = set(spec.planted)
    if spec.scenario == "single-vars":
        covered = set()
        for b in partition.blocks:
            vars_ = set(b.variables)
            if vars_ <= planted:
                covered |= vars_
        return covered == planted
    return tuple(spec.planted) in {b.variables for b in partition.blocks}


def _iteration_seeds(master_seed: int, s: int):
    """Population and sample seeds of iteration s; ``(master_seed, s)`` replays it."""
    return np.random.SeedSequence([master_seed, s]).spawn(2)


def _run_iteration(spec: ScenarioSpec, master_seed: int, s: int) -> tuple[bool, bool]:
    """One Monte Carlo draw: (success, numerical failure).

    Only detection runs; the one ``eigh`` of its matrix also validates it.
    """
    pop_seed, sample_seed = _iteration_seeds(master_seed, s)
    try:
        pop = generate_population(spec, pop_seed)
        cov = draw_covariance(pop, spec.n_sample, sample_seed)
        if spec.mode.startswith("correlation"):
            matrix = correlation_from_covariance(cov)
        else:
            matrix = DispersionMatrix(cov, "covariance")
        partition = _detect(matrix.eigensystem, spec.mode, spec.tau)
    except PlaError:  # LAPACK's failures arrive translated, as NumericalError
        return False, True
    return _recovered(partition, spec), False


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
    runs only the detection step on it (one ``eigh``); ``_recovered`` says
    whether that isolated ``spec.planted``.  Per-iteration seeds are derived
    from the master seed, and BLAS runs on one thread, so the estimate does
    not depend on the process count.  ``range(S)`` is cut into one
    contiguous range per usable CPU, as few as give each at least
    ceil(``_RANGE_WORK`` / M) iterations (``_fork.even_cuts``); the first
    runs here and each other in a forked child (``_fork.fork_map``).  Where
    ``one_blas_thread`` cannot pin BLAS, one process runs them all; for want
    of OpenBLAS, a ``RuntimeWarning`` says so when more than one would have
    run.
    """
    def run(span):  # (successes, numerical failures)
        rows = [_run_iteration(spec, mc.master_seed, s) for s in range(*span)]
        return sum(ok for ok, _ in rows), sum(bad for _, bad in rows)

    with one_blas_thread() as pinned:
        cuts = even_cuts(mc.iterations, math.ceil(_RANGE_WORK / spec.m_total))
        if len(cuts) > 2 and pinned is False:  # None: another thread runs
            warnings.warn("found no OpenBLAS whose thread count can be set, so the "
                          "Monte Carlo runs in one process", RuntimeWarning, stacklevel=2)
        cuts = cuts if pinned else [0, mc.iterations]
        counts = fork_map(run, list(zip(cuts, cuts[1:])))

    successes, numerical = map(sum, zip(*counts))
    failures = mc.iterations - successes
    return ErrorEstimate(
        failures=failures,
        rate=failures / mc.iterations,
        wilson_ci95=_wilson_ci95(failures, mc.iterations),
        numerical_failures=numerical,
    )


def reproduce_table(
    table: str,
    mc: MonteCarloSpec,
    m_values=None,
    count_values=None,
    n_values=None,
    taus=None,
) -> Iterator[dict]:
    """Estimate Type I error over a grid matching the reference table layout.

    Validates every (M, k-or-kappa, N, tau) cell, then returns an iterator
    that runs the cells in order and yields each one's row as it finishes,
    a dict keyed by ``TABLE_COLUMNS``.
    Passing an empty sequence for any filter yields no rows.
    """
    if table not in TABLE_GRIDS:
        raise ConfigError(f"unknown table {table!r}; expected 'I' or 'II'")
    scenario, default_counts, default_taus = TABLE_GRIDS[table]
    m_values = TABLE_M_VALUES if m_values is None else tuple(m_values)
    count_values = default_counts if count_values is None else tuple(count_values)
    n_values = TABLE_N_VALUES if n_values is None else tuple(n_values)
    taus = default_taus if taus is None else tuple(taus)

    specs = [
        ScenarioSpec(m_total=m, scenario=scenario, count=k, n_sample=n, tau=tau)
        for m, k, n, tau in itertools.product(m_values, count_values, n_values, taus)
    ]

    def rows():
        for spec in specs:
            est = type_one_error(spec, mc)
            yield dict(zip(TABLE_COLUMNS, (
                spec.m_total, spec.count, spec.n_sample, spec.tau, est.rate,
                *est.wilson_ci95, mc.iterations, est.numerical_failures,
            )))

    return rows()
