"""End-to-end acceptance checks, one per contract criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them).  The Monte Carlo checks share one module-scoped estimation cache so
the heavy runs happen once.
"""

import numpy as np
import pytest
from conftest import BLOCK_3X3, gaussian_sample, random_block_diagonal

from pla import (
    Block,
    DataMatrix,
    DispersionMatrix,
    MonteCarloSpec,
    PlaConfig,
    ScenarioSpec,
    detect_blocks,
    eigengap_bound,
    explained_variance_approx,
    explained_variance_exact,
    run_pla,
    type_one_error,
    variance_sensitivity,
)

MASTER_SEED = 0
ITERATIONS = 2000


def _verdict(name: str, ok: bool, detail: str) -> bool:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _mc_rate(scenario: str, count: int, n: int, tau: float) -> float:
    spec = ScenarioSpec(
        m_total=20, scenario=scenario, count=count, n_sample=n, tau=tau
    )
    mc = MonteCarloSpec(iterations=ITERATIONS, master_seed=MASTER_SEED)
    return type_one_error(spec, mc).rate


@pytest.fixture(scope="module")
def singleton_rates():
    return {
        tau: _mc_rate("single-vars", 1, 5000, tau)
        for tau in (0.4, 0.5, 0.6, 0.7)
    }


def test_criterion_1_singleton_error_rates(singleton_rates):
    rates = [singleton_rates[tau] for tau in (0.4, 0.5, 0.6, 0.7)]
    ok = (
        0.013 <= rates[0] <= 0.073
        and all(a >= b for a, b in zip(rates, rates[1:]))
        and rates[-1] <= 0.005
    )
    detail = "rates " + "/".join(f"{r:.4f}" for r in rates)
    assert _verdict("criterion 1 (singleton error-rate curve)", ok, detail)


def test_criterion_2_block_error_rates():
    rates = [_mc_rate("one-block", 2, 5000, tau) for tau in (0.6, 0.7, 0.8, 0.9)]
    ok = 0.038 <= rates[0] <= 0.098 and all(
        a >= b for a, b in zip(rates, rates[1:])
    )
    detail = "rates " + "/".join(f"{r:.4f}" for r in rates)
    assert _verdict("criterion 2 (planted-block error-rate curve)", ok, detail)


def test_criterion_3_sample_size_trend(singleton_rates):
    small = singleton_rates[0.4]
    large = _mc_rate("single-vars", 1, 10000, 0.4)
    ok = large <= small + 0.01
    detail = f"N=10000 rate {large:.4f} vs N=5000 rate {small:.4f}"
    assert _verdict("criterion 3 (sample-size trend)", ok, detail)


def test_criterion_4_explained_variance_identities():
    rng = np.random.default_rng(101)
    worst_sum = 0.0
    worst_gap = 0.0
    for _ in range(100):
        sizes = [int(s) for s in rng.integers(1, 4, size=3)]
        cov = random_block_diagonal(rng, sizes)
        es = DispersionMatrix(cov, "covariance").eigensystem
        part = detect_blocks(es.eigenvectors, tau=1e-8)
        assert part.residual == ()
        exact = [explained_variance_exact(b, es) for b in part.blocks]
        approx = [explained_variance_approx(b, es) for b in part.blocks]
        worst_sum = max(worst_sum, abs(sum(exact) - 1.0), abs(sum(approx) - 1.0))
        worst_gap = max(
            worst_gap, max(abs(e - a) for e, a in zip(exact, approx))
        )
    ok = worst_sum < 1e-9 and worst_gap < 1e-12
    detail = f"max |sum-1| {worst_sum:.2e}, max |exact-approx| {worst_gap:.2e}"
    assert _verdict("criterion 4 (explained-variance identities)", ok, detail)


def test_criterion_5_scale_invariance():
    rng = np.random.default_rng(202)
    invariant = 0
    for _ in range(100):
        cov = random_block_diagonal(rng, [2, 2, 2])
        chol = np.linalg.cholesky(cov)
        data = DataMatrix(rng.standard_normal((400, 6)) @ chol.T)
        scales = rng.uniform(1.0, 1e4, size=6)
        scaled = DataMatrix(data.values * scales, data.variable_names)
        config = PlaConfig(tau=0.6, mode="correlation-rescaled")
        before = run_pla(data, config).partition.structure()
        after = run_pla(scaled, config).partition.structure()
        invariant += before == after

    # adversarial covariance-mode case: inflating one column's scale moves
    # its loadings, changing the detected partition
    data = gaussian_sample(BLOCK_3X3, 5000, 7)
    scaled = DataMatrix(data.values * [1.0, 1000.0, 1.0], data.variable_names)
    config = PlaConfig(tau=0.3, mode="covariance")
    cov_differs = (
        run_pla(data, config).partition.structure()
        != run_pla(scaled, config).partition.structure()
    )

    ok = invariant == 100 and cov_differs
    detail = f"correlation invariant {invariant}/100, covariance differs {cov_differs}"
    assert _verdict("criterion 5 (scale invariance)", ok, detail)


def test_criterion_6_variance_sensitivity_signs():
    rng = np.random.default_rng(303)
    violations = 0
    checked = 0
    for _ in range(50):
        cov = np.zeros((6, 6))
        for b in range(3):
            var = np.sort(rng.uniform(0.5, 3.0, size=2))[::-1]
            c = rng.uniform(0.2, 0.9) * np.sqrt(var[0] * var[1])
            cov[2 * b : 2 * b + 2, 2 * b : 2 * b + 2] = [[var[0], c], [c, var[1]]]
        d = 2 * int(rng.integers(3))
        m = DispersionMatrix(cov, "covariance")
        profile = variance_sensitivity(m, d, [1e-6, 1e-5, 1e-4])
        for ok_flag in profile.sign_contract_ok:
            if ok_flag is not None:
                checked += 1
                violations += not ok_flag

        # limit behavior: with weak cross-block coupling, growing the probed
        # variance by 1e6 pushes the tracked eigenvector's off-block loadings
        # toward zero
        coupled = cov.copy()
        noise = 1e-3 * rng.uniform(-1.0, 1.0, size=(6, 6))
        coupled += (noise + noise.T) / 2
        np.fill_diagonal(coupled, np.diag(cov))
        coupled[d, d] *= 1e6
        es = DispersionMatrix(coupled, "covariance").eigensystem
        j = int(np.argmax(np.abs(es.eigenvectors[d, :])))
        block = {d, d + 1}
        off_block = [i for i in range(6) if i not in block]
        assert np.abs(es.eigenvectors[off_block, j]).max() < 1e-2

    ok = violations == 0 and checked >= 100
    detail = f"{checked} finite differences, {violations} sign violations"
    assert _verdict("criterion 6 (variance-sensitivity signs)", ok, detail)


def test_criterion_7_eigengap_bound_implication():
    rng = np.random.default_rng(404)
    violations = 0
    certified = 0
    for _ in range(200):
        a = rng.standard_normal((5, 5))
        base = a @ a.T + 0.5 * np.eye(5)
        if np.diff(np.sort(np.linalg.eigvalsh(base))).min() < 1e-3:
            continue
        d = rng.standard_normal((5, 5)) * rng.uniform(1e-4, 0.05)
        delta = (d + d.T) / 2
        tau = float(rng.uniform(0.05, 0.8))
        m = DispersionMatrix(base, "covariance")
        es0 = m.eigensystem
        diag = eigengap_bound(m, delta, tau)
        es1 = DispersionMatrix(base + delta, "covariance").eigensystem
        for j in range(5):
            if not diag.implies_below_tau[j]:
                continue
            certified += 1
            overlaps = es1.eigenvectors.T @ es0.eigenvectors[:, j]
            k = int(np.argmax(np.abs(overlaps)))
            moved = es1.eigenvectors[:, k] * np.sign(overlaps[k])
            if np.abs(moved - es0.eigenvectors[:, j]).max() >= tau:
                violations += 1
    ok = violations == 0 and certified > 100
    detail = f"{certified} certified bounds, {violations} violations"
    assert _verdict("criterion 7 (eigengap bound implication)", ok, detail)


def test_criterion_8_eigendecomposition_contract():
    rng = np.random.default_rng(505)
    worst = {"orth": 0.0, "recon": 0.0, "trace": 0.0}
    deterministic = True
    for _ in range(200):
        size = int(rng.integers(3, 9))
        a = rng.standard_normal((size, size))
        m = DispersionMatrix(a @ a.T, "covariance")
        es = m.eigensystem
        gram = es.eigenvectors.T @ es.eigenvectors
        worst["orth"] = max(worst["orth"], np.abs(gram - np.eye(size)).max())
        rebuilt = es.eigenvectors @ np.diag(es.eigenvalues) @ es.eigenvectors.T
        scale = np.abs(m.entries).max()
        worst["recon"] = max(worst["recon"], np.abs(rebuilt - m.entries).max() / scale)
        trace = np.trace(m.entries)
        worst["trace"] = max(
            worst["trace"], abs(es.eigenvalues.sum() - trace) / abs(trace)
        )
        again = m.eigensystem
        deterministic &= (
            es.eigenvalues.tobytes() == again.eigenvalues.tobytes()
            and es.eigenvectors.tobytes() == again.eigenvectors.tobytes()
        )
    ok = (
        worst["orth"] < 1e-10
        and worst["recon"] < 1e-9
        and worst["trace"] < 1e-9
        and deterministic
    )
    detail = (
        f"orth {worst['orth']:.1e}, recon {worst['recon']:.1e}, "
        f"trace {worst['trace']:.1e}, deterministic {deterministic}"
    )
    assert _verdict("criterion 8 (eigendecomposition contract)", ok, detail)


def test_criterion_9_worked_example():
    m = DispersionMatrix(
        np.array([[2.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, 5.0]]),
        "covariance",
    )
    report = run_pla(m, PlaConfig(tau=0.3, mode="covariance"))
    names = {
        tuple(report.variable_names[v] for v in b.variables): b
        for b in report.partition.blocks
    }
    ok = set(names) == {("X1", "X2"), ("X3",)}
    if ok:
        ok = (
            abs(names[("X1", "X2")].ev_exact - 4 / 9) < 1e-9
            and abs(names[("X3",)].ev_exact - 5 / 9) < 1e-9
        )
    detail = (
        "blocks " + ", ".join("{" + ",".join(k) + "}" for k in sorted(names))
        + (
            f"; ev {names[('X1', 'X2')].ev_exact:.6f}/{names[('X3',)].ev_exact:.6f}"
            if ok
            else ""
        )
    )
    assert _verdict("criterion 9 (worked example)", ok, detail)
