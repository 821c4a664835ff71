"""Seeded CSV input for the cli-* workloads and the reference its outputs must match.

The data is a one-factor correlated core (``core00``...) plus a planted
low-variance block (``low0``...).  Every ``pla`` analysis of it in the default
mode should find exactly two balanced blocks, core and planted, with the
planted block discardable.  The explained-variance reference is computed
here from the same matrix, independently of ``pla``.
"""

from __future__ import annotations

import numpy as np

ROWS = 20_000
COLS = 50
PLANTED = 5
CORE_LOADINGS = (0.65, 0.9)
PLANTED_LOADINGS = (0.93, 0.97)
PLANTED_SCALE = 0.02
EV_TOL = 1e-9
VALUE_TOL = 1e-12


def column_names(cols: int = COLS, planted: int = PLANTED) -> list[str]:
    core = cols - planted
    return [f"core{i:02d}" for i in range(core)] + [f"low{i}" for i in range(planted)]


def one_factor(rng, rows: int, loadings: np.ndarray) -> np.ndarray:
    factor = rng.standard_normal((rows, 1))
    noise = rng.standard_normal((rows, loadings.size))
    return factor * loadings + noise * np.sqrt(1.0 - loadings**2)


def make_matrix(seed: int, rows: int = ROWS, cols: int = COLS,
                planted: int = PLANTED) -> np.ndarray:
    """rows x cols data, deterministic under ``seed``."""
    rng = np.random.default_rng([seed, rows, cols, planted])
    core = cols - planted
    x = np.hstack([
        one_factor(rng, rows, rng.uniform(*CORE_LOADINGS, size=core)),
        one_factor(rng, rows, rng.uniform(*PLANTED_LOADINGS, size=planted)),
    ])
    scale = np.concatenate([rng.uniform(0.5, 2.0, size=core),
                            np.full(planted, PLANTED_SCALE)])
    return x * scale + rng.uniform(-10.0, 10.0, size=cols)


def csv_text(x: np.ndarray, names: list[str]) -> str:
    """CSV with a header row; ``%.17g`` round-trips every float64 exactly."""
    row = ",".join(["%.17g"] * x.shape[1]) + "\n"
    return ",".join(names) + "\n" + "".join(row % tuple(r) for r in x.tolist())


def write_csv(path, seed: int, rows: int = ROWS) -> np.ndarray:
    x = make_matrix(seed, rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_text(x, column_names()))
    return x


def _descending_eigh(matrix):
    values, vectors = np.linalg.eigh(matrix)
    return values[::-1], vectors[:, ::-1]


def _assign(vectors: np.ndarray, groups) -> list[list[int]]:
    """Eigenvector j goes to the group carrying most of its squared mass."""
    mass = np.array([(vectors[g, :] ** 2).sum(axis=0) for g in groups])
    owner = mass.argmax(axis=0)
    return [np.flatnonzero(owner == k).tolist() for k in range(len(groups))]


def expected_report(x: np.ndarray, ev_cutoff: float = 0.05) -> dict:
    """The planted structure and its explained-variance shares."""
    names = column_names(x.shape[1])
    core = x.shape[1] - PLANTED
    groups = [list(range(core)), list(range(core, x.shape[1]))]
    cov = np.cov(x, rowvar=False)
    sd = np.sqrt(np.diag(cov))
    _, corr_vectors = _descending_eigh(cov / np.outer(sd, sd))
    cov_values, cov_vectors = _descending_eigh(cov)
    trace = np.trace(cov)
    blocks = []
    for group, corr_idx, cov_idx in zip(groups, _assign(corr_vectors, groups),
                                        _assign(cov_vectors, groups)):
        exact = float(np.diag(cov)[group].sum() / trace)
        blocks.append({
            "variables": [names[i] for i in group],
            "eigen_indices": corr_idx,
            "ev_exact": exact,
            "ev_approx": float(cov_values[cov_idx].sum() / trace),
            "discardable": exact <= ev_cutoff,
        })
    return {
        "blocks": blocks,
        "residual": [],
        "warnings": [],
        "recommendation": [b for blk in blocks if blk["discardable"]
                           for b in blk["variables"]],
    }


def report_problems(report: dict, expected: dict) -> list[str]:
    """Differences between a ``pla analyze`` report and the reference."""
    problems = []
    for key in ("residual", "warnings", "recommendation"):
        if report.get(key) != expected[key]:
            problems.append(f"{key}: {report.get(key)!r} != {expected[key]!r}")
    got, want = report.get("blocks", []), expected["blocks"]
    if [(b["variables"], b["eigen_indices"], b["discardable"]) for b in got] != [
        (b["variables"], b["eigen_indices"], b["discardable"]) for b in want
    ]:
        problems.append("block structure differs from the planted structure")
        return problems
    for b, ref in zip(got, want):
        for key in ("ev_exact", "ev_approx"):
            if not abs(b[key] - ref[key]) <= EV_TOL:
                problems.append(f"{key} {b[key]!r} != {ref[key]!r}")
    return problems


def kept_csv_problems(path, x: np.ndarray, expected: dict) -> list[str]:
    """Check a ``pla discard`` output: kept header and column values."""
    names = column_names(x.shape[1])
    kept = [i for i, n in enumerate(names) if n not in expected["recommendation"]]
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        values = np.loadtxt(fh, delimiter=",", ndmin=2)
    if header != [names[i] for i in kept]:
        return [f"kept header {header[:3]}... does not match"]
    want = x[:, kept]
    if values.shape != want.shape:
        return [f"kept shape {values.shape} != {want.shape}"]
    worst = float(np.max(np.abs(values - want) / np.maximum(1.0, np.abs(want))))
    return [] if worst <= VALUE_TOL else [f"kept values differ by {worst:.3e}"]
