"""Numerical diagnostics for eigenvector stability under perturbation.

Two tools: a sufficient eigengap bound certifying that a perturbation cannot
push any loading of eigenvector j above a threshold, and a finite-difference
probe of how eigenvector entries respond to increasing a single variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import check_tau
from .dispersion import SYMMETRY_TOL, DispersionMatrix
from .errors import ConfigError, NumericalError, SymmetryError

__all__ = [
    "BoundDiagnostic",
    "SensitivityProfile",
    "eigengap_bound",
    "variance_sensitivity",
]

# Minimum |<v, v'>| for a perturbed eigenvector to count as the same one.
TRACKING_MIN_OVERLAP = 0.7


@dataclass(frozen=True)
class BoundDiagnostic:
    """Perturbation size, per-eigenvalue eigengaps, bounds and threshold flags."""

    frobenius_norm: float
    eigengaps: np.ndarray
    bounds: np.ndarray
    implies_below_tau: np.ndarray


def eigengap_bound(base: DispersionMatrix, delta, tau: float) -> BoundDiagnostic:
    """Sufficient bound on each eigenvector's sup-norm perturbation.

    ``delta`` is a finite, symmetric perturbation of ``base``'s shape.  For
    eigenvalue j of ``base`` with spectral gap g_j = min over i != j of
    |lambda_i - lambda_j| (infinite for a 1 x 1 matrix), the perturbation
    of eigenvector j is at most 2^{3/2} ||delta||_F / g_j in the 2-norm
    (Yu, Wang & Samworth 2015), hence in the sup-norm.
    ``implies_below_tau[j]`` is True when that bound plus the eigensolver's
    own rounding, 2^{3/2} 2 eta / g_j with eta = M eps ||base||_2, is below
    tau; False asserts nothing (one-sided check).  The rounding term is left
    out of ``bounds``.
    """
    check_tau(tau)
    delta = np.asarray(delta, dtype=float)
    if delta.shape != base.entries.shape:
        raise SymmetryError(
            f"delta shape {delta.shape} does not match base {base.entries.shape}"
        )
    if not np.all(np.isfinite(delta)):
        raise NumericalError("delta has non-finite entries")
    # All pairs, not neighbors: the canonical order of a tie run is unsorted.
    lam = base.eigensystem.eigenvalues
    dist = np.abs(lam[:, None] - lam[None, :])
    np.fill_diagonal(dist, np.inf)
    gaps = dist.min(axis=1)

    # Overflow gives an inf asymmetry (rejected) or an inf bound (no certificate).
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        scale = max(1.0, float(np.abs(delta).max(initial=0.0)))
        if np.abs(delta - delta.T).max(initial=0.0) > SYMMETRY_TOL * scale:
            raise SymmetryError("perturbation is not symmetric")
        fro = float(np.linalg.norm(delta, "fro"))
        bounds = np.where(gaps == 0.0, np.inf, 2.0 ** 1.5 * fro / gaps)
        # A computed eigenvector is exact only for a matrix within eta of the
        # one solved (LAPACK Users' Guide, section 4.7), so those of base and
        # base + delta may differ as if delta were 2 * eta larger.
        eta = lam.size * np.finfo(float).eps * np.abs(lam).max()
        certified = bounds + 2.0 ** 1.5 * 2.0 * eta / gaps < tau
    # delta.any(), not fro > 0: the norm underflows to 0 for tiny entries.
    # A zero delta leaves base as it was, so the solver returns the same vectors.
    if not delta.any():
        bounds, certified = np.zeros_like(bounds), np.ones_like(certified)
    return BoundDiagnostic(fro, gaps, bounds, certified)


@dataclass(frozen=True)
class SensitivityProfile:
    """Finite-difference response of eigenvector magnitudes to one variance.

    ``diffs[k]`` holds, for increment ``increments[k]``, the forward
    difference quotient of |v^(i)| for every entry i of the tracked
    eigenvector, or None when tracking failed (see ``tracking_errors``).
    ``sign_contract_ok[k]`` records whether the applicable entries moved the
    way the variance-sensitivity theory predicts: the probed variable's entry
    up, every other nonzero entry down (within 1e-8 float slack).
    """

    target_variable: int
    eigen_index: int
    increments: np.ndarray
    diffs: tuple
    tracking_errors: tuple
    sign_contract_ok: tuple


def variance_sensitivity(
    m: DispersionMatrix, d: int, increments
) -> SensitivityProfile:
    """Probe d-th variance increments and track the matching eigenvector.

    The probed eigenvector is the one loading most heavily on variable d.
    After each diagonal increment the perturbed system is re-decomposed and
    the eigenvector is re-identified by maximal absolute inner product with
    the unperturbed one (sign-aligned before differencing).
    """
    if m.kind != "covariance":
        raise ConfigError("variance sensitivity is defined for covariance matrices")
    increments = np.asarray(increments, dtype=float)
    if increments.ndim != 1 or increments.size == 0:
        raise ConfigError("increments must be a non-empty 1-d grid")
    if np.any(increments <= 0.0) or np.any(np.diff(increments) <= 0.0):
        raise ConfigError("increments must be strictly positive and increasing")
    if not np.all(np.isfinite(increments)):
        raise ConfigError("increments must be finite")

    base_es = m.eigensystem
    size = base_es.size
    if not 0 <= d < size:
        raise ConfigError(f"variable index {d} out of range for size {size}")
    delta_idx = int(np.argmax(np.abs(base_es.eigenvectors[d, :])))
    v0 = base_es.eigenvectors[:, delta_idx]
    abs_v0 = np.abs(v0)

    diffs, errors, sign_ok = [], [], []
    for mu in increments:
        perturbed = m.entries.copy()
        with np.errstate(over="ignore"):  # DispersionMatrix rejects an inf
            perturbed[d, d] += mu
        es = DispersionMatrix(perturbed, "covariance").eigensystem
        overlaps = es.eigenvectors.T @ v0
        j = int(np.argmax(np.abs(overlaps)))
        if abs(overlaps[j]) < TRACKING_MIN_OVERLAP:
            diffs.append(None)
            errors.append(
                f"increment {mu:g}: max eigenvector overlap "
                f"{abs(overlaps[j]):.3f} below {TRACKING_MIN_OVERLAP}"
            )
            sign_ok.append(None)
            continue
        v1 = es.eigenvectors[:, j] * np.sign(overlaps[j])
        with np.errstate(over="ignore"):  # a tiny step can overflow: fd = inf
            fd = (np.abs(v1) - abs_v0) / mu
        diffs.append(fd)
        errors.append(None)

        applicable = (abs_v0 > 1e-12) & (np.arange(size) != d)
        ok = bool(np.all(fd[applicable] <= 1e-8))
        if abs_v0[d] < 1.0 - 1e-12 and abs_v0[d] > 1e-12:
            ok = ok and bool(fd[d] >= -1e-8)
        sign_ok.append(ok)

    return SensitivityProfile(
        target_variable=d,
        eigen_index=delta_idx,
        increments=increments,
        diffs=tuple(diffs),
        tracking_errors=tuple(errors),
        sign_contract_ok=tuple(sign_ok),
    )
