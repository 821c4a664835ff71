"""Covariance/correlation estimation and deterministic symmetric eigendecomposition."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateColumnError,
    DimensionError,
    NumericalError,
    SymmetryError,
)
from .ingest import DataMatrix

__all__ = [
    "DispersionMatrix",
    "EigenSystem",
    "sample_covariance",
    "correlation_from_covariance",
]

# Tolerances, fixed once; the relative scale is max(1, max|entry|).
SYMMETRY_TOL = 1e-12
PSD_TOL = 1e-10
UNIT_DIAG_TOL = 1e-12
EIGENVALUE_TIE_TOL = 1e-8


@dataclass(frozen=True)
class EigenSystem:
    """Descending eigenvalues with column-orthonormal, sign-fixed eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def size(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def total(self) -> float:
        return float(self.eigenvalues.sum())


@dataclass(frozen=True)
class DispersionMatrix:
    """Symmetric PSD M x M matrix tagged as covariance or correlation.

    Validation is the matrix's one symmetric eigensolve: the PSD check reads
    the eigenvalues of the decomposition that is then kept, in canonical
    form, as ``eigensystem``.  There the eigenvalues are non-increasing,
    small negative values within the PSD tolerance are clamped to zero, and
    in each eigenvector the entry of largest magnitude (lowest index on
    ties) is positive.
    """

    entries: np.ndarray
    kind: str
    eigensystem: EigenSystem = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2 or not 0 < entries.shape[0] == entries.shape[1]:
            raise DimensionError(f"need a non-empty square matrix, got {entries.shape}")
        if self.kind not in ("covariance", "correlation"):
            raise ValueError(f"unknown dispersion kind {self.kind!r}")
        if not np.all(np.isfinite(entries)):
            raise NumericalError(f"{self.kind} matrix has non-finite entries")
        scale = max(1.0, float(np.abs(entries).max()))
        with np.errstate(over="ignore"):  # an infinite asymmetry is rejected
            dev = float(np.abs(entries - entries.T).max())
        if dev > SYMMETRY_TOL * scale:
            raise SymmetryError(f"{self.kind}: asymmetry {dev:.3e} exceeds tolerance")
        try:
            eigvals, eigvecs = np.linalg.eigh(entries)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigensolver failed: {exc}") from exc
        with np.errstate(over="ignore"):
            if not np.isfinite(eigvals.sum()):
                raise NumericalError(f"{self.kind} matrix eigenvalues overflow")
        norm = float(np.abs(eigvals).max())
        if eigvals.min() < -PSD_TOL * max(norm, 1.0):
            raise NumericalError(
                f"{self.kind} matrix is not positive semi-definite "
                f"(min eigenvalue {eigvals.min():.3e})"
            )
        if self.kind == "correlation":
            if np.abs(np.diag(entries) - 1.0).max() > UNIT_DIAG_TOL:
                raise NumericalError("correlation matrix diagonal is not 1")
            if np.abs(entries).max() > 1.0 + UNIT_DIAG_TOL:
                raise NumericalError("correlation entries exceed 1 in magnitude")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(
            self, "eigensystem", _canonical_eigensystem(eigvals, eigvecs)
        )


def sample_covariance(data: DataMatrix) -> DispersionMatrix:
    """Unbiased (N-1) sample covariance of the data columns."""
    # Overflow leaves non-finite entries, which DispersionMatrix rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        cov = np.cov(data.values, rowvar=False, ddof=1)
        cov = (cov + cov.T) / 2.0
    return DispersionMatrix(cov, "covariance")


def correlation_from_covariance(
    entries: np.ndarray, names: tuple[str, ...] | None = None
) -> DispersionMatrix:
    """Normalize a covariance array to unit diagonal; ``names`` label errors."""
    var = np.diag(entries)
    zero = np.flatnonzero(var <= 0.0)
    if zero.size:
        label = ", ".join(names[i] if names else str(i) for i in zero)
        raise DegenerateColumnError(f"zero-variance column(s): {label}")
    d = np.sqrt(var)
    corr = entries / np.outer(d, d)
    corr = np.clip((corr + corr.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return DispersionMatrix(corr, "correlation")


def _canonical_eigensystem(eigvals: np.ndarray, eigvecs: np.ndarray) -> EigenSystem:
    """Canonical form of one ascending ``eigh`` result (see ``DispersionMatrix``).

    Runs of tied eigenvalues (each gap below EIGENVALUE_TIE_TOL * |trace|)
    are ordered by the row index of each eigenvector's largest-magnitude
    entry, which makes block detection deterministic.
    """
    eigvals = eigvals[::-1].copy()
    eigvecs = eigvecs[:, ::-1]
    # Validation has rejected every negative eigenvalue beyond PSD_TOL.
    eigvals[eigvals < 0.0] = 0.0

    tol = EIGENVALUE_TIE_TOL * max(abs(float(eigvals.sum())), 1e-300)
    runs = np.concatenate(([0], np.cumsum(~(eigvals[:-1] - eigvals[1:] < tol))))
    peaks = np.argmax(np.abs(eigvecs), axis=0)
    order = np.lexsort((peaks, runs))
    eigvals, eigvecs, peaks = eigvals[order], eigvecs[:, order], peaks[order]

    signs = np.where(eigvecs[peaks, np.arange(eigvecs.shape[1])] < 0.0, -1.0, 1.0)
    return EigenSystem(eigvals, eigvecs * signs)

