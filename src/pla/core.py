"""Block detection from eigenvector structure and the PLA pipelines.

The structure check is realized as connectivity in the bipartite graph of
variables and eigenvectors: an edge exists where a loading exceeds the
threshold in magnitude, and each balanced connected component (equally many
variables and eigenvectors) becomes a candidate block.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dispersion import (
    DispersionMatrix,
    EigenSystem,
    correlation_from_covariance,
    sample_covariance,
    tie_tolerance,
)
from .errors import (
    ConfigError,
    ConsistencyError,
    DimensionError,
    InsufficientInputError,
    ZeroTraceError,
)
from .ingest import DataMatrix, _default_names

__all__ = [
    "PlaConfig",
    "Block",
    "BlockPartition",
    "PlaReport",
    "rescale_eigenvectors",
    "detect_blocks",
    "explained_variance_exact",
    "explained_variance_approx",
    "run_pla",
    "discard",
]

MODES = (
    "covariance",
    "correlation",
    "covariance-rescaled",
    "correlation-rescaled",
)
EV_FORMULAS = ("exact", "approx")


def check_tau(tau: float) -> None:
    """Raise ConfigError unless 0 < tau < 1 (nan and inf included)."""
    if not 0.0 < tau < 1.0:
        raise ConfigError(f"tau must lie in (0, 1), got {tau}")


@dataclass(frozen=True)
class PlaConfig:
    """Analysis settings: threshold, matrix mode, and discard cutoff.

    Defaults target singleton-oriented analysis: rescaled correlation
    eigenvectors at tau = 0.6 (use tau up to 0.8 when hunting for a block).
    Blocks whose explained-variance share is at most ``ev_cutoff`` are
    flagged discardable.
    """

    tau: float = 0.6
    mode: str = "correlation-rescaled"
    ev_cutoff: float = 0.05
    ev_formula: str = "exact"

    def __post_init__(self):
        check_tau(self.tau)
        if not 0.0 <= self.ev_cutoff < 1.0:
            raise ConfigError(f"ev_cutoff must lie in [0, 1), got {self.ev_cutoff}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.ev_formula not in EV_FORMULAS:
            raise ConfigError(f"unknown ev_formula {self.ev_formula!r}")


@dataclass(frozen=True)
class Block:
    """A set of variables matched with an equally sized set of eigenvectors."""

    variables: tuple[int, ...]
    eigen_indices: tuple[int, ...]
    ev_exact: float | None = None
    ev_approx: float | None = None  # None where the covariance eigenvalue count differs
    discardable: bool = False


@dataclass(frozen=True)
class BlockPartition:
    """Detected blocks plus variables that ended up in no balanced component."""

    blocks: tuple[Block, ...]
    residual: tuple[int, ...]

    def structure(self):
        """Variable/eigenvector index sets only, for equality comparisons."""
        return (
            tuple((b.variables, b.eigen_indices) for b in self.blocks),
            self.residual,
        )


@dataclass(frozen=True)
class PlaReport:
    partition: BlockPartition
    variable_names: tuple[str, ...]
    warnings: tuple[str, ...]
    recommendation: tuple[str, ...]
    config: PlaConfig

    def to_dict(self) -> dict:
        """JSON-ready representation with a stable schema."""
        return {
            "mode": self.config.mode,
            "tau": self.config.tau,
            "ev_cutoff": self.config.ev_cutoff,
            "blocks": [
                {
                    "variables": [self.variable_names[i] for i in b.variables],
                    "eigen_indices": list(b.eigen_indices),
                    "ev_exact": b.ev_exact,
                    "ev_approx": b.ev_approx,
                    "discardable": b.discardable,
                }
                for b in self.partition.blocks
            ],
            "residual": [self.variable_names[i] for i in self.partition.residual],
            "warnings": list(self.warnings),
            "recommendation": list(self.recommendation),
        }


def rescale_eigenvectors(es: EigenSystem) -> np.ndarray:
    """Divide each eigenvector by its largest-magnitude entry.

    Every column of the result has max-abs entry exactly 1.
    """
    vecs = es.eigenvectors
    peaks = np.argmax(np.abs(vecs), axis=0)
    divisors = vecs[peaks, np.arange(vecs.shape[1])]
    if np.any(divisors == 0.0):
        raise ZeroTraceError("zero eigenvector encountered during rescaling")
    return vecs / divisors


def detect_blocks(loadings: np.ndarray, tau: float) -> BlockPartition:
    """Partition variables by connectivity of above-threshold loadings.

    ``loadings[i, j]`` is variable i's entry in eigenvector j.  Edges require
    strictly ``|loading| > tau`` (entries equal to tau count as small).
    Balanced components become blocks; variables of unbalanced components go
    to the residual.
    """
    loadings = np.asarray(loadings, dtype=float)
    if loadings.ndim != 2 or loadings.shape[0] != loadings.shape[1]:
        raise DimensionError(f"loadings must be square, got {loadings.shape}")
    check_tau(tau)

    m = loadings.shape[0]
    adjacency = np.abs(loadings) > tau  # [variable, eigenvector]

    # Label propagation: a label is a variable index in the same component,
    # never above the variable's own (m for an eigenvector with no edge); at
    # the fixed point a component carries the index of its first variable.
    labels, new = None, np.arange(m)
    while not np.array_equal(new, labels):
        labels = new
        eig_labels = np.where(adjacency, labels[:, None], m).min(axis=0, initial=m)
        new = np.where(adjacency, eig_labels, labels[:, None]).min(axis=1, initial=m)
        # Hook (the variable an old label names takes the new label too) and
        # jump pointers, so that a long path needs a few rounds, not one each.
        np.minimum.at(new, labels, new.copy())
        while not np.array_equal(jumped := new[new], new):
            new = jumped

    n_vars = np.bincount(labels, minlength=m)
    n_eigs = np.bincount(eig_labels, minlength=m + 1)[:m]
    balanced = (n_vars == n_eigs) & (n_eigs > 0)
    blocks = tuple(
        Block(tuple(np.flatnonzero(labels == r).tolist()),
              tuple(np.flatnonzero(eig_labels == r).tolist()))
        for r in np.flatnonzero(balanced)
    )
    return BlockPartition(blocks, tuple(np.flatnonzero(~balanced[labels]).tolist()))


def _total_variance(cov_es: EigenSystem) -> float:
    total = cov_es.total
    if total <= 0.0:
        raise ZeroTraceError("eigenvalues sum to zero")
    return total


def explained_variance_exact(block: Block, cov_es: EigenSystem) -> float:
    """Share of total variance carried by the block's variables.

    Sums, over every eigenvector, its eigenvalue weighted by the squared
    entries at the block's variables.  For an exactly block-structured matrix
    the cross terms vanish and this equals the plain eigenvalue share.
    """
    total = _total_variance(cov_es)
    d = np.asarray(block.variables, dtype=int)
    weights = (cov_es.eigenvectors[d, :] ** 2).sum(axis=0)
    return float(cov_es.eigenvalues @ weights / total)


def explained_variance_approx(block: Block, cov_es: EigenSystem) -> float:
    """Eigenvalue-share approximation: the block's eigenvalues over the trace."""
    total = _total_variance(cov_es)
    return float(cov_es.eigenvalues[list(block.eigen_indices)].sum() / total)


def _assign_cov_eigen_indices(
    partition: BlockPartition, cov_es: EigenSystem
) -> dict[int, tuple[int, ...]]:
    """Match covariance eigenvectors to blocks by squared-entry mass.

    Needed when detection ran on the correlation matrix: its eigenvalue
    ordering need not agree with the covariance ordering, so the detected
    eigen index sets cannot index covariance eigenvalues directly.  Each
    covariance eigenvector is assigned to the block (or residual) carrying
    most of its squared mass, which recovers the exact linkage on
    block-structured matrices.
    """
    blocks = partition.blocks
    owner = np.full(cov_es.size, len(blocks))  # the residual's column
    for b, block in enumerate(blocks):
        owner[list(block.variables)] = b
    membership = np.eye(len(blocks) + 1)[owner]
    best = np.argmax((cov_es.eigenvectors**2).T @ membership, axis=1)
    return {b: tuple(np.flatnonzero(best == b).tolist()) for b in range(len(blocks))}


def _resolve_inputs(data_or_matrix):
    """Return (cov, names): the covariance estimate the analysis starts from."""
    if isinstance(data_or_matrix, DataMatrix):
        return sample_covariance(data_or_matrix), data_or_matrix.variable_names
    if isinstance(data_or_matrix, DispersionMatrix):
        m = data_or_matrix
        if m.kind != "covariance":
            raise InsufficientInputError(
                "PLA needs a covariance matrix, whose eigenvalues score the "
                f"blocks, got kind={m.kind!r}"
            )
        return m, _default_names(len(m.entries))
    raise TypeError(
        f"expected DataMatrix or DispersionMatrix, got {type(data_or_matrix)!r}"
    )


def _detect(es: EigenSystem, mode: str, tau: float) -> BlockPartition:
    """The detection step alone: rescale when ``mode`` asks for it, then detect."""
    rescaled = mode.endswith("-rescaled")
    loadings = rescale_eigenvectors(es) if rescaled else es.eigenvectors
    return detect_blocks(loadings, tau)


def run_pla(data_or_matrix, config: PlaConfig | None = None) -> PlaReport:
    """Full PLA pipeline: estimate, decompose, detect, score, recommend.

    Detection uses the eigenvectors of the matrix selected by ``config.mode``
    (optionally rescaled); explained-variance shares always come from the
    covariance eigensystem, whose eigenvalues carry the scale information the
    correlation matrix deliberately removes.
    """
    config = config or PlaConfig()
    cov, names = _resolve_inputs(data_or_matrix)
    correlated = config.mode.startswith("correlation")
    cov_es = cov.eigensystem
    detection_es = cov_es
    if correlated:
        detection_es = correlation_from_covariance(cov.entries, names).eigensystem
    partition = _detect(detection_es, config.mode, config.tau)

    warnings: list[str] = []
    if partition.residual:
        warnings.append(
            "unbalanced components; residual variables: "
            + ", ".join(names[i] for i in partition.residual)
        )
    gaps = -np.diff(detection_es.eigenvalues)
    if np.any(gaps < tie_tolerance(detection_es.eigenvalues)):
        warnings.append(
            "near-degenerate eigenvalues detected; block assignment inside "
            "the degenerate eigenspace is not well defined"
        )
    if np.any(cov_es.eigenvalues <= 0.0):
        warnings.append("zero eigenvalue(s) in the covariance spectrum")

    cov_indices = _assign_cov_eigen_indices(partition, cov_es) if correlated else None
    scored = []
    for pos, block in enumerate(partition.blocks):
        exact = explained_variance_exact(block, cov_es)
        matched = block if cov_indices is None else replace(block, eigen_indices=cov_indices[pos])
        approx = (explained_variance_approx(matched, cov_es)
                  if len(matched.eigen_indices) == len(block.variables) else None)
        chosen = exact if config.ev_formula == "exact" else approx
        scored.append(replace(block, ev_exact=exact, ev_approx=approx,
                              discardable=chosen is not None and chosen <= config.ev_cutoff))
    partition = replace(partition, blocks=tuple(scored))
    unmatched = [names[i] for b in partition.blocks if b.ev_approx is None for i in b.variables]
    if unmatched:
        warnings.append(
            "covariance eigenvalue count differs from block size; "
            "ev_approx is null for: " + ", ".join(unmatched)
        )

    dropped = sorted(i for b in partition.blocks if b.discardable for i in b.variables)
    return PlaReport(partition=partition, variable_names=names, warnings=tuple(warnings),
                     recommendation=tuple(names[i] for i in dropped), config=config)


def discard(data: DataMatrix, report: PlaReport) -> DataMatrix:
    """Drop the report's recommended variables, preserving column order."""
    if set(report.variable_names) != set(data.variable_names):
        raise ConsistencyError("report and data refer to different variables")
    drop = set(report.recommendation)
    keep = [i for i, name in enumerate(data.variable_names) if name not in drop]
    if not drop:
        return data
    if not keep:
        raise DimensionError("refusing to discard every variable")
    return DataMatrix(data.values[:, keep], tuple(data.variable_names[i] for i in keep))
