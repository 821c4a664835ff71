"""Property tests of invariants the method implies, for any input."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pla import DataMatrix, PlaConfig, detect_blocks, run_pla, sample_covariance
from pla.core import MODES

taus = st.floats(0.01, 0.99)


@st.composite
def loadings(draw):
    m = draw(st.integers(1, 8))
    return draw(hnp.arrays(float, (m, m), elements=st.floats(-1.0, 1.0)))


@settings(max_examples=200, deadline=None)
@given(loadings(), taus)
def test_detect_blocks_partitions_the_variables(matrix, tau):
    part = detect_blocks(matrix, tau)
    variables = [v for b in part.blocks for v in b.variables] + list(part.residual)
    assert sorted(variables) == list(range(matrix.shape[0]))
    eigen = [j for b in part.blocks for j in b.eigen_indices]
    assert len(eigen) == len(set(eigen))
    for b in part.blocks:
        assert len(b.variables) == len(b.eigen_indices) >= 1


@settings(max_examples=200, deadline=None)
@given(loadings(), taus, st.data())
def test_detect_blocks_is_permutation_equivariant(matrix, tau, data):
    m = matrix.shape[0]
    rows = np.array(data.draw(st.permutations(range(m))), dtype=int)
    cols = np.array(data.draw(st.permutations(range(m))), dtype=int)

    def as_sets(part, var_ids, eig_ids):
        blocks = {
            (frozenset(var_ids[list(b.variables)]), frozenset(eig_ids[list(b.eigen_indices)]))
            for b in part.blocks
        }
        return blocks, frozenset(var_ids[list(part.residual)])

    identity = np.arange(m)
    before = as_sets(detect_blocks(matrix, tau), identity, identity)
    after = as_sets(detect_blocks(matrix[rows][:, cols], tau), rows, cols)
    assert after == before


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(1, 3), min_size=2, max_size=3),
    st.sampled_from(MODES),
    taus,
)
def test_ev_exact_is_the_blocks_trace_share(seed, sizes, mode, tau):
    # sum_j lambda_j V_ij^2 = S_ii, so a block's exact share is its
    # variables' share of the trace of the sample covariance S.
    rng = np.random.default_rng(seed)
    m = sum(sizes)
    mixing = np.zeros((m, m))
    start = 0
    for size in sizes:
        mixing[start : start + size, start : start + size] = rng.standard_normal(
            (size, size)
        )
        start += size
    mixing += 0.05 * rng.standard_normal((m, m))
    values = rng.standard_normal((4 * m + 4, m)) @ mixing
    values *= 10.0 ** rng.uniform(-1.0, 1.0, size=m)
    data = DataMatrix(values)
    report = run_pla(data, PlaConfig(tau=tau, mode=mode))
    diag = np.diag(sample_covariance(data).entries)
    for block in report.partition.blocks:
        share = diag[list(block.variables)].sum() / diag.sum()
        assert abs(block.ev_exact - share) <= 1e-12
