"""detect_blocks against a depth-first search over the same bipartite graph."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pla import detect_blocks

TAUS = (0.05, 0.3, 0.5, 0.6, 0.75, 0.95)


def dfs_structure(loadings, tau):
    """Reference partition, as ``BlockPartition.structure()`` gives it.

    Walks the graph node by node from each unseen variable: variable i and
    eigenvector j are joined when ``|loadings[i, j]| > tau``.  A component
    with as many eigenvectors as variables (at least one) is a block; the
    variables of every other component are residual.
    """
    adjacency = np.abs(np.asarray(loadings, dtype=float)) > tau
    m = adjacency.shape[0]
    seen_vars, seen_eigs = set(), set()
    blocks, residual = [], []
    for start in range(m):
        if start in seen_vars:
            continue
        comp_vars, comp_eigs = [], []
        seen_vars.add(start)
        stack = [("v", start)]
        while stack:
            side, idx = stack.pop()
            if side == "v":
                comp_vars.append(idx)
                for j in np.flatnonzero(adjacency[idx]).tolist():
                    if j not in seen_eigs:
                        seen_eigs.add(j)
                        stack.append(("e", j))
            else:
                comp_eigs.append(idx)
                for i in np.flatnonzero(adjacency[:, idx]).tolist():
                    if i not in seen_vars:
                        seen_vars.add(i)
                        stack.append(("v", i))
        if comp_eigs and len(comp_vars) == len(comp_eigs):
            blocks.append((tuple(sorted(comp_vars)), tuple(sorted(comp_eigs))))
        else:
            residual.extend(comp_vars)
    return tuple(sorted(blocks)), tuple(sorted(residual))


@st.composite
def sparse_loadings(draw):
    m = draw(st.integers(0, 12))
    entries = st.floats(-1.0, 1.0) | st.sampled_from(TAUS + tuple(-t for t in TAUS))
    values = draw(hnp.arrays(float, (m, m), elements=entries))
    density = draw(st.floats(0.0, 1.0))
    keep = draw(hnp.arrays(float, (m, m), elements=st.floats(0.0, 1.0)))
    return np.where(keep < density, values, 0.0)


@settings(max_examples=300, deadline=None)
@given(sparse_loadings())
def test_detect_blocks_matches_the_search(loadings):
    # Entries equal to +-tau are drawn on purpose: they are not edges.
    for tau in TAUS:
        assert detect_blocks(loadings, tau).structure() == dfs_structure(loadings, tau)


def chain(m):
    """Variable i loads on eigenvectors i - 1 and i: one path through all."""
    loadings = np.eye(m)
    loadings[np.arange(1, m), np.arange(m - 1)] = 1.0
    return loadings


def unbalanced_chain(m):
    """The chain without eigenvector m - 1: m variables, m - 1 eigenvectors."""
    loadings = chain(m)
    loadings[:, -1] = 0.0
    return loadings


def long_chain(name, m=1000):
    rng = np.random.default_rng(0)
    if name == "forward":
        return chain(m)
    if name == "reversed":
        return chain(m)[::-1, ::-1]
    if name == "permuted":
        return chain(m)[rng.permutation(m)][:, rng.permutation(m)]
    return unbalanced_chain(m)[rng.permutation(m)]


@pytest.mark.parametrize("name", ["forward", "reversed", "permuted", "unbalanced"])
def test_long_chains(name):
    loadings = long_chain(name)
    part = detect_blocks(loadings, 0.5)
    assert part.structure() == dfs_structure(loadings, 0.5)
    everything = tuple(range(1000))
    if name == "unbalanced":
        assert part.structure() == ((), everything)
    else:
        assert part.structure() == (((everything, everything),), ())


@pytest.mark.parametrize(
    "loadings, expected",
    [
        # variables 0 and 1 share eigenvector 0; eigenvector 2 has no edge
        (
            [[0.9, 0.0, 0.1], [0.8, 0.0, 0.2], [0.0, 0.7, 0.3]],
            ((((2,), (1,)),), (0, 1)),
        ),
        # one variable on two eigenvectors, next to a balanced pair
        (
            [[0.9, 0.9, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.9, 0.9],
             [0.0, 0.0, 0.9, -0.9]],
            ((((2, 3), (2, 3)),), (0, 1)),
        ),
        # blocks in the order of their first variables, indices sorted
        (
            [[0.0, 0.9, 0.9], [0.9, 0.0, 0.0], [0.0, 0.9, -0.9]],
            ((((0, 2), (1, 2)), ((1,), (0,))), ()),
        ),
        ([[0.6]], ((), (0,))),
        (np.zeros((0, 0)), ((), ())),
    ],
    ids=["edgeless-eigenvector", "unbalanced", "order", "at-tau", "empty"],
)
def test_explicit_partitions(loadings, expected):
    loadings = np.asarray(loadings, dtype=float)
    assert detect_blocks(loadings, 0.6).structure() == expected
    assert dfs_structure(loadings, 0.6) == expected
