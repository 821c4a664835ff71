"""Property tests of invariants the method implies, for any input."""

import contextlib
import csv
import io
import json

import numpy as np
import pytest
from conftest import mixed_scale_values
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pla import (
    DataMatrix,
    DispersionMatrix,
    PlaConfig,
    correlation_from_covariance,
    detect_blocks,
    draw_covariance,
    eigengap_bound,
    rescale_eigenvectors,
    run_pla,
    sample_covariance,
)
from pla import cli
from pla.cli import main
from pla.core import MODES
from pla.dispersion import KINDS, SYMMETRY_TOL, _canonical_eigensystem
from pla.errors import ParseError

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


def blocky_values(rng, sizes):
    """Gaussian rows whose columns fall into weakly coupled blocks of ``sizes``."""
    m = sum(sizes)
    mixing = np.zeros((m, m))
    start = 0
    for size in sizes:
        mixing[start : start + size, start : start + size] = rng.standard_normal(
            (size, size)
        )
        start += size
    mixing += 0.05 * rng.standard_normal((m, m))
    return rng.standard_normal((4 * m + 4, m)) @ mixing


block_sizes = st.lists(st.integers(1, 3), min_size=2, max_size=3)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), block_sizes, st.sampled_from(MODES), taus)
def test_ev_exact_is_the_blocks_trace_share(seed, sizes, mode, tau):
    # sum_j lambda_j V_ij^2 = S_ii, so a block's exact share is its
    # variables' share of the trace of the sample covariance S.
    rng = np.random.default_rng(seed)
    values = blocky_values(rng, sizes)
    values *= 10.0 ** rng.uniform(-1.0, 1.0, size=values.shape[1])
    data = DataMatrix(values)
    report = run_pla(data, PlaConfig(tau=tau, mode=mode))
    diag = np.diag(sample_covariance(data).entries)
    for block in report.partition.blocks:
        share = diag[list(block.variables)].sum() / diag.sum()
        assert abs(block.ev_exact - share) <= 1e-12
    residual_share = diag[list(report.partition.residual)].sum() / diag.sum()
    shares = sum(b.ev_exact for b in report.partition.blocks) + residual_share
    assert abs(shares - 1.0) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0), st.floats(0.0, 0.9),
       st.sampled_from(KINDS))
def test_a_dispersion_matrix_keeps_its_own_mirrored_lower_triangle(
    m, seed, log_scale, slack, kind
):
    # x is PSD, and its upper triangle differs from the lower one's transpose
    # by up to 90% of the tolerance, which x is accepted with
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, m + 1)) * 10.0**log_scale
    x = a @ a.T.copy()  # a general product, not a symmetric rank-k update
    if kind == "correlation":
        sd = np.sqrt(np.diag(x))
        x = np.clip(x / np.outer(sd, sd), -1.0, 1.0)
        np.fill_diagonal(x, 1.0)
    noise = np.triu(rng.uniform(-1.0, 1.0, (m, m)), 1)
    x += noise * slack * SYMMETRY_TOL * max(1.0, np.abs(x).max())
    matrix = DispersionMatrix(x, kind)
    entries = matrix.entries
    assert entries.tobytes() == entries.T.tobytes()
    assert not np.shares_memory(entries, x)
    expected = _canonical_eigensystem(*np.linalg.eigh(x))
    assert matrix.eigensystem.eigenvalues.tobytes() == expected.eigenvalues.tobytes()
    assert matrix.eigensystem.eigenvectors.tobytes() == expected.eigenvectors.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(2, 100), st.integers(0, 2**32 - 1))
@example(200, 10_000, 0)  # the paper's largest size
def test_drawn_and_sample_covariances_are_bitwise_symmetric(m, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, m))
    drawn = draw_covariance(a @ a.T + np.eye(m), n, seed)
    assert drawn.tobytes() == drawn.T.tobytes()
    if m >= 2:
        values = rng.standard_normal((n, m)) * rng.uniform(0.1, 10.0, size=m)
        sample = sample_covariance(DataMatrix(values)).entries
        assert sample.tobytes() == sample.T.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(("correlation", "correlation-rescaled")), taus)
@example(0, "correlation-rescaled", 0.8)  # X4 and a 5-variable block
def test_a_block_without_its_count_of_eigenvalues_is_named_and_kept(seed, mode, tau):
    config = PlaConfig(tau=tau, mode=mode, ev_formula="approx")
    report = run_pla(DataMatrix(mixed_scale_values(seed)), config)
    unmatched = {
        report.variable_names[i]
        for b in report.partition.blocks if b.ev_approx is None for i in b.variables
    }
    prefix = "covariance eigenvalue count differs from block size; ev_approx is null for: "
    named = [set(w[len(prefix):].split(", ")) for w in report.warnings if w.startswith(prefix)]
    assert named == ([unmatched] if unmatched else [])
    assert not unmatched & set(report.recommendation)
    assert all(not b.discardable for b in report.partition.blocks if b.ev_approx is None)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    block_sizes,
    st.sampled_from([m for m in MODES if m.startswith("correlation")]),
    taus,
)
def test_correlation_modes_are_scale_invariant(seed, sizes, mode, tau):
    rng = np.random.default_rng(seed)
    values = blocky_values(rng, sizes)
    scales = 10.0 ** rng.uniform(-3.0, 3.0, size=values.shape[1])
    data, scaled = DataMatrix(values), DataMatrix(values * scales)
    # Rounding moves loadings and eigenvalues by ~1e-13; skip inputs where
    # that could cross tau or reorder near-tied eigenvectors.
    es = correlation_from_covariance(sample_covariance(data).entries).eigensystem
    loadings = rescale_eigenvectors(es) if mode.endswith("-rescaled") else es.eigenvectors
    assume(np.abs(np.abs(loadings) - tau).min() > 1e-8)
    assume(np.diff(es.eigenvalues).max() < -1e-8)
    config = PlaConfig(tau=tau, mode=mode)
    before = run_pla(data, config).partition.structure()
    assert run_pla(scaled, config).partition.structure() == before


@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(float, (4, 4), elements=st.floats(-3.0, 3.0)),
    hnp.arrays(float, (4, 4), elements=st.floats(-1.0, 1.0)),
    st.floats(1e-6, 0.1),
    taus,
)
def test_eigengap_bound_certificate_holds(factor, noise, size, tau):
    # One-sided: wherever the bound certifies eigenvector j, its measured
    # sup-norm change stays below tau (Yu, Wang & Samworth 2015, Cor. 1),
    # eigh's own rounding included.
    base = factor @ factor.T + 0.1 * np.eye(4)
    delta = size * (noise + noise.T) / 2
    m = DispersionMatrix(base, "covariance")
    diag = eigengap_bound(m, delta, tau)
    before, after = m.eigensystem.eigenvectors, np.linalg.eigh(base + delta)[1]
    for j in np.flatnonzero(diag.implies_below_tau):
        overlaps = after.T @ before[:, j]
        k = int(np.argmax(np.abs(overlaps)))
        moved = after[:, k] * np.sign(overlaps[k])
        assert np.abs(moved - before[:, j]).max() < tau


odd_cells = st.sampled_from(
    ["", " ", "x", "1e400", '"1"', '"', "\ufeff1", "\r", "\n", "0x1", "1_0"]
)
numbers = st.floats(-1e3, 1e3) | st.floats()
cells = st.one_of(*[numbers.map(repr)] * 6, odd_cells)
# Mostly rectangular tables, two to four cells wide, so that some parse.
tables = st.integers(2, 4).flatmap(
    lambda w: st.lists(st.lists(cells, min_size=w, max_size=w), min_size=w, max_size=w + 3)
)
texts = (
    tables.map(lambda rows: "\n".join(",".join(row) for row in rows).encode())
    | st.text(max_size=40).map(str.encode)
    | st.binary(max_size=40)
)


def no_nan_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


BOUND = ["bound", "--tau", "0.5"]
commands = st.sampled_from(
    [
        ["analyze"],
        ["analyze", "--no-header"],
        ["analyze", "--na-policy", "drop-row"],
        ["analyze", "--mode", "covariance", "--format", "text"],
        BOUND,
        ["sensitivity", "--variable", "1", "--increments", "0.1,0.2"],
    ]
)


@settings(max_examples=100, deadline=None)
@given(texts, commands)
@example(b"0", BOUND)  # a 1 x 1 matrix has an infinite eigengap
@example(b"1e155,0\n0,1", BOUND)  # the Frobenius norm of delta overflows
@example(b"0,1e308\n-1e308,0", BOUND)  # the asymmetry overflows
@example(b"1e308,1e308\n1e308,1e308", BOUND)  # an eigenvalue overflows
@example(b"a,b\n8e153,8e153\n-8e153,-8e153", ["analyze"])  # S is finite; its eigenvalue overflows
def test_cli_answers_malformed_files_with_json_errors(fuzz_dir, text, command):
    path = fuzz_dir / "input.csv"
    path.write_bytes(text)
    if command[0] == "analyze":
        argv = [*command, "--input", str(path)]
    else:
        argv = [*command, "--matrix", str(path)]
        if command[0] == "bound":
            argv += ["--delta", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    for line in err.getvalue().splitlines():
        assert isinstance(no_nan_json(line), dict)
    if code != 0:
        assert out.getvalue() == ""
    elif "text" not in command:
        no_nan_json(out.getvalue())


def oracle_square_array(path: str) -> np.ndarray:
    """Reference for ``cli._load_square_array``: ``float`` of each ``csv.reader`` cell,
    each of which must be finite."""
    rows = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for row in csv.reader(fh):
            if row:
                try:
                    rows.append([float(cell) for cell in row])
                except ValueError:
                    raise ParseError(f"{path}: non-numeric matrix cell") from None
                if not np.all(np.isfinite(rows[-1])):
                    raise ParseError(f"{path}: non-finite matrix cell")
    if not rows or any(len(r) != len(rows) for r in rows):
        raise ParseError(f"{path}: matrix file must be square")
    return np.array(rows)


@settings(max_examples=300, deadline=None)
@given(texts)
@example(b"0")  # a 1 x 1 matrix
@example("\ufeff2,0\n0,1\n".encode())  # a byte-order mark
@example(b'"1","2"\n"3",4')  # quoted cells
@example(b"\n1,0\n\n0,1\n\n")  # blank lines
@example(b"1,2\n3\n")  # a ragged row
def test_matrix_reader_matches_its_csv_float_oracle(fuzz_dir, text):
    path = fuzz_dir / "matrix.csv"
    path.write_bytes(text)
    path = str(path)
    try:
        expected = oracle_square_array(path)
    except (ParseError, UnicodeDecodeError, csv.Error) as exc:
        with pytest.raises(Exception) as info:
            cli._load_square_array(path)
        assert info.type is type(exc)
        return
    got = cli._load_square_array(path)
    assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
    assert got.tobytes() == expected.tobytes()
