from unittest import mock

import numpy as np
import pytest
from conftest import BLOCK_3X3, gaussian_sample, random_block_diagonal

from pla import (
    Block,
    ConfigError,
    ConsistencyError,
    DataMatrix,
    DimensionError,
    DispersionMatrix,
    InsufficientInputError,
    PlaConfig,
    detect_blocks,
    discard,
    explained_variance_approx,
    explained_variance_exact,
    rescale_eigenvectors,
    run_pla,
    sample_covariance,
)
from pla.core import EV_FORMULAS, MODES

class TestRescale:
    def test_equal_pair(self):
        es = DispersionMatrix(BLOCK_3X3, "covariance").eigensystem
        loadings = rescale_eigenvectors(es)
        np.testing.assert_allclose(loadings[:, 1], [1.0, 1.0, 0.0], atol=1e-12)

    def test_axis_vector_unchanged(self):
        es = DispersionMatrix(np.diag([3.0, 2.0, 1.0]), "covariance").eigensystem
        np.testing.assert_array_equal(rescale_eigenvectors(es), np.eye(3))

    def test_scalar_division(self):
        from pla.dispersion import EigenSystem

        vec = np.array([[0.9], [-0.3], [0.3]])
        es = EigenSystem(np.array([1.0]), vec)
        out = rescale_eigenvectors(es)
        np.testing.assert_allclose(out[:, 0], [1.0, -1 / 3, 1 / 3], atol=1e-12)

    def test_max_abs_exactly_one(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((6, 6))
        es = DispersionMatrix(a @ a.T, "covariance").eigensystem
        loadings = rescale_eigenvectors(es)
        assert np.all(np.abs(loadings).max(axis=0) == 1.0)


class TestDetectBlocks:
    def test_block_matrix(self):
        es = DispersionMatrix(BLOCK_3X3, "covariance").eigensystem
        part = detect_blocks(es.eigenvectors, tau=0.3)
        assert [(b.variables, b.eigen_indices) for b in part.blocks] == [
            ((0, 1), (1, 2)),
            ((2,), (0,)),
        ]
        assert part.residual == ()

    def test_identity_loadings_singletons(self):
        part = detect_blocks(np.eye(4), tau=0.9)
        assert [b.variables for b in part.blocks] == [(0,), (1,), (2,), (3,)]

    def test_dense_loadings_single_block(self):
        loadings = np.full((3, 3), 0.8)
        part = detect_blocks(loadings, tau=0.5)
        assert len(part.blocks) == 1
        assert part.blocks[0].variables == (0, 1, 2)

    def test_unbalanced_component_goes_residual(self):
        # variable 0 links to eigenvectors 0 and 1; eigenvector 1 links nothing else;
        # variable 1 has no link at all
        loadings = np.array([[0.9, 0.9], [0.1, 0.1]])
        part = detect_blocks(loadings, tau=0.5)
        assert part.blocks == ()
        assert part.residual == (0, 1)

    def test_threshold_is_strict(self):
        loadings = np.array([[0.5, 1.0], [1.0, 0.5]])
        part = detect_blocks(loadings, tau=0.5)
        # entries equal to tau count as small: two singletons
        assert [b.variables for b in part.blocks] == [(0,), (1,)]
        assert [b.eigen_indices for b in part.blocks] == [(1,), (0,)]

    def test_partition_property(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            a = rng.standard_normal((7, 7))
            es = DispersionMatrix(a @ a.T, "covariance").eigensystem
            part = detect_blocks(rescale_eigenvectors(es), tau=float(rng.uniform(0.1, 0.9)))
            seen = [v for b in part.blocks for v in b.variables] + list(part.residual)
            assert sorted(seen) == list(range(7))

    def test_true_blocks_recovered_on_block_diagonal(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            sizes = [2, 3, 1]
            cov = random_block_diagonal(rng, sizes)
            es = DispersionMatrix(cov, "covariance").eigensystem
            nonzero = np.abs(es.eigenvectors)[np.abs(es.eigenvectors) > 1e-12]
            tau = 0.5 * nonzero.min()
            if not 0 < tau < 1:
                continue
            part = detect_blocks(es.eigenvectors, tau)
            expected = [(0, 1), (2, 3, 4), (5,)]
            assert sorted(b.variables for b in part.blocks) == expected


@pytest.mark.parametrize("tau", [0.0, 1.0, -0.5, float("nan")])
def test_detect_blocks_bad_tau_is_a_config_error(tau):
    with pytest.raises(ConfigError, match="tau must lie in"):
        detect_blocks(np.eye(3), tau)


def test_detect_blocks_on_non_square_loadings_is_a_dimension_error():
    with pytest.raises(DimensionError) as info:
        detect_blocks(np.ones((2, 3)), 0.5)
    assert str(info.value) == "loadings must be square, got (2, 3)"


class TestExplainedVariance:
    def test_diagonal_case(self):
        es = DispersionMatrix(np.diag([3.0, 2.0, 1.0]), "covariance").eigensystem
        block = Block(variables=(0,), eigen_indices=(0,))
        assert explained_variance_exact(block, es) == pytest.approx(0.5, abs=1e-12)
        assert explained_variance_approx(block, es) == pytest.approx(0.5, abs=1e-12)

    def test_block_matrix_shares(self):
        es = DispersionMatrix(BLOCK_3X3, "covariance").eigensystem
        single = Block(variables=(2,), eigen_indices=(0,))
        pair = Block(variables=(0, 1), eigen_indices=(1, 2))
        assert explained_variance_exact(single, es) == pytest.approx(5 / 9, abs=1e-12)
        assert explained_variance_exact(pair, es) == pytest.approx(4 / 9, abs=1e-12)
        assert explained_variance_approx(pair, es) == pytest.approx(4 / 9, abs=1e-12)

    def test_approx_matches_exact_on_block_diagonal(self):
        rng = np.random.default_rng(8)
        cov = random_block_diagonal(rng, [3, 2])
        es = DispersionMatrix(cov, "covariance").eigensystem
        part = detect_blocks(es.eigenvectors, tau=1e-6)
        for block in part.blocks:
            exact = explained_variance_exact(block, es)
            approx = explained_variance_approx(block, es)
            assert abs(exact - approx) < 1e-12

    def test_approx_close_on_perturbed_block_diagonal(self):
        rng = np.random.default_rng(9)
        cov = random_block_diagonal(rng, [3, 2])
        noise = rng.uniform(-0.01, 0.01, size=cov.shape)
        cov = cov + (noise + noise.T) / 2
        np.fill_diagonal(cov, np.diag(cov) + 0.05)
        es = DispersionMatrix(cov, "covariance").eigensystem
        part = detect_blocks(es.eigenvectors, tau=0.05)
        assert len(part.blocks) == 2
        for block in part.blocks:
            exact = explained_variance_exact(block, es)
            approx = explained_variance_approx(block, es)
            assert abs(exact - approx) < 0.01

    def test_shares_sum_to_one(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            cov = random_block_diagonal(rng, [2, 2, 3])
            es = DispersionMatrix(cov, "covariance").eigensystem
            part = detect_blocks(es.eigenvectors, tau=1e-8)
            assert part.residual == ()
            exact = sum(explained_variance_exact(b, es) for b in part.blocks)
            approx = sum(explained_variance_approx(b, es) for b in part.blocks)
            assert abs(exact - 1.0) < 1e-9
            assert abs(approx - 1.0) < 1e-9


class TestRunPla:
    def test_matrix_input_covariance_mode(self):
        m = DispersionMatrix(BLOCK_3X3, "covariance")
        report = run_pla(m, PlaConfig(tau=0.3, mode="covariance", ev_cutoff=0.1))
        shares = {b.variables: b.ev_exact for b in report.partition.blocks}
        assert shares[(0, 1)] == pytest.approx(4 / 9, abs=1e-12)
        assert shares[(2,)] == pytest.approx(5 / 9, abs=1e-12)
        assert report.recommendation == ()

    def test_correlation_rescaled_on_sampled_data(self):
        data = gaussian_sample(BLOCK_3X3, 5000, seed=42)
        config = PlaConfig(tau=0.7, mode="correlation-rescaled", ev_cutoff=0.1)
        report = run_pla(data, config)
        blocks = {b.variables: b for b in report.partition.blocks}
        assert set(blocks) == {(0, 1), (2,)}
        assert blocks[(0, 1)].ev_exact == pytest.approx(4 / 9, abs=0.03)
        assert blocks[(2,)].ev_exact == pytest.approx(5 / 9, abs=0.03)
        assert blocks[(0, 1)].ev_approx == pytest.approx(4 / 9, abs=0.03)
        assert report.recommendation == ()

    def test_low_variance_block_recommended(self):
        cov = np.array([[2.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, 0.05]])
        data = gaussian_sample(cov, 5000, seed=43, names=("X1", "X2", "X3"))
        config = PlaConfig(tau=0.7, mode="correlation-rescaled", ev_cutoff=0.1)
        report = run_pla(data, config)
        assert report.recommendation == ("X3",)

    def test_covariance_mode_is_scale_sensitive(self):
        data = gaussian_sample(BLOCK_3X3, 5000, seed=44)
        scaled = DataMatrix(data.values * [1.0, 1000.0, 1.0], data.variable_names)
        config = PlaConfig(tau=0.3, mode="covariance")
        before = run_pla(data, config).partition.structure()
        after = run_pla(scaled, config).partition.structure()
        assert before != after

    def test_correlation_mode_is_scale_invariant(self):
        data = gaussian_sample(BLOCK_3X3, 5000, seed=44)
        scaled = DataMatrix(data.values * [1.0, 1000.0, 1.0], data.variable_names)
        config = PlaConfig(tau=0.7, mode="correlation-rescaled")
        before = run_pla(data, config).partition.structure()
        after = run_pla(scaled, config).partition.structure()
        assert before == after

    @pytest.mark.parametrize(
        "mode, expected",
        [
            ("correlation", (1, 2, 0)),
            ("correlation-rescaled", (1, 2, 0)),
            ("covariance", (1, 1, 0)),
            ("covariance-rescaled", (1, 1, 0)),
        ],
    )
    def test_one_estimate_and_one_solve_per_matrix(self, mode, expected):
        data = gaussian_sample(BLOCK_3X3, 500, seed=46)
        with mock.patch.object(np, "cov", wraps=np.cov) as cov, \
                mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh, \
                mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
            run_pla(data, PlaConfig(tau=0.7, mode=mode))
        assert (cov.call_count, eigh.call_count, eigvalsh.call_count) == expected

    @pytest.mark.parametrize("ev_formula", EV_FORMULAS)
    @pytest.mark.parametrize("mode", MODES)
    def test_a_covariance_matrix_gives_the_result_of_its_data(self, mode, ev_formula):
        cov = np.array([[2.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, 0.05]])
        data = gaussian_sample(cov, 2000, seed=47, names=("a", "b", "c"))
        config = PlaConfig(tau=0.7, mode=mode, ev_cutoff=0.1, ev_formula=ev_formula)
        want = run_pla(data, config)
        got = run_pla(sample_covariance(data), config)
        assert got.partition == want.partition  # blocks, scores and flags
        assert got.variable_names == ("X1", "X2", "X3")
        assert (want.recommendation, got.recommendation) == (("c",), ("X3",))

    @pytest.mark.parametrize("mode", MODES)
    def test_a_correlation_matrix_is_refused(self, mode):
        m = DispersionMatrix(np.eye(3), "correlation")
        with pytest.raises(InsufficientInputError, match="needs a covariance matrix"):
            run_pla(m, PlaConfig(mode=mode))

    def test_residual_warning(self):
        # both loadings are 1/sqrt(2) < tau: no edge, two unbalanced variables
        m = DispersionMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]), "covariance")
        report = run_pla(m, PlaConfig(tau=0.75, mode="covariance"))
        assert report.warnings == (
            "unbalanced components; residual variables: X1, X2",
        )

    @pytest.mark.parametrize(
        "matrix, expected",
        [
            (
                np.eye(3),
                "near-degenerate eigenvalues detected; block assignment inside "
                "the degenerate eigenspace is not well defined",
            ),
            (np.ones((2, 2)), "zero eigenvalue(s) in the covariance spectrum"),
            (np.array([[2.0, 0.3], [0.3, 1.0]]), None),
        ],
        ids=["tied", "singular", "none"],
    )
    def test_spectrum_warnings(self, matrix, expected):
        m = DispersionMatrix(matrix, "covariance")
        report = run_pla(m, PlaConfig(mode="covariance"))
        assert report.warnings == ((expected,) if expected else ())

    def test_ev_formula_selects_discard_share(self):
        # The coupled low-variance variable: ev_exact = 0.3 / 4.3 is its
        # share of the trace, ev_approx its eigenvalue share, about 0.061.
        cov = np.array([[2.0, 0.5, 0.2], [0.5, 2.0, 0.2], [0.2, 0.2, 0.3]])
        m = DispersionMatrix(cov, "covariance")
        for formula, discarded in (("exact", ()), ("approx", ("X3",))):
            config = PlaConfig(
                tau=0.5, mode="covariance", ev_cutoff=0.065, ev_formula=formula
            )
            report = run_pla(m, config)
            block = {b.variables: b for b in report.partition.blocks}[(2,)]
            assert block.ev_exact == pytest.approx(0.3 / 4.3, abs=1e-12)
            assert block.ev_approx < 0.065 < block.ev_exact
            assert block.discardable == bool(discarded)
            assert report.recommendation == discarded

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PlaConfig(tau=1.5)
        with pytest.raises(ValueError):
            PlaConfig(ev_cutoff=1.0)
        with pytest.raises(ValueError):
            PlaConfig(mode="pca")

    def test_an_unknown_ev_formula_is_a_config_error(self):
        with pytest.raises(ConfigError) as info:
            PlaConfig(ev_formula="mean")
        assert str(info.value) == "unknown ev_formula 'mean'"

    def test_neither_data_nor_a_matrix_is_a_type_error(self):
        with pytest.raises(TypeError) as info:
            run_pla(BLOCK_3X3.tolist())
        assert str(info.value) == "expected DataMatrix or DispersionMatrix, got <class 'list'>"


class TestDiscard:
    def _report(self, data, **kw):
        return run_pla(data, PlaConfig(**kw))

    def test_drops_recommended(self):
        cov = np.array([[2.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, 0.05]])
        data = gaussian_sample(cov, 5000, seed=50, names=("X1", "X2", "X3"))
        report = self._report(data, tau=0.7, ev_cutoff=0.1)
        reduced = discard(data, report)
        assert reduced.variable_names == ("X1", "X2")
        np.testing.assert_array_equal(reduced.values, data.values[:, :2])

    def test_empty_recommendation_is_identity(self):
        data = gaussian_sample(BLOCK_3X3, 1000, seed=51)
        report = self._report(data, tau=0.7, ev_cutoff=0.01)
        assert discard(data, report) is data

    def test_name_mismatch(self):
        data = gaussian_sample(BLOCK_3X3, 1000, seed=52)
        other = DataMatrix(data.values, ("a", "b", "c"))
        report = self._report(data, tau=0.7)
        with pytest.raises(ConsistencyError):
            discard(other, report)

    def test_refuses_to_discard_everything(self):
        data = gaussian_sample(np.diag([1.0, 1.3, 1.6]), 3000, seed=53)
        report = self._report(data, tau=0.7, mode="covariance", ev_cutoff=0.6)
        assert len(report.recommendation) == data.values.shape[1]
        with pytest.raises(DimensionError):
            discard(data, report)
