import numpy as np
import pytest

from pla import (
    DataMatrix,
    DegenerateColumnError,
    DispersionMatrix,
    NumericalError,
    SymmetryError,
    correlation_from_covariance,
    sample_covariance,
)

BLOCK_3X3 = np.array([[2.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, 5.0]])


def random_psd(rng, m, scale=1.0):
    a = rng.standard_normal((m, m))
    return scale * (a @ a.T) / m


class TestSampleCovariance:
    def test_perfectly_correlated_pair(self):
        data = DataMatrix(np.array([[0.0, 0.0], [2.0, 2.0]]))
        cov = sample_covariance(data)
        np.testing.assert_allclose(cov.entries, [[2.0, 2.0], [2.0, 2.0]])
        assert cov.kind == "covariance"

    def test_constant_column_zero_variance(self):
        data = DataMatrix(np.array([[1.0, 1.0], [-1.0, 1.0]]))
        cov = sample_covariance(data)
        np.testing.assert_allclose(cov.entries, [[2.0, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_monte_carlo_recovery(self):
        # sampling oracle: N(0, diag(4,1,0.25)) draws, fixed seed
        rng = np.random.default_rng(99)
        target = np.diag([4.0, 1.0, 0.25])
        values = rng.standard_normal((1000, 3)) * np.sqrt(np.diag(target))
        cov = sample_covariance(DataMatrix(values))
        assert np.abs(cov.entries - target).max() < 0.5


class TestSampleCorrelation:
    def test_perfectly_correlated_pair(self):
        data = DataMatrix(np.array([[0.0, 0.0], [2.0, 2.0]]))
        corr = correlation_from_covariance(sample_covariance(data).entries)
        np.testing.assert_allclose(corr.entries, [[1.0, 1.0], [1.0, 1.0]])

    def test_unit_diagonal(self):
        rng = np.random.default_rng(3)
        cov = sample_covariance(DataMatrix(rng.standard_normal((40, 4))))
        corr = correlation_from_covariance(cov.entries)
        np.testing.assert_array_equal(np.diag(corr.entries), np.ones(4))

    def test_constant_column_rejected(self):
        data = DataMatrix(np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]]))
        with pytest.raises(DegenerateColumnError):
            correlation_from_covariance(
                sample_covariance(data).entries, data.variable_names
            )

    def test_population_normalization(self):
        # oracle: divide by sqrt(sigma_ii * sigma_jj) by hand
        corr = correlation_from_covariance(BLOCK_3X3)
        expected = np.array([[1.0, 0.25, 0.0], [0.25, 1.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(corr.entries, expected, atol=1e-15)


class TestEigendecompose:
    def test_diagonal_matrix(self):
        es = DispersionMatrix(np.diag([3.0, 2.0, 1.0]), "covariance").eigensystem
        np.testing.assert_allclose(es.eigenvalues, [3.0, 2.0, 1.0])
        np.testing.assert_allclose(es.eigenvectors, np.eye(3), atol=1e-15)

    def test_block_matrix_analytic(self):
        # oracle: 2x2 analytic block eigenvalues 2 +/- 0.5, isolated 5
        es = DispersionMatrix(BLOCK_3X3, "covariance").eigensystem
        np.testing.assert_allclose(es.eigenvalues, [5.0, 2.5, 1.5], atol=1e-12)
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(es.eigenvectors[:, 0], [0, 0, 1], atol=1e-12)
        np.testing.assert_allclose(es.eigenvectors[:, 1], [s, s, 0], atol=1e-12)
        np.testing.assert_allclose(es.eigenvectors[:, 2], [s, -s, 0], atol=1e-12)

    def test_equicorrelated_pair_eigenvalues(self):
        # oracle: 1 +/- r for the correlated 2x2 sub-block
        corr = np.array([[1.0, 0.25, 0.0], [0.25, 1.0, 0.0], [0.0, 0.0, 1.0]])
        es = DispersionMatrix(corr, "correlation").eigensystem
        np.testing.assert_allclose(es.eigenvalues, [1.25, 1.0, 0.75], atol=1e-12)

    def test_sign_convention(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            es = DispersionMatrix(random_psd(rng, 6), "covariance").eigensystem
            peaks = np.argmax(np.abs(es.eigenvectors), axis=0)
            assert np.all(es.eigenvectors[peaks, np.arange(6)] > 0)

    def test_rejects_asymmetric(self):
        m = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(SymmetryError):
            DispersionMatrix(m, "covariance")

    @pytest.mark.parametrize("cell", [np.nan, np.inf])
    def test_rejects_non_finite(self, cell):
        with pytest.raises(NumericalError, match="non-finite"):
            DispersionMatrix(np.array([[1.0, cell], [cell, 1.0]]), "covariance")

    def test_correlation_trace_is_m(self):
        rng = np.random.default_rng(23)
        data = DataMatrix(rng.standard_normal((60, 5)))
        es = correlation_from_covariance(sample_covariance(data).entries).eigensystem
        assert abs(es.eigenvalues.sum() - 5.0) < 1e-9


class TestEigenSystemContract:
    @pytest.mark.parametrize("seed", range(10))
    def test_invariants(self, seed):
        rng = np.random.default_rng(seed)
        m = DispersionMatrix(random_psd(rng, 7, scale=3.0), "covariance")
        es = m.eigensystem
        # descending order
        assert np.all(np.diff(es.eigenvalues) <= 0)
        # orthonormal columns
        gram = es.eigenvectors.T @ es.eigenvectors
        assert np.abs(gram - np.eye(7)).max() < 1e-10
        # reconstruction
        rebuilt = es.eigenvectors @ np.diag(es.eigenvalues) @ es.eigenvectors.T
        scale = np.abs(m.entries).max()
        assert np.abs(rebuilt - m.entries).max() < 1e-9 * scale
        # trace identity
        assert abs(es.eigenvalues.sum() - np.trace(m.entries)) < 1e-9 * abs(
            np.trace(m.entries)
        )
        # unit-norm rows
        assert np.abs((es.eigenvectors**2).sum(axis=1) - 1.0).max() < 1e-10

    def test_deterministic_bytes(self):
        rng = np.random.default_rng(77)
        m = DispersionMatrix(random_psd(rng, 8), "covariance")
        a = m.eigensystem
        b = DispersionMatrix(m.entries, "covariance").eigensystem
        assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
        assert a.eigenvectors.tobytes() == b.eigenvectors.tobytes()

    def test_tiny_negative_eigenvalue_clamped(self):
        # rank-deficient: direct product of a thin factor
        a = np.array([[1.0, 2.0], [2.0, 4.0], [0.5, 1.0]])
        m = DispersionMatrix(a @ a.T, "covariance")
        es = m.eigensystem
        assert np.all(es.eigenvalues >= 0.0)
