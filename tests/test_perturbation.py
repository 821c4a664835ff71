import numpy as np
import pytest

from pla import (
    BoundDiagnostic,
    ConfigError,
    DispersionMatrix,
    NumericalError,
    SymmetryError,
    eigengap_bound,
    variance_sensitivity,
)


def measured_sup_change(base, delta):
    """Oracle: re-decompose and compare matched eigenvectors directly."""
    es0 = DispersionMatrix(base, "covariance").eigensystem
    es1 = DispersionMatrix(base + delta, "covariance").eigensystem
    out = []
    for j in range(es0.size):
        overlaps = es1.eigenvectors.T @ es0.eigenvectors[:, j]
        k = int(np.argmax(np.abs(overlaps)))
        v1 = es1.eigenvectors[:, k] * np.sign(overlaps[k])
        out.append(np.abs(v1 - es0.eigenvectors[:, j]).max())
    return np.array(out)


class TestPerturbationPair:
    """The (base, delta) inputs of ``eigengap_bound``."""

    def test_frobenius_norm(self):
        base = DispersionMatrix(np.diag([4.0, 1.0]), "covariance")
        diag = eigengap_bound(base, np.array([[0.0, 0.1], [0.1, 0.0]]), tau=0.2)
        assert diag.frobenius_norm == pytest.approx(np.sqrt(0.02), abs=1e-15)

    def test_rejects_asymmetric_delta(self):
        base = DispersionMatrix(np.eye(2), "covariance")
        with pytest.raises(SymmetryError):
            eigengap_bound(base, np.array([[0.0, 0.1], [0.0, 0.0]]), tau=0.2)

    @pytest.mark.parametrize(
        "delta",
        [[[0.0, np.nan], [np.nan, 0.0]], [[np.inf, 0.0], [0.0, 0.0]],
         [[0.0, np.inf], [-np.inf, 0.0]], [[0.0, np.inf], [np.inf, 0.0]]],
        ids=["nan", "inf", "antisymmetric-inf", "symmetric-inf"],
    )
    def test_rejects_a_non_finite_delta(self, delta):
        base = DispersionMatrix(np.eye(2), "covariance")
        with pytest.raises(NumericalError, match="non-finite"):
            eigengap_bound(base, np.array(delta), tau=0.2)

    def test_rejects_shape_mismatch(self):
        base = DispersionMatrix(np.eye(2), "covariance")
        with pytest.raises(SymmetryError):
            eigengap_bound(base, np.zeros((3, 3)), tau=0.2)


class TestEigengapBound:
    def test_two_by_two_example(self):
        # gap between eigenvalues 4 and 1 is 3; bound = 2^1.5 * ||d||_F / 3
        base = DispersionMatrix(np.diag([4.0, 1.0]), "covariance")
        diag = eigengap_bound(base, np.array([[0.0, 0.1], [0.1, 0.0]]), tau=0.2)
        np.testing.assert_allclose(diag.eigengaps, [3.0, 3.0])
        expected = 2.0 ** 1.5 * np.sqrt(0.02) / 3.0
        np.testing.assert_allclose(diag.bounds, [expected, expected], atol=1e-15)
        assert diag.implies_below_tau.tolist() == [True, True]

    def test_bound_dominates_measured_change(self):
        base = np.diag([4.0, 1.0])
        delta = np.array([[0.0, 0.1], [0.1, 0.0]])
        diag = eigengap_bound(DispersionMatrix(base, "covariance"), delta, tau=0.2)
        measured = measured_sup_change(base, delta)
        assert np.all(measured <= diag.bounds + 1e-12)
        assert measured.max() < 0.05

    def test_zero_delta_zero_bounds(self):
        base = DispersionMatrix(np.diag([3.0, 1.0]), "covariance")
        diag = eigengap_bound(base, np.zeros((2, 2)), tau=0.5)
        np.testing.assert_array_equal(diag.bounds, [0.0, 0.0])
        assert diag.implies_below_tau.all()

    def test_degenerate_spectrum_infinite_bound(self):
        base = DispersionMatrix(np.eye(2), "covariance")
        diag = eigengap_bound(base, np.array([[0.0, 0.01], [0.01, 0.0]]), tau=0.5)
        assert np.all(np.isinf(diag.bounds))
        assert not diag.implies_below_tau.any()

    def test_tied_eigenvalues_are_never_certified(self):
        # 0.1 is a triple eigenvalue; a tie run of the canonical order puts
        # 0.1 + 3.6e-15 between its copies, which must not give them a gap
        factor = np.zeros((4, 4))
        factor[2, 0] = 5.96e-8
        base = DispersionMatrix(factor @ factor.T + 0.1 * np.eye(4), "covariance")
        diag = eigengap_bound(base, np.full((4, 4), 1e-20), tau=0.25)
        top = int(np.argmax(base.eigensystem.eigenvalues))  # 0.1 + 3.6e-15
        assert np.flatnonzero(diag.eigengaps).tolist() == [top]
        assert np.flatnonzero(diag.implies_below_tau).tolist() == [top]

    @pytest.mark.parametrize("size", [3, 4, 5, 6])
    def test_the_solver_rounding_voids_a_near_tie_certificate(self, size):
        # 0.1 + 3.6e-15 is an eigenvalue 3.6e-15 from the others: the bound
        # for a 1e-20 delta is about 3e-5, yet eigh moves its eigenvector by
        # about 1e-3, which is its own rounding, not the perturbation
        base = 0.1 * np.eye(size)
        base[1, 1] += 3.6e-15
        delta = np.full((size, size), 1e-20)
        moved = measured_sup_change(base, delta)[1]
        diag = eigengap_bound(DispersionMatrix(base, "covariance"), delta, tau=moved)
        assert diag.bounds[1] < moved  # the printed bound alone would certify it
        assert not diag.implies_below_tau.any()

    def test_implication_never_violated(self):
        # whenever the bound certifies, the measured sup-norm change stays
        # below tau; randomized over many matrices and perturbation scales
        rng = np.random.default_rng(31)
        violations = 0
        certified = 0
        for _ in range(100):
            a = rng.standard_normal((5, 5))
            base = a @ a.T + 0.1 * np.eye(5)
            d = rng.standard_normal((5, 5)) * rng.uniform(1e-4, 0.05)
            delta = (d + d.T) / 2
            tau = float(rng.uniform(0.05, 0.8))
            diag = eigengap_bound(DispersionMatrix(base, "covariance"), delta, tau)
            measured = measured_sup_change(base, delta)
            for j in range(5):
                if diag.implies_below_tau[j]:
                    certified += 1
                    if measured[j] >= tau:
                        violations += 1
        assert certified > 50
        assert violations == 0


class TestVarianceSensitivity:
    def test_coupled_pair_signs(self):
        # probing variable 0 of a nearly uncorrelated pair: its own loading
        # magnitude grows, the other entry shrinks
        m = DispersionMatrix(np.array([[1.0, 0.01], [0.01, 1.0]]), "covariance")
        prof = variance_sensitivity(m, 0, [0.01, 0.02, 0.04])
        assert prof.target_variable == 0
        assert all(err is None for err in prof.tracking_errors)
        assert all(prof.sign_contract_ok)
        for fd in prof.diffs:
            assert fd[0] > 0.0
            assert fd[1] < 0.0

    def test_decoupled_variable_flat(self):
        m = DispersionMatrix(np.diag([2.0, 1.0]), "covariance")
        prof = variance_sensitivity(m, 0, [0.1, 0.2])
        assert prof.eigen_index == 0
        for fd in prof.diffs:
            np.testing.assert_allclose(fd, [0.0, 0.0], atol=1e-12)
        assert all(prof.sign_contract_ok)

    def test_block_structure_preserved(self):
        block = np.array([[2.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, 5.0]])
        m = DispersionMatrix(block, "covariance")
        prof = variance_sensitivity(m, 2, [0.05, 0.1, 0.2])
        assert prof.eigen_index == 0
        for fd in prof.diffs:
            # the isolated variable stays at loading 1; the zero entries stay 0
            np.testing.assert_allclose(fd, [0.0, 0.0, 0.0], atol=1e-10)

    def test_tracking_across_eigenvalue_crossing(self):
        # increments large enough to swap the eigenvalue order; the profile
        # should follow the eigenvector, not the index
        m = DispersionMatrix(np.array([[1.0, 0.05], [0.05, 2.0]]), "covariance")
        prof = variance_sensitivity(m, 0, [0.5, 1.5, 3.0])
        assert all(err is None for err in prof.tracking_errors)
        assert prof.diffs[-1][0] > 0.0

    def test_input_validation(self):
        m = DispersionMatrix(np.eye(3), "covariance")
        with pytest.raises(ConfigError):
            variance_sensitivity(m, 0, [])
        with pytest.raises(ConfigError):
            variance_sensitivity(m, 0, [0.2, 0.1])
        with pytest.raises(ConfigError):
            variance_sensitivity(m, 0, [-0.1, 0.2])
        with pytest.raises(ConfigError):
            variance_sensitivity(m, 5, [0.1])
        for grid in ([0.1, np.nan], [0.1, np.inf], [np.nan]):
            with pytest.raises(ConfigError, match="increments must be finite"):
                variance_sensitivity(m, 0, grid)
        corr = DispersionMatrix(np.eye(3), "correlation")
        with pytest.raises(ConfigError):
            variance_sensitivity(corr, 0, [0.1])

    def test_overflow_is_an_error_or_an_infinite_quotient(self):
        # no RuntimeWarning: an infinite increment fails validation, and a
        # tiny step's difference quotient may be infinite
        huge = DispersionMatrix(np.diag([1e308, 1.0]), "covariance")
        with pytest.raises(NumericalError, match="non-finite"):
            variance_sensitivity(huge, 0, [1e308])
        tiny = np.array([[1e-320, 1e-310], [1e-310, 1e-310]])
        prof = variance_sensitivity(DispersionMatrix(tiny, "covariance"), 1, [1e-320])
        assert np.isinf(prof.diffs[0]).all()

    def test_sign_contract_randomized(self):
        # pair blocks, probing the higher-variance member of its block: the
        # tracked eigenvector rotates monotonically toward the probed axis,
        # so the predicted signs hold at every increment
        rng = np.random.default_rng(37)
        checked = 0
        for _ in range(30):
            cov = np.zeros((6, 6))
            for b in range(3):
                var = np.sort(rng.uniform(0.5, 3.0, size=2))[::-1]
                c = rng.uniform(0.2, 0.9) * np.sqrt(var[0] * var[1])
                cov[2 * b : 2 * b + 2, 2 * b : 2 * b + 2] = [
                    [var[0], c],
                    [c, var[1]],
                ]
            d = 2 * int(rng.integers(3))
            m = DispersionMatrix(cov, "covariance")
            prof = variance_sensitivity(m, d, [1e-6, 1e-5, 1e-4])
            for ok in prof.sign_contract_ok:
                if ok is not None:
                    checked += 1
                    assert ok
        assert checked > 40
