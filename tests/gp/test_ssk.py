"""Tests for the sub-sequence string kernel, including the paper's Table I."""

import numpy as np
import pytest

from repro.gp.kernels._reference import (
    ReferenceSubsequenceStringKernel,
    ssk_diag_reference,
    ssk_gram_reference,
)
from repro.gp.kernels.ssk import (
    SubsequenceStringKernel,
    exact_kernel_value,
    ssk_diag,
    ssk_gram,
    subsequence_contribution,
)


# The paper's Table I uses two-letter mnemonics; any hashable symbols work.
SEQ_1 = ["Rw", "Rf", "Ds", "So", "Ds", "Bl", "Rw"]   # RwRfDsSoDsBlRw
SEQ_2 = ["Rw", "Rf", "Ds", "Fr", "So", "Bl", "Rw"]   # RwRfDsFrSoBlRw
SEQ_3 = ["Rw", "Rf", "Ds", "Fr", "Bl", "So", "Bl"]   # RwRfDsFrBlSoBl

U_1 = ["Rw", "Rf", "Ds", "Bl", "Rw"]                 # RwRfDsBlRw
U_2 = ["Rw", "Rf", "Ds", "Fr"]                        # RwRfDsFr
U_3 = ["Rw", "Rf"]                                    # RwRf


class TestTableI:
    """Reproduce every entry of the paper's Table I symbolically."""

    @pytest.mark.parametrize("theta_m,theta_g", [(0.9, 0.7), (0.5, 0.5), (1.0, 1.0)])
    def test_row1(self, theta_m, theta_g):
        assert subsequence_contribution(U_1, SEQ_1, theta_m, theta_g) == pytest.approx(
            2 * theta_m ** 5 * theta_g ** 2)
        assert subsequence_contribution(U_2, SEQ_1, theta_m, theta_g) == pytest.approx(0.0)
        assert subsequence_contribution(U_3, SEQ_1, theta_m, theta_g) == pytest.approx(
            theta_m ** 2)

    @pytest.mark.parametrize("theta_m,theta_g", [(0.9, 0.7), (0.5, 0.5)])
    def test_row2(self, theta_m, theta_g):
        assert subsequence_contribution(U_1, SEQ_2, theta_m, theta_g) == pytest.approx(
            theta_m ** 5 * theta_g ** 2)
        assert subsequence_contribution(U_2, SEQ_2, theta_m, theta_g) == pytest.approx(
            theta_m ** 4)
        assert subsequence_contribution(U_3, SEQ_2, theta_m, theta_g) == pytest.approx(
            theta_m ** 2)

    @pytest.mark.parametrize("theta_m,theta_g", [(0.9, 0.7), (0.5, 0.5)])
    def test_row3(self, theta_m, theta_g):
        assert subsequence_contribution(U_1, SEQ_3, theta_m, theta_g) == pytest.approx(0.0)
        assert subsequence_contribution(U_2, SEQ_3, theta_m, theta_g) == pytest.approx(
            theta_m ** 4)
        assert subsequence_contribution(U_3, SEQ_3, theta_m, theta_g) == pytest.approx(
            theta_m ** 2)

    def test_contribution_edge_cases(self):
        assert subsequence_contribution([], SEQ_1, 0.5, 0.5) == 0.0
        assert subsequence_contribution(["Rw"] * 10, ["Rw"], 0.5, 0.5) == 0.0

    def test_kernel_object_contribution_method(self):
        kernel = SubsequenceStringKernel(theta_match=0.8, theta_gap=0.6)
        assert kernel.contribution(U_3, SEQ_1) == pytest.approx(0.8 ** 2)


class TestDpAgainstBruteForce:
    @pytest.mark.parametrize("max_length", [1, 2, 3])
    def test_gram_matches_feature_enumeration(self, max_length, rng):
        alphabet = list(range(3))
        X = rng.integers(0, 3, size=(4, 6))
        gram = ssk_gram(X, X, 0.7, 0.4, max_length)
        for i in range(4):
            for j in range(4):
                expected = exact_kernel_value(X[i], X[j], 0.7, 0.4, max_length, alphabet)
                assert gram[i, j] == pytest.approx(expected)

    def test_diag_matches_gram(self, rng):
        X = rng.integers(0, 5, size=(6, 7))
        gram = ssk_gram(X, X, 0.6, 0.5, 3)
        diag = ssk_diag(X, 0.6, 0.5, 3)
        assert np.allclose(diag, np.diag(gram))

    def test_cross_gram_shape(self, rng):
        X = rng.integers(0, 5, size=(4, 6))
        Y = rng.integers(0, 5, size=(7, 6))
        assert ssk_gram(X, Y, 0.5, 0.5, 2).shape == (4, 7)


class TestKernelProperties:
    def test_symmetry_and_psd(self, rng):
        kernel = SubsequenceStringKernel(max_subsequence_length=3)
        X = rng.integers(0, 11, size=(12, 10))
        gram = kernel(X)
        assert np.allclose(gram, gram.T)
        assert np.linalg.eigvalsh(gram).min() > -1e-8

    def test_normalised_diag_is_variance(self, rng):
        kernel = SubsequenceStringKernel(normalize=True, variance=1.0)
        X = rng.integers(0, 11, size=(8, 10))
        assert np.allclose(np.diag(kernel(X)), 1.0)
        assert np.allclose(kernel.diag(X), 1.0)

    def test_identical_sequences_have_max_similarity(self, rng):
        kernel = SubsequenceStringKernel(normalize=True)
        X = rng.integers(0, 11, size=(5, 10))
        gram = kernel(X)
        assert np.all(gram <= 1.0 + 1e-9)
        assert np.allclose(np.diag(gram), 1.0)

    def test_shared_subsequences_increase_similarity(self):
        kernel = SubsequenceStringKernel(normalize=True)
        base = np.array([[0, 1, 2, 3, 4, 5]])
        similar = np.array([[0, 1, 2, 3, 4, 6]])
        different = np.array([[6, 7, 8, 9, 10, 5]])
        assert kernel(base, similar)[0, 0] > kernel(base, different)[0, 0]

    def test_unnormalised_diag(self, rng):
        kernel = SubsequenceStringKernel(normalize=False, variance=2.0)
        X = rng.integers(0, 11, size=(4, 8))
        assert np.allclose(kernel.diag(X), np.diag(kernel(X)))

    def test_gap_decay_penalises_spread_matches(self):
        kernel_tight = SubsequenceStringKernel(normalize=False, theta_match=0.9,
                                               theta_gap=0.1, max_subsequence_length=2)
        contiguous = np.array([[0, 1, 2, 2, 2, 2]])
        spread = np.array([[0, 2, 2, 2, 2, 1]])
        probe = np.array([[0, 1, 3, 3, 3, 3]])
        assert kernel_tight(contiguous, probe)[0, 0] > kernel_tight(spread, probe)[0, 0]

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            SubsequenceStringKernel(max_subsequence_length=0)

    def test_theta_bounds_enforced(self):
        kernel = SubsequenceStringKernel()
        kernel.set_params(theta_match=5.0, theta_gap=-1.0)
        params = kernel.get_params()
        assert params["theta_match"] <= 1.0
        assert params["theta_gap"] >= 1e-3


# ----------------------------------------------------------------------
# The feature map against its two oracles: brute-force enumeration and
# the frozen dynamic program
# ----------------------------------------------------------------------
#: The feature map sums the same non-negative terms as the oracles in
#: another order: values agree to roundoff, not bitwise.
RTOL = 1e-12


def _brute_gram(X, Y, theta_m, theta_g, max_length, alphabet):
    return np.array([[exact_kernel_value(x, y, theta_m, theta_g, max_length, alphabet)
                      for y in Y] for x in X])


class TestFeatureMapOracles:
    @pytest.mark.parametrize("alphabet", [[0, 1], [-1, 0, 1]])
    @pytest.mark.parametrize("max_length", [1, 2, 3, 4])
    def test_brute_force_tiny_alphabets(self, alphabet, max_length, rng):
        for length in (1, 3, 6):  # includes order > length
            X = rng.choice(alphabet, size=(3, length))
            Y = rng.choice(alphabet, size=(2, length + 1))
            for theta_m, theta_g in ((0.7, 0.4), (1e-3, 1.0), (1.0, 1e-3)):
                expected = _brute_gram(X, Y, theta_m, theta_g, max_length, alphabet)
                np.testing.assert_allclose(
                    ssk_gram(X, Y, theta_m, theta_g, max_length), expected,
                    rtol=RTOL, atol=0)
                kernel = SubsequenceStringKernel(max_length, theta_m, theta_g,
                                                 normalize=False)
                np.testing.assert_allclose(kernel(X, Y), expected, rtol=RTOL, atol=0)
                np.testing.assert_allclose(
                    kernel(X), _brute_gram(X, X, theta_m, theta_g, max_length, alphabet),
                    rtol=RTOL, atol=0)

    def test_fuzz_against_reference(self, rng):
        for length in range(1, 21):
            for max_length in (1, 2, 3, 4):
                n, m = int(rng.integers(1, 7)), int(rng.integers(1, 5))
                size = int(rng.choice([2, 3, 11]))
                X = rng.integers(0, size, size=(n, length))
                Y = rng.integers(-1, size, size=(m, length))
                theta_m = float(rng.uniform(1e-3, 1.0))
                theta_g = float(rng.uniform(1e-3, 1.0))
                context = (length, max_length, theta_m, theta_g)
                np.testing.assert_allclose(
                    ssk_gram(X, Y, theta_m, theta_g, max_length),
                    ssk_gram_reference(X, Y, theta_m, theta_g, max_length),
                    rtol=RTOL, atol=0, err_msg=str(context))
                np.testing.assert_allclose(
                    ssk_diag(Y, theta_m, theta_g, max_length),
                    ssk_diag_reference(Y, theta_m, theta_g, max_length),
                    rtol=RTOL, atol=0, err_msg=str(context))
                for normalize in (True, False):
                    kernel = SubsequenceStringKernel(max_length, theta_m, theta_g,
                                                     normalize=normalize)
                    reference = ReferenceSubsequenceStringKernel(
                        max_length, theta_m, theta_g, normalize=normalize)
                    gram = kernel(X)
                    assert np.array_equal(gram, gram.T)
                    np.testing.assert_allclose(gram, reference(X), rtol=RTOL,
                                               atol=0, err_msg=str(context))
                    np.testing.assert_allclose(kernel(X, Y), reference(X, Y),
                                               rtol=RTOL, atol=0, err_msg=str(context))
                    np.testing.assert_allclose(kernel.diag(Y), reference.diag(Y),
                                               rtol=RTOL, atol=0, err_msg=str(context))

    @pytest.mark.parametrize("theta_m", [1e-3, 1.0])
    @pytest.mark.parametrize("theta_g", [1e-3, 1.0])
    @pytest.mark.parametrize("normalize", [True, False])
    def test_theta_at_bounds(self, theta_m, theta_g, normalize, rng):
        X = rng.integers(0, 11, size=(8, 20))
        Y = rng.integers(0, 11, size=(4, 20))
        kernel = SubsequenceStringKernel(3, theta_m, theta_g, normalize=normalize)
        reference = ReferenceSubsequenceStringKernel(3, theta_m, theta_g,
                                                     normalize=normalize)
        np.testing.assert_allclose(kernel(X), reference(X), rtol=RTOL, atol=0)
        np.testing.assert_allclose(kernel(X, Y), reference(X, Y), rtol=RTOL, atol=0)

    def test_candidates_with_unseen_symbols(self):
        X = np.array([[0, 1, 0, 1], [1, 1, 0, 0]])
        Y = np.array([[0, 5, 1, -1], [7, 8, 9, 7], [0, 1, 0, 1]])
        for normalize in (True, False):
            kernel = SubsequenceStringKernel(3, 0.6, 0.5, normalize=normalize)
            reference = ReferenceSubsequenceStringKernel(3, 0.6, 0.5,
                                                         normalize=normalize)
            gram = kernel(X, Y)
            np.testing.assert_allclose(gram, reference(X, Y), rtol=RTOL, atol=0)
            assert np.all(gram[:, 1] == 0.0)  # shares no symbol with X
        assert SubsequenceStringKernel()(X, Y)[0, 2] == pytest.approx(1.0)

    def test_duplicate_and_single_rows(self, rng):
        row = rng.integers(0, 11, size=(1, 12))
        X = np.vstack([row, row, rng.integers(0, 11, size=(1, 12)), row])
        kernel = SubsequenceStringKernel()
        reference = ReferenceSubsequenceStringKernel()
        gram = kernel(X)
        np.testing.assert_allclose(gram, reference(X), rtol=RTOL, atol=0)
        assert np.array_equal(gram[0], gram[1]) and np.array_equal(gram[0], gram[3])
        for A, B in ((row, row), (row, X), (X, row)):
            np.testing.assert_allclose(kernel(A, B), reference(A, B), rtol=RTOL, atol=0)
        np.testing.assert_allclose(kernel(row), reference(row), rtol=RTOL, atol=0)

    def test_orders_never_collide(self):
        """``(0)`` and ``(0, 0)``, or ``(-1)`` and ``(-1, -1)``, are one
        number under a naive letter code (Σ s_j·B^j, or with ``s + 1``
        digits); the map must keep them apart."""
        alphabet = [-1, 0]
        X = np.array([[0, 0, -1], [-1, -1, 0], [0, -1, -1]])
        Y = np.array([[0, -1, 0], [-1, -1, -1], [0, 0, 0]])
        for max_length in (1, 2, 3):
            np.testing.assert_allclose(
                ssk_gram(X, Y, 0.9, 0.3, max_length),
                _brute_gram(X, Y, 0.9, 0.3, max_length, alphabet), rtol=RTOL, atol=0)
            np.testing.assert_allclose(
                ssk_diag(Y, 0.9, 0.3, max_length),
                np.diag(_brute_gram(Y, Y, 0.9, 0.3, max_length, alphabet)),
                rtol=RTOL, atol=0)

    def test_structure_follows_the_training_set(self, rng):
        kernel = SubsequenceStringKernel()
        Y = rng.integers(0, 11, size=(3, 10))
        for _ in range(3):
            X = rng.integers(0, 11, size=(6, 10))
            kernel.set_params(theta_match=float(rng.uniform(0.1, 1.0)))
            fresh = SubsequenceStringKernel(theta_match=kernel.get_params()["theta_match"])
            assert np.array_equal(kernel(X), fresh(X))
            assert np.array_equal(kernel(X, Y), fresh(X, Y))

    def test_feature_code_overflow_is_reported(self):
        X = np.arange(240_000).reshape(60_000, 4)
        with pytest.raises(ValueError, match="overflow"):
            ssk_diag(X, 0.5, 0.5, 4)
