"""Score normalizers: values, derivatives, and the convergence predicate."""

import numpy as np
import pytest

from stagenet import scorenorm as sn
from stagenet.errors import ContractError, DomainError
from stagenet.gradcheck import numerical_gradient


def fd_partial(func, x, j, eps=1e-6):
    """Central finite difference of func(x) w.r.t. x_j; func returns a vector."""
    xp = x.copy()
    xm = x.copy()
    xp[j] += eps
    xm[j] -= eps
    return (func(xp) - func(xm)) / (2 * eps)


class TestSoftmax:
    def test_symmetric_pair(self):
        np.testing.assert_allclose(sn.softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_one_to_three_ratio(self):
        out = sn.softmax([np.log(1.0), np.log(3.0)])
        np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-12)

    def test_large_scores_do_not_overflow(self):
        out = sn.softmax([1000.0, 0.0])
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-50, 50, size=(1000, 10))
        s = sn.softmax(x)
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)

    def test_rejects_single_category(self):
        with pytest.raises(ContractError):
            sn.softmax([1.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            sn.softmax([np.nan, 1.0])


class TestL2Score:
    def test_symmetric_pair(self):
        out = sn.l2_score([0.0, 0.0])
        np.testing.assert_allclose(out, [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-12)

    def test_one_to_three_ratio(self):
        out = sn.l2_score([np.log(1.0), np.log(3.0)])
        np.testing.assert_allclose(out, [0.5, np.sqrt(0.75)], atol=1e-12)

    def test_equals_sqrt_of_softmax(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-30, 30, size=(1000, 8))
        assert np.max(np.abs(sn.l2_score(x) - np.sqrt(sn.softmax(x)))) < 1e-12

    def test_squares_sum_to_one(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-20, 20, size=(500, 5))
        ell = sn.l2_score(x)
        np.testing.assert_allclose(np.sum(ell * ell, axis=1), 1.0, atol=1e-12)


class TestShiftAndArgmaxInvariance:
    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-10, 10, size=(200, 6))
        for c in (-100.0, 0.5, 42.0):
            assert np.max(np.abs(sn.softmax(x + c) - sn.softmax(x))) < 1e-12
            assert np.max(np.abs(sn.l2_score(x + c) - sn.l2_score(x))) < 1e-12

    def test_argmax_agreement(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-10, 10, size=(1000, 7))
        ax = np.argmax(x, axis=1)
        assert np.array_equal(np.argmax(sn.softmax(x), axis=1), ax)
        assert np.array_equal(np.argmax(sn.l2_score(x), axis=1), ax)


class TestPartialDerivatives:
    def test_softmax_partial_at_symmetric_point(self):
        assert sn.softmax_partial([0.0, 0.0], 0, 1) == pytest.approx(-0.25, abs=1e-14)

    def test_l2_partial_at_symmetric_point(self):
        expected = -0.5 * np.sqrt(0.5) * 0.5  # -(1/2) L_0 S_1
        assert sn.l2score_partial([0.0, 0.0], 0, 1) == pytest.approx(expected, abs=1e-14)
        assert expected == pytest.approx(-0.1767767, abs=1e-7)

    def test_off_diagonal_is_strictly_negative(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.uniform(-5, 5, size=6)
            i, j = rng.choice(6, size=2, replace=False)
            assert sn.softmax_partial(x, i, j) < 0
            assert sn.l2score_partial(x, i, j) < 0

    def test_diagonal_rejected_on_closed_forms(self):
        with pytest.raises(ContractError):
            sn.softmax_partial([0.0, 1.0], 1, 1)
        with pytest.raises(ContractError):
            sn.l2score_partial([0.0, 1.0], 0, 0)

    def test_softmax_partial_matches_finite_difference(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            x = rng.uniform(-3, 3, size=5)
            i, j = rng.choice(5, size=2, replace=False)
            fd = fd_partial(sn.softmax, x, j)[i]
            assert sn.softmax_partial(x, i, j) == pytest.approx(fd, abs=1e-8)

    def test_l2_partial_closed_form_simplification(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-5, 5, size=(1000, 4))
        for row in x[:200]:
            val = sn.l2score_partial(row, 0, 1)
            simplified = -0.5 * sn.l2_score(row)[0] * sn.softmax(row)[1]
            assert val == pytest.approx(simplified, abs=1e-12)

    def test_l2_jacobian_matches_finite_difference(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = rng.uniform(-3, 3, size=4)
            jac = sn.jacobian_l2_score(x)
            for j in range(4):
                fd = fd_partial(sn.l2_score, x, j)
                np.testing.assert_allclose(jac[:, j], fd, atol=1e-8)

    def test_softmax_jacobian_matches_finite_difference(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = rng.uniform(-3, 3, size=4)
            jac = sn.jacobian_softmax(x)
            for j in range(4):
                fd = fd_partial(sn.softmax, x, j)
                np.testing.assert_allclose(jac[:, j], fd, atol=1e-8)

    def test_vjp_helpers_match_jacobians(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(-3, 3, size=(20, 5))
        g = rng.uniform(-1, 1, size=(20, 5))
        s = sn.softmax(x)
        ell = sn.l2_score(x)
        vjp_s = sn.softmax_vjp(s, g)
        vjp_l = sn.l2_score_vjp(ell, g)
        for r in range(20):
            np.testing.assert_allclose(vjp_s[r], sn.jacobian_softmax(x[r]).T @ g[r], atol=1e-12)
            np.testing.assert_allclose(vjp_l[r], sn.jacobian_l2_score(x[r]).T @ g[r], atol=1e-12)


class TestConvergenceCondition:
    def test_two_categories_at_origin_holds(self):
        # sum of exps is 2 <= 4 * 1
        assert sn.convergence_condition([0.0, 0.0], 0) is True

    def test_eight_categories_at_origin_fails(self):
        # sum of exps is 8 > 4, and ln(8/4) > 0 shows the bound is unmet at 0
        x = [0.0] * 8
        assert sn.convergence_condition(x, 0) is False
        assert np.log(8 / 4) > 0
        assert sn.lower_bound_ok(x, 8) is False

    def test_condition_implies_derivative_dominance(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(10000):
            x = rng.uniform(-2, 2, size=4)
            i = int(rng.integers(0, 4))
            if not sn.convergence_condition(x, i):
                continue
            for j in range(4):
                if j == i:
                    continue
                assert sn.l2score_partial(x, i, j) >= sn.softmax_partial(x, i, j)
                checked += 1
        assert checked > 1000

    def test_lower_bound_automatic_only_up_to_four_categories(self):
        rng = np.random.default_rng(12)
        # N <= 4: ln(N/4) <= 0, so positivity suffices
        for n in (2, 3, 4):
            for _ in range(200):
                x = rng.uniform(1e-6, 50.0, size=n)
                assert sn.lower_bound_ok(x, n) is True
        # N > 4: positive vectors below ln(N/4) violate the bound
        for n in (5, 10, 100):
            x = np.full(n, 0.5 * np.log(n / 4.0))
            assert np.all(x > 0)
            assert sn.lower_bound_ok(x, n) is False


class TestCrossEntropy:
    def test_label_out_of_range(self):
        for bad in (4, -1):
            with pytest.raises(ContractError):
                sn.batch_cross_entropy(np.zeros((2, 4)), np.array([0, bad]))

    def test_batch_form_matches_scalar_form(self):
        rng = np.random.default_rng(14)
        logits = rng.uniform(-3, 3, size=(8, 5))
        labels = rng.integers(0, 5, size=8)
        loss, grad = sn.batch_cross_entropy(logits, labels)
        per = [-np.log(sn.softmax(logits[r])[labels[r]]) for r in range(8)]
        assert loss == pytest.approx(np.mean(per), abs=1e-12)
        numerical = numerical_gradient(lambda z: sn.batch_cross_entropy(z, labels)[0], logits)
        np.testing.assert_allclose(grad, numerical, atol=1e-9)
