"""Score normalizers, their vector-Jacobian products and the loss; and
the paper's claims about their derivatives and its convergence condition,
checked through oracles local to this file."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stagenet import scorenorm as sn
from stagenet.errors import ContractError, ShapeError

from gradcheck import numerical_gradient


def fd_partial(func, x, j, eps=1e-6):
    """Central finite difference of func(x) w.r.t. x_j; func returns a vector."""
    xp = x.copy()
    xm = x.copy()
    xp[j] += eps
    xm[j] -= eps
    return (func(xp) - func(xm)) / (2 * eps)


def softmax_partial(x, i, j):
    """Off-diagonal dS_i/dx_j (i != j) in closed form, -S_i S_j."""
    s = sn.softmax(x)
    return -s[i] * s[j]


def l2score_partial(x, i, j):
    """Off-diagonal dL_i/dx_j (i != j) in closed form, -(1/2) L_i S_j."""
    s = sn.softmax(x)
    return -0.5 * np.sqrt(s[i]) * s[j]


def jacobian_softmax(x):
    """dS_i/dx_j = S_i (delta_ij - S_j) of one score vector."""
    s = sn.softmax(x)
    return np.diag(s) - np.outer(s, s)


def jacobian_l2_score(x):
    """dL_i/dx_j = (1/2) L_i (delta_ij - S_j) of one score vector."""
    s = sn.softmax(x)
    return 0.5 * np.sqrt(s)[:, None] * (np.eye(len(s)) - s[None, :])


def convergence_condition(x, i):
    """S_i >= 1/4, i.e. sum_k exp(x_k) <= 4 exp(x_i): the regime in which
    the L2 form's off-diagonal derivative is at least softmax's."""
    return bool(sn.softmax(x)[i] >= 0.25)


def loss_floor(t, n):
    """ln(1 + (N-1)e^(-T)): the least cross-entropy of a sum of T rows with
    entries in [0, 1] (the ``heads`` module's contract)."""
    return np.log1p((n - 1) * np.exp(-t))


def lower_bound_ok(x, n):
    """Every score exceeds ln(N/4), the bound the condition needs."""
    return bool(np.min(x) > np.log(n / 4.0))


class TestSoftmax:
    def test_symmetric_pair(self):
        np.testing.assert_allclose(sn.softmax(np.zeros(2)), [0.5, 0.5], atol=1e-15)

    def test_one_to_three_ratio(self):
        out = sn.softmax(np.log([1.0, 3.0]))
        np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-12)

    def test_large_scores_do_not_overflow(self):
        out = sn.softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-50, 50, size=(1000, 10))
        s = sn.softmax(x)
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)


class TestL2Score:
    def test_symmetric_pair(self):
        out = sn.l2_score(np.zeros(2))
        np.testing.assert_allclose(out, [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-12)

    def test_one_to_three_ratio(self):
        out = sn.l2_score(np.log([1.0, 3.0]))
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
        assert softmax_partial(np.zeros(2), 0, 1) == pytest.approx(-0.25, abs=1e-14)

    def test_l2_partial_at_symmetric_point(self):
        expected = -0.5 * np.sqrt(0.5) * 0.5  # -(1/2) L_0 S_1
        assert l2score_partial(np.zeros(2), 0, 1) == pytest.approx(expected, abs=1e-14)
        assert expected == pytest.approx(-0.1767767, abs=1e-7)

    def test_off_diagonal_is_strictly_negative(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.uniform(-5, 5, size=6)
            i, j = rng.choice(6, size=2, replace=False)
            assert softmax_partial(x, i, j) < 0
            assert l2score_partial(x, i, j) < 0

    def test_softmax_partial_matches_finite_difference(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            x = rng.uniform(-3, 3, size=5)
            i, j = rng.choice(5, size=2, replace=False)
            fd = fd_partial(sn.softmax, x, j)[i]
            assert softmax_partial(x, i, j) == pytest.approx(fd, abs=1e-8)

    def test_l2_partial_closed_form_simplification(self):
        # L_0 = exp(x_0/2) / sqrt(sum_k exp(x_k)), so dL_0/dx_1 is
        # -(1/2) exp(x_0/2) exp(x_1) / (sum_k exp(x_k))^(3/2) = -(1/2) L_0 S_1
        rng = np.random.default_rng(7)
        x = rng.uniform(-5, 5, size=(1000, 4))
        for row in x[:200]:
            val = l2score_partial(row, 0, 1)
            e = np.exp(row)
            assert val == pytest.approx(-0.5 * np.sqrt(e[0]) * e[1] / e.sum() ** 1.5, abs=1e-12)
            simplified = -0.5 * sn.l2_score(row)[0] * sn.softmax(row)[1]
            assert val == pytest.approx(simplified, abs=1e-12)

    def test_l2_jacobian_matches_finite_difference(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = rng.uniform(-3, 3, size=4)
            jac = jacobian_l2_score(x)
            for j in range(4):
                fd = fd_partial(sn.l2_score, x, j)
                np.testing.assert_allclose(jac[:, j], fd, atol=1e-8)

    def test_softmax_jacobian_matches_finite_difference(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = rng.uniform(-3, 3, size=4)
            jac = jacobian_softmax(x)
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
            np.testing.assert_allclose(vjp_s[r], jacobian_softmax(x[r]).T @ g[r], atol=1e-12)
            np.testing.assert_allclose(vjp_l[r], jacobian_l2_score(x[r]).T @ g[r], atol=1e-12)


class TestConvergenceCondition:
    def test_two_categories_at_origin_holds(self):
        # sum of exps is 2 <= 4 * 1
        assert convergence_condition(np.zeros(2), 0) is True

    def test_eight_categories_at_origin_fails(self):
        # sum of exps is 8 > 4, and ln(8/4) > 0 shows the bound is unmet at 0
        x = np.zeros(8)
        assert convergence_condition(x, 0) is False
        assert np.log(8 / 4) > 0
        assert lower_bound_ok(x, 8) is False

    def test_condition_implies_derivative_dominance(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(10000):
            x = rng.uniform(-2, 2, size=4)
            i = int(rng.integers(0, 4))
            if not convergence_condition(x, i):
                continue
            for j in range(4):
                if j == i:
                    continue
                assert l2score_partial(x, i, j) >= softmax_partial(x, i, j)
                checked += 1
        assert checked > 1000

    def test_lower_bound_automatic_only_up_to_four_categories(self):
        rng = np.random.default_rng(12)
        # N <= 4: ln(N/4) <= 0, so positivity suffices
        for n in (2, 3, 4):
            for _ in range(200):
                x = rng.uniform(1e-6, 50.0, size=n)
                assert lower_bound_ok(x, n) is True
        # N > 4: positive vectors below ln(N/4) violate the bound
        for n in (5, 10, 100):
            x = np.full(n, 0.5 * np.log(n / 4.0))
            assert np.all(x > 0)
            assert lower_bound_ok(x, n) is False


class TestCrossEntropy:
    @pytest.mark.parametrize("logits,labels,error,match", [
        ((4, 5), [0, 1, 2, 5], ContractError, "out of range"),
        ((4, 5), [0, 1, -1, 3], ContractError, "out of range"),
        ((4, 5), [2], ShapeError, r"shape \(4,\), got int64 of shape \(1,\)"),
        ((4, 5), [[0, 1, 2, 3]], ShapeError, r"shape \(4,\), got int64 of shape \(1, 4\)"),
        ((4, 5), [0.0, 1.0, 2.0, 3.0], ShapeError, r"integers of shape \(4,\), got float64"),
        ((5,), [0, 1, 2, 3, 4], ShapeError, r"logits must have shape \(B, N\), got shape \(5,\)"),
        ((2, 3, 4), [0, 1], ShapeError, r"shape \(B, N\), got shape \(2, 3, 4\)"),
    ], ids=["above", "negative", "one_label", "row_of_labels", "float_labels", "1d_logits",
            "3d_logits"])
    def test_bad_labels_rejected(self, logits, labels, error, match):
        with pytest.raises(error, match=match):
            sn.batch_cross_entropy(np.zeros(logits), np.array(labels))

    def test_batch_form_matches_scalar_form(self):
        rng = np.random.default_rng(14)
        logits = rng.uniform(-3, 3, size=(8, 5))
        labels = rng.integers(0, 5, size=8)
        loss, grad = sn.batch_cross_entropy(logits, labels)
        per = [-np.log(sn.softmax(logits[r])[labels[r]]) for r in range(8)]
        assert loss == pytest.approx(np.mean(per), abs=1e-12)
        numerical = numerical_gradient(lambda z: sn.batch_cross_entropy(z, labels)[0], logits)
        np.testing.assert_allclose(grad, numerical, atol=1e-9)


class TestLossFloor:
    """The cross-entropy of a sum of T L2-score rows cannot fall below the floor."""

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(data=st.data(), t=st.integers(1, 6), n=st.integers(2, 12), b=st.integers(1, 4))
    def test_sum_of_l2_rows_stays_above_the_floor(self, data, t, n, b):
        logits = data.draw(arrays(np.float64, (t, b, n), elements=st.floats(-40, 40)))
        labels = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=b, max_size=b)))
        total = sn.l2_score(logits).sum(axis=0)
        for r in range(b):
            loss, _ = sn.batch_cross_entropy(total[r:r + 1], labels[r:r + 1])
            assert loss >= loss_floor(t, n) - 1e-12

    @pytest.mark.parametrize("t,n,floor", [(4, 10, 0.153), (3, 10, 0.370), (5, 100, 0.511)])
    def test_one_hot_rows_meet_the_floor(self, t, n, floor):
        # every head's L2 row one-hot on the true class, to float precision
        rows = sn.l2_score(np.where(np.eye(n, dtype=bool), 200.0, 0.0))
        loss, _ = sn.batch_cross_entropy(t * rows, np.arange(n))
        assert loss == pytest.approx(loss_floor(t, n), abs=1e-12)
        assert loss_floor(t, n) == pytest.approx(floor, abs=5e-4)
