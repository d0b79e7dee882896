import math

import numpy as np
import pytest

from conftest import finite_difference, max_rel_err
from lim3d import (DomainError, LossConfig, ValidationError, kl_consistency, lovasz_softmax,
                   total_loss)
from lim3d.autodiff import Tensor, softmax


def jaccard_oracle(pred_set, gt_set, universe):
    inter = len(pred_set & gt_set)
    union = len(pred_set | gt_set)
    return inter / union if union else 1.0


def well_separated_probs(rng, n, c, gap=5e-3):
    """Random probability rows whose per-class error values stay `gap` apart,
    keeping the sort permutation stable under finite-difference steps."""
    while True:
        logits = rng.normal(size=(n, c))
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        ok = True
        for k in range(c):
            col = np.sort(probs[:, k])
            if np.min(np.diff(col)) < gap:
                ok = False
                break
        if ok:
            return probs


class TestLovasz:
    def test_perfect_one_hot_zero_loss(self):
        labels = np.array([0, 1, 2, 1])
        probs = np.eye(3)[labels]
        assert lovasz_softmax(probs, labels).item() == pytest.approx(0.0, abs=1e-12)

    def test_binary_hard_predictions_equal_one_minus_jaccard(self, rng):
        n = 12
        labels = np.ones(n, dtype=np.int64)
        pred = rng.integers(0, 2, size=n)
        probs = np.column_stack([1.0 - pred, pred]).astype(np.float64)
        loss = lovasz_softmax(probs, labels).item()
        j = jaccard_oracle(set(np.flatnonzero(pred == 1)), set(range(n)), n)
        assert loss == pytest.approx(1.0 - j, abs=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(8):
            n, c = 10, 3
            labels = rng.integers(0, c, size=n)
            probs = well_separated_probs(rng, n, c)

            def f(p_arr):
                t = Tensor(p_arr, requires_grad=True)
                return t, lovasz_softmax(t, labels)

            t, loss = f(probs)
            loss.backward()
            fd = finite_difference(lambda v: f(v)[1].item(), probs)
            assert max_rel_err(t.grad, fd) < 1e-3

    def test_through_softmax_gradient(self, rng):
        n, c = 8, 3
        labels = rng.integers(0, c, size=n)
        logits = rng.normal(size=(n, c)) * 2.0

        def f(l_arr):
            t = Tensor(l_arr, requires_grad=True)
            return t, lovasz_softmax(softmax(t, axis=1), labels)

        t, loss = f(logits)
        loss.backward()
        fd = finite_difference(lambda v: f(v)[1].item(), logits)
        assert max_rel_err(t.grad, fd) < 1e-3

    @pytest.mark.parametrize("labels", [[0, -1, 1], [0, 3, 1]])
    def test_label_outside_class_range_rejected(self, labels):
        with pytest.raises(ValidationError, match=r"\[0, 3\)"):
            lovasz_softmax(np.full((3, 3), 1.0 / 3.0), np.array(labels))

    @pytest.mark.parametrize("labels", [[0, 1], [[0], [1], [2]]], ids=["too-few", "column"])
    def test_labels_not_one_per_row_rejected(self, labels):
        with pytest.raises(ValidationError, match="does not match 3 rows"):
            lovasz_softmax(np.full((3, 3), 1.0 / 3.0), np.array(labels))


class TestKlConsistency:
    def test_identical_distributions_zero(self, rng):
        p = np.abs(rng.normal(size=(6, 4))) + 0.1
        p /= p.sum(axis=1, keepdims=True)
        assert kl_consistency(p, p).item() == pytest.approx(0.0, abs=1e-12)

    def test_one_hot_teacher_vs_uniform_student(self):
        teacher = np.array([[1.0, 0.0]])
        student = np.array([[0.5, 0.5]])
        assert kl_consistency(student, teacher).item() == pytest.approx(math.log(2), rel=1e-12)

    def test_nonnegative_on_random_pairs(self, rng):
        for _ in range(20):
            a = np.abs(rng.normal(size=(5, 3))) + 0.05
            a /= a.sum(axis=1, keepdims=True)
            b = np.abs(rng.normal(size=(5, 3))) + 0.05
            b /= b.sum(axis=1, keepdims=True)
            assert kl_consistency(a, b).item() >= -1e-12

    def test_unnormalized_rows_rejected(self):
        with pytest.raises(ValidationError):
            kl_consistency(np.array([[0.5, 0.6]]), np.array([[0.5, 0.5]]))
        with pytest.raises(ValidationError):
            kl_consistency(np.array([[0.5, 0.5]]), np.array([[0.9, 0.3]]))

    @pytest.mark.parametrize("side", ["student", "teacher"])
    def test_nan_row_rejected(self, side):
        rows = {"student": np.array([[0.5, 0.5], [0.5, 0.5]]),
                "teacher": np.array([[0.5, 0.5], [0.5, 0.5]])}
        rows[side][1, 0] = np.nan
        with pytest.raises(ValidationError, match=f"{side} rows must be probability vectors"):
            kl_consistency(rows["student"], rows["teacher"])

    def test_inputs_of_another_shape_rejected(self):
        with pytest.raises(ValidationError, match="shapes differ"):
            kl_consistency(np.full((1, 2), 0.5), np.full((3, 2), 0.5))

    def test_empty_rows_accepted(self):
        assert kl_consistency(np.empty((0, 3)), np.empty((0, 3))).item() == 0.0

    def test_gradient_matches_finite_differences(self, rng):
        teacher = np.abs(rng.normal(size=(5, 3))) + 0.1
        teacher /= teacher.sum(axis=1, keepdims=True)
        logits = rng.normal(size=(5, 3))

        def f(l_arr):
            t = Tensor(l_arr, requires_grad=True)
            return t, kl_consistency(softmax(t, axis=1), teacher)

        t, loss = f(logits)
        loss.backward()
        fd = finite_difference(lambda v: f(v)[1].item(), logits)
        assert max_rel_err(t.grad, fd) < 1e-3


class TestLossConfig:
    @pytest.mark.parametrize("bad", [
        dict(kappa=math.nan), dict(kappa=1.5), dict(kappa=-0.1),
        dict(lambda_u=math.nan), dict(lambda_u=-1.0), dict(lambda_u=math.inf),
        dict(lambda_c=math.nan), dict(lambda_c=-0.3), dict(lambda_c=math.inf),
        dict(stage="test")])
    def test_bad_setting_raises_domain_error(self, bad):
        with pytest.raises(DomainError):
            LossConfig(**bad)

    def test_labelling_stage_is_not_a_loss_stage(self):
        """Stage 2 only labels; no training step runs at it."""
        with pytest.raises(DomainError):
            LossConfig(stage="pseudo_label")

    def test_zero_weights_and_kappa_bounds_accepted(self):
        for kw in (dict(kappa=0.0, lambda_u=0.0, lambda_c=0.0), dict(kappa=1.0)):
            LossConfig(**kw)


class TestTotalLoss:
    def test_train_stage_sums_supervised_and_consistency(self):
        cfg = LossConfig(lambda_u=1.0, lambda_c=0.3, stage="train")
        assert total_loss(1.5, 0.25, 7.0, cfg).item() == pytest.approx(1.75)

    def test_distill_stage_weights_contrastive(self):
        cfg = LossConfig(lambda_u=0.0, lambda_c=0.3, stage="distill")
        assert total_loss(0.0, 0.0, 2.0, cfg).item() == pytest.approx(0.6)

    def test_all_zero(self):
        cfg = LossConfig(stage="distill")
        assert total_loss(0.0, 0.0, 0.0, cfg).item() == 0.0

    def test_gate_blocks_contrastive_gradient_outside_distill(self):
        lc_input = Tensor(np.array([2.0]), requires_grad=True)
        lc = (lc_input * 3.0).sum()
        cfg = LossConfig(lambda_u=0.5, lambda_c=0.3, stage="train")
        total = total_loss(Tensor(1.0), Tensor(2.0), lc, cfg)
        total.backward()
        assert lc_input.grad is None

    def test_contrastive_gradient_flows_in_distill(self):
        lc_input = Tensor(np.array([2.0]), requires_grad=True)
        lc = (lc_input * 3.0).sum()
        cfg = LossConfig(lambda_u=0.5, lambda_c=0.3, stage="distill")
        total_loss(Tensor(1.0), Tensor(2.0), lc, cfg).backward()
        np.testing.assert_allclose(lc_input.grad, [0.9])

    def test_none_contrastive_accepted(self):
        cfg = LossConfig(stage="distill")
        assert total_loss(1.0, 1.0, None, cfg).item() == pytest.approx(2.0)
