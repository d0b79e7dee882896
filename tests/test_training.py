import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import max_rel_err, recipe, rulebook_of
from lim3d import (ContrastiveConfig, ConvSpec, DivergenceError, DomainError, LayerSpec, LossConfig, MemoryBank,
                   MiniSegNet, SceneSpec, ShapeError, Tensor, ToyPipelineConfig, ValidationError,
                   VoxelPredictions, confusion_matrix, crb_select, ema_update,
                   entropy_partition, evaluate, iou_per_class, kl_consistency, label_frame,
                   label_stage, lovasz_softmax, mean_iou, prepare_frame, prepare_run,
                   run_toy_pipeline, softmax, synth_sequence, train_stage, train_step, voxelize)
from lim3d.network import DEFAULT_WIDTHS, layer_kernels, mini_backbone_topology, topology_cost
from lim3d.pseudolabel import PseudoLabelSet
from lim3d.errors import FormatError
from lim3d.reflectivity import ReflecConfig
from lim3d.training import SGD, TOY_GRID, load_model, save_model
from lim3d.voxel import CylGridSpec


class TestEma:
    def test_single_step_arithmetic(self):
        out = ema_update(np.zeros(3), np.ones(3), kappa=0.99)
        np.testing.assert_allclose(out, 0.01)

    def test_kappa_one_freezes_teacher(self, rng):
        teacher = rng.normal(size=10)
        student = rng.normal(size=10)
        np.testing.assert_array_equal(ema_update(teacher, student, 1.0), teacher)

    def test_geometric_convergence_closed_form(self, rng):
        teacher = rng.normal(size=20)
        student = rng.normal(size=20)
        gap0 = np.abs(teacher - student)
        kappa = 0.99
        cur = teacher.copy()
        for t in range(1, 101):
            cur = ema_update(cur, student, kappa)
            np.testing.assert_allclose(np.abs(cur - student), kappa ** t * gap0, atol=1e-9)

    def test_layout_mismatch(self):
        with pytest.raises(ShapeError):
            ema_update(np.zeros(3), np.zeros(4), 0.5)

    @given(st.floats(0, 1), st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_convex_combination(self, kappa, seed):
        r = np.random.default_rng(seed)
        teacher = r.normal(size=8)
        student = r.normal(size=8)
        out = ema_update(teacher, student, kappa)
        lo = np.minimum(teacher, student) - 1e-12
        hi = np.maximum(teacher, student) + 1e-12
        assert np.all(out >= lo) and np.all(out <= hi)


class TestMetrics:
    def test_miou_matches_bruteforce_oracle(self, rng):
        for _ in range(15):
            n, c = 200, 4
            gt = rng.integers(0, c, size=n)
            pred = rng.integers(0, c, size=n)
            confusion = confusion_matrix(pred, gt, c)
            ious = []
            for k in range(c):
                p_set = set(np.flatnonzero(pred == k))
                g_set = set(np.flatnonzero(gt == k))
                union = p_set | g_set
                if union:
                    ious.append(len(p_set & g_set) / len(union))
            assert mean_iou(confusion) == pytest.approx(float(np.mean(ious)), rel=1e-12)

    def test_absent_class_is_nan(self):
        confusion = confusion_matrix(np.array([0, 0]), np.array([0, 0]), 3)
        per = iou_per_class(confusion)
        assert per[0] == 1.0 and np.isnan(per[1]) and np.isnan(per[2])

    @pytest.mark.parametrize("pred, gt", [([0, 1], [0, -1]), ([0, 3], [0, 1]),
                                          ([-1, 0], [0, 0]), ([0, 0], [0, 3])])
    def test_id_outside_class_range_rejected(self, pred, gt):
        with pytest.raises(ValidationError, match=r"\[0, 3\)"):
            confusion_matrix(np.array(pred), np.array(gt), 3)


class TestNetwork:
    def test_flat_roundtrip(self, rng):
        net = MiniSegNet(4, 3, widths=(8, 8), seed=1)
        vec = net.flat()
        other = MiniSegNet(4, 3, widths=(8, 8), seed=2)
        other.load_flat(vec)
        np.testing.assert_array_equal(other.flat(), vec)

    def test_forward_shapes_and_determinism(self, rng):
        frames = synth_sequence(SceneSpec(n_points=150), 1, seed=0)
        grid = CylGridSpec(8, 12, 5, 20.0, (-1.0, 5.0))
        svt = voxelize(frames[0][0], grid)
        net = MiniSegNet(4, 3, widths=(8, 8), seed=0)
        rb = rulebook_of(svt)
        p1, e1 = net.predict(svt, rb)
        p2, e2 = net.predict(svt, rb)
        assert p1.shape == (svt.n_active, 3)
        assert e1.shape == (svt.n_active, 8)
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_allclose(p1.sum(axis=1), 1.0, atol=1e-9)

    def test_network_gradcheck_small(self, rng):
        """Whole-network finite-difference check on a tiny instance."""
        from conftest import finite_difference, random_sparse_tensor
        from lim3d.autodiff import softmax
        from lim3d.losses import lovasz_softmax

        t = random_sparse_tensor(rng, channels=2, max_dim=3, max_active=6)
        labels = rng.integers(0, 2, size=t.n_active)
        net = MiniSegNet(2, 2, widths=(3,), seed=0)
        rb = rulebook_of(t)

        def loss_at(flat):
            net.load_flat(flat)
            params = net.param_tensors()
            logits, _ = net.forward(t, params=params, rulebook=rb)
            return params, lovasz_softmax(softmax(logits, axis=1), labels)

        flat0 = net.flat()
        params, loss = loss_at(flat0)
        loss.backward()
        analytic = np.concatenate([
            (p.grad if p.grad is not None else np.zeros_like(p.data)).ravel()
            for p in params])
        fd = finite_difference(lambda v: loss_at(v)[1].item(), flat0)
        net.load_flat(flat0)
        assert max_rel_err(analytic, fd) < 1e-3

    def test_teacher_gradients_never_flow(self, rng):
        """Predictions used as consistency targets carry no graph."""
        frames = synth_sequence(SceneSpec(n_points=100), 1, seed=0)
        grid = CylGridSpec(8, 12, 5, 20.0, (-1.0, 5.0))
        svt = voxelize(frames[0][0], grid)
        net = MiniSegNet(4, 3, widths=(8,), seed=0)
        probs, emb = net.predict(svt, rulebook_of(svt))
        assert isinstance(probs, np.ndarray) and isinstance(emb, np.ndarray)

    def test_predict_equals_softmax_of_forward(self):
        """`predict` runs the kernels on arrays, `forward` the nodes over
        them with live weights; both agree bit for bit at either features
        dtype."""
        from lim3d.autodiff import softmax

        frames = synth_sequence(SceneSpec(n_points=150), 1, seed=0)
        grid = CylGridSpec(8, 12, 5, 20.0, (-1.0, 5.0))
        net = MiniSegNet(4, 3, widths=(8, 8), seed=0)
        for dtype in (np.float32, np.float64):
            svt = voxelize(frames[0][0], grid)
            svt = replace(svt, features=svt.features.astype(dtype))
            rb = rulebook_of(svt)
            probs, emb = net.predict(svt, rb)
            logits, embeddings = net.forward(svt, net.param_tensors(), rb)
            np.testing.assert_array_equal(probs, softmax(logits, axis=1).data)
            np.testing.assert_array_equal(emb, embeddings.data)
            assert probs.dtype == np.float64 and emb.dtype == dtype

    def test_predict_builds_no_tensor(self, monkeypatch):
        frames = synth_sequence(SceneSpec(n_points=150), 1, seed=0)
        svt = voxelize(frames[0][0], CylGridSpec(8, 12, 5, 20.0, (-1.0, 5.0)))
        net = MiniSegNet(4, 3, widths=(8, 8), seed=0)
        rb = rulebook_of(svt)
        created = []
        init = Tensor.__init__

        def recording_init(tensor, *args, **kwargs):
            init(tensor, *args, **kwargs)
            created.append(tensor)

        monkeypatch.setattr(Tensor, "__init__", recording_init)
        probs, emb = net.predict(svt, rb)
        assert created == []
        assert isinstance(probs, np.ndarray) and isinstance(emb, np.ndarray)

    @pytest.mark.parametrize("kernel_size", [1, 5])
    @pytest.mark.parametrize("widths", [(), (5,), DEFAULT_WIDTHS])
    def test_params_follow_the_layer_rule(self, widths, kernel_size):
        net = MiniSegNet(4, 3, widths, kernel_size, seed=0)
        assert net.n_params == topology_cost(net.topology, 0)[1].trainable_params
        d = (kernel_size,) * 3
        shapes, prev = [], 4
        for w in widths:  # a bias-free depthwise kernel, then a mix carrying the bias
            shapes += [d + (prev,), (prev, w), (w,)]
            prev = w
        shapes += [(prev, 3), (3,)]
        assert [p.shape for p in net.params] == shapes
        it = iter(net.params)
        for spec in net.topology:
            for k in layer_kernels(spec):
                assert next(it).shape == k.weight_shape
                if k.bias:
                    assert next(it).shape == (k.out_channels,)
        assert next(it, None) is None

    @pytest.mark.parametrize("kernel_size", [1, 5])
    @pytest.mark.parametrize("widths", [(), (5,), DEFAULT_WIDTHS])
    def test_predict_is_softmax_of_forward_bitwise(self, widths, kernel_size):
        frames = synth_sequence(SceneSpec(n_points=150), 1, seed=0)
        svt = voxelize(frames[0][0], CylGridSpec(8, 12, 5, 20.0, (-1.0, 5.0)))
        net = MiniSegNet(4, 3, widths, kernel_size, seed=2)
        rb = rulebook_of(svt, kernel_size)
        for dtype in (np.float32, np.float64):
            t = replace(svt, features=svt.features.astype(dtype))
            probs, emb = net.predict(t, rb)
            logits, embeddings = net.forward(t, net.param_tensors(), rb)
            assert probs.tobytes() == softmax(logits, axis=1).data.tobytes()
            assert emb.dtype == dtype and emb.tobytes() == embeddings.data.tobytes()
        if not widths:  # a network with no blocks embeds its input features
            assert emb.tobytes() == t.features.tobytes()

    def test_layer_kernels(self):
        dw, pw = layer_kernels(LayerSpec("separable", 4, 6, 5, bias=True))
        assert ConvSpec._fields == ("kind", "in_channels", "out_channels", "kernel_size", "bias")
        assert (dw.kind, dw.in_channels, dw.out_channels, dw.kernel_size, dw.bias) == (
            "depthwise", 4, 4, 5, False)
        assert (pw.kind, pw.in_channels, pw.out_channels, pw.kernel_size, pw.bias) == (
            "pointwise", 4, 6, 1, True)
        assert (dw, pw) == (("depthwise", 4, 4, 5, False), ("pointwise", 4, 6, 1, True))
        assert layer_kernels(LayerSpec("standard", 4, 6, 3, bias=False)) == (
            ("standard", 4, 6, 3, False),)
        assert layer_kernels(LayerSpec("pointwise", 4, 6, 3)) == (("pointwise", 4, 6, 1, True),)

    @pytest.mark.parametrize("kind,m,n,d", [("dense", 4, 4, 3), ("separable", 0, 4, 3),
                                            ("pointwise", 4, 0, 1), ("standard", 4, 4, 4),
                                            ("separable", 4, 4, 0), ("standard", -1, 4, 3)])
    def test_layer_no_network_can_build_rejected(self, kind, m, n, d):
        with pytest.raises(DomainError):
            LayerSpec(kind, m, n, d)

    def test_counts_are_integers_and_bias_a_bool(self):
        for args in [("separable", 2.5, 4, 3), ("standard", 4, 4.0, 3), ("standard", 4, 4, 3.0),
                     ("pointwise", True, 4, 1), ("separable", 4, 4, 3, "no"),
                     ("standard", 4, 4, 3, 1), ("pointwise", 4, 4, 1, np.bool_(True))]:
            with pytest.raises(DomainError):
                LayerSpec(*args)
        # numpy integers count as integers
        spec = LayerSpec("separable", np.int64(4), np.int32(6), np.int64(3))
        assert layer_kernels(spec) == (("depthwise", 4, 4, 3, False), ("pointwise", 4, 6, 1, True))
        assert ReflecConfig(np.int64(4), ((np.int64(2), np.int32(4)),)).feature_dim == 4
        for bad in (2.5, True, 0):
            with pytest.raises(DomainError):
                ReflecConfig(n_bins=bad)
            with pytest.raises(DomainError):
                ReflecConfig(bin_grids=((2, bad),))

    def test_topology_cost_mini_backbone(self):
        layers = mini_backbone_topology(34, 3)
        rows, totals = topology_cost(layers, active_sites=100)
        hand = 0
        prev = 34
        for w in (16, 32, 64, 64):
            hand += prev * 27 + prev * w + w
            prev = w
        hand += 64 * 3 + 3
        assert totals.trainable_params == hand
        assert all(r["params_ratio_vs_standard"] > 1 for r in rows[:-1])

    def test_topology_cost_counts_given_neighbor_pairs(self):
        sites, pairs = 100, 1280
        layers = mini_backbone_topology(34, 3) + (LayerSpec("standard", 3, 5, 3, bias=False),)
        rows, totals = topology_cost(layers, active_sites=sites, neighbor_pairs=pairs)
        # Separable: a depthwise pass over every pair, then a channel mix per site.
        hand = []
        prev = 34
        for w in (16, 32, 64, 64):
            hand.append(pairs * prev + sites * prev * w)
            prev = w
        hand += [sites * 64 * 3, pairs * 3 * 5]
        assert [r["mult_adds"] for r in rows] == hand
        assert totals.mult_adds == sum(hand)
        assert rows[-1]["trainable_params"] == rows[-1]["standard_params"] == 3 * 5 * 27

    def test_sgd_momentum_step(self):
        params = [np.zeros(2)]
        opt = SGD(params, lr=0.1, momentum=0.5)
        opt.step([np.ones(2)])
        np.testing.assert_allclose(params[0], -0.1)
        opt.step([np.ones(2)])
        np.testing.assert_allclose(params[0], -0.25)  # velocity compounds

    @pytest.mark.parametrize("lr, momentum", [(float("nan"), 0.9), (float("inf"), 0.9),
                                              (-0.1, 0.9), (0.1, -0.5), (0.1, 1.5),
                                              (0.1, float("nan"))])
    def test_bad_sgd_setting_raises_domain_error(self, lr, momentum):
        with pytest.raises(DomainError):
            SGD([np.zeros(2)], lr=lr, momentum=momentum)
        SGD([np.zeros(2)], lr=0.0, momentum=0.0)  # the edges are allowed
        SGD([np.zeros(2)], lr=0.1, momentum=1.0)


class TestSteps:
    """`label_frame` and `train_step`, the pipeline's two steps."""

    @staticmethod
    def _frame(labeled: bool):
        pc = synth_sequence(SceneSpec(n_points=300), 1, seed=4)[0][0]
        frame = prepare_frame(pc, TOY_GRID, None)
        if labeled:  # ground truth, as `run_toy_pipeline` sets it
            frame.pseudo = PseudoLabelSet(labels=frame.svt.labels)
        return frame

    def test_label_frame_is_entropy_split_then_crb(self):
        frame = self._frame(labeled=False)
        net = MiniSegNet(4, 3, widths=(8, 8), seed=0)
        pls, probs = label_frame(net, frame, 70.0, 0.6)
        want_probs, emb = net.predict(frame.svt, rulebook=frame.rulebook)
        radii = TOY_GRID.voxel_centers(frame.svt.coords)[:, 0]
        vp = VoxelPredictions(probs=want_probs, embeddings=emb, radii=radii)
        want = crb_select(entropy_partition(vp, percentile=70.0), vp, 0.6)
        np.testing.assert_array_equal(probs, want_probs)
        np.testing.assert_array_equal(pls.labels, want.labels)
        n = frame.svt.n_active
        assert len(pls.labels) == n
        assert 0 < (pls.labels >= 0).sum() < n

    def _step(self, frame, loss_cfg, bank=None, lr=0.05):
        student = MiniSegNet(4, 3, widths=(8, 8), seed=0)
        teacher = student.clone()
        opt = SGD(student.params, lr=lr)
        return student, teacher, lambda: train_step(student, teacher, frame, opt, loss_cfg,
                                                    bank, recipe(ContrastiveConfig, n_negatives=1))

    @pytest.mark.parametrize("stage,filled", [("train", False), ("distill", True)])
    def test_bank_is_filled_only_in_distill(self, stage, filled):
        frame = self._frame(labeled=False)
        frame.pseudo, _ = label_frame(MiniSegNet(4, 3, widths=(8, 8), seed=1), frame, 50.0, 1.0)
        bank = MemoryBank(3, capacity=64)
        _, _, step = self._step(frame, LossConfig(stage=stage), bank)
        assert np.isfinite(step())
        assert (sum(bank.size(c) for c in range(3)) > 0) == filled

    def test_distill_at_zero_contrastive_weight_leaves_the_bank_empty(self):
        frame = self._frame(labeled=False)
        frame.pseudo, _ = label_frame(MiniSegNet(4, 3, widths=(8, 8), seed=1), frame, 50.0, 1.0)
        bank = MemoryBank(3, capacity=64)
        _, _, step = self._step(frame, LossConfig(lambda_c=0.0, stage="distill"), bank)
        assert np.isfinite(step())
        assert sum(bank.size(c) for c in range(3)) == 0

    def test_labeled_frame_pushes_nothing_but_gives_anchors(self, rng):
        """A labeled frame's ground truth marks every voxel reliable, so the
        bank is left as it was, and the ground-truth anchors still reach the
        contrastive term."""
        frame = self._frame(labeled=True)
        contrastive = recipe(ContrastiveConfig, delta_p=0.01, n_negatives=1)
        known = rng.normal(size=(3, 8))
        bank = MemoryBank(3, capacity=64)
        for c in range(3):
            bank.push(c, known[c])
        losses = []
        for loss_cfg in (LossConfig(stage="distill"), LossConfig(lambda_c=0.0, stage="distill")):
            student = MiniSegNet(4, 3, widths=(8, 8), seed=0)
            losses.append(train_step(student, student.clone(), frame, SGD(student.params, lr=0.05),
                                     loss_cfg, bank, contrastive))
        for c in range(3):
            assert bank.size(c) == 1
            np.testing.assert_array_equal(bank.newest(c, 1), known[c:c + 1])
        assert losses[0] != losses[1]

    def test_contrastive_weight_without_a_bank_raises_before_the_step(self):
        student, teacher, step = self._step(self._frame(labeled=True), LossConfig(stage="distill"))
        before = student.flat(), teacher.flat()
        with pytest.raises(DomainError, match="memory bank"):
            step()
        np.testing.assert_array_equal(student.flat(), before[0])
        np.testing.assert_array_equal(teacher.flat(), before[1])

    def test_frame_without_labels_trains_on_the_kl_term_alone(self):
        """With `pseudo` None there is no supervised or contrastive term:
        the KL term still moves the weights, and the bank is left alone."""
        bank = MemoryBank(3, capacity=64)
        student, _, step = self._step(self._frame(labeled=False), LossConfig(stage="distill"), bank)
        before = student.flat()
        assert np.isfinite(step())
        assert not np.array_equal(student.flat(), before)
        assert sum(bank.size(c) for c in range(3)) == 0

    @pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0])
    def test_ema_reads_the_loss_config_kappa(self, kappa):
        student, teacher, step = self._step(self._frame(labeled=True), LossConfig(kappa=kappa))
        before = teacher.flat()
        step()
        np.testing.assert_array_equal(teacher.flat(),
                                      ema_update(before, student.flat(), kappa))
        assert not np.array_equal(student.flat(), before)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_step_changes_no_weight(self):
        student, teacher, step = self._step(self._frame(labeled=True), LossConfig(), lr=1e6)
        for _ in range(20):
            before = student.flat(), teacher.flat()
            try:
                step()
            except DivergenceError as exc:
                assert str(exc).startswith("train:")
                break
        else:
            pytest.fail("lr 1e6 never diverged")
        np.testing.assert_array_equal(student.flat(), before[0])
        np.testing.assert_array_equal(teacher.flat(), before[1])


class TestToyPipeline:
    @pytest.mark.parametrize("bad", [dict(steps_stage1=-1), dict(steps_stage3=-3),
                                     dict(steps_stage1=2.5), dict(steps_stage3=True),
                                     dict(frames_per_sequence=1.5), dict(frames_per_sequence=0)])
    def test_bad_count_fails_at_construction(self, bad):
        with pytest.raises(DomainError):
            ToyPipelineConfig(**bad)

    @pytest.mark.parametrize("bad", [dict(lambda_c=-1.0)])
    def test_bad_rate_or_loss_weight_fails_at_construction(self, bad):
        with pytest.raises(DomainError):
            ToyPipelineConfig(**bad)

    def test_the_fields_are_the_settings_callers_vary(self):
        assert [f.name for f in fields(ToyPipelineConfig)] == [
            "frames_per_sequence", "labeled_fraction", "steps_stage1", "steps_stage3",
            "lambda_c", "stages", "seed"]
        with pytest.raises(TypeError):
            ToyPipelineConfig(lr=0.1)
        # The rest of the recipe, read off an instance as before.
        cfg = ToyPipelineConfig()
        assert (cfg.scene, cfg.n_sequences, cfg.heldout_fraction, cfg.subset_size, cfg.grid) == (
            SceneSpec(), 1, 0.25, 8, TOY_GRID)
        assert (cfg.reflec, cfg.widths, cfg.kernel_size) == (
            ReflecConfig(n_bins=10, bin_grids=((4, 8), (8, 16), (16, 24))), (16, 32, 64, 64), 3)
        assert (cfg.lr, cfg.momentum, cfg.kappa, cfg.lambda_u) == (0.05, 0.9, 0.99, 1.0)
        assert (cfg.percentile, cfg.per_class_keep) == (80.0, 0.9)
        assert cfg.contrastive == ContrastiveConfig(max_anchors=64)
        assert (cfg.contrastive.delta_p, cfg.contrastive.tau, cfg.contrastive.n_negatives,
                cfg.contrastive.capacity) == (0.7, 0.5, 8, 256)

    def test_stage_losses_share_the_config_weights(self):
        cfg = ToyPipelineConfig(lambda_c=0.1)
        assert cfg.loss_config("distill") == LossConfig(cfg.kappa, cfg.lambda_u, 0.1, "distill")
        assert ToyPipelineConfig(steps_stage1=np.int64(0)).steps_stage1 == 0

    def test_zero_steps_equals_random_baseline(self):
        cfg = ToyPipelineConfig(stages=(1,), steps_stage1=0, seed=5,
                                frames_per_sequence=8)
        report = run_toy_pipeline(cfg)
        base = MiniSegNet(34, 3, seed=5)  # the untrained student of seed 5
        confusion = evaluate(base, prepare_run(cfg).heldout)
        assert report["metrics"]["confusion"] == confusion.tolist()
        assert report["metrics"]["miou"] == round(mean_iou(confusion), 6)
        assert report["stages"]["train"]["final_loss"] is None

    def test_small_labeled_fraction_labels_a_frame_per_subset(self):
        """At fraction 0.05 the calibrated beta is large enough for exp(-beta)
        to underflow; each of the 3 training subsets (8, 8 and 2 frames)
        still gets one labeled frame."""
        report = run_toy_pipeline(ToyPipelineConfig(labeled_fraction=0.05, stages=(1,),
                                                    steps_stage1=0))
        assert [i // 8 for i in report["plan"]["0"]] == [0, 1, 2]
        assert report["n_labeled_frames"] == 3

    def test_deterministic_given_seed(self):
        kw = dict(labeled_fraction=0.5, stages=(1, 2, 3), steps_stage1=12,
                  steps_stage3=8, frames_per_sequence=12, seed=3)
        a = run_toy_pipeline(ToyPipelineConfig(**kw))
        b = run_toy_pipeline(ToyPipelineConfig(**kw))
        assert a == b

    def test_report_structure(self):
        cfg = ToyPipelineConfig(labeled_fraction=0.5, stages=(1, 2, 3),
                                steps_stage1=10, steps_stage3=6,
                                frames_per_sequence=12, seed=1)
        report = run_toy_pipeline(cfg)
        assert {"train", "pseudo_label", "distill"} <= set(report["stages"])
        assert len(report["metrics"]["per_class_iou"]) == 3
        assert report["cost"]["trainable_params"] > 0
        import json
        json.dumps(report)  # must be serializable

    def test_cost_counts_multiply_adds_from_the_rulebooks(self):
        cfg = ToyPipelineConfig(stages=(), frames_per_sequence=8)
        report = run_toy_pipeline(cfg)
        train = prepare_run(cfg).frames
        n = report["n_labeled_frames"] + report["n_unlabeled_frames"]
        topo = mini_backbone_topology(train[0].svt.channels, 3)
        counted = [topology_cost(topo, f.svt.n_active, f.rulebook.n_pairs)[1].mult_adds
                   for f in train]
        bound = [topology_cost(topo, f.svt.n_active)[1].mult_adds for f in train]
        cost = report["cost"]
        assert cost["frames"] == n
        assert cost["mult_adds"] == round(np.mean(counted))
        assert cost["mult_adds_bound"] == round(np.mean(bound))
        assert cost["mult_adds"] < cost["mult_adds_bound"]
        assert sum(r["trainable_params"] for r in cost["per_layer"]) == cost["trainable_params"]

    def test_one_optimizer_step_per_training_step(self, monkeypatch):
        """The benchmark times the toy pipeline's steps between `SGD.step`
        calls, so there is exactly one per training step."""
        calls = []
        step = SGD.step
        monkeypatch.setattr(SGD, "step", lambda opt, grads: calls.append(1) or step(opt, grads))
        cfg = ToyPipelineConfig(labeled_fraction=0.5, stages=(1, 2, 3), steps_stage1=5,
                                steps_stage3=4, frames_per_sequence=12, seed=1)
        run_toy_pipeline(cfg)
        assert len(calls) == cfg.steps_stage1 + cfg.steps_stage3

    def test_stages_composed_by_hand_match_the_pipeline(self):
        cfg = ToyPipelineConfig(labeled_fraction=0.5, steps_stage1=12, steps_stage3=8,
                                frames_per_sequence=12, seed=3)
        report = run_toy_pipeline(cfg)
        run = prepare_run(cfg)
        labeled = [i for i, f in enumerate(run.frames) if f.pseudo is not None]
        unlabeled = [i for i, f in enumerate(run.frames) if f.pseudo is None]
        stages = {"train": train_stage(run, "train")}
        # Stage 1's contrastive weight is 0, so the distill stage gets an empty bank.
        assert sum(run.bank.size(c) for c in range(cfg.scene.n_classes)) == 0
        stages["pseudo_label"] = label_stage(run, run.teacher, unlabeled)
        # Stage 2 labelled every other frame, so stage 3 trains on all of them.
        assert all(f.pseudo is not None for f in run.frames)
        stages["distill"] = train_stage(run, "distill")
        assert stages == report["stages"]
        confusion = evaluate(run.student, run.heldout)
        assert report["metrics"]["confusion"] == confusion.tolist()
        assert report["metrics"]["miou"] == round(mean_iou(confusion), 6)
        assert (report["beta"], report["n_labeled_frames"]) == (run.beta, len(labeled))
        assert report["plan"] == {str(k): v for k, v in run.plan.entries.items()}

    def test_label_with_the_stage1_student_by_composition(self):
        """The variant that labels with the student rather than the teacher
        is the same stages with another labeller."""
        cfg = ToyPipelineConfig(labeled_fraction=0.4, steps_stage1=40, seed=3)
        run = prepare_run(cfg)
        unlabeled = [i for i, f in enumerate(run.frames) if f.pseudo is None]
        train_stage(run, "train")
        entry = label_stage(run, run.student, unlabeled)
        differ = 0
        for i in unlabeled:
            frame = run.frames[i]
            want, _ = label_frame(run.student, frame, cfg.percentile, cfg.per_class_keep)
            np.testing.assert_array_equal(frame.pseudo.labels, want.labels)
            by_teacher, _ = label_frame(run.teacher, frame, cfg.percentile, cfg.per_class_keep)
            differ += int((by_teacher.labels != want.labels).sum())
        assert differ > 0
        voxels = sum(run.frames[i].svt.n_active for i in unlabeled)
        assert entry["frames"] == len(unlabeled)
        assert entry["reliable_voxels"] + entry["unreliable_voxels"] == voxels

    def test_train_stage_needs_a_frame_to_take_a_step(self):
        """A stage trains only on frames with labels: with every `pseudo`
        cleared it raises before any step, unless it takes none."""
        run = prepare_run(ToyPipelineConfig(labeled_fraction=0.4, frames_per_sequence=8))
        for f in run.frames:
            f.pseudo = None
        before = run.student.flat(), run.teacher.flat()
        for stage in ("train", "distill"):
            with pytest.raises(DomainError, match="at least one frame"):
                train_stage(run, stage)
        np.testing.assert_array_equal(run.student.flat(), before[0])
        np.testing.assert_array_equal(run.teacher.flat(), before[1])
        run.cfg = replace(run.cfg, steps_stage1=0)
        assert train_stage(run, "train") == {"steps": 0, "losses": [], "final_loss": None}

    @pytest.mark.parametrize("unlabeled", [list(range(8)), [6, 7]])
    def test_clouds_without_labels_are_refused(self, unlabeled):
        """Every training frame may be picked for its ground truth and every
        held-out frame is scored: a fully unlabeled sequence, or one whose
        held-out tail is unlabeled, is refused before any work."""
        cfg = ToyPipelineConfig(frames_per_sequence=8)
        seq = [(replace(pc, labels=None) if i in unlabeled else pc, ri)
               for i, (pc, ri) in enumerate(synth_sequence(cfg.scene, 8, seed=3))]
        want = re.escape(f"sequence 1: frames at positions {unlabeled}")
        with pytest.raises(ValidationError, match=want):
            prepare_run(cfg, [synth_sequence(cfg.scene, 8, seed=4), seq])

    def test_evaluate_refuses_a_frame_without_labels(self):
        pc, _ = synth_sequence(SceneSpec(n_points=200), 1, seed=0)[0]
        labeled = prepare_frame(pc, TOY_GRID, None)
        unlabeled = prepare_frame(replace(pc, labels=None), TOY_GRID, None)
        net = MiniSegNet(labeled.svt.channels, 3, seed=0)
        assert evaluate(net, [labeled]).sum() == labeled.svt.n_active
        with pytest.raises(ValidationError, match="frame 1 has no voxel labels"):
            evaluate(net, [labeled, unlabeled])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_guard(self):
        run = prepare_run(ToyPipelineConfig(frames_per_sequence=8))
        labeled = [f for f in run.frames if f.pseudo is not None]
        opt = SGD(run.student.params, lr=1e6)
        with pytest.raises(DivergenceError):
            for i in range(40):
                train_step(run.student, run.teacher, labeled[i % len(labeled)], opt,
                           run.cfg.loss_config(), None, run.cfg.contrastive)


class TestModelFile:
    GRID = CylGridSpec(n_rho=7, n_phi=9, n_z=3, rho_max=12.5, z_range=(-2.0, 4.0))

    @pytest.mark.parametrize("reflec", [None, ReflecConfig(n_bins=4, bin_grids=((2, 4), (8, 16)))])
    def test_save_load_roundtrip(self, tmp_path, reflec):
        in_channels = 4 + (reflec.feature_dim if reflec is not None else 0)
        net = MiniSegNet(in_channels, 5, widths=(6, 8), kernel_size=5, seed=4)
        save_model(tmp_path / "m.npz", net, self.GRID, reflec)
        back, grid, back_reflec = load_model(tmp_path / "m.npz")
        np.testing.assert_array_equal(back.flat(), net.flat())
        assert back.topology == net.topology
        assert (back.in_channels, back.n_classes, back.widths, back.kernel_size) == \
            (in_channels, 5, (6, 8), 5)
        assert grid == self.GRID
        assert back_reflec == reflec

    def test_toy_pipeline_writes_its_grid_and_features(self, tmp_path):
        cfg = ToyPipelineConfig(stages=(1,), steps_stage1=2, frames_per_sequence=8, seed=2)
        report = run_toy_pipeline(cfg, model_path=str(tmp_path / "m.npz"))
        net, grid, reflec = load_model(tmp_path / "m.npz")
        assert grid == cfg.grid == TOY_GRID
        assert reflec == cfg.reflec
        assert net.n_params == report["cost"]["trainable_params"]

    def test_weights_not_fitting_the_topology_rejected(self, tmp_path):
        net = MiniSegNet(4, 3, widths=(4,), seed=0)
        save_model(tmp_path / "m.npz", net, self.GRID, None)
        with np.load(tmp_path / "m.npz") as npz:
            saved = dict(npz)
        saved["widths"] = np.array([10 ** 6], dtype=np.int64)
        np.savez(tmp_path / "wide.npz", **saved)
        with pytest.raises(FormatError, match="topology"):
            load_model(tmp_path / "wide.npz")

    @pytest.mark.parametrize("key, value", [("reflec_bins", 5), ("reflec_bins", 0),
                                            ("in_channels", 5)])
    def test_input_channels_not_fitting_the_features_rejected(self, tmp_path, key, value):
        """A model's input width is the 4 point features plus its histograms."""
        reflec = ReflecConfig(n_bins=10, bin_grids=((4, 8), (8, 16), (16, 24)))
        save_model(tmp_path / "m.npz", MiniSegNet(34, 3, widths=(4,), seed=0), self.GRID, reflec)
        with np.load(tmp_path / "m.npz") as npz:
            saved = dict(npz)
        saved[key] = np.array(value)
        np.savez(tmp_path / "bad.npz", **saved)
        with pytest.raises(FormatError, match=r"bad\.npz.*in_channels"):
            load_model(tmp_path / "bad.npz")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, tmp_path, bad):
        save_model(tmp_path / "m.npz", MiniSegNet(4, 3, widths=(4,), seed=0), self.GRID, None)
        with np.load(tmp_path / "m.npz") as npz:
            saved = dict(npz)
        saved["flat"][7] = bad
        np.savez(tmp_path / "bad.npz", **saved)
        with pytest.raises(FormatError, match=r"bad\.npz.*non-finite weight"):
            load_model(tmp_path / "bad.npz")



def _toy_frame():
    hp = ToyPipelineConfig()
    pc = synth_sequence(hp.scene, 1, seed=3)[0][0]
    return prepare_frame(pc, TOY_GRID, hp.reflec), hp.scene.n_classes


class TestDtypePolicy:
    """The features' dtype carries from the voxels to the logits; the
    parameters, their gradients and the loss heads stay float64."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_computes_in_the_features_dtype(self, dtype, monkeypatch):
        frame, n_classes = _toy_frame()
        assert frame.svt.features.dtype == np.float32
        svt = replace(frame.svt, features=frame.svt.features.astype(dtype))
        net = MiniSegNet(svt.channels, n_classes, seed=0)
        created = []
        init = Tensor.__init__

        def recording_init(tensor, *args, **kwargs):
            init(tensor, *args, **kwargs)
            created.append(tensor)

        params = net.param_tensors()
        monkeypatch.setattr(Tensor, "__init__", recording_init)
        logits, emb = net.forward(svt, params=params, rulebook=frame.rulebook)
        monkeypatch.setattr(Tensor, "__init__", init)
        assert logits.data.dtype == dtype and emb.data.dtype == dtype
        # The input, then one node per convolution: spatial, and pointwise with
        # the leaky ReLU inside, per block, and the head. The weights are cast
        # inside the nodes.
        assert len(created) == 1 + 2 * 4 + 1
        assert {t.data.dtype for t in created} == {np.dtype(dtype)}
        # Backward frees each node's gradient, so record the dtype reaching each node.
        arriving = []

        def recording(backward):
            def wrapped(g):
                arriving.append(g.dtype)
                return backward(g)
            return wrapped

        for t in created[1:]:
            t._backward = recording(t._backward)
        lovasz_softmax(softmax(logits, axis=1), svt.labels).backward()
        assert all(p.grad.dtype == np.float64 for p in params)
        assert arriving == [np.dtype(dtype)] * (len(created) - 1)
        assert all(p.dtype == np.float64 for p in net.params)

    def test_float32_agrees_with_float64(self):
        frame, n_classes = _toy_frame()
        net = MiniSegNet(frame.svt.channels, n_classes, seed=0)
        teacher = MiniSegNet(frame.svt.channels, n_classes, seed=1)

        def run(svt):
            teacher_probs, _ = teacher.predict(svt, rulebook=frame.rulebook)
            params = net.param_tensors()
            logits, emb = net.forward(svt, params=params, rulebook=frame.rulebook)
            probs = softmax(logits, axis=1)
            (lovasz_softmax(probs, svt.labels) + kl_consistency(probs, teacher_probs)).backward()
            return emb.data, [p.grad for p in params]

        emb32, grads32 = run(frame.svt)
        emb64, grads64 = run(replace(frame.svt, features=frame.svt.features.astype(np.float64)))

        def rel(a, b):
            return float(np.abs(a - b).max() / np.abs(b).max())

        assert emb32.dtype == np.float32
        assert rel(emb32, emb64) < 1e-5
        for a, b in zip(grads32, grads64):
            assert a.dtype == b.dtype == np.float64
            assert rel(a, b) < 1e-5
