"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import (conv_tensor, draw_conv, finite_difference, max_rel_err, random_sparse_tensor,
                      recipe)
from dense_reference import (dense_pointwise_reference, dense_separable_reference,
                             dense_spatial_reference, densify)
from lim3d import (ContrastiveConfig, MemoryBank, SceneSpec, ToyPipelineConfig,
                   apply_pointwise, apply_spatial, build_rulebook, ema_update,
                   infonce_loss, kl_consistency, lovasz_softmax, ranges_to_grayscale,
                   run_toy_pipeline, ssim, synth_sequence)
from lim3d.autodiff import Tensor, softmax
from lim3d.cli import main
from lim3d.network import LayerSpec, topology_cost
from lim3d.pseudolabel import positive_center
from lim3d.sampling import frame_redundancies, plan_from_redundancies
from ssim_reference import ssim_reference

BETA_GRID = (2.28, 4.00, 5.72, 7.45)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def gray_sequence(spec, n_frames, seed):
    return ranges_to_grayscale([ri for _, ri in synth_sequence(spec, n_frames, seed)])


def test_01_submanifold_invariance():
    with criterion(1, "submanifold active-set invariance (1000 tensors)"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        for i in range(1000):
            t = random_sparse_tensor(rng, max_dim=8)
            kind = ("standard", "depthwise")[i % 2]
            out_ch = t.channels if kind == "depthwise" else int(rng.integers(1, 9))
            spec, w, _ = draw_conv(rng, kind, t.channels, out_ch, 3)
            out = conv_tensor(t, spec, w)
            assert np.array_equal(out.coords, t.coords)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_02_dense_oracle_equivalence():
    with criterion(2, "dense-oracle equivalence (200 cases, |d| < 1e-5)"):
        rng = np.random.default_rng(202)

        def mask_of(t):
            m = np.zeros(t.grid.shape, dtype=bool)
            m[t.coords[:, 0], t.coords[:, 1], t.coords[:, 2]] = True
            return m

        def rows(dense_out, t):
            return dense_out[t.coords[:, 0], t.coords[:, 1], t.coords[:, 2]]

        worst = 0.0
        for case in range(200):
            t = random_sparse_tensor(rng, max_dim=5, max_active=30)
            m = t.channels
            flavor = case % 4
            if flavor == 0:  # standard
                k, w, b = draw_conv(rng, "standard", m, int(rng.integers(1, 5)), 3,
                                    bias=bool(rng.integers(2)))
                got = conv_tensor(t, k, w, b).features
                ref = rows(dense_spatial_reference(densify(t), mask_of(t), w,
                                                   "standard", bias=b), t)
            elif flavor == 1:  # depthwise
                k, w, _ = draw_conv(rng, "depthwise", m, m, 3)
                got = conv_tensor(t, k, w).features
                ref = rows(dense_spatial_reference(densify(t), mask_of(t), w,
                                                   "depthwise"), t)
            elif flavor == 2:  # pointwise
                k, w, b = draw_conv(rng, "pointwise", m, int(rng.integers(1, 5)), 1, bias=True)
                got = conv_tensor(t, k, w, b).features
                ref = rows(dense_pointwise_reference(densify(t), mask_of(t), w, b), t)
            else:  # separable composition
                dw, dw_w, _ = draw_conv(rng, "depthwise", m, m, 3)
                pw, pw_w, pw_b = draw_conv(rng, "pointwise", m, int(rng.integers(1, 5)), 1,
                                           bias=True)
                got = conv_tensor(conv_tensor(t, dw, dw_w), pw, pw_w, pw_b).features
                ref = rows(dense_separable_reference(densify(t), mask_of(t), dw_w,
                                                     pw_w, pw_bias=pw_b), t)
            worst = max(worst, float(np.abs(got - ref).max()))
        assert worst < 1e-5, f"max |delta| = {worst:.2e}"


def test_03_parameter_count_formulas(tmp_path):
    with criterion(3, "parameter-count formulas and CLI cost totals"):
        _, sep = topology_cost((LayerSpec("separable", 64, 64, 3, bias=False),), 0)
        _, std = topology_cost((LayerSpec("standard", 64, 64, 3, bias=False),), 0)
        sep_params, std_params = sep.trainable_params, std.trainable_params
        assert sep_params == 5824
        assert std_params == 110592
        assert round(std_params / sep_params, 1) == 19.0

        out = tmp_path / "cost.json"
        assert main(["cost", "--mini-backbone", "--in-channels", "34",
                     "--n-classes", "3", "--active-sites", "700",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        params_hand = ma_hand = 0
        prev = 34
        for w in (16, 32, 64, 64):
            params_hand += prev * 27 + prev * w + w
            ma_hand += 700 * 27 * prev + 700 * prev * w
            prev = w
        params_hand += 64 * 3 + 3
        ma_hand += 700 * 64 * 3
        assert payload["trainable_params"] == params_hand
        assert payload["mult_adds"] == ma_hand
        assert sum(r["trainable_params"] for r in payload["per_layer"]) == params_hand


def test_04_gradient_suite():
    with criterion(4, "finite-difference gradient suite (50 instances per op)"):
        rng = np.random.default_rng(404)

        def check(analytic, fd):
            assert max_rel_err(analytic, fd) < 1e-3

        # Spatial and pointwise convolutions (weights + inputs).
        for kind in ("standard", "depthwise", "pointwise", "separable"):
            for _ in range(50):
                ch = int(rng.integers(1, 3))
                t = random_sparse_tensor(rng, channels=ch, max_dim=3, max_active=6)
                rb = build_rulebook(t.coords, t.grid, 3)
                down_ch = ch if kind == "depthwise" else 2
                downstream = rng.normal(size=(t.n_active, down_ch))
                if kind == "separable":
                    dw, dw_w, _ = draw_conv(rng, "depthwise", ch, ch, 3)
                    pw, pw_w, pw_b = draw_conv(rng, "pointwise", ch, 2, 1, bias=True)

                    def run(w_arr):
                        w = Tensor(w_arr, requires_grad=True)
                        mid = apply_spatial(Tensor(t.features), rb, dw, weights=w)
                        out = apply_pointwise(mid, pw, pw_w, pw_b)
                        return w, (out * Tensor(downstream)).sum()

                    w, loss = run(dw_w)
                    loss.backward()
                    check(w.grad, finite_difference(lambda v: run(v)[1].item(), dw_w))
                else:
                    k, k_w, _ = draw_conv(rng, kind, ch, down_ch,
                                          1 if kind == "pointwise" else 3, bias=True)

                    def run(w_arr, x_arr):
                        w = Tensor(w_arr, requires_grad=True)
                        x = Tensor(x_arr, requires_grad=True)
                        if kind == "pointwise":
                            out = apply_pointwise(x, k, weights=w)
                        else:
                            out = apply_spatial(x, rb, k, weights=w)
                        return w, x, (out * Tensor(downstream)).sum()

                    w, x, loss = run(k_w, t.features)
                    loss.backward()
                    check(w.grad, finite_difference(
                        lambda v: run(v, t.features)[2].item(), k_w))
                    check(x.grad, finite_difference(
                        lambda v: run(k_w, v)[2].item(), t.features))

        # Jaccard-extension loss through softmax.
        for _ in range(50):
            n, c = 8, 3
            labels = rng.integers(0, c, size=n)
            logits = rng.normal(size=(n, c)) * 2.0

            def f_lovasz(arr):
                t = Tensor(arr, requires_grad=True)
                return t, lovasz_softmax(softmax(t, axis=1), labels)

            t, loss = f_lovasz(logits)
            loss.backward()
            check(t.grad, finite_difference(lambda v: f_lovasz(v)[1].item(), logits))

        # KL consistency through softmax.
        for _ in range(50):
            teacher = np.abs(rng.normal(size=(6, 3))) + 0.1
            teacher /= teacher.sum(axis=1, keepdims=True)
            logits = rng.normal(size=(6, 3))

            def f_kl(arr):
                t = Tensor(arr, requires_grad=True)
                return t, kl_consistency(softmax(t, axis=1), teacher)

            t, loss = f_kl(logits)
            loss.backward()
            check(t.grad, finite_difference(lambda v: f_kl(v)[1].item(), logits))

        # Contrastive loss over anchors.
        cfg = recipe(ContrastiveConfig, tau=0.5, n_negatives=3)
        for _ in range(50):
            bank = MemoryBank(n_classes=1, capacity=8)
            for _ in range(4):
                bank.push(0, rng.normal(size=4))
            anchors = rng.normal(size=(3, 4))

            def f_nce(arr):
                a = Tensor(arr, requires_grad=True)
                return a, infonce_loss({0: a}, {0: positive_center(a)}, bank, cfg)

            a, loss = f_nce(anchors)
            loss.backward()
            check(a.grad, finite_difference(lambda v: f_nce(v)[1].item(), anchors))


def test_05_sampler_behavior():
    with criterion(5, "redundancy sampler: regimes, beta grid, monotonicity"):
        spec = SceneSpec(n_points=300, segment_length=8, segment_speeds=(0.0, 1.0))
        frames = gray_sequence(spec, 16, seed=5)
        psi = [frame_redundancies(frames)]
        for beta in BETA_GRID:
            chosen = plan_from_redundancies(psi, 8, beta).entries[0]
            static = sum(1 for i in chosen if i < 8)
            moving = sum(1 for i in chosen if i >= 8)
            assert moving >= static, f"beta={beta}: moving {moving} < static {static}"

        full = plan_from_redundancies(psi, 8, 0.0)
        assert full.entries[0] == list(range(16))

        rng = np.random.default_rng(55)
        speed_pool = (0.0, 0.2, 0.5, 1.0)
        for _ in range(20):
            speeds = tuple(float(speed_pool[i]) for i in rng.integers(0, 4, size=3))
            s = SceneSpec(n_points=int(rng.integers(120, 260)),
                          segment_length=int(rng.integers(4, 9)),
                          segment_speeds=speeds)
            seq_psi = [frame_redundancies(gray_sequence(s, 24, seed=int(rng.integers(1e6))))]
            counts = [plan_from_redundancies(seq_psi, 8, b).total() for b in (0.0,) + BETA_GRID]
            assert all(a >= b for a, b in zip(counts, counts[1:])), counts


def test_06_ssim_reference_agreement():
    with criterion(6, "structural similarity: exact self-score, oracle agreement"):
        rng = np.random.default_rng(606)
        for _ in range(10):
            img = rng.integers(0, 256, size=(int(rng.integers(8, 30)),
                                             int(rng.integers(8, 30)))).astype(float)
            assert ssim(img, img) == 1.0
        worst = 0.0
        for _ in range(50):
            h, w = int(rng.integers(8, 28)), int(rng.integers(8, 28))
            a = rng.integers(0, 256, size=(h, w)).astype(float)
            b = np.clip(a + rng.normal(scale=40, size=(h, w)), 0, 255)
            worst = max(worst, abs(ssim(a, b) - ssim_reference(a, b)))
        assert worst < 1e-6, f"max disagreement {worst:.2e}"


def test_07_infonce_closed_forms():
    with criterion(7, "contrastive loss closed forms (tau = 0.5)"):
        cfg = recipe(ContrastiveConfig, tau=0.5, n_negatives=1)
        bank = MemoryBank(n_classes=1, capacity=4)
        bank.push(0, np.array([0.0, 1.0]))
        loss = infonce_loss({0: np.array([[1.0, 0.0]])}, {0: np.array([1.0, 0.0])},
                            bank, cfg)
        expect = -math.log(math.exp(2.0) / (math.exp(2.0) + 1.0))
        assert abs(loss.item() - expect) < 1e-6
        assert abs(expect - 0.126928) < 1e-4

        for n_neg in (1, 3, 7, 15):
            cfg_n = recipe(ContrastiveConfig, tau=0.5, n_negatives=n_neg)
            bank_n = MemoryBank(n_classes=1, capacity=32)
            d = n_neg + 2
            for j in range(n_neg):
                neg = np.zeros(d)
                neg[2 + j] = 1.0
            # anchor and positive orthogonal to each other and to all negatives
                bank_n.push(0, neg)
            anchor = np.zeros(d)
            anchor[0] = 1.0
            pos = np.zeros(d)
            pos[1] = 1.0
            loss = infonce_loss({0: anchor[None]}, {0: pos}, bank_n, cfg_n)
            assert abs(loss.item() - math.log(n_neg + 1)) < 1e-6


def test_08_ema_closed_form():
    with criterion(8, "teacher EMA geometric closed form (kappa = 0.99)"):
        rng = np.random.default_rng(808)
        kappa = 0.99
        teacher0 = rng.normal(size=50)
        student = rng.normal(size=50)
        gap0 = np.abs(teacher0 - student)
        cur = teacher0.copy()
        for t in range(1, 151):
            cur = ema_update(cur, student, kappa)
            assert np.abs(np.abs(cur - student) - kappa ** t * gap0).max() < 1e-9


def test_09_toy_pipeline_end_to_end():
    with criterion(9, "toy training: supervised miou > 0.9; bank delta >= 0"):
        start = time.perf_counter()
        supervised = run_toy_pipeline(ToyPipelineConfig(
            labeled_fraction=1.0, stages=(1,), seed=0))
        assert supervised["metrics"]["miou"] > 0.9, supervised["metrics"]

        paired = dict(labeled_fraction=0.4, stages=(1, 2, 3), seed=7)
        with_bank = run_toy_pipeline(ToyPipelineConfig(**paired))
        without_bank = run_toy_pipeline(ToyPipelineConfig(lambda_c=0.0, **paired))
        delta = with_bank["metrics"]["miou"] - without_bank["metrics"]["miou"]
        assert delta >= 0.0, f"bank delta {delta:+.4f}"
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"took {elapsed:.0f}s"


def test_10_reflectivity_feature_contract(tmp_path):
    with criterion(10, "reflectivity features: +30 channels in [0, 1], exact max"):
        from lim3d import (PointCloud, ReflecConfig, coarse_histograms,
                           normalize_reflectivity, reflectivity)
        rng = np.random.default_rng(10)
        n = 400
        pc = PointCloud(xyz=rng.normal(scale=8.0, size=(n, 3)),
                        intensity=rng.uniform(size=n))
        cfg = ReflecConfig()  # defaults: 10 bins x 3 scales
        feats = coarse_histograms(pc, normalize_reflectivity(reflectivity(pc)), cfg)
        assert feats.shape == (n, 30)
        assert feats.min() >= 0.0 and feats.max() <= 1.0
        for scale in range(3):
            block = feats[:, scale * 10:(scale + 1) * 10]
            assert np.all(block.max(axis=1) == 1.0)

        from lim3d.pointcloud import save_frame
        frame = tmp_path / "frame.bin"
        save_frame(frame, pc)
        out = tmp_path / "frame.feat"
        assert main(["featurize", "--in", str(frame), "--out", str(out)]) == 0
        disk = np.fromfile(out, dtype="<f4").reshape(n, -1)
        assert disk.shape[1] == 30
        assert float(disk.min()) >= 0.0 and float(disk.max()) <= 1.0
