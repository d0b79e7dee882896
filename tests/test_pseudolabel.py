import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import finite_difference, max_rel_err, recipe
from lim3d import (ContrastiveConfig, DegenerateEmbeddingError, DomainError, MemoryBank,
                   ShapeError, ValidationError, VoxelPredictions, bank_push_negatives, build_anchor_set,
                   crb_select, entropy_partition, infonce_loss,
                   positive_center, shannon_entropy)
from lim3d.autodiff import Tensor
from lim3d.pseudolabel import PseudoLabelSet
from pseudolabel_reference import crb_select_reference, entropy_partition_reference


def make_predictions(rng, n=20, c=4, d=6, radii=None, peaked=None):
    logits = rng.normal(scale=1.0, size=(n, c))
    if peaked is not None:
        logits[peaked] *= 8.0
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    emb = rng.normal(size=(n, d))
    return VoxelPredictions(probs=probs, embeddings=emb, radii=radii)


class TestEntropyPartition:
    def test_one_hot_always_reliable(self, rng):
        probs = np.zeros((4, 3))
        probs[:, 1] = 1.0
        probs[0] = [0.2, 0.5, 0.3]  # one soft row to set a positive threshold
        vp = VoxelPredictions(probs=probs, embeddings=np.zeros((4, 2)))
        pls = entropy_partition(vp, percentile=50.0)
        assert pls.labels[1:].tolist() == [1, 1, 1]

    def test_uniform_prediction_entropy_value(self):
        probs = np.full((1, 19), 1.0 / 19)
        assert shannon_entropy(probs)[0] == pytest.approx(math.log(19), rel=1e-12)

    def test_uniform_lands_unreliable_among_peaked(self, rng):
        probs = np.zeros((5, 19))
        probs[:4, 0] = 1.0
        probs[4] = 1.0 / 19
        vp = VoxelPredictions(probs=probs, embeddings=np.zeros((5, 2)))
        for pct in (20.0, 50.0, 79.0, 99.0):
            assert entropy_partition(vp, percentile=pct).labels[4] == -1

    def test_two_voxels_median_split(self):
        probs = np.array([[0.99, 0.01], [0.6, 0.4]])
        vp = VoxelPredictions(probs=probs, embeddings=np.zeros((2, 2)))
        pls = entropy_partition(vp, percentile=50.0)
        assert pls.labels.tolist() == [0, -1]

    def test_partition_covers_everything(self, rng):
        vp = make_predictions(rng, n=50)
        pls = entropy_partition(vp, percentile=80.0)
        assert pls.covers(50)
        assert not (set(pls.reliable) & pls.unreliable)

    def test_entropy_ordering(self, rng):
        vp = make_predictions(rng, n=60)
        pls = entropy_partition(vp, percentile=70.0)
        reliable, h = pls.labels >= 0, shannon_entropy(vp.probs)
        if reliable.any() and not reliable.all():
            assert h[reliable].max() <= h[~reliable].min()

    def test_views_match_labels(self, rng):
        pls = entropy_partition(make_predictions(rng, n=30), percentile=60.0)
        assert not pls.labels.flags.writeable
        assert pls.reliable == {i: int(c) for i, c in enumerate(pls.labels) if c >= 0}
        assert pls.unreliable == {i for i, c in enumerate(pls.labels) if c < 0}
        assert pls.covers(30) and not pls.covers(31)
        with pytest.raises(TypeError):
            pls.reliable[0] = 1

    def test_percentile_domain(self, rng):
        vp = make_predictions(rng, n=5)
        from lim3d import DomainError
        for bad in (100.0, -5.0):
            with pytest.raises(DomainError):
                entropy_partition(vp, percentile=bad)
        assert (entropy_partition(vp, percentile=0.0).labels >= 0).all()

    def test_percentile_zero_labels_every_voxel_with_its_argmax(self, rng):
        vp = make_predictions(rng, n=30, peaked=slice(0, 10))
        np.testing.assert_array_equal(entropy_partition(vp, percentile=0.0).labels,
                                      vp.probs.argmax(axis=1))

    @pytest.mark.parametrize("percentile", [0.0, 80.0])
    def test_empty_predictions_give_empty_labels(self, percentile):
        vp = VoxelPredictions(probs=np.empty((0, 0)), embeddings=np.empty((0, 2)))
        pls = entropy_partition(vp, percentile=percentile)
        assert pls.labels.shape == (0,) and pls.labels.dtype == np.int64
        assert crb_select(pls, vp, 0.5).labels.shape == (0,)


class TestCrbSelect:
    def test_keep_one_is_identity(self, rng):
        vp = make_predictions(rng, n=30, radii=rng.uniform(1, 10, 30))
        pls = entropy_partition(vp, percentile=80.0)
        np.testing.assert_array_equal(crb_select(pls, vp, 1.0).labels, pls.labels)

    def test_top_third_by_confidence(self):
        probs = np.array([[0.9, 0.1], [0.8, 0.2], [0.7, 0.3]])
        vp = VoxelPredictions(probs=probs, embeddings=np.zeros((3, 2)))
        pls = PseudoLabelSet(labels=[0, 0, 0])
        out = crb_select(pls, vp, 1.0 / 3.0)
        assert out.labels.tolist() == [0, -1, -1]

    def test_absent_class_untouched(self, rng):
        vp = make_predictions(rng, n=10)
        pls = PseudoLabelSet(labels=[1] * 10)
        out = crb_select(pls, vp, 0.5)
        # class 0 absent: nothing about it changes; class 1 got halved
        assert (out.labels >= 0).sum() == 5

    def test_range_bands_balance_independently(self):
        # two bands; each keeps its own top fraction
        probs = np.tile([[0.9, 0.1]], (4, 1))
        probs[1] = [0.8, 0.2]
        probs[3] = [0.7, 0.3]
        radii = np.array([1.0, 1.0, 9.0, 9.0])
        vp = VoxelPredictions(probs=probs, embeddings=np.zeros((4, 2)), radii=radii)
        pls = PseudoLabelSet(labels=[0] * 4)
        out = crb_select(pls, vp, 0.5)
        assert out.labels.tolist() == [0, -1, 0, -1]

    @pytest.mark.parametrize("keep", [0.5, 1.0])
    @pytest.mark.parametrize("n_labels", [5, 12])
    def test_labels_not_matching_the_voxels_rejected(self, rng, n_labels, keep):
        vp = make_predictions(rng, n=10)
        with pytest.raises(ShapeError, match=f"{n_labels} pseudo-labels for 10 voxels"):
            crb_select(PseudoLabelSet(labels=[1] * n_labels), vp, keep)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 60), c=st.integers(2, 5),
       percentile=st.one_of(st.just(0.0), st.floats(0.0, 100.0, exclude_min=True,
                                                    exclude_max=True)),
       keep=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
       quantized=st.booleans(), radii_kind=st.sampled_from(["none", "repeated", "equal"]))
def test_partition_matches_per_voxel_oracle(seed, n, c, percentile, keep, quantized,
                                            radii_kind):
    """Entropy split then CRB filter equal the dict-and-set versions, with
    ties in entropy, in class probability and in radius across bands."""
    rng = np.random.default_rng(seed)
    if quantized:  # eighths: equal class probabilities across unequal rows
        probs = rng.multinomial(8, np.full(c, 1.0 / c), size=n) / 8.0
    else:
        logits = rng.integers(0, 3, size=(n, c)).astype(np.float64)  # repeated rows: ties
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    radii = {"none": None, "repeated": rng.choice([1.0, 2.5, 2.5, 7.0, 9.0], size=n),
             "equal": np.full(n, 4.0)}[radii_kind]  # "equal": a zero radius span
    vp = VoxelPredictions(probs=probs, embeddings=np.zeros((n, 2)), radii=radii)
    if percentile == 0.0:  # `label_frame`'s rule: every voxel starts reliable
        pls = PseudoLabelSet(labels=probs.argmax(axis=1))
        want = ({i: int(k) for i, k in enumerate(probs.argmax(axis=1))}, set())
    else:
        pls = entropy_partition(vp, percentile)
        want = entropy_partition_reference(probs, percentile)
    want_reliable, want_unreliable = crb_select_reference(*want, probs, radii, keep)
    labels = crb_select(pls, vp, keep).labels
    assert {i: int(k) for i, k in enumerate(labels) if k >= 0} == want_reliable
    assert set(np.flatnonzero(labels < 0).tolist()) == want_unreliable


class TestAnchors:
    def test_predicate_inclusion(self):
        """Anchors are the confident voxels of the class; embeddings keep
        float32 or float64 and become float64 from any other dtype."""
        probs = np.array([[0.9, 0.1], [0.4, 0.6]])
        pls = PseudoLabelSet(labels=[0, 0])
        cfg = ContrastiveConfig()  # delta_p 0.7 lies between the two voxels' 0.9 and 0.4
        for given, kept in ((np.float32, np.float32), (np.float64, np.float64),
                            (np.int64, np.float64)):
            vp = VoxelPredictions(probs=probs, embeddings=np.array([[1, 0], [0, 1]], dtype=given))
            assert vp.embeddings.dtype == kept
            ids, vecs = build_anchor_set(vp, pls, cfg, 0)
            assert ids.tolist() == [0]
            assert vecs.dtype == kept
            np.testing.assert_array_equal(vecs, [[1.0, 0.0]])

    def test_matches_bruteforce_filter(self, rng):
        vp = make_predictions(rng, n=60, c=3)
        pls = entropy_partition(vp, percentile=60.0)
        cfg = recipe(ContrastiveConfig, delta_p=0.3, max_anchors=128)
        for c in range(3):
            ids, _ = build_anchor_set(vp, pls, cfg, c)
            brute = [i for i in range(60)
                     if pls.labels[i] == c and vp.probs[i, c] > cfg.delta_p]
            assert ids.tolist() == brute

    def test_labels_not_matching_the_voxels_rejected(self, rng):
        vp = make_predictions(rng, n=5)
        for labels in ([0] * 4, [-1] * 6):
            pls = PseudoLabelSet(labels=labels)
            with pytest.raises(ShapeError):
                build_anchor_set(vp, pls, ContrastiveConfig(), 0)
            with pytest.raises(ShapeError):
                bank_push_negatives(MemoryBank(n_classes=4), vp, pls, 0)

    def test_anchor_cap(self, rng):
        probs = np.tile([[0.95, 0.05]], (300, 1))
        vp = VoxelPredictions(probs=probs, embeddings=rng.normal(size=(300, 4)))
        pls = PseudoLabelSet(labels=[0] * 300)
        cfg = ContrastiveConfig(max_anchors=128)
        ids, _ = build_anchor_set(vp, pls, cfg, 0)
        assert len(ids) == 128


class TestPositiveCenter:
    def test_mean_of_two(self):
        center = positive_center(np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(center.data, [0.5, 0.5])

    def test_singleton(self):
        np.testing.assert_allclose(positive_center(np.array([[2.0, 3.0]])).data, [2.0, 3.0])

    def test_empty_signals_skip(self):
        assert positive_center(np.empty((0, 4))) is None

    def test_matches_accumulation_oracle(self, rng):
        vecs = rng.normal(size=(100, 8))
        acc = np.zeros(8)
        for v in vecs:
            acc += v
        np.testing.assert_allclose(positive_center(vecs).data, acc / 100, atol=1e-6)


class TestConfigs:
    @pytest.mark.parametrize("bad", [dict(max_anchors=True), dict(max_anchors=0),
                                     dict(max_anchors=64.0)])
    def test_bad_contrastive_setting_raises_domain_error(self, bad):
        with pytest.raises(DomainError):
            ContrastiveConfig(**bad)

    @pytest.mark.parametrize("n_classes, capacity", [(3, 4.5), (2.5, 4), (0, 4), (3, 0),
                                                     (True, 4), (3, -1), ("3", 4)])
    def test_bad_bank_size_raises_domain_error(self, n_classes, capacity):
        with pytest.raises(DomainError):
            MemoryBank(n_classes, capacity)

    def test_the_fields_are_the_settings_callers_vary(self):
        assert [f.name for f in fields(ContrastiveConfig)] == ["max_anchors"]
        with pytest.raises(TypeError):
            ContrastiveConfig(tau=0.5)
        cfg = ContrastiveConfig()
        assert (cfg.max_anchors, cfg.delta_p, cfg.tau, cfg.n_negatives, cfg.capacity) == (
            128, 0.7, 0.5, 8, 256)
        assert MemoryBank(3).capacity == cfg.capacity

    def test_numpy_counts_accepted(self):
        assert ContrastiveConfig(max_anchors=np.int64(4)).max_anchors == 4
        bank = MemoryBank(np.int64(2), np.int32(16))
        assert (bank.n_classes, bank.capacity) == (2, 16)

    @pytest.mark.parametrize("probs, emb, radii, error, match", [
        (np.full(2, 0.5), np.zeros((2, 2)), None, ShapeError, "probs must be"),
        (np.full((2, 2), 0.5), np.zeros((3, 2)), None, ShapeError, "embeddings must align"),
        (np.full((2, 2), 0.5), np.zeros(2), None, ShapeError, "embeddings must align"),
        (np.full((2, 2), 0.5), [[0.0, np.nan], [0.0, 0.0]], None, ValidationError,
         "embeddings must be finite"),
        (np.full((2, 2), 0.5), np.zeros((2, 2)), [1.0, 2.0, 3.0], ShapeError, "radii must align"),
    ], ids=["1-D-probs", "misaligned-embeddings", "1-D-embeddings", "nan-embedding",
            "misaligned-radii"])
    def test_malformed_predictions_rejected(self, probs, emb, radii, error, match):
        with pytest.raises(error, match=match):
            VoxelPredictions(probs=probs, embeddings=np.array(emb), radii=radii)

    @pytest.mark.parametrize("radii", [[1.0, np.nan], [np.inf, 2.0]])
    def test_non_finite_radii_rejected(self, radii):
        with pytest.raises(ValidationError, match="radii must be finite"):
            VoxelPredictions(probs=np.full((2, 2), 0.5), embeddings=np.zeros((2, 2)),
                             radii=np.array(radii))

    @pytest.mark.parametrize("probs", [[[np.nan, 0.5]], [[0.5, 0.6]], [[1.2, -0.2]],
                                       np.ones((2, 0))])
    def test_bad_probability_rows_rejected(self, probs):
        probs = np.asarray(probs, dtype=np.float64)
        with pytest.raises(ValidationError, match="nonnegative and sum to 1"):
            VoxelPredictions(probs=probs, embeddings=np.zeros((len(probs), 2)))


class TestMemoryBank:
    def test_fifo_eviction(self):
        bank = MemoryBank(n_classes=1, capacity=2)
        for tag in (1.0, 2.0, 3.0):
            bank.push(0, np.array([tag]))
        assert bank.newest(0, 2)[:, 0].tolist() == [2.0, 3.0]

    def test_push_of_another_width_raises_shape_error(self):
        bank = MemoryBank(n_classes=2)
        bank.push(0, np.ones((2, 3)))
        for rows in (np.ones((2, 5)), np.ones(4), np.empty((0, 2))):
            with pytest.raises(ShapeError, match="class 0"):
                bank.push(0, rows)
        bank.push(1, np.ones((1, 5)))  # each class sets its own width
        assert (bank.size(0), bank.size(1)) == (2, 1)

    def test_newest_beyond_the_held_rows_raises(self):
        bank = MemoryBank(n_classes=1, capacity=4)
        bank.push(0, np.ones((2, 3)))
        with pytest.raises(ValidationError, match="2 negatives < 3 requested"):
            bank.newest(0, 3)

    def test_capacity_never_exceeded(self, rng):
        bank = MemoryBank(n_classes=2, capacity=5)
        for i in range(20):
            bank.push(i % 2, rng.normal(size=3))
        assert bank.size(0) == 5 and bank.size(1) == 5

    def test_push_criterion_bottom_half(self):
        # class 3 is this voxel's least likely: its embedding must enter Q_3
        probs = np.array([[0.4, 0.3, 0.2, 0.1]])
        emb = np.array([[7.0, 7.0]])
        vp = VoxelPredictions(probs=probs, embeddings=emb)
        pls = PseudoLabelSet(labels=[-1])
        bank = MemoryBank(n_classes=4, capacity=4)
        for c in range(4):
            bank_push_negatives(bank, vp, pls, c)
        assert bank.size(3) == 1 and bank.size(2) == 1  # bottom ceil(4/2) = 2 classes
        assert bank.size(0) == 0 and bank.size(1) == 0

    def test_push_matches_per_voxel_rank_oracle(self, rng):
        vp = make_predictions(rng, n=40, c=5)
        probs = vp.probs.copy()
        probs[::3] = 0.2  # uniform rows: the stable sort breaks ties by class id
        # Rows with some tied classes: a tie ranks the lower class id lower.
        probs[1::3] = rng.permuted(np.tile([0.3, 0.3, 0.2, 0.1, 0.1], (len(probs[1::3]), 1)),
                                   axis=1)
        vp = VoxelPredictions(probs=probs, embeddings=vp.embeddings)
        unreliable = frozenset(rng.choice(40, size=25, replace=False).tolist())
        pls = PseudoLabelSet(labels=[-1 if i in unreliable else 0 for i in range(40)])
        for c in range(5):
            bank = MemoryBank(n_classes=5, capacity=100)
            bank_push_negatives(bank, vp, pls, c)
            expect = [i for i in sorted(unreliable)
                      if list(np.argsort(probs[i], kind="stable")).index(c) < 3]
            assert bank.size(c) == len(expect)
            if expect:
                np.testing.assert_array_equal(bank.newest(c, len(expect)),
                                              vp.embeddings[expect])

    @pytest.mark.parametrize("class_id", [-1, 3, 2.0, True, None])
    def test_class_id_outside_the_bank_raises_domain_error(self, rng, class_id):
        bank = MemoryBank(n_classes=3, capacity=4)
        bank.push(2, rng.normal(size=(2, 4)))
        with pytest.raises(DomainError):
            bank.push(class_id, rng.normal(size=(1, 4)))
        with pytest.raises(DomainError):
            bank.size(class_id)
        with pytest.raises(DomainError):
            bank.newest(class_id, 1)
        with pytest.raises(DomainError):
            infonce_loss({class_id: np.ones((1, 4))}, {class_id: np.ones(4)}, bank,
                         ContrastiveConfig())
        assert bank.size(2) == 2  # no bad push reached class 2's queue

    @pytest.mark.parametrize("class_id", [-1, 3, 1.0, False])
    def test_class_id_outside_the_predictions_raises_domain_error(self, rng, class_id):
        vp = make_predictions(rng, n=10, c=3)
        pls = PseudoLabelSet(labels=[-1] * 5 + [0] * 5)
        with pytest.raises(DomainError):
            build_anchor_set(vp, pls, ContrastiveConfig(), class_id)
        with pytest.raises(DomainError):
            bank_push_negatives(MemoryBank(n_classes=3), vp, pls, class_id)

    def test_empty_unreliable_no_change(self, rng):
        vp = make_predictions(rng, n=5)
        pls = PseudoLabelSet(labels=[0] * 5)
        bank = MemoryBank(n_classes=4, capacity=4)
        bank_push_negatives(bank, vp, pls, 0)
        assert bank.size(0) == 0

    def test_sequence_tagged_order(self, rng):
        bank = MemoryBank(n_classes=1, capacity=100)
        for i in range(10):
            bank.push(0, np.array([float(i)]))
        np.testing.assert_array_equal(bank.newest(0, 4).ravel(), [6, 7, 8, 9])


    @pytest.mark.parametrize("n", [0, 3, 5, 8])  # capacity is 5
    @pytest.mark.parametrize("n_held", [0, 2])
    def test_block_push_equals_row_pushes(self, rng, n, n_held):
        held, block = rng.normal(size=(n_held, 4)), rng.normal(size=(n, 4))
        by_block, by_row = MemoryBank(n_classes=2, capacity=5), MemoryBank(n_classes=2, capacity=5)
        for bank in (by_block, by_row):
            for row in held:
                bank.push(1, row)
        by_block.push(1, block)
        for row in block:
            by_row.push(1, row)
        assert by_block.size(0) == 0
        assert by_block.size(1) == by_row.size(1) == min(n_held + n, 5)
        for k in range(by_row.size(1) + 1):
            np.testing.assert_array_equal(by_block.newest(1, k), by_row.newest(1, k))


class TestInfoNce:
    CFG = recipe(ContrastiveConfig, tau=0.5, n_negatives=1)

    def test_closed_form_single_negative(self):
        bank = MemoryBank(n_classes=1, capacity=4)
        bank.push(0, np.array([0.0, 1.0]))  # orthogonal negative
        anchors = {0: np.array([[1.0, 0.0]])}
        positives = {0: np.array([1.0, 0.0])}
        loss = infonce_loss(anchors, positives, bank, self.CFG)
        expect = -math.log(math.exp(2.0) / (math.exp(2.0) + 1.0))
        assert loss.item() == pytest.approx(expect, abs=1e-6)
        assert loss.item() == pytest.approx(0.1269, abs=1e-4)

    def test_symmetric_case_log_n(self):
        n_neg = 7
        cfg = recipe(ContrastiveConfig, tau=0.5, n_negatives=n_neg)
        bank = MemoryBank(n_classes=1, capacity=16)
        d = 10
        for j in range(n_neg):
            neg = np.zeros(d)
            neg[2 + j] = 1.0  # orthogonal to anchor and positive
            bank.push(0, neg)
        anchor = np.zeros(d)
        anchor[0] = 1.0
        pos = np.zeros(d)
        pos[1] = 1.0
        loss = infonce_loss({0: anchor[None]}, {0: pos}, bank, cfg)
        assert loss.item() == pytest.approx(math.log(n_neg + 1), abs=1e-9)

    def test_insufficient_negatives_skips_class(self):
        cfg = ContrastiveConfig()
        bank = MemoryBank(n_classes=2)
        bank.push(0, np.tile([0.0, 1.0], (cfg.n_negatives - 1, 1)))
        assert infonce_loss({0: np.ones((1, 2))}, {0: np.ones(2)}, bank, cfg) is None

    def test_loss_decreases_with_anchor_positive_alignment(self):
        bank = MemoryBank(n_classes=1, capacity=4)
        bank.push(0, np.array([0.0, 1.0]))
        pos = {0: np.array([1.0, 0.0])}
        aligned = infonce_loss({0: np.array([[1.0, 0.0]])}, pos, bank, self.CFG)
        tilted = infonce_loss({0: np.array([[0.7, 0.7]])}, pos, bank, self.CFG)
        assert aligned.item() < tilted.item()

    def test_scale_invariance_of_cosine(self):
        bank = MemoryBank(n_classes=1, capacity=4)
        bank.push(0, np.array([3.0, 1.0]))
        pos = {0: np.array([1.0, 0.2])}
        a = infonce_loss({0: np.array([[0.5, 2.0]])}, pos, bank, self.CFG)
        b = infonce_loss({0: np.array([[0.5, 2.0]]) * 123.0}, pos, bank, self.CFG)
        assert a.item() == pytest.approx(b.item(), rel=1e-12)

    def test_zero_norm_embedding_rejected(self):
        bank = MemoryBank(n_classes=1, capacity=4)
        bank.push(0, np.array([0.0, 1.0]))
        with pytest.raises(DegenerateEmbeddingError):
            infonce_loss({0: np.zeros((1, 2))}, {0: np.ones(2)}, bank, self.CFG)

    def test_zero_norm_negative_rejected(self):
        bank = MemoryBank(n_classes=1, capacity=4)
        bank.push(0, np.zeros(2))
        with pytest.raises(DegenerateEmbeddingError, match="negative"):
            infonce_loss({0: np.ones((1, 2))}, {0: np.ones(2)}, bank, self.CFG)

    def test_gradient_matches_finite_differences(self, rng):
        cfg = recipe(ContrastiveConfig, tau=0.5, n_negatives=3)
        bank = MemoryBank(n_classes=2, capacity=16)
        for c in range(2):
            for _ in range(4):
                bank.push(c, rng.normal(size=5))
        anchors = rng.normal(size=(4, 5))
        other_anchor = rng.normal(size=(2, 5))
        other_pos = rng.normal(size=5)

        def run(a_arr):
            a = Tensor(a_arr, requires_grad=True)
            loss = infonce_loss({0: a, 1: Tensor(other_anchor)},
                                {0: positive_center(a), 1: Tensor(other_pos)},
                                bank, cfg)
            return a, loss

        a, loss = run(anchors)
        loss.backward()
        fd = finite_difference(lambda v: run(v)[1].item(), anchors)
        assert max_rel_err(a.grad, fd) < 1e-3
