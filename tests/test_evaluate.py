import tracemalloc

import numpy as np
import pytest

from cizsl import evaluate
from cizsl.errors import InvalidInputError
from cizsl.evaluate import (ClassCenters, _distances, curve_csv, curve_svg, harmonic_mean,
                            retrieval_precision, seen_unseen_curve,
                            synthesize_centers, trapezoid_auc, zsl_top1)
from cizsl.net import Generator, GeneratorArch, Layer, MlpNetwork, build_generator
from cizsl.numerics import RngStream


def centers_of(ids, pts):
    return ClassCenters(class_ids=np.array(ids), centers=np.array(pts, dtype=float))


class TestSynthesizeCenters:
    def constant_generator(self, bias, noise_dim=3):
        x_dim = len(bias)
        return Generator(
            embed=MlpNetwork([Layer(np.zeros((2, 4)), np.zeros(2), "identity")]),
            trunk=MlpNetwork([Layer(np.zeros((x_dim, 2 + noise_dim)),
                                    np.array(bias, dtype=float), "relu")]),
            noise_dim=noise_dim)

    def test_constant_generator_gives_rectified_bias(self):
        gen = self.constant_generator([1.5, -2.0, 0.5])
        out = synthesize_centers(gen, {7: np.zeros(4), 3: np.zeros(4)}, 5,
                                 RngStream(0, 0))
        np.testing.assert_array_equal(out.class_ids, [3, 7])
        for row in out.centers:
            np.testing.assert_array_equal(row, [1.5, 0.0, 0.5])

    def test_n_equals_one_is_single_sample(self):
        rng = RngStream(3, 0)
        gen = build_generator(GeneratorArch(text_dim=4, noise_dim=3, output_dim=5), rng)
        t = rng.normal(4)
        out = synthesize_centers(gen, {1: t}, 1, RngStream(42, 0))
        z = RngStream(42, 0).derive(1).normal((1, 3))
        np.testing.assert_allclose(out.centers[0], gen.forward(t, z[0]), atol=1e-15)

    def test_linear_generator_approaches_analytic_mean(self):
        # identity activations make the map affine in z; the mean over z of
        # G(t, z) is the map applied at z = 0, reached at O(1/sqrt(n))
        rng = RngStream(8, 0)
        w_embed = rng.normal((3, 4))
        w_trunk = rng.normal((5, 6))
        gen = Generator(
            embed=MlpNetwork([Layer(w_embed, np.zeros(3), "identity")]),
            trunk=MlpNetwork([Layer(w_trunk, rng.normal(5), "identity")]),
            noise_dim=3)
        t = rng.normal(4)
        analytic = gen.forward(t, np.zeros(3))
        out = synthesize_centers(gen, {2: t}, 10_000, RngStream(5, 0))
        sd = np.linalg.norm(w_trunk[:, 3:], axis=1)
        assert np.all(np.abs(out.centers[0] - analytic) < 5.0 * sd / 100.0)

    def test_deterministic_per_seed_and_dict_order_free(self):
        rng = RngStream(9, 0)
        gen = build_generator(GeneratorArch(text_dim=4, noise_dim=2, output_dim=3), rng)
        t1, t2 = rng.normal(4), rng.normal(4)
        a = synthesize_centers(gen, {1: t1, 2: t2}, 7, RngStream(1, 0))
        b = synthesize_centers(gen, {2: t2, 1: t1}, 7, RngStream(1, 0))
        np.testing.assert_array_equal(a.centers, b.centers)


class TestClassCenters:
    def test_sorted_by_class_id(self):
        c = centers_of([7, 3], [[1.0], [2.0]])
        np.testing.assert_array_equal(c.class_ids, [3, 7])
        np.testing.assert_array_equal(c.centers, [[2.0], [1.0]])

    @pytest.mark.parametrize("ids,rows", [([1, 2, 3], 2), ([1, 2], 3)])
    def test_length_mismatch_rejected(self, ids, rows):
        with pytest.raises(InvalidInputError, match="one center required per class id"):
            centers_of(ids, np.zeros((rows, 2)))


class TestDistances:
    @pytest.mark.parametrize("n,k,d", [(37, 5, 3), (203, 17, 300)])
    def test_row_blocks_match_one_block(self, monkeypatch, n, k, d):
        rng = RngStream(18, 0)
        feats, cents = rng.normal((n, d)), rng.normal((k, d))
        whole = _distances(feats, cents, "l2")
        for rows in (1, 3, n - 1):
            monkeypatch.setattr(evaluate, "_L2_BLOCK_BYTES", rows * 8 * k * d)
            np.testing.assert_array_equal(_distances(feats, cents, "l2"), whole)
        monkeypatch.setattr(evaluate, "_L2_BLOCK_BYTES", 1)
        np.testing.assert_array_equal(_distances(feats, cents, "l2"), whole)

    def test_row_blocks_bound_memory(self, monkeypatch):
        # one block would be a 51.2 MB difference tensor; the output is 0.8 MB
        rng = RngStream(19, 0)
        feats, cents = rng.normal((2000, 64)), rng.normal((50, 64))
        monkeypatch.setattr(evaluate, "_L2_BLOCK_BYTES", 2**20)
        tracemalloc.start()
        try:
            _distances(feats, cents, "l2")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestTop1:
    def test_points_at_centers_are_perfect(self):
        c = centers_of([1, 2, 3], [[0, 0], [5, 0], [0, 5]])
        feats = np.array([[0, 0], [5, 0], [0, 5], [0.1, 0.1]])
        labels = np.array([1, 2, 3, 1])
        assert zsl_top1(feats, labels, c) == 1.0

    def test_all_wrong_is_zero(self):
        c = centers_of([1, 2], [[0.0, 0.0], [10.0, 0.0]])
        feats = np.array([[9.0, 0.0], [1.0, 0.0]])
        labels = np.array([1, 2])
        assert zsl_top1(feats, labels, c) == 0.0

    def test_matches_brute_force(self):
        rng = RngStream(12, 0)
        ids = [3, 7, 11, 20]
        cents = rng.normal((4, 6))
        c = centers_of(ids, cents)
        feats = rng.normal((100, 6))
        labels = np.array(ids)[rng.integers(0, 4, 100)]
        fast = zsl_top1(feats, labels, c)
        # brute force: per-instance loop with explicit tie-break by class id
        per_class = {}
        for i in range(100):
            best, best_d = None, np.inf
            for cid, center in sorted(zip(ids, cents)):
                d = float(np.sqrt(np.sum((feats[i] - center) ** 2)))
                if d < best_d:
                    best, best_d = cid, d
            per_class.setdefault(int(labels[i]), []).append(best == labels[i])
        brute = np.mean([np.mean(v) for v in per_class.values()])
        assert fast == pytest.approx(brute, abs=1e-12)

    def test_macro_equals_micro_when_balanced(self):
        rng = RngStream(13, 0)
        c = centers_of([1, 2], rng.normal((2, 3)))
        feats = rng.normal((40, 3))
        labels = np.array([1] * 20 + [2] * 20)
        macro = zsl_top1(feats, labels, c)
        d = np.linalg.norm(feats[:, None] - c.centers[None], axis=2)
        micro = float(np.mean(c.class_ids[np.argmin(d, axis=1)] == labels))
        assert macro == pytest.approx(micro, abs=1e-12)

    def test_monotone_transform_invariance(self):
        # the argmin over centers is unchanged when all distances pass
        # through a strictly increasing function (here: squaring, cubing)
        rng = RngStream(14, 0)
        c = centers_of([1, 2, 3], rng.normal((3, 4)))
        feats = rng.normal((30, 4))
        labels = np.array([1, 2, 3] * 10)
        a = zsl_top1(feats, labels, c)
        d = np.linalg.norm(feats[:, None] - c.centers[None], axis=2)
        for transform in (np.square, lambda v: v ** 3, np.sqrt):
            pred = c.class_ids[np.argmin(transform(d), axis=1)]
            per = [np.mean(pred[labels == cid] == cid) for cid in (1, 2, 3)]
            assert float(np.mean(per)) == a

    def test_empty_test_set_rejected(self):
        with pytest.raises(InvalidInputError):
            zsl_top1(np.zeros((0, 2)), np.zeros(0), centers_of([1], [[0, 0]]))

    def test_missing_center_rejected(self):
        with pytest.raises(InvalidInputError):
            zsl_top1(np.zeros((1, 2)), np.array([9]), centers_of([1], [[0, 0]]))


class TestCurve:
    def test_anchor_triangle(self):
        assert trapezoid_auc([0.0, 1.0], [1.0, 0.0]) == pytest.approx(0.5)

    def test_rectangle(self):
        assert trapezoid_auc([0.0, 1.0, 1.0], [1.0, 1.0, 0.0]) == pytest.approx(1.0)

    def test_hand_built_three_point_curve(self):
        # trapezoids: 0.6 * (0.8 + 0.5)/2 + 0.3 * (0.5 + 0)/2 = 0.465
        x = [0.0, 0.6, 0.9]
        y = [0.8, 0.5, 0.0]
        assert trapezoid_auc(x, y) == pytest.approx(0.465)

    def test_domination_monotonicity(self):
        rng = RngStream(15, 0)
        x = np.sort(rng.uniform(0, 1, 20))
        y_low = rng.uniform(0, 0.5, 20)
        y_high = y_low + rng.uniform(0, 0.5, 20)
        assert trapezoid_auc(x, y_high) >= trapezoid_auc(x, y_low)

    def separable_setup(self):
        seen = centers_of([1, 2], [[0.0, 0.0], [4.0, 0.0]])
        unseen = centers_of([10, 11], [[0.0, 4.0], [4.0, 4.0]])
        feats, labels = [], []
        for cid, center in [(1, [0, 0]), (2, [4, 0]), (10, [0, 4]), (11, [4, 4])]:
            for d in ([0.1, 0], [-0.1, 0], [0, 0.1]):
                feats.append(np.array(center, dtype=float) + d)
                labels.append(cid)
        return np.array(feats), np.array(labels), seen, unseen

    def test_anchors_and_perfect_separation(self):
        feats, labels, seen, unseen = self.separable_setup()
        curve = seen_unseen_curve(feats, labels, seen, unseen, n_points=41)
        # anchors: -inf forces everything seen, +inf everything unseen
        assert curve.calibrations[0] == -np.inf
        assert curve.unseen_acc[0] == 0.0
        assert curve.calibrations[-1] == np.inf
        assert curve.seen_acc[-1] == 0.0
        assert curve.seen_acc[0] == 1.0    # separable within seen space
        assert curve.unseen_acc[-1] == 1.0
        assert curve.auc == pytest.approx(1.0)  # perfect at every calibration
        assert 0.0 <= curve.auc <= 1.0

    def random_setup(self):
        rng = RngStream(16, 0)
        seen = centers_of([1, 2], rng.normal((2, 3)))
        unseen = centers_of([5, 6], rng.normal((2, 3)))
        feats = rng.normal((60, 3))
        labels = np.concatenate([np.array([1, 2])[rng.integers(0, 2, 30)],
                                 np.array([5, 6])[rng.integers(0, 2, 30)]])
        return feats, labels, seen, unseen

    def test_curve_matches_brute_force_reclassification(self):
        feats, labels, seen, unseen = self.random_setup()
        curve = seen_unseen_curve(feats, labels, seen, unseen, n_points=9)

        def brute_pair(c):
            # per instance: best class on each side by an explicit loop (ties
            # to the smaller id), then the calibrated seen score against the
            # unseen one, the seen side winning an exact tie
            correct = {cid: [] for cid in (1, 2, 5, 6)}
            for i in range(60):
                best = {}
                for side, centers in (("s", seen), ("u", unseen)):
                    best_id, best_d = None, np.inf
                    for cid, center in zip(centers.class_ids, centers.centers):
                        d = float(np.linalg.norm(feats[i] - center))
                        if d < best_d:
                            best_id, best_d = int(cid), d
                    best[side] = (best_id, best_d)
                pred = best["s"][0] if -best["s"][1] - c >= -best["u"][1] else best["u"][0]
                correct[int(labels[i])].append(pred == labels[i])
            s_acc = np.mean([np.mean(correct[cid]) for cid in (1, 2) if correct[cid]])
            u_acc = np.mean([np.mean(correct[cid]) for cid in (5, 6) if correct[cid]])
            return s_acc, u_acc

        assert curve.calibrations.size == 9 + 2
        for j, c in enumerate(curve.calibrations):
            s_acc, u_acc = brute_pair(float(c))
            assert curve.seen_acc[j] == pytest.approx(s_acc, abs=1e-12)
            assert curve.unseen_acc[j] == pytest.approx(u_acc, abs=1e-12)
        s_acc, u_acc = brute_pair(0.0)
        assert curve.at_zero[0] == pytest.approx(s_acc, abs=1e-12)
        assert curve.at_zero[1] == pytest.approx(u_acc, abs=1e-12)

    def test_unseen_anchor_is_zsl_top1(self):
        feats, labels, seen, unseen = self.random_setup()
        curve = seen_unseen_curve(feats, labels, seen, unseen, n_points=5)
        rows = np.isin(labels, unseen.class_ids)
        assert curve.unseen_acc[-1] == zsl_top1(feats[rows], labels[rows], unseen)

    def test_rows_of_neither_population_ignored(self):
        feats, labels, seen, unseen = self.random_setup()
        # copies of existing rows keep the calibration span unchanged
        extra = feats[::3]
        with_extra = seen_unseen_curve(
            np.vstack([feats, extra]),
            np.concatenate([labels, np.full(len(extra), 99)]), seen, unseen, n_points=7)
        plain = seen_unseen_curve(feats, labels, seen, unseen, n_points=7)
        for field in ("calibrations", "seen_acc", "unseen_acc"):
            np.testing.assert_array_equal(getattr(with_extra, field), getattr(plain, field))
        assert with_extra.auc == plain.auc
        assert with_extra.at_zero == plain.at_zero

    @pytest.mark.parametrize("n_points", [-1, 0, 1, 2])
    def test_fewer_than_three_points_rejected(self, n_points):
        feats, labels, seen, unseen = self.separable_setup()
        with pytest.raises(InvalidInputError, match="eval.calibration_points"):
            seen_unseen_curve(feats, labels, seen, unseen, n_points=n_points)

    def test_one_population_missing_rejected(self):
        feats, labels, seen, unseen = self.separable_setup()
        rows = np.isin(labels, seen.class_ids)
        with pytest.raises(InvalidInputError, match="both populations"):
            seen_unseen_curve(feats[rows], labels[rows], seen, unseen)

    def test_csv_export_format(self):
        feats, labels, seen, unseen = self.separable_setup()
        curve = seen_unseen_curve(feats, labels, seen, unseen, n_points=5)
        text = curve_csv(curve)
        lines = text.strip().split("\n")
        assert lines[0] == "calibration,acc_seen,acc_unseen"
        assert lines[1].startswith("-inf,")
        assert lines[-1].startswith("inf,")
        assert len(lines) == 1 + 5 + 2

    def test_svg_export_mentions_auc(self):
        feats, labels, seen, unseen = self.separable_setup()
        curve = seen_unseen_curve(feats, labels, seen, unseen, n_points=5)
        svg = curve_svg(curve)
        assert svg.startswith("<svg")
        assert f"AUC={curve.auc:.6g}" in svg


class TestHarmonicMean:
    def test_equal(self):
        assert harmonic_mean(0.5, 0.5) == pytest.approx(0.5)

    def test_hand_case(self):
        assert harmonic_mean(0.6, 0.3) == pytest.approx(0.4)

    def test_zero(self):
        assert harmonic_mean(0.7, 0.0) == 0.0
        assert harmonic_mean(0.0, 0.0) == 0.0


class TestRetrieval:
    def test_perfect_ranking(self):
        centers = centers_of([5, 6], [[0.0, 0.0], [10.0, 0.0]])
        feats = np.array([[0, 0], [0.1, 0], [10, 0], [10.1, 0]], dtype=float)
        labels = np.array([5, 5, 6, 6])
        out = retrieval_precision(feats, labels, centers)
        assert out == {0.25: 1.0, 0.5: 1.0, 1.0: 1.0}

    def test_hand_case_rank_pattern(self):
        # class with 4 true images at ranks {1,2,3,5}: precision@4 = 3/4
        centers = centers_of([1], [[0.0]])
        feats = np.array([[0.1], [0.2], [0.3], [0.4], [0.5]])
        labels = np.array([1, 1, 1, 0, 1])
        # rank of distances: true at 1,2,3,5 (instance 3 is the intruder)
        out = retrieval_precision(feats, np.where(labels == 1, 1, 99), centers,
                                  ratios=(1.0,))
        assert out[1.0] == pytest.approx(3.0 / 4.0)

    def test_matches_brute_force(self):
        rng = RngStream(17, 0)
        ids = [2, 9]
        centers = centers_of(ids, rng.normal((2, 4)))
        feats = rng.normal((50, 4))
        labels = np.array(ids + [777])[rng.integers(0, 3, 50)]
        # make sure both classes have instances
        labels[0], labels[1] = 2, 9
        out = retrieval_precision(feats, labels, centers, ratios=(0.25, 0.5, 1.0))
        for ratio in (0.25, 0.5, 1.0):
            per = []
            for cid, center in zip(ids, centers.centers):
                d = [(float(np.linalg.norm(feats[i] - center)), i)
                     for i in range(50)]
                d.sort()
                n_c = int(np.sum(labels == cid))
                k = int(np.ceil(ratio * n_c))
                hits = sum(1 for _, i in d[:k] if labels[i] == cid)
                per.append(hits / k)
            assert out[ratio] == pytest.approx(np.mean(per), abs=1e-12)

    def test_class_without_instances_rejected(self):
        centers = centers_of([1, 2], [[0.0], [1.0]])
        with pytest.raises(InvalidInputError):
            retrieval_precision(np.array([[0.0]]), np.array([1]), centers)

    @pytest.mark.parametrize("ratio", [0.0, -0.5, float("nan"), float("inf")])
    def test_ratio_must_be_finite_and_positive(self, ratio):
        centers = centers_of([1], [[0.0]])
        with pytest.raises(InvalidInputError, match="eval.retrieval_ratios"):
            retrieval_precision(np.array([[0.0]]), np.array([1]), centers,
                                ratios=(0.5, ratio))
