import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from cizsl.data import SyntheticConfig, class_means, make_synthetic
from cizsl.errors import InvalidInputError
from cizsl.evaluate import (CENTER_BLOCK_ROWS, ClassCenters, _distances, curve_csv,
                            curve_svg, generalized_curve, harmonic_mean,
                            retrieval_precision, seen_unseen_curve, synthesize_centers,
                            trapezoid_auc, unseen_centers, zsl_top1)
from cizsl.net import Generator, Layer, MlpNetwork, build_generator
from cizsl.numerics import STREAM_EVAL, RngStream


def centers_of(ids, pts):
    return ClassCenters(class_ids=np.array(ids), centers=np.array(pts, dtype=float))


def distances(feats, cents, metric):
    """`_distances` with the features' squared norms computed here."""
    return _distances(feats, np.einsum("ij,ij->i", feats, feats), cents, metric)


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
        out = synthesize_centers(gen, [7, 3], np.zeros((2, 4)), 5, RngStream(0, 0))
        np.testing.assert_array_equal(out.class_ids, [3, 7])
        for row in out.centers:
            np.testing.assert_array_equal(row, [1.5, 0.0, 0.5])

    def test_n_equals_one_is_single_sample(self):
        rng = RngStream(3, 0)
        gen = build_generator(rng, text_dim=4, noise_dim=3, output_dim=5)
        t = rng.normal(4)
        out = synthesize_centers(gen, [1], t[None], 1, RngStream(42, 0))
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
        out = synthesize_centers(gen, [2], t[None], 10_000, RngStream(5, 0))
        sd = np.linalg.norm(w_trunk[:, 3:], axis=1)
        assert np.all(np.abs(out.centers[0] - analytic) < 5.0 * sd / 100.0)

    def test_deterministic_per_seed_and_dict_order_free(self):
        rng = RngStream(9, 0)
        gen = build_generator(rng, text_dim=4, noise_dim=2, output_dim=3)
        t1, t2 = rng.normal(4), rng.normal(4)
        a = synthesize_centers(gen, [1, 2], np.array([t1, t2]), 7, RngStream(1, 0))
        b = synthesize_centers(gen, [2, 1], np.array([t2, t1]), 7, RngStream(1, 0))
        np.testing.assert_array_equal(a.centers, b.centers)

    @staticmethod
    def per_class_loop(gen, descriptors, n, rng):
        """One generator pass per class over n copies of its descriptor."""
        return np.array([
            gen.forward(np.repeat(np.asarray(descriptors[c], dtype=float)[None], n, axis=0),
                        rng.derive(c).normal((n, gen.noise_dim))).mean(axis=0)
            for c in sorted(descriptors)])

    @pytest.mark.parametrize("k,n", [
        (7, 60),                         # blocks of 4 classes and a last one of 3
        (3, CENTER_BLOCK_ROWS + 44),     # one class per block, beyond the budget
        (1, 60),                         # one embedding row: a matrix-vector product
        (11, 1)])
    def test_blocked_matches_per_class_loop(self, k, n):
        # each class keeps its own noise stream; the one-row embedding and
        # the block-sized products may sum in another order than the loop's
        rng = RngStream(21, 0)
        gen = build_generator(rng, text_dim=10, noise_dim=6, output_dim=32,
                              embed_dim=12, hidden_dims=(40,))
        ids = [int(c) for c in rng.permutation(100)[:k] + 1]
        descriptors = {c: rng.normal(10) for c in ids}
        loop = self.per_class_loop(gen, descriptors, n, RngStream(4, 2))
        out = synthesize_centers(gen, ids, np.array([descriptors[c] for c in ids]), n,
                                 RngStream(4, 2))
        np.testing.assert_array_equal(out.class_ids, sorted(ids))
        delta = np.max(np.abs(out.centers - loop))
        print(f"K={k} n={n}: max |centers - per-class loop| = {delta:.3g}")
        assert delta <= 1e-14 * max(1.0, np.max(np.abs(loop)))

    def test_blocks_independent_of_dict_order(self):
        rng = RngStream(22, 0)
        gen = build_generator(rng, text_dim=5, noise_dim=3, output_dim=8)
        n = CENTER_BLOCK_ROWS // 3 + 1   # two classes per block
        descriptors = {int(c): rng.normal(5) for c in rng.permutation(9) * 3}
        shuffled = {c: descriptors[c] for c in reversed(list(descriptors))}
        a = synthesize_centers(gen, list(descriptors), np.array(list(descriptors.values())),
                               n, RngStream(6, 0))
        b = synthesize_centers(gen, list(shuffled), np.array(list(shuffled.values())),
                               n, RngStream(6, 0))
        np.testing.assert_array_equal(a.class_ids, b.class_ids)
        np.testing.assert_array_equal(a.centers, b.centers)

    def test_descriptor_of_wrong_dim_rejected(self):
        gen = build_generator(RngStream(0, 0), text_dim=4, noise_dim=2, output_dim=3)
        with pytest.raises(InvalidInputError, match=r"descriptors have shape \(2, 3\), "
                           r"expected \(2, 4\)"):
            synthesize_centers(gen, [1, 5], np.zeros((2, 3)), 2, RngStream(0, 0))

    def test_memory_does_not_grow_with_class_count(self):
        # the trunk runs over blocks of at most CENTER_BLOCK_ROWS rows, so
        # only the K x D centers, the K embeddings and the K descriptor rows
        # grow with the class count; one pass over all K x n rows would take
        # 10x the memory
        rng = RngStream(23, 0)
        n, d = 60, 256
        gen = build_generator(rng, text_dim=32, noise_dim=16, output_dim=d,
                              embed_dim=64, hidden_dims=(512,))
        descriptors = np.array([rng.normal(32) for c in range(400)])
        peaks = {}
        for k in (40, 400):
            subset = (np.arange(k), descriptors[:k])
            synthesize_centers(gen, *subset, n, RngStream(1, 0))  # first-call imports
            tracemalloc.start()
            try:
                synthesize_centers(gen, *subset, n, RngStream(1, 0))
                peaks[k] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        print(f"synthesize_centers peak: {peaks[40] / 2**20:.2f} MB at 40 classes, "
              f"{peaks[400] / 2**20:.2f} MB at 400")
        assert peaks[400] - peaks[40] <= 1.25 * 360 * (d + 64 + 32) * 8
        assert peaks[400] <= 1.5 * peaks[40]


class TestGeneralizedCurve:
    @staticmethod
    def dataset_and_generator():
        ds = make_synthetic(SyntheticConfig(n_super=4, classes_per_super=3,
                                            instances_per_class=6, text_dim=5,
                                            feature_dim=7, seed=2))
        gen = build_generator(RngStream(2, 0), text_dim=5, noise_dim=3, output_dim=7)
        return ds, gen

    @pytest.mark.parametrize("metric", ["l2", "cosine"])
    def test_seen_means_against_generated_unseen_centers(self, metric):
        ds, gen = self.dataset_and_generator()
        curve = generalized_curve(gen, ds, 9, 4, metric)
        unseen = synthesize_centers(gen, ds.unseen_class_ids, ds.descriptors[~ds.seen_mask],
                                    9, RngStream(4, STREAM_EVAL))
        seen = ClassCenters(class_ids=ds.seen_class_ids,
                            centers=class_means(ds, ds.seen_class_ids))
        expected = seen_unseen_curve(ds.features, ds.labels, seen, unseen, metric)
        for name in ("calibrations", "seen_acc", "unseen_acc"):
            assert np.array_equal(getattr(curve, name), getattr(expected, name))
        assert (curve.auc, curve.at_zero) == (expected.auc, expected.at_zero)

    def test_dataset_without_unseen_classes_rejected(self):
        ds, gen = self.dataset_and_generator()
        ds = dataclasses.replace(ds, seen_mask=np.ones_like(ds.seen_mask))
        for score in (unseen_centers, generalized_curve):
            with pytest.raises(InvalidInputError, match="no unseen classes"):
                score(gen, ds, 5, 0)


class TestClassCenters:
    def test_sorted_by_class_id(self):
        c = centers_of([7, 3], [[1.0], [2.0]])
        np.testing.assert_array_equal(c.class_ids, [3, 7])
        np.testing.assert_array_equal(c.centers, [[2.0], [1.0]])

    @pytest.mark.parametrize("ids,rows", [([1, 2, 3], 2), ([1, 2], 3)])
    def test_length_mismatch_rejected(self, ids, rows):
        with pytest.raises(InvalidInputError, match="one center required per class id"):
            centers_of(ids, np.zeros((rows, 2)))

    def test_centers_must_be_a_matrix(self):
        # one center per id, but no width: a (K,) vector is no (K, D) matrix
        with pytest.raises(InvalidInputError, match=r"\(K, D\) matrix: got 2 ids and "
                                                    r"shape \(2,\)"):
            centers_of([1, 2], [0.0, 1.0])

    @pytest.mark.parametrize("score", [
        lambda f, l, c: zsl_top1(f, l, c),
        lambda f, l, c: seen_unseen_curve(f, l, centers_of([7, 8], np.zeros((2, 4))), c),
        lambda f, l, c: seen_unseen_curve(f, l, c, centers_of([7, 8], np.zeros((2, 4)))),
        lambda f, l, c: retrieval_precision(f, l, c),
    ])
    @pytest.mark.parametrize("metric", ["l2", "cosine"])
    def test_centers_of_another_width_rejected(self, score, metric):
        feats = RngStream(3, 0).normal((6, 4))
        labels = np.array([1, 2, 7, 8, 1, 2])
        centers = centers_of([1, 2], np.ones((2, 3)))
        with pytest.raises(InvalidInputError,
                           match="centers have width 3, features have width 4"):
            score(feats, labels, centers)


class TestDistances:
    @pytest.mark.parametrize("offset", [0.0, 10.0])
    @pytest.mark.parametrize("n,k,d", [(37, 5, 3), (203, 17, 300)])
    def test_match_direct_formulas(self, n, k, d, offset):
        # l2 from the norm expansion stays within a few eps of
        # ||x||^2 + ||c||^2 of the summed squared differences; cosine matches
        # the formula over normalized copies of the rows. Rows equal to a
        # center round to a slightly negative square unless it is clamped.
        rng = RngStream(18, 0)
        feats, cents = rng.normal((n, d)) + offset, rng.normal((k, d)) + offset
        feats = np.concatenate([feats, cents])
        ref_sq = np.sum((feats[:, None] - cents[None]) ** 2, axis=2)
        scale = np.sum(feats ** 2, axis=1)[:, None] + np.sum(cents ** 2, axis=1)[None, :]
        assert np.all(np.abs(distances(feats, cents, "l2") ** 2 - ref_sq) <= 1e-13 * scale)
        fn = feats / np.maximum(np.linalg.norm(feats, axis=1, keepdims=True), 1e-12)
        cn = cents / np.maximum(np.linalg.norm(cents, axis=1, keepdims=True), 1e-12)
        np.testing.assert_allclose(distances(feats, cents, "cosine"), 1.0 - fn @ cn.T,
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("metric", ["l2", "cosine"])
    def test_one_center_within_ulps_of_a_wider_block(self, metric):
        # numpy takes a matrix-vector product for one center, which sums in
        # another order than the matrix product: a one-class population's
        # distances may differ from its column in a wider block, by ulps
        rng = RngStream(20, 0)
        feats, cents = rng.normal((500, 300)), rng.normal((4, 300))
        wide = distances(feats, cents, metric)
        for j in range(cents.shape[0]):
            np.testing.assert_allclose(distances(feats, cents[j:j + 1], metric)[:, 0],
                                       wide[:, j], rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize("metric", ["l2", "cosine"])
    def test_memory_is_output_sized(self, metric):
        # the output is 0.8 MB; an N x K x D difference tensor would be 51.2 MB
        rng = RngStream(19, 0)
        feats, cents = rng.normal((2000, 64)), rng.normal((50, 64))
        tracemalloc.start()
        try:
            distances(feats, cents, metric)
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
        curve = seen_unseen_curve(feats, labels, seen, unseen)
        # anchors: -inf forces everything seen, +inf everything unseen
        assert curve.calibrations[0] == -np.inf
        assert curve.unseen_acc[0] == 0.0
        assert curve.calibrations[-1] == np.inf
        assert curve.seen_acc[-1] == 0.0
        assert curve.seen_acc[0] == 1.0    # separable within seen space
        assert curve.unseen_acc[-1] == 1.0
        # unseen rows flip first (right to the corner), then seen rows (down)
        np.testing.assert_array_equal(curve.seen_acc, [1.0, 1.0, 0.0])
        np.testing.assert_array_equal(curve.unseen_acc, [0.0, 1.0, 1.0])
        assert curve.auc == 1.0

    def random_setup(self, k=2, n=60):
        rng = RngStream(16, 0)
        seen = centers_of(range(1, k + 1), rng.normal((k, 3)))
        unseen = centers_of(range(k + 3, 2 * k + 3), rng.normal((k, 3)))
        feats = rng.normal((n, 3))
        labels = np.concatenate([seen.class_ids[rng.integers(0, k, n // 2)],
                                 unseen.class_ids[rng.integers(0, k, n // 2)]])
        return feats, labels, seen, unseen

    def tied_setup(self):
        # small integer coordinates: every distance is the exact square root
        # of an integer, whatever the summation order, so thresholds tie
        # exactly and `brute_force` sees the same ones as the sweep
        rng = RngStream(24, 0)
        seen = centers_of([1, 2, 3], rng.integers(-2, 3, (3, 2)))
        unseen = centers_of([5, 6, 7], rng.integers(-2, 3, (3, 2)))
        feats = rng.integers(-3, 4, (80, 2)).astype(float)
        labels = np.array([1, 2, 3, 5, 6, 7])[rng.integers(0, 6, 80)]
        return feats, labels, seen, unseen

    @staticmethod
    def brute_force(feats, labels, seen, unseen):
        """Per row, the nearest class on each side by an explicit loop (ties
        to the smaller id) and the threshold d_u - d_s; returns the
        thresholds and the (seen, unseen) macro accuracies at calibration c,
        where a row predicts its seen class iff c <= d_u - d_s."""
        rows = []
        for i in range(len(feats)):
            best = []
            for centers in (seen, unseen):
                best_id, best_d = None, np.inf
                for cid, center in zip(centers.class_ids, centers.centers):
                    d = float(np.linalg.norm(feats[i] - center))
                    if d < best_d:
                        best_id, best_d = int(cid), d
                best.append((best_id, best_d))
            rows.append((best[0][0], best[1][0], best[1][1] - best[0][1]))

        def pair(c):
            correct = {int(cid): [] for cid in np.concatenate([seen.class_ids,
                                                              unseen.class_ids])}
            for (s_id, u_id, tau), label in zip(rows, labels):
                if int(label) in correct:
                    correct[int(label)].append((s_id if c <= tau else u_id) == label)
            return tuple(np.mean([np.mean(correct[int(cid)]) for cid in ids.class_ids
                                  if correct[int(cid)]]) for ids in (seen, unseen))

        return np.array([tau for _, _, tau in rows]), pair

    def test_curve_matches_brute_force_reclassification(self):
        feats, labels, seen, unseen = self.tied_setup()
        curve = seen_unseen_curve(feats, labels, seen, unseen)
        taus, brute_pair = self.brute_force(feats, labels, seen, unseen)
        thresholds = np.unique(taus)
        assert thresholds.size < taus.size / 2          # many rows tie
        assert np.any((np.diff(curve.seen_acc) != 0)
                      & (np.diff(curve.unseen_acc) != 0))      # a diagonal step

        for j, c in enumerate(curve.calibrations):
            s_acc, u_acc = brute_pair(float(c))
            assert curve.seen_acc[j] == pytest.approx(s_acc, abs=1e-12)
            assert curve.unseen_acc[j] == pytest.approx(u_acc, abs=1e-12)
        s_acc, u_acc = brute_pair(0.0)
        assert curve.at_zero[0] == pytest.approx(s_acc, abs=1e-12)
        assert curve.at_zero[1] == pytest.approx(u_acc, abs=1e-12)

        # between distinct thresholds the point lies on the segment that
        # ends at the first vertex at or above the calibration
        for c in (thresholds[1:] + thresholds[:-1]) / 2:
            s_acc, u_acc = brute_pair(float(c))
            j = np.searchsorted(curve.calibrations, c)
            s0, s1 = curve.seen_acc[j - 1], curve.seen_acc[j]
            u0, u1 = curve.unseen_acc[j - 1], curve.unseen_acc[j]
            on_end = any(s_acc == pytest.approx(s, abs=1e-12)
                         and u_acc == pytest.approx(u, abs=1e-12)
                         for s, u in ((s0, u0), (s1, u1)))
            vertical = u0 == u1 == pytest.approx(u_acc, abs=1e-12) \
                and s1 - 1e-12 <= s_acc <= s0 + 1e-12
            horizontal = s0 == s1 == pytest.approx(s_acc, abs=1e-12) \
                and u0 - 1e-12 <= u_acc <= u1 + 1e-12
            assert on_end or vertical or horizontal

    def test_auc_matches_trapezoid_at_every_threshold(self):
        feats, labels, seen, unseen = self.tied_setup()
        curve = seen_unseen_curve(feats, labels, seen, unseen)
        taus, brute_pair = self.brute_force(feats, labels, seen, unseen)
        points = np.array([brute_pair(c) for c in
                           np.concatenate([[-np.inf], np.unique(taus), [np.inf]])])
        assert curve.auc == pytest.approx(trapezoid_auc(points[:, 1], points[:, 0]),
                                          abs=1e-12)

    @pytest.mark.parametrize("setup", ["tied_setup", "random_setup"])
    def test_row_permutation_invariance(self, setup):
        feats, labels, seen, unseen = getattr(self, setup)()
        curve = seen_unseen_curve(feats, labels, seen, unseen)
        rng = RngStream(25, 0)
        for _ in range(5):
            perm = rng.permutation(len(labels))
            other = seen_unseen_curve(feats[perm], labels[perm], seen, unseen)
            for field in ("calibrations", "seen_acc", "unseen_acc"):
                np.testing.assert_array_equal(getattr(other, field), getattr(curve, field))
            assert other.auc == curve.auc
            assert other.at_zero == curve.at_zero

    def wide_setup(self, n=2000, k=50):
        # every row labelled with its nearest class on a random side: all
        # hits, so seen and unseen flips interleave and the curve has about
        # one vertex per two rows
        rng = RngStream(29, 0)
        seen = centers_of(range(k), rng.normal((k, 8)))
        unseen = centers_of(range(100, 100 + k), rng.normal((k, 8)))
        feats = rng.normal((n, 8))
        labels = np.where(rng.integers(0, 2, n) == 1,
                          seen.class_ids[distances(feats, seen.centers, "l2").argmin(1)],
                          unseen.class_ids[distances(feats, unseen.centers, "l2").argmin(1)])
        return feats, labels, seen, unseen

    def test_memory_bounded_by_distance_matrix(self):
        n, k = 2000, 50
        feats, labels, seen, unseen = self.wide_setup(n, k)
        seen_unseen_curve(feats, labels, seen, unseen)  # first-call imports
        tracemalloc.start()
        try:
            curve = seen_unseen_curve(feats, labels, seen, unseen)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert curve.calibrations.size > n / 4
        # the N x 2K distance matrix is 1.6 MB; a count matrix per sweep
        # state would be N times that
        assert peak < 2 * n * 2 * k * 8

    def test_memory_holds_one_population_block_at_a_time(self):
        # each population's distance block is reduced in one pass and freed:
        # an argmin over a column block of the full N x 2K matrix would copy
        # the block and pass 1.5 matrices
        n, k = 2000, 50
        feats, labels, seen, unseen = self.wide_setup(n, k)
        seen_unseen_curve(feats, labels, seen, unseen)  # first-call imports
        tracemalloc.start()
        try:
            seen_unseen_curve(feats, labels, seen, unseen)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * n * 2 * k * 8

    def test_unseen_anchor_is_zsl_top1(self):
        # exactly equal, also at 10 classes, where summing the class rates in
        # another order than zsl_top1 (pairwise) moves the last bit
        for k in (2, 10):
            feats, labels, seen, unseen = self.random_setup(k, n=30 * k)
            curve = seen_unseen_curve(feats, labels, seen, unseen)
            rows = np.isin(labels, unseen.class_ids)
            assert curve.unseen_acc[-1] == zsl_top1(feats[rows], labels[rows], unseen)

    def test_rows_of_neither_population_ignored(self):
        feats, labels, seen, unseen = self.random_setup()
        extra = feats[::3]
        with_extra = seen_unseen_curve(
            np.vstack([feats, extra]),
            np.concatenate([labels, np.full(len(extra), 99)]), seen, unseen)
        plain = seen_unseen_curve(feats, labels, seen, unseen)
        for field in ("calibrations", "seen_acc", "unseen_acc"):
            np.testing.assert_array_equal(getattr(with_extra, field), getattr(plain, field))
        assert with_extra.auc == plain.auc
        assert with_extra.at_zero == plain.at_zero

    def test_one_population_missing_rejected(self):
        feats, labels, seen, unseen = self.separable_setup()
        rows = np.isin(labels, seen.class_ids)
        with pytest.raises(InvalidInputError, match="both populations"):
            seen_unseen_curve(feats[rows], labels[rows], seen, unseen)

    def test_shared_class_id_rejected(self):
        feats, labels, seen, unseen = self.separable_setup()
        shared = centers_of([2, 11], unseen.centers)
        with pytest.raises(InvalidInputError, match="disjoint"):
            seen_unseen_curve(feats, labels, seen, shared)

    def test_csv_export_format(self):
        feats, labels, seen, unseen = self.separable_setup()
        curve = seen_unseen_curve(feats, labels, seen, unseen)
        text = curve_csv(curve)
        lines = text.strip().split("\n")
        assert lines[0] == "calibration,acc_seen,acc_unseen"
        assert lines[1].startswith("-inf,")
        assert lines[-1].startswith("inf,")
        # one row per vertex: the two anchors and the corner
        assert len(lines) == 1 + 3
        assert lines[2].endswith(",1,1")

    def test_svg_export_mentions_auc(self):
        feats, labels, seen, unseen = self.separable_setup()
        curve = seen_unseen_curve(feats, labels, seen, unseen)
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

    def test_ties_and_duplicated_ratio_match_brute_force(self):
        # rows at distance 1 or 2 from the center tie in two groups: the
        # smaller instance index is retrieved first, and a repeated ratio is
        # one entry scored from the same ranking
        rng = RngStream(20, 0)
        feats = ((2 * rng.integers(0, 2, 60) - 1) * rng.integers(1, 3, 60)).astype(float)
        labels = np.where(feats > 0, 4, 99)
        out = retrieval_precision(feats[:, None], labels, centers_of([4], [[0.0]]),
                                  ratios=(0.5, 0.25, 0.5))
        ranked = sorted(range(60), key=lambda i: (abs(feats[i]), i))
        n_c = int(np.sum(labels == 4))
        expected = [(r, sum(labels[i] == 4 for i in ranked[:math.ceil(r * n_c)])
                     / math.ceil(r * n_c)) for r in (0.5, 0.25)]
        assert list(out.items()) == expected

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

    @pytest.mark.parametrize("metric", ["l2", "cosine"])
    @pytest.mark.parametrize("nan_rows", [0, 250])
    def test_matches_full_stable_sort(self, metric, nan_rows):
        # features on a coarse grid force many equal distances; classes of
        # unequal size; ratios whose k passes the class size (the selection
        # then runs at 2.5 n_c) and one past the whole test set (no
        # selection); NaN distances sort last, also when the k-th is NaN
        rng = RngStream(24, 0)
        n = 300
        feats = rng.integers(-2, 3, (n, 3)).astype(float)
        feats[:nan_rows] = np.nan
        ids = np.array([3, 8, 11, 40])
        labels = np.concatenate([ids[rng.integers(0, 4, n - 40)], np.full(40, 8)])
        labels[rng.integers(0, n, 30)] = 77          # rows of no unseen class
        centers = centers_of(ids, rng.integers(-1, 2, (4, 3)).astype(float))
        d = distances(feats, centers.centers, metric)
        assert len(np.unique(d)) < d.size / 10
        for ratios in ((0.1, 0.25, 1.0, 2.5), (0.5, 1000.0)):
            expected = {}
            for ratio in ratios:
                per = []
                for j, cid in enumerate(ids):
                    truth = labels == cid
                    k = int(np.ceil(ratio * truth.sum()))
                    per.append(float(truth[np.argsort(d[:, j], kind="stable")][:k].sum()) / k)
                expected[ratio] = float(np.mean(per))
            assert retrieval_precision(feats, labels, centers, ratios=ratios,
                                       metric=metric) == expected

    def test_class_without_instances_rejected(self):
        centers = centers_of([1, 2], [[0.0], [1.0]])
        with pytest.raises(InvalidInputError, match="unseen class 2"):
            retrieval_precision(np.array([[0.0]]), np.array([1]), centers)

    @pytest.mark.parametrize("ratio", [0.0, -0.5, float("nan"), float("inf")])
    def test_ratio_must_be_finite_and_positive(self, ratio):
        centers = centers_of([1], [[0.0]])
        with pytest.raises(InvalidInputError, match="eval.retrieval_ratios"):
            retrieval_precision(np.array([[0.0]]), np.array([1]), centers,
                                ratios=(0.5, ratio))
