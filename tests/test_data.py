import json
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cizsl.data import (SyntheticConfig, ZslDataset, class_means,
                        load_dataset, make_synthetic, save_dataset,
                        split_train_val, read_blob, write_blob)
from cizsl.errors import (DatasetFormatError, InvalidConfigError,
                          InvalidInputError, InvalidSplitError)
from helpers import datasets_equal


def small_config(**kw):
    base = dict(n_super=4, classes_per_super=3, instances_per_class=5,
                text_dim=6, feature_dim=8, noise_dim=4, descriptor_noise=0.3,
                feature_noise=0.05, nonlinear=True, split_mode="hard",
                unseen_fraction=0.25, seed=3)
    base.update(kw)
    return SyntheticConfig(**base)


class TestBlobIO:
    def test_round_trip_float(self, tmp_path):
        a = np.random.default_rng(0).normal(size=(7, 3))
        write_blob(tmp_path / "a.czfd", a, "<f8")
        b = read_blob(tmp_path / "a.czfd", "<f8")
        np.testing.assert_array_equal(a, b)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.czfd"
        p.write_bytes(b"XXXX" + bytes(10))
        with pytest.raises(DatasetFormatError, match="magic"):
            read_blob(p, "<f8")

    def test_bad_version(self, tmp_path):
        p = tmp_path / "v.czfd"
        write_blob(p, np.zeros((1, 1)), "<f8")
        raw = bytearray(p.read_bytes())
        raw[4:6] = (9).to_bytes(2, "little")
        p.write_bytes(bytes(raw))
        with pytest.raises(DatasetFormatError, match="version"):
            read_blob(p, "<f8")

    @pytest.mark.parametrize("edit", ["drop", "append"])
    def test_payload_must_match_header(self, tmp_path, edit):
        p = tmp_path / "a.czfd"
        write_blob(p, np.ones((4, 3)), "<f8")
        raw = p.read_bytes()
        p.write_bytes(raw[:-8] if edit == "drop" else raw + bytes(8))
        with pytest.raises(DatasetFormatError, match="payload is"):
            read_blob(p, "<f8")

    def test_oversized_header_rejected_before_allocating(self, tmp_path):
        # a 14-byte file whose header declares a 4e9 x 4e9 float64 payload
        p = tmp_path / "huge.czfd"
        p.write_bytes(b"CZFD" + struct.pack("<HII", 1, 4_000_000_000, 4_000_000_000))
        tracemalloc.start()
        try:
            with pytest.raises(DatasetFormatError, match="payload is 0 bytes"):
                read_blob(p, "<f8")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_missing_blob(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="missing blob"):
            read_blob(tmp_path / "nope.czfd", "<f8")


class TestManifestRoundTrip:
    def test_save_load_equal_in_every_field(self, tmp_path):
        ds = make_synthetic(small_config())
        save_dataset(ds, tmp_path / "ds.json")
        loaded = load_dataset(tmp_path / "ds.json")
        assert datasets_equal(ds, loaded)

    def test_manifest_schema_field_names(self, tmp_path):
        ds = make_synthetic(small_config())
        save_dataset(ds, tmp_path / "ds.json")
        manifest = json.loads((tmp_path / "ds.json").read_text())
        assert set(manifest) == {"classes", "features_blob", "labels_blob"}
        assert set(manifest["classes"][0]) == {"id", "name", "super", "seen",
                                               "descriptor_blob", "descriptor_row"}

    def test_missing_blob_reported(self, tmp_path):
        ds = make_synthetic(small_config())
        save_dataset(ds, tmp_path / "ds.json")
        (tmp_path / "ds_features.czfd").unlink()
        with pytest.raises(DatasetFormatError, match="missing blob"):
            load_dataset(tmp_path / "ds.json")

    def test_dangling_label_reported(self, tmp_path):
        # corrupt the label blob on disk; save_dataset itself validates
        ds = make_synthetic(small_config())
        save_dataset(ds, tmp_path / "ok.json")
        labels = read_blob(tmp_path / "ok_labels.czfd", "<u4")
        labels[0] = 999
        write_blob(tmp_path / "ok_labels.czfd", labels, "<u4")
        with pytest.raises(DatasetFormatError, match="dangling label"):
            load_dataset(tmp_path / "ok.json")

    def test_duplicate_class_id_reported(self, tmp_path):
        ds = make_synthetic(small_config())
        save_dataset(ds, tmp_path / "ds.json")
        manifest = json.loads((tmp_path / "ds.json").read_text())
        manifest["classes"][1]["id"] = manifest["classes"][0]["id"]
        (tmp_path / "ds.json").write_text(json.dumps(manifest))
        with pytest.raises(DatasetFormatError, match="duplicate class id"):
            load_dataset(tmp_path / "ds.json")

    def test_fixed_seed_reproduces_bytes(self, tmp_path):
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            save_dataset(make_synthetic(small_config()), d / "ds.json")
        for name in ("ds.json", "ds_features.czfd", "ds_labels.czfd",
                     "ds_descriptors.czfd"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()


class TestSynthetic:
    def test_hard_mode_supers_disjoint(self):
        ds = make_synthetic(small_config(split_mode="hard"))
        seen_supers = set(ds.super_ids[ds.seen_mask].tolist())
        unseen_supers = set(ds.super_ids[~ds.seen_mask].tolist())
        assert seen_supers.isdisjoint(unseen_supers)
        assert len(unseen_supers) == 1  # round(0.25 * 4)

    def test_easy_mode_supers_shared(self):
        ds = make_synthetic(small_config(split_mode="easy"))
        seen_supers = set(ds.super_ids[ds.seen_mask].tolist())
        for s in ds.super_ids[~ds.seen_mask]:
            assert int(s) in seen_supers

    def test_zero_noise_linear_instances_equal_mapped_descriptor(self):
        cfg = small_config(descriptor_noise=0.4, feature_noise=0.0, nonlinear=False)
        ds = make_synthetic(cfg)
        for cid in ds.class_ids[:4]:
            rows = ds.instances_of(int(cid))
            assert np.max(np.abs(rows - rows[0])) == 0.0

    def test_determinism_and_seed_sensitivity(self):
        a = make_synthetic(small_config(seed=5))
        b = make_synthetic(small_config(seed=5))
        c = make_synthetic(small_config(seed=6))
        assert datasets_equal(a, b)
        assert not np.array_equal(a.descriptors, c.descriptors)

    def test_zero_unseen_fraction_rejected(self):
        with pytest.raises(InvalidConfigError, match="0 unseen"):
            make_synthetic(small_config(split_mode="hard", unseen_fraction=0.05))
        with pytest.raises(InvalidConfigError, match="0 unseen"):
            make_synthetic(small_config(split_mode="easy", unseen_fraction=0.1))

    def test_invalid_counts_rejected(self):
        with pytest.raises(InvalidConfigError):
            small_config(n_super=0).validate()
        with pytest.raises(InvalidConfigError):
            small_config(unseen_fraction=1.5).validate()

    def test_hard_split_is_farther_in_descriptor_space(self):
        # mean over seeds of (unseen -> nearest seen) descriptor distance
        def mean_min_dist(ds):
            seen = np.array([ds.descriptor_of(int(c)) for c in ds.seen_class_ids])
            vals = []
            for c in ds.unseen_class_ids:
                d = np.linalg.norm(seen - ds.descriptor_of(int(c)), axis=1)
                vals.append(d.min())
            return float(np.mean(vals))

        hard, easy = [], []
        for seed in range(10):
            hard.append(mean_min_dist(make_synthetic(small_config(
                split_mode="hard", seed=seed))))
            easy.append(mean_min_dist(make_synthetic(small_config(
                split_mode="easy", seed=seed))))
        assert np.mean(hard) > np.mean(easy)


class TestClassMeans:
    def test_single_instance(self):
        ds = make_synthetic(small_config(instances_per_class=1))
        cid = int(ds.class_ids[0])
        np.testing.assert_array_equal(class_means(ds, [cid])[0],
                                      ds.instances_of(cid)[0])

    def test_two_instances_hand_case(self):
        ds = make_synthetic(small_config())
        ds = replace(ds, features=np.array([[0.0, 0.0], [2.0, 4.0]]),
                     labels=np.array([int(ds.class_ids[0])] * 2))
        np.testing.assert_array_equal(class_means(ds, [int(ds.class_ids[0])])[0],
                                      [1.0, 2.0])

    def test_matches_brute_force(self):
        ds = make_synthetic(small_config())
        for cid in ds.seen_class_ids:
            rows = ds.features[ds.labels == cid]
            brute = rows.sum(axis=0) / rows.shape[0]
            np.testing.assert_allclose(class_means(ds, [int(cid)])[0], brute,
                                       atol=1e-12)

    def test_empty_class_rejected(self):
        ds = make_synthetic(small_config())
        missing = int(ds.unseen_class_ids[0])
        ds2 = replace(ds, features=ds.features[ds.labels != missing],
                      labels=ds.labels[ds.labels != missing])
        with pytest.raises(InvalidInputError):
            class_means(ds2, [missing])


class TestSplitTrainVal:
    def test_counts_80_20(self):
        ds = make_synthetic(small_config(n_super=5, classes_per_super=2))
        # 10 seen-ish? hard split holds one super out: 8 seen classes
        seen = ds.seen_class_ids.size
        train, val = split_train_val(ds, 0.8, seed=1)
        assert train.seen_class_ids.size == round(0.8 * seen)
        assert val.class_ids.size == seen - round(0.8 * seen)

    def test_partition_of_seen_set(self):
        ds = make_synthetic(small_config())
        train, val = split_train_val(ds, 0.8, seed=2)
        train_ids = set(int(c) for c in train.seen_class_ids)
        val_ids = set(int(c) for c in val.class_ids)
        assert train_ids.isdisjoint(val_ids)
        assert train_ids | val_ids == set(int(c) for c in ds.seen_class_ids)

    def test_val_classes_become_pseudo_unseen_with_instances(self):
        ds = make_synthetic(small_config())
        train, val = split_train_val(ds, 0.8, seed=2)
        assert set(int(c) for c in train.unseen_class_ids) == \
            set(int(c) for c in val.class_ids)
        for c in train.unseen_class_ids:
            assert train.instances_of(int(c)).shape[0] > 0

    def test_deterministic(self):
        ds = make_synthetic(small_config())
        a, _ = split_train_val(ds, 0.8, seed=9)
        b, _ = split_train_val(ds, 0.8, seed=9)
        assert datasets_equal(a, b)

    def test_zero_val_classes_rejected(self):
        ds = make_synthetic(small_config())
        with pytest.raises(InvalidSplitError):
            split_train_val(ds, 0.999, seed=0)
