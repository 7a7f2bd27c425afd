import json
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import cizsl.data
from cizsl.data import (SyntheticConfig, ZslDataset, class_means,
                        load_dataset, make_synthetic, save_dataset,
                        split_train_val, read_blob)
from cizsl.errors import (DatasetFormatError, InvalidConfigError,
                          InvalidInputError, InvalidSplitError)
from cizsl.numerics import RngStream
from helpers import datasets_equal, fail_halfway_through, write_blob


def small_config(**kw):
    base = dict(n_super=4, classes_per_super=3, instances_per_class=5,
                text_dim=6, feature_dim=8, noise_dim=4, descriptor_noise=0.3,
                feature_noise=0.05, nonlinear=True, split_mode="hard",
                unseen_fraction=0.25, seed=3)
    base.update(kw)
    return SyntheticConfig(**base)


def repeat_and_add(config):
    """Descriptors and features of `make_synthetic(config)` by the plain
    expressions: the whole feature map, `np.repeat` copies and the sums."""
    rng = RngStream(config.seed, 100)
    k = config.n_super * config.classes_per_super
    prototypes = rng.normal((config.n_super, config.text_dim))
    descriptors = np.repeat(prototypes, config.classes_per_super, axis=0) \
        + config.descriptor_noise * rng.normal((k, config.text_dim))
    mapping = rng.normal((config.feature_dim, config.text_dim)) / np.sqrt(config.text_dim)
    clean = descriptors @ mapping.T
    if config.nonlinear:
        clean = np.maximum(clean, 0.0)
    n = config.instances_per_class
    features = np.repeat(clean, n, axis=0) \
        + config.feature_noise * rng.normal((k * n, config.feature_dim))
    return descriptors, features


def blob_bytes(array, dtype="<f8"):
    header = b"CZFD" + struct.pack("<HII", 1, array.shape[0], array.shape[1])
    return header + array.astype(dtype).tobytes()


def traced_peak(fn):
    """(result of fn(), peak bytes traced while it ran)."""
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


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

    @pytest.mark.parametrize("entry,key,value", [
        (1, "seen", "no"), (1, "seen", 1), (1, "id", 1.7), (1, "id", "x"),
        (1, "id", None), (1, "id", True), (1, "id", 2**63), (1, "super", 2.0),
        (1, "descriptor_row", "a"), (1, "name", 5), (1, "descriptor_blob", 3),
        (None, "classes", 5), (None, "classes", {}), (None, "features_blob", 3),
        (None, "labels_blob", None), (None, "classes", [3])])
    def test_mistyped_field_rejected_naming_it(self, tmp_path, entry, key, value):
        # JSON types are not coerced: "no" is no false, 1.7 no class 1
        save_dataset(make_synthetic(small_config()), tmp_path / "ds.json")
        manifest = json.loads((tmp_path / "ds.json").read_text())
        (manifest if entry is None else manifest["classes"][entry])[key] = value
        (tmp_path / "ds.json").write_text(json.dumps(manifest))
        expected = (f"class entry {entry} field '{key}' must be" if entry is not None
                    else "class entry 0 must be an object" if value == [3]
                    else f"manifest field '{key}' must be")
        with pytest.raises(DatasetFormatError, match=expected):
            load_dataset(tmp_path / "ds.json")

    def test_entry_naming_another_blob_rejected_naming_it(self, tmp_path):
        save_dataset(make_synthetic(small_config()), tmp_path / "ds.json")
        write_blob(tmp_path / "wide.czfd", np.ones((1, 9)), "<f8")
        manifest = json.loads((tmp_path / "ds.json").read_text())
        manifest["classes"][2].update(descriptor_blob="wide.czfd", descriptor_row=0)
        (tmp_path / "ds.json").write_text(json.dumps(manifest))
        with pytest.raises(DatasetFormatError, match="class entry 2 names row 0 of "
                           "descriptor blob wide.czfd"):
            load_dataset(tmp_path / "ds.json")

    @pytest.mark.parametrize("entry,row", [(3, 2), (11, 12)])
    def test_entry_naming_another_row_rejected_naming_it(self, tmp_path, entry, row):
        # entry i must name row i: the blob is the descriptor matrix as read
        save_dataset(make_synthetic(small_config()), tmp_path / "ds.json")
        manifest = json.loads((tmp_path / "ds.json").read_text())
        manifest["classes"][entry]["descriptor_row"] = row
        (tmp_path / "ds.json").write_text(json.dumps(manifest))
        with pytest.raises(DatasetFormatError, match=f"class entry {entry} names row "
                           f"{row} of descriptor blob ds_descriptors.czfd"):
            load_dataset(tmp_path / "ds.json")

    @pytest.mark.parametrize("rows", [11, 13])
    def test_descriptor_blob_needs_one_row_per_class(self, tmp_path, rows):
        save_dataset(make_synthetic(small_config()), tmp_path / "ds.json")
        write_blob(tmp_path / "ds_descriptors.czfd", np.ones((rows, 6)), "<f8")
        with pytest.raises(DatasetFormatError, match=f"descriptor blob ds_descriptors.czfd "
                           f"has {rows} rows for 12 classes"):
            load_dataset(tmp_path / "ds.json")

    def test_ids_that_do_not_ascend_rejected_naming_both(self, tmp_path):
        save_dataset(make_synthetic(small_config()), tmp_path / "ds.json")
        manifest = json.loads((tmp_path / "ds.json").read_text())
        manifest["classes"][4]["id"] = 2
        (tmp_path / "ds.json").write_text(json.dumps(manifest))
        with pytest.raises(DatasetFormatError, match="class id 2 follows class id 4: "
                           "class ids must ascend"):
            load_dataset(tmp_path / "ds.json")

    @pytest.mark.parametrize("stem", ["ds", "new"])
    def test_failed_save_leaves_older_dataset_loadable(self, tmp_path, monkeypatch, stem):
        old = make_synthetic(small_config())
        save_dataset(old, tmp_path / "ds.json")
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        monkeypatch.setattr(cizsl.data, "open",
                            fail_halfway_through(f"{stem}_features.czfd.tmp"),
                            raising=False)
        with pytest.raises(OSError, match="No space left"):
            save_dataset(make_synthetic(small_config(seed=4)), tmp_path / f"{stem}.json")
        monkeypatch.undo()
        # no temp file is left and no final name was written or replaced
        assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before
        assert datasets_equal(old, load_dataset(tmp_path / "ds.json"))

    def test_failed_blob_write_leaves_the_old_blob(self, tmp_path, monkeypatch):
        write_blob(tmp_path / "a.czfd", np.zeros((2, 3)), "<f8")
        monkeypatch.setattr(cizsl.data, "open", fail_halfway_through("a.czfd.tmp"),
                            raising=False)
        with pytest.raises(OSError):
            write_blob(tmp_path / "a.czfd", np.ones((4, 3)), "<f8")
        monkeypatch.undo()
        assert [f.name for f in tmp_path.iterdir()] == ["a.czfd"]
        assert np.array_equal(read_blob(tmp_path / "a.czfd", "<f8"), np.zeros((2, 3)))

    def test_synth_save_and_load_hold_one_copy_of_the_features(self, tmp_path):
        # 2,000 x 512 float64 features (8 MB); each step's traced peak stays
        # within 1.1x the feature matrix + 1 MiB, where repeat-and-add
        # synthesis held three copies and astype + tobytes saving two
        cfg = small_config(n_super=10, classes_per_super=4, instances_per_class=50,
                           text_dim=256, feature_dim=512)
        bound = lambda ds: 1.1 * ds.features.nbytes + (1 << 20)
        ds, peak = traced_peak(lambda: make_synthetic(cfg))
        assert peak <= bound(ds)
        _, peak = traced_peak(lambda: save_dataset(ds, tmp_path / "ds.json"))
        assert peak <= bound(ds)
        loaded, peak = traced_peak(lambda: load_dataset(tmp_path / "ds.json"))
        assert peak <= bound(ds)
        assert datasets_equal(ds, loaded)

    def test_load_holds_one_copy_of_the_descriptors(self, tmp_path):
        # 200 classes x 7,551-d descriptors (11.5 MiB) and 16-d features:
        # the descriptor blob is used as read, with no per-row gather
        cfg = small_config(n_super=40, classes_per_super=5, instances_per_class=2,
                           text_dim=7551, feature_dim=16)
        save_dataset(make_synthetic(cfg), tmp_path / "ds.json")
        loaded, peak = traced_peak(lambda: load_dataset(tmp_path / "ds.json"))
        assert peak <= 1.1 * loaded.descriptors.nbytes + (1 << 20)

    @staticmethod
    def end_class_renamed(cid):
        # the first class takes an id below the table, the last one above,
        # so the ids still ascend
        ds = make_synthetic(small_config())
        end = ds.class_ids[0 if cid < ds.class_ids[0] else -1]
        return replace(ds, class_ids=np.where(ds.class_ids == end, cid, ds.class_ids),
                       labels=np.where(ds.labels == end, cid, ds.labels))

    @pytest.mark.parametrize("cid", [-1, 2**32, 2**32 + 1])
    def test_class_id_outside_u32_rejected_before_writing(self, tmp_path, cid):
        # the label blob is u32: -1 would load as 4294967295, 2**32 + 1 as 1
        with pytest.raises(InvalidInputError, match=f"class id {cid} "):
            save_dataset(self.end_class_renamed(cid), tmp_path / "out" / "ds.json")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("cid", [0, 2**32 - 1])
    def test_class_ids_at_the_u32_ends_round_trip(self, tmp_path, cid):
        ds = self.end_class_renamed(cid)
        save_dataset(ds, tmp_path / "ds.json")
        assert datasets_equal(ds, load_dataset(tmp_path / "ds.json"))

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
    @pytest.mark.parametrize("kw", [
        dict(split_mode="hard"), dict(split_mode="easy"),
        dict(split_mode="hard", nonlinear=False), dict(split_mode="easy", nonlinear=False),
        dict(instances_per_class=1), dict(instances_per_class=1, nonlinear=False)])
    def test_bytes_equal_repeat_and_add(self, tmp_path, kw):
        # features drawn into the output with a per-class add through a view
        # are bit-equal to np.repeat(clean, n) + noise, and so are the blobs
        cfg = small_config(**kw)
        ds = make_synthetic(cfg)
        descriptors, features = repeat_and_add(cfg)
        assert ds.descriptors.tobytes() == descriptors.tobytes()
        assert ds.features.tobytes() == features.tobytes()
        save_dataset(ds, tmp_path / "ds.json")
        assert (tmp_path / "ds_features.czfd").read_bytes() == blob_bytes(features)
        assert (tmp_path / "ds_descriptors.czfd").read_bytes() == blob_bytes(descriptors)
        assert (tmp_path / "ds_labels.czfd").read_bytes() == \
            blob_bytes(ds.labels.reshape(-1, 1), "<u4")

    @pytest.mark.parametrize("rows_per_block", [1, 5, 47])
    def test_feature_map_in_row_blocks_matches_one_block(self, monkeypatch, rows_per_block):
        # the map is drawn from one stream in row order, so blocks change no
        # draw; a split product may round differently (up to 1.6e-15 here)
        cfg = small_config(n_super=8, classes_per_super=4, instances_per_class=4,
                           text_dim=32, feature_dim=48)
        whole = make_synthetic(cfg)
        monkeypatch.setattr(cizsl.data, "SYNTH_BLOCK_BYTES", 8 * 32 * rows_per_block)
        blocked = make_synthetic(cfg)
        assert np.array_equal(blocked.descriptors, whole.descriptors)
        assert np.array_equal(blocked.labels, whole.labels)
        assert np.array_equal(blocked.seen_mask, whole.seen_mask)
        scale = np.max(np.abs(whole.features))
        assert np.max(np.abs(blocked.features - whole.features)) <= 1e-12 * scale

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
            rows = ds.features[ds.labels == cid]
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
            seen = ds.descriptors[ds.seen_mask]
            vals = []
            for t in ds.descriptors[~ds.seen_mask]:
                d = np.linalg.norm(seen - t, axis=1)
                vals.append(d.min())
            return float(np.mean(vals))

        hard, easy = [], []
        for seed in range(10):
            hard.append(mean_min_dist(make_synthetic(small_config(
                split_mode="hard", seed=seed))))
            easy.append(mean_min_dist(make_synthetic(small_config(
                split_mode="easy", seed=seed))))
        assert np.mean(hard) > np.mean(easy)


class TestValidate:
    @staticmethod
    def dataset(features, descriptors):
        n, k = features.shape[0], descriptors.shape[0]
        ids = np.arange(1, k + 1, dtype=np.int64)
        return ZslDataset(features=features, labels=np.ones(n, dtype=np.int64),
                          class_ids=ids, class_names=[f"c{i}" for i in ids],
                          descriptors=descriptors, super_ids=ids.copy(),
                          seen_mask=np.ones(k, dtype=bool))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["features", "descriptors"])
    def test_non_finite_rejected(self, field, value):
        arrays = {"features": np.zeros((4, 3)), "descriptors": np.zeros((2, 5))}
        arrays[field][1, 2] = value
        with pytest.raises(DatasetFormatError, match=f"{field} contain non-finite"):
            self.dataset(**arrays).validate()

    def test_extreme_finite_values_accepted(self):
        big = np.full((3, 2), np.finfo(np.float64).max)
        big[0] = -big[0]
        self.dataset(big, big[:1].copy()).validate()

    def test_empty_matrices_valid(self):
        self.dataset(np.zeros((0, 3)), np.zeros((1, 0))).validate()

    @pytest.mark.parametrize("ids,error", [
        ([1, 3, 2], "class id 2 follows class id 3: class ids must ascend"),
        ([2, 1, 3], "class id 1 follows class id 2: class ids must ascend"),
        ([1, 2, 2], "duplicate class id 2")])
    def test_class_ids_must_ascend_strictly(self, ids, error):
        ds = replace(self.dataset(np.zeros((4, 3)), np.zeros((3, 5))),
                     class_ids=np.array(ids, dtype=np.int64))
        with pytest.raises(DatasetFormatError, match=error):
            ds.validate()

    def test_restrict_to_shares_no_memory(self):
        ds = make_synthetic(small_config())
        sub = ds.restrict_to(ds.class_ids[:3])
        for name in ("features", "labels", "class_ids", "descriptors", "super_ids",
                     "seen_mask"):
            assert not np.shares_memory(getattr(sub, name), getattr(ds, name))
        assert np.array_equal(sub.features, ds.features[np.isin(ds.labels, ds.class_ids[:3])])


class TestClassMeans:
    def test_single_instance(self):
        ds = make_synthetic(small_config(instances_per_class=1))
        cid = int(ds.class_ids[0])
        np.testing.assert_array_equal(class_means(ds, [cid])[0],
                                      ds.features[ds.labels == cid][0])

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
        with pytest.raises(InvalidInputError, match=f"class {missing} has no instances"):
            class_means(ds2, [int(ds.class_ids[0]), missing])

    def test_bit_equal_to_masked_means_of_shuffled_rows(self):
        # rows in no class order; requested order kept and repeated ids
        # allowed; each mean reduces its class's rows in dataset order
        ds = make_synthetic(small_config(instances_per_class=7))
        perm = np.random.default_rng(5).permutation(ds.n_instances)
        ds = replace(ds, features=ds.features[perm], labels=ds.labels[perm])
        ids = [int(c) for c in ds.class_ids[::-1]] + [int(ds.class_ids[2])] * 2
        expected = np.array([ds.features[ds.labels == c].mean(axis=0) for c in ids])
        assert np.array_equal(class_means(ds, ids), expected)


class TestSplitTrainVal:
    def test_counts_80_20(self):
        ds = make_synthetic(small_config(n_super=5, classes_per_super=2))
        # 10 seen-ish? hard split holds one super out: 8 seen classes
        seen = ds.seen_class_ids.size
        train = split_train_val(ds, 0.8, seed=1)
        assert train.seen_class_ids.size == round(0.8 * seen)
        assert train.unseen_class_ids.size == seen - round(0.8 * seen)

    def test_partition_of_seen_set(self):
        ds = make_synthetic(small_config())
        train = split_train_val(ds, 0.8, seed=2)
        train_ids = set(int(c) for c in train.seen_class_ids)
        val_ids = set(int(c) for c in train.unseen_class_ids)
        assert train_ids.isdisjoint(val_ids)
        assert train_ids | val_ids == set(int(c) for c in ds.seen_class_ids)

    def test_val_classes_become_pseudo_unseen_with_instances(self):
        ds = make_synthetic(small_config())
        train = split_train_val(ds, 0.8, seed=2)
        # the pseudo-unseen classes are exactly the held-out seen classes,
        # each with all of its rows; the dataset's unseen classes are gone
        held_out = set(int(c) for c in ds.seen_class_ids) \
            - set(int(c) for c in train.seen_class_ids)
        assert set(int(c) for c in train.unseen_class_ids) == held_out
        assert set(int(c) for c in train.class_ids).isdisjoint(
            int(c) for c in ds.unseen_class_ids)
        for c in train.unseen_class_ids:
            assert np.any(train.labels == c)
            assert np.array_equal(train.features[train.labels == c],
                                  ds.features[ds.labels == c])

    def test_deterministic(self):
        ds = make_synthetic(small_config())
        a = split_train_val(ds, 0.8, seed=9)
        b = split_train_val(ds, 0.8, seed=9)
        assert datasets_equal(a, b)

    def test_zero_val_classes_rejected(self):
        ds = make_synthetic(small_config())
        with pytest.raises(InvalidSplitError):
            split_train_val(ds, 0.999, seed=0)
