"""Dataset model, on-disk feature format, synthetic benchmark generation,
per-class statistics and the seen-class train/validation split.

On-disk layout: a JSON manifest naming binary blobs. Every blob starts with
magic "CZFD", a little-endian u16 version, u32 rows and u32 cols; the payload
is little-endian float64 for feature/descriptor blobs and u32 for the label
blob (one class id per feature row). Round trips are bit-exact.
"""
from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (DatasetFormatError, InvalidConfigError, InvalidInputError,
                     InvalidSplitError)
from .numerics import RngStream

BLOB_MAGIC = b"CZFD"
BLOB_VERSION = 1

_MANIFEST_CLASS_KEYS = {"id", "name", "super", "seen", "descriptor_blob",
                        "descriptor_row"}


@dataclass
class ZslDataset:
    """Feature vectors plus a class table with seen/unseen flags.

    `labels` holds class ids, one per feature row. Unseen classes never
    contribute rows to training (the training loop only reads seen-class
    instances); rows labeled with unseen classes are the evaluation pool.
    """

    features: np.ndarray      # (N, X)
    labels: np.ndarray        # (N,) class ids
    class_ids: np.ndarray     # (K,)
    class_names: list[str]
    descriptors: np.ndarray   # (K, T)
    super_ids: np.ndarray     # (K,)
    seen_mask: np.ndarray     # (K,) bool

    def validate(self) -> "ZslDataset":
        if self.features.ndim != 2:
            raise DatasetFormatError("features must be a 2-D matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise DatasetFormatError("one label required per feature row")
        k = self.class_ids.shape[0]
        if len(self.class_names) != k or self.descriptors.shape[0] != k \
                or self.super_ids.shape[0] != k or self.seen_mask.shape[0] != k:
            raise DatasetFormatError("class table columns have inconsistent lengths")
        uniq, counts = np.unique(self.class_ids, return_counts=True)
        if np.any(counts > 1):
            dup = int(uniq[counts > 1][0])
            raise DatasetFormatError(f"duplicate class id {dup}")
        known = set(int(c) for c in self.class_ids)
        for lbl in np.unique(self.labels):
            if int(lbl) not in known:
                raise DatasetFormatError(f"dangling label {int(lbl)} has no class entry")
        if not np.all(np.isfinite(self.features)):
            raise DatasetFormatError("features contain non-finite values")
        if not np.all(np.isfinite(self.descriptors)):
            raise DatasetFormatError("descriptors contain non-finite values")
        return self

    # -- convenience views ---------------------------------------------------

    @property
    def n_instances(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def text_dim(self) -> int:
        return self.descriptors.shape[1]

    @property
    def seen_class_ids(self) -> np.ndarray:
        return self.class_ids[self.seen_mask]

    @property
    def unseen_class_ids(self) -> np.ndarray:
        return self.class_ids[~self.seen_mask]

    def class_index(self, class_id: int) -> int:
        idx = np.flatnonzero(self.class_ids == class_id)
        if idx.size == 0:
            raise InvalidInputError(f"unknown class id {class_id}")
        return int(idx[0])

    def descriptor_of(self, class_id: int) -> np.ndarray:
        return self.descriptors[self.class_index(class_id)]

    def instances_of(self, class_id: int) -> np.ndarray:
        return self.features[self.labels == class_id]

    def restrict_to(self, class_ids) -> "ZslDataset":
        """New dataset holding only the listed classes and their instances."""
        wanted = set(int(c) for c in class_ids)
        cls_sel = np.array([int(c) in wanted for c in self.class_ids])
        row_sel = np.isin(self.labels, list(wanted))
        return ZslDataset(
            features=self.features[row_sel].copy(),
            labels=self.labels[row_sel].copy(),
            class_ids=self.class_ids[cls_sel].copy(),
            class_names=[n for n, keep in zip(self.class_names, cls_sel) if keep],
            descriptors=self.descriptors[cls_sel].copy(),
            super_ids=self.super_ids[cls_sel].copy(),
            seen_mask=self.seen_mask[cls_sel].copy(),
        ).validate()

    def with_seen_flags(self, seen_ids) -> "ZslDataset":
        """Same data with the seen flag true exactly for the listed classes."""
        seen = set(int(c) for c in seen_ids)
        mask = np.array([int(c) in seen for c in self.class_ids])
        return replace(self, seen_mask=mask).validate()


# --------------------------------------------------------------------------
# Blob + manifest I/O
# --------------------------------------------------------------------------

def write_blob(path, array: np.ndarray, dtype: str) -> None:
    a = np.ascontiguousarray(np.atleast_2d(array).astype(dtype))
    with open(path, "wb") as f:
        f.write(BLOB_MAGIC)
        f.write(struct.pack("<HII", BLOB_VERSION, a.shape[0], a.shape[1]))
        f.write(a.tobytes())


def read_blob(path, dtype: str) -> np.ndarray:
    path = Path(path)
    if not path.exists():
        raise DatasetFormatError(f"missing blob {path.name}")
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != BLOB_MAGIC:
            raise DatasetFormatError(
                f"bad magic {magic!r} in blob {path.name}, expected {BLOB_MAGIC!r}")
        header = f.read(10)
        if len(header) != 10:
            raise DatasetFormatError(f"blob {path.name} truncated header")
        version, rows, cols = struct.unpack("<HII", header)
        if version != BLOB_VERSION:
            raise DatasetFormatError(
                f"unsupported blob version {version} in {path.name}")
        expected = rows * cols * np.dtype(dtype).itemsize
        size = os.fstat(f.fileno()).st_size - f.tell()
        if size == expected:
            out = np.empty((rows, cols), dtype=dtype)
            size = f.readinto(out)
    if size != expected:
        raise DatasetFormatError(
            f"blob {path.name} payload is {size} bytes, expected {expected}")
    return out


def save_dataset(dataset: ZslDataset, manifest_path) -> None:
    """Write manifest + blobs next to `manifest_path` (stem-prefixed names)."""
    dataset.validate()
    manifest_path = Path(manifest_path)
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    stem = manifest_path.stem
    desc_name = f"{stem}_descriptors.czfd"
    feat_name = f"{stem}_features.czfd"
    lab_name = f"{stem}_labels.czfd"
    write_blob(manifest_path.parent / desc_name, dataset.descriptors, "<f8")
    write_blob(manifest_path.parent / feat_name, dataset.features, "<f8")
    write_blob(manifest_path.parent / lab_name,
               dataset.labels.reshape(-1, 1), "<u4")
    classes = [{"id": int(cid), "name": name, "super": int(sup),
                "seen": bool(seen), "descriptor_blob": desc_name,
                "descriptor_row": i}
               for i, (cid, name, sup, seen)
               in enumerate(zip(dataset.class_ids, dataset.class_names,
                                dataset.super_ids, dataset.seen_mask))]
    manifest = {"classes": classes, "features_blob": feat_name,
                "labels_blob": lab_name}
    with open(manifest_path, "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
        f.write("\n")


def load_dataset(manifest_path) -> ZslDataset:
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise DatasetFormatError(f"missing manifest {manifest_path}")
    try:
        with open(manifest_path) as f:
            manifest = json.load(f)
    except json.JSONDecodeError as e:
        raise DatasetFormatError(f"manifest is not valid JSON: {e}") from e
    for key in ("classes", "features_blob", "labels_blob"):
        if key not in manifest:
            raise DatasetFormatError(f"manifest missing field {key!r}")
    base = manifest_path.parent
    features = read_blob(base / manifest["features_blob"], "<f8")
    labels = read_blob(base / manifest["labels_blob"], "<u4").ravel().astype(np.int64)

    desc_cache: dict[str, np.ndarray] = {}
    ids, names, supers, seen, desc_rows = [], [], [], [], []
    for entry in manifest["classes"]:
        missing = _MANIFEST_CLASS_KEYS - set(entry)
        if missing:
            raise DatasetFormatError(f"class entry missing fields {sorted(missing)}")
        blob = entry["descriptor_blob"]
        if blob not in desc_cache:
            desc_cache[blob] = read_blob(base / blob, "<f8")
        table = desc_cache[blob]
        row = int(entry["descriptor_row"])
        if not 0 <= row < table.shape[0]:
            raise DatasetFormatError(
                f"descriptor_row {row} out of range for blob {blob}")
        ids.append(int(entry["id"]))
        names.append(str(entry["name"]))
        supers.append(int(entry["super"]))
        seen.append(bool(entry["seen"]))
        desc_rows.append(table[row])
    return ZslDataset(
        features=features,
        labels=labels,
        class_ids=np.array(ids, dtype=np.int64),
        class_names=names,
        descriptors=np.array(desc_rows, dtype=np.float64),
        super_ids=np.array(supers, dtype=np.int64),
        seen_mask=np.array(seen, dtype=bool),
    ).validate()


# --------------------------------------------------------------------------
# Synthetic benchmark
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticConfig:
    """Generative recipe for desk-scale benchmarks.

    Classes cluster around per-super-category descriptor prototypes; features
    are a fixed random linear map of the descriptor, optionally rectified,
    plus Gaussian noise. The easy split holds out classes inside each
    super-category; the hard split holds out whole super-categories.
    """

    n_super: int = 8
    classes_per_super: int = 4
    instances_per_class: int = 50
    text_dim: int = 32
    feature_dim: int = 48
    noise_dim: int = 16
    descriptor_noise: float = 0.3
    feature_noise: float = 0.05
    nonlinear: bool = True
    split_mode: str = "hard"
    unseen_fraction: float = 0.25
    seed: int = 0

    def validate(self) -> "SyntheticConfig":
        counts = (self.n_super, self.classes_per_super, self.instances_per_class,
                  self.text_dim, self.feature_dim, self.noise_dim)
        if any(c < 1 for c in counts):
            raise InvalidConfigError(f"all synthetic counts must be >= 1: {self}")
        if self.split_mode not in ("easy", "hard"):
            raise InvalidConfigError(f"split_mode must be easy or hard, got {self.split_mode!r}")
        if not 0.0 < self.unseen_fraction < 1.0:
            raise InvalidConfigError(
                f"unseen_fraction must be in (0, 1), got {self.unseen_fraction}")
        if self.descriptor_noise < 0 or self.feature_noise < 0:
            raise InvalidConfigError("noise scales must be nonnegative")
        return self


def make_synthetic(config: SyntheticConfig) -> ZslDataset:
    config.validate()
    rng = RngStream(config.seed, 100)
    n_classes = config.n_super * config.classes_per_super

    prototypes = rng.normal((config.n_super, config.text_dim))
    descriptors = np.repeat(prototypes, config.classes_per_super, axis=0) \
        + config.descriptor_noise * rng.normal((n_classes, config.text_dim))
    supers = np.repeat(np.arange(config.n_super), config.classes_per_super)

    mapping = rng.normal((config.feature_dim, config.text_dim)) / np.sqrt(config.text_dim)
    clean = descriptors @ mapping.T
    if config.nonlinear:
        clean = np.maximum(clean, 0.0)

    n = config.instances_per_class
    features = np.repeat(clean, n, axis=0) \
        + config.feature_noise * rng.normal((n_classes * n, config.feature_dim))
    class_ids = np.arange(1, n_classes + 1, dtype=np.int64)
    labels = np.repeat(class_ids, n)

    split_rng = RngStream(config.seed, 101)
    seen = np.ones(n_classes, dtype=bool)
    if config.split_mode == "hard":
        k = int(round(config.unseen_fraction * config.n_super))
        if k == 0:
            raise InvalidConfigError(
                "unseen_fraction produces 0 unseen classes on the hard split")
        if k >= config.n_super:
            raise InvalidConfigError("hard split would hold out every super-category")
        held = split_rng.permutation(config.n_super)[:k]
        seen[np.isin(supers, held)] = False
    else:
        per = min(config.classes_per_super - 1,
                  int(round(config.unseen_fraction * config.classes_per_super)))
        if per <= 0:
            raise InvalidConfigError(
                "unseen_fraction produces 0 unseen classes on the easy split")
        for s in range(config.n_super):
            members = np.flatnonzero(supers == s)
            held = split_rng.permutation(members.size)[:per]
            seen[members[held]] = False

    return ZslDataset(
        features=features,
        labels=labels,
        class_ids=class_ids,
        class_names=[f"class{int(c):03d}" for c in class_ids],
        descriptors=descriptors,
        super_ids=supers.astype(np.int64),
        seen_mask=seen,
    ).validate()


def class_means(dataset: ZslDataset, class_ids) -> np.ndarray:
    """Arithmetic feature mean per requested class, stacked in given order."""
    out = np.zeros((len(class_ids), dataset.feature_dim))
    for i, cid in enumerate(class_ids):
        rows = dataset.instances_of(int(cid))
        if rows.shape[0] == 0:
            raise InvalidInputError(f"class {int(cid)} has no instances to average")
        out[i] = rows.mean(axis=0)
    return out


def split_train_val(dataset: ZslDataset, ratio: float = 0.8,
                    seed: int = 0) -> tuple[ZslDataset, ZslDataset]:
    """Class-level split of the seen classes.

    Returns (train, holdout): `train` keeps the training classes seen and
    re-flags the held-out classes as pseudo-unseen (their instances stay in
    the dataset as the validation pool, which training never reads);
    `holdout` is a standalone dataset of just the held-out classes.
    """
    seen_ids = np.sort(dataset.seen_class_ids)
    if seen_ids.size < 2:
        raise InvalidSplitError("need at least 2 seen classes to split")
    n_train = int(round(ratio * seen_ids.size))
    if n_train >= seen_ids.size:
        raise InvalidSplitError(
            f"ratio {ratio} leaves 0 validation classes out of {seen_ids.size}")
    if n_train < 1:
        raise InvalidSplitError(f"ratio {ratio} leaves 0 training classes")
    perm = RngStream(seed, 102).permutation(seen_ids.size)
    train_ids = seen_ids[perm[:n_train]]
    val_ids = seen_ids[perm[n_train:]]
    keep = np.concatenate([train_ids, val_ids])
    train_ds = dataset.restrict_to(keep).with_seen_flags(train_ids)
    val_ds = dataset.restrict_to(val_ids).with_seen_flags(val_ids)
    return train_ds, val_ds
