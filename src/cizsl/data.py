"""Dataset model, on-disk feature format, synthetic benchmark generation,
per-class statistics and the seen-class train/validation split.

On-disk layout: a JSON manifest naming binary blobs. Every blob starts with
magic "CZFD", a little-endian u16 version, u32 rows and u32 cols; the payload
is little-endian float64 for feature/descriptor blobs and u32 for the label
blob (one class id per feature row). Round trips are bit-exact.

Each dataset-sized array exists once on the way from `make_synthetic`
through `save_dataset` and `load_dataset`: synthesis draws its noise into
the output, blobs are written from the array's own buffer and read straight
into a new one, and no check allocates an array of the features' shape.
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
LABEL_MAX = 2**32 - 1
# bytes of the random feature map `make_synthetic` draws and applies per row
# block; every test and benchmark shape draws its map as one block
SYNTH_BLOCK_BYTES = 8 << 20

# each class entry's fields and their JSON types: a bool is no integer and a
# float with a zero fraction no id
_MANIFEST_CLASS_KEYS = {"id": int, "name": str, "super": int, "seen": bool,
                        "descriptor_blob": str, "descriptor_row": int}
_JSON_TYPE_NAMES = {int: "a 64-bit integer", bool: "a boolean", str: "a string",
                    list: "a list"}


@dataclass
class ZslDataset:
    """Feature vectors plus a class table with seen/unseen flags.

    The class table is in ascending id order, so the seen and unseen
    classes are masks of one sorted table. `labels` holds class ids, one
    per feature row. Unseen classes never contribute rows to training (the
    training loop only reads seen-class instances); rows labeled with
    unseen classes are the evaluation pool.
    """

    features: np.ndarray      # (N, X)
    labels: np.ndarray        # (N,) class ids
    class_ids: np.ndarray     # (K,) strictly ascending
    class_names: list[str]
    descriptors: np.ndarray   # (K, T)
    super_ids: np.ndarray     # (K,)
    seen_mask: np.ndarray     # (K,) bool

    def validate(self) -> "ZslDataset":
        if self.features.ndim != 2:
            raise DatasetFormatError("features must be a 2-D matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise DatasetFormatError("one label required per feature row")
        ids = self.class_ids
        k = ids.shape[0]
        if len(self.class_names) != k or self.descriptors.shape[0] != k \
                or self.super_ids.shape[0] != k or self.seen_mask.shape[0] != k:
            raise DatasetFormatError("class table columns have inconsistent lengths")
        steps = np.flatnonzero(ids[1:] <= ids[:-1])
        if steps.size:
            a, b = int(ids[steps[0]]), int(ids[steps[0] + 1])
            raise DatasetFormatError(f"duplicate class id {a}" if a == b else
                                     f"class id {b} follows class id {a}: "
                                     f"class ids must ascend")
        dangling = self.labels[~np.isin(self.labels, ids)]
        if dangling.size:
            raise DatasetFormatError(
                f"dangling label {int(dangling.min())} has no class entry")
        if not _all_finite(self.features):
            raise DatasetFormatError("features contain non-finite values")
        if not _all_finite(self.descriptors):
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

    def restrict_to(self, class_ids) -> "ZslDataset":
        """New dataset holding only the listed classes and their instances."""
        cls_sel = np.isin(self.class_ids, class_ids)
        row_sel = np.isin(self.labels, self.class_ids[cls_sel])
        # boolean indexing copies: each field is copied once
        return ZslDataset(
            features=self.features[row_sel],
            labels=self.labels[row_sel],
            class_ids=self.class_ids[cls_sel],
            class_names=[n for n, keep in zip(self.class_names, cls_sel) if keep],
            descriptors=self.descriptors[cls_sel],
            super_ids=self.super_ids[cls_sel],
            seen_mask=self.seen_mask[cls_sel],
        ).validate()


def _all_finite(a: np.ndarray) -> bool:
    """No NaN or infinity in `a`: min and max propagate NaN and reach any
    infinity, and allocate nothing of `a`'s size."""
    return a.size == 0 or bool(np.isfinite(a.min()) and np.isfinite(a.max()))


# --------------------------------------------------------------------------
# Blob + manifest I/O
# --------------------------------------------------------------------------

def _blob_parts(array: np.ndarray, dtype: str) -> list:
    """Header bytes and payload of `array` as a blob. An array already
    C-contiguous in `dtype` is its own payload: no copy is made."""
    a = np.ascontiguousarray(np.atleast_2d(array), dtype=dtype)
    return [BLOB_MAGIC + struct.pack("<HII", BLOB_VERSION, a.shape[0], a.shape[1]), a]


def _write_files(files) -> None:
    """Write each `(path, parts)` file, the buffers `parts` in turn, as
    `<name>.tmp`, then move them into place in the given order with
    `os.replace`. If a write fails, every temp file is removed before any
    final name is touched."""
    temps = []
    try:
        for path, parts in files:
            temps.append(path.with_name(path.name + ".tmp"))
            with open(temps[-1], "wb") as f:
                for part in parts:
                    f.write(part)
        for temp, (path, _) in zip(temps, files):
            os.replace(temp, path)
    except BaseException:
        for temp in temps:
            temp.unlink(missing_ok=True)
        raise


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
    # the label blob holds u32 class ids; a wider id would wrap silently
    wide = dataset.labels[(dataset.labels < 0) | (dataset.labels > LABEL_MAX)]
    if wide.size:
        raise InvalidInputError(f"class id {int(wide[0])} does not fit the u32 label "
                                f"blob: ids with rows must lie in [0, {LABEL_MAX}]")
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    base.mkdir(parents=True, exist_ok=True)
    stem = manifest_path.stem
    desc_name = f"{stem}_descriptors.czfd"
    feat_name = f"{stem}_features.czfd"
    lab_name = f"{stem}_labels.czfd"
    classes = [{"id": int(cid), "name": name, "super": int(sup),
                "seen": bool(seen), "descriptor_blob": desc_name,
                "descriptor_row": i}
               for i, (cid, name, sup, seen)
               in enumerate(zip(dataset.class_ids, dataset.class_names,
                                dataset.super_ids, dataset.seen_mask))]
    manifest = {"classes": classes, "features_blob": feat_name,
                "labels_blob": lab_name}
    text = json.dumps(manifest, indent=1, sort_keys=True) + "\n"
    # the manifest is moved into place last, so a failed save leaves every
    # name as it was and an older dataset under this name still loads
    _write_files([
        (base / desc_name, _blob_parts(dataset.descriptors, "<f8")),
        (base / feat_name, _blob_parts(dataset.features, "<f8")),
        (base / lab_name, _blob_parts(dataset.labels.reshape(-1, 1), "<u4")),
        (manifest_path, [text.encode()]),
    ])


def _json_field(obj: dict, key: str, kind: type, where: str):
    """`obj[key]`, which must be exactly of the JSON type `kind`; integers
    must also fit the int64 id columns."""
    value = obj[key]
    if type(value) is not kind or kind is int and not -2**63 <= value < 2**63:
        raise DatasetFormatError(
            f"{where} field {key!r} must be {_JSON_TYPE_NAMES[kind]}, got {value!r}")
    return value


def load_dataset(manifest_path) -> ZslDataset:
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise DatasetFormatError(f"missing manifest {manifest_path}")
    try:
        with open(manifest_path) as f:
            manifest = json.load(f)
    except json.JSONDecodeError as e:
        raise DatasetFormatError(f"manifest is not valid JSON: {e}") from e
    if not isinstance(manifest, dict):
        raise DatasetFormatError("manifest must be a JSON object")
    for key, kind in (("classes", list), ("features_blob", str), ("labels_blob", str)):
        if key not in manifest:
            raise DatasetFormatError(f"manifest missing field {key!r}")
        _json_field(manifest, key, kind, "manifest")
    base = manifest_path.parent
    features = read_blob(base / manifest["features_blob"], "<f8")
    labels = read_blob(base / manifest["labels_blob"], "<u4").ravel().astype(np.int64)

    # the one layout `save_dataset` writes: entry i names row i of one
    # descriptor blob, which is then the descriptor matrix as read
    entries = []
    for i, entry in enumerate(manifest["classes"]):
        if not isinstance(entry, dict):
            raise DatasetFormatError(f"class entry {i} must be an object, got {entry!r}")
        missing = _MANIFEST_CLASS_KEYS.keys() - entry.keys()
        if missing:
            raise DatasetFormatError(f"class entry {i} missing fields {sorted(missing)}")
        entries.append({key: _json_field(entry, key, kind, f"class entry {i}")
                        for key, kind in _MANIFEST_CLASS_KEYS.items()})
        blob, row = entry["descriptor_blob"], entry["descriptor_row"]
        if blob != entries[0]["descriptor_blob"] or row != i:
            raise DatasetFormatError(
                f"class entry {i} names row {row} of descriptor blob {blob}: entry i "
                f"must name row i of the one blob {entries[0]['descriptor_blob']}")
    descriptors = np.empty((0, 0))
    if entries:
        blob = entries[0]["descriptor_blob"]
        descriptors = read_blob(base / blob, "<f8")
        if descriptors.shape[0] != len(entries):
            raise DatasetFormatError(
                f"descriptor blob {blob} has {descriptors.shape[0]} rows for "
                f"{len(entries)} classes")
    return ZslDataset(
        features=features,
        labels=labels,
        class_ids=np.array([e["id"] for e in entries], dtype=np.int64),
        class_names=[e["name"] for e in entries],
        descriptors=descriptors,
        super_ids=np.array([e["super"] for e in entries], dtype=np.int64),
        seen_mask=np.array([e["seen"] for e in entries], dtype=bool),
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
    descriptors = _around(prototypes, config.classes_per_super,
                          config.descriptor_noise, rng)
    supers = np.repeat(np.arange(config.n_super), config.classes_per_super)

    # clean = descriptors @ mapping.T for a (feature_dim, text_dim) map drawn
    # in row blocks of at most SYNTH_BLOCK_BYTES, so the map never exists whole
    clean = np.empty((n_classes, config.feature_dim))
    step = max(1, SYNTH_BLOCK_BYTES // (8 * config.text_dim))
    for lo in range(0, config.feature_dim, step):
        block = rng.normal((min(step, config.feature_dim - lo), config.text_dim))
        block /= np.sqrt(config.text_dim)
        clean[:, lo:lo + step] = descriptors @ block.T
    if config.nonlinear:
        np.maximum(clean, 0.0, out=clean)

    n = config.instances_per_class
    features = _around(clean, n, config.feature_noise, rng)
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


def _around(centers: np.ndarray, n: int, scale: float, rng: RngStream) -> np.ndarray:
    """`np.repeat(centers, n, axis=0) + scale * rng.normal(...)`, bit for bit,
    with the noise drawn into the result and each center added through a
    (K, n, D) view: no temporary of the result's size."""
    out = np.empty((centers.shape[0] * n, centers.shape[1]))
    rng.fill_normal(out)
    out *= scale
    grouped = out.reshape(centers.shape[0], n, -1)
    grouped += centers[:, None, :]
    return out


def class_means(dataset: ZslDataset, class_ids) -> np.ndarray:
    """Arithmetic feature mean per requested class, stacked in given order.

    One stable sort of the labels bounds each class's rows; each class sums
    a gather of its rows in dataset order and divides by its count, as
    `mean(axis=0)` does, so it is bit-equal to the mean over
    `features[labels == c]`.
    """
    ids = np.array([int(c) for c in class_ids], dtype=np.int64)
    # np.zeros, not np.empty: with np.empty the eval-wide benchmark's peak
    # RSS read 3 MB higher (a heap-layout effect)
    out = np.zeros((ids.size, dataset.feature_dim))
    order = np.argsort(dataset.labels, kind="stable")
    labels = dataset.labels[order]
    lo = np.searchsorted(labels, ids, side="left")
    hi = np.searchsorted(labels, ids, side="right")
    for i, (cid, a, b) in enumerate(zip(ids, lo, hi)):
        if a == b:
            raise InvalidInputError(f"class {int(cid)} has no instances to average")
        np.add.reduce(dataset.features[order[a:b]], axis=0, out=out[i])
    out /= (hi - lo)[:, None]
    return out


def split_train_val(dataset: ZslDataset, ratio: float = 0.8,
                    seed: int = 0) -> ZslDataset:
    """Class-level split of the seen classes.

    Returns the seen classes and their instances with the training classes
    flagged seen and the held-out classes re-flagged as pseudo-unseen: their
    instances stay in the dataset as the validation pool, which training
    never reads. Unseen classes are dropped.
    """
    seen_ids = dataset.seen_class_ids
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
    # the flags change before the restriction, which validates the result once
    flagged = replace(dataset, seen_mask=np.isin(dataset.class_ids, train_ids))
    return flagged.restrict_to(seen_ids)
