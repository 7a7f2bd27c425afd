"""Comparisons and file helpers shared by the test modules."""
import errno
from pathlib import Path

import numpy as np

from cizsl.data import ZslDataset, _blob_parts, _write_files


def datasets_equal(a: ZslDataset, b: ZslDataset) -> bool:
    """Every array and the class table of `a` and `b` are identical."""
    return (np.array_equal(a.features, b.features)
            and np.array_equal(a.labels, b.labels)
            and np.array_equal(a.class_ids, b.class_ids)
            and a.class_names == b.class_names
            and np.array_equal(a.descriptors, b.descriptors)
            and np.array_equal(a.super_ids, b.super_ids)
            and np.array_equal(a.seen_mask, b.seen_mask))


def write_blob(path, array: np.ndarray, dtype: str) -> None:
    """`array` as one CZFD blob file, written as `save_dataset` writes each
    of its blobs."""
    _write_files([(Path(path), _blob_parts(array, dtype))])


def fail_halfway_through(name):
    """An `open` for `cizsl.data` whose files named `name` raise ENOSPC after
    writing half of the first payload larger than a blob header."""
    def failing_open(path, mode):
        f = open(path, mode)
        if Path(path).name != name:
            return f
        write = f.write

        def write_half(data):
            view = memoryview(data).cast("B")
            if view.nbytes > 14:
                write(view[:view.nbytes // 2])
                raise OSError(errno.ENOSPC, "No space left on device")
            return write(view)
        f.write = write_half
        return f
    return failing_open
