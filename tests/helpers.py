"""Comparisons shared by the test modules."""
import numpy as np

from cizsl.data import ZslDataset


def datasets_equal(a: ZslDataset, b: ZslDataset) -> bool:
    """Every array and the class table of `a` and `b` are identical."""
    return (np.array_equal(a.features, b.features)
            and np.array_equal(a.labels, b.labels)
            and np.array_equal(a.class_ids, b.class_ids)
            and a.class_names == b.class_names
            and np.array_equal(a.descriptors, b.descriptors)
            and np.array_equal(a.super_ids, b.super_ids)
            and np.array_equal(a.seen_mask, b.seen_mask))
