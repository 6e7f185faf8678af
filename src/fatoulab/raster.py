"""Raster primitives: frame flood fill, 4-neighbour rings and component labeling.

`scipy.ndimage` is imported inside each function, so importing this module
(and every module that imports it) loads numpy alone.
"""

from __future__ import annotations

import numpy as np

# 4-connectivity for foreground labeling avoids joining components across
# diagonal Julia filaments; the complement flood uses the dual 8-connectivity
# so that thin diagonal filaments do not spuriously enclose area.
_CROSS = np.array([[False, True, False], [True, True, True], [False, True, False]])
_BOX = np.ones((3, 3), dtype=bool)


def fill_from_infinity(mask: np.ndarray) -> np.ndarray:
    """Raster filled closure: mask plus the complement pockets unreachable from the frame.

    The border cells of the raster are declared "unbounded"; any complement
    component touching them is reachable from infinity and stays unfilled.
    Idempotent and monotone in the mask.
    """
    from scipy import ndimage

    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError("mask must be a 2-d boolean raster")
    comp = ~mask
    labels, n = ndimage.label(comp, structure=_BOX)
    if n == 0:
        return mask.copy()
    border = np.zeros_like(mask)
    border[0, :] = border[-1, :] = True
    border[:, 0] = border[:, -1] = True
    reachable = np.unique(labels[border & comp])
    reachable = reachable[reachable > 0]
    keep = np.zeros(n + 1, dtype=bool)
    keep[reachable] = True
    return mask | ~keep[labels]


def outer_ring(mask: np.ndarray) -> np.ndarray:
    """Cells outside `mask` that have a 4-neighbour inside it."""
    from scipy import ndimage

    return ndimage.binary_dilation(mask, structure=_CROSS) & ~mask


def label_by_class(classes: np.ndarray) -> np.ndarray:
    """4-connected labeling of the cells of every nonzero class, split by class.

    Labels are 1-based and assigned in ascending class order then raster
    order, so reruns are stable. Cells of class 0 get label 0.
    """
    from scipy import ndimage

    classes = np.asarray(classes)
    labels = np.zeros(classes.shape, dtype=np.int32)
    next_label = 1
    for cls in np.unique(classes[classes != 0]):
        mask = classes == cls
        lab, n = ndimage.label(mask, structure=_CROSS)
        labels[mask] = lab[mask] + (next_label - 1)
        next_label += n
    return labels
