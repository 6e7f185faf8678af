"""Raster primitives: 4-neighbour rings and component labeling, in numpy alone."""

from __future__ import annotations

import numpy as np


def outer_ring(mask: np.ndarray) -> np.ndarray:
    """Cells outside `mask` that have a 4-neighbour inside it."""
    mask = np.asarray(mask, dtype=bool)
    grown = mask.copy()
    grown[1:] |= mask[:-1]
    grown[:-1] |= mask[1:]
    grown[:, 1:] |= mask[:, :-1]
    grown[:, :-1] |= mask[:, 1:]
    return grown & ~mask


def label_by_class(classes: np.ndarray) -> np.ndarray:
    """4-connected labeling of the cells of every nonzero class, split by class.

    Labels are 1-based and assigned in ascending class order then by each
    component's first cell in raster order, so reruns are stable and each
    class is numbered as SciPy's 4-connected labeling numbers it. Cells of
    class 0 get label 0.

    A run is a maximal row segment of one class, numbered in raster order.
    Two runs of one nonzero class that overlap in adjacent rows are joined;
    the union-find hooks each root onto the smallest root it is joined to and
    then jumps pointers to their roots, so every run ends at the first run of
    its component.
    """
    classes = np.asarray(classes)
    start = np.ones(classes.shape, dtype=bool)
    start[:, 1:] = classes[:, 1:] != classes[:, :-1]
    run = np.cumsum(start, dtype=np.int32).reshape(classes.shape)
    run -= 1
    run_class = classes[start]

    # One edge per overlap of two vertically adjacent runs: the first cell of
    # each row segment where a cell and the one below share a nonzero class.
    link = (classes[:-1] == classes[1:]) & (classes[1:] != 0)
    first = link.copy()
    first[:, 1:] &= ~link[:, :-1] | start[1:, 1:]
    upper, lower = run[:-1][first], run[1:][first]

    root = np.arange(run_class.size)
    while True:
        ru, rl = root[upper], root[lower]
        split = ru != rl
        if not split.any():
            break
        ru, rl = ru[split], rl[split]
        np.minimum.at(root, np.maximum(ru, rl), np.minimum(ru, rl))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
        upper, lower = upper[split], lower[split]

    labeled = (root == np.arange(root.size)) & (run_class != 0)
    order = np.argsort(run_class[labeled], kind="stable")
    number = np.empty(order.size, dtype=np.int32)
    number[order] = np.arange(1, order.size + 1, dtype=np.int32)
    run_label = np.zeros(root.size, dtype=np.int32)
    run_label[labeled] = number
    return run_label[root][run]
