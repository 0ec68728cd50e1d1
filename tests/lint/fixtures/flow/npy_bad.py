"""RL012 fixture: dtype and shape discipline in batch array code.

numpy is imported only inside ``load``, behind ``global np`` (the way
``repro.sim.fluid_batch`` loads it): the rule covers the module anyway.
"""


def load():
    global np
    import numpy as np
    return np.zeros(4)


def build(n: int):
    idx = np.arange(n)
    grid = np.zeros((n, 4), dtype=np.float64)
    pad = np.full((n,), np.nan, dtype=np.float64)
    counts = np.zeros(n, dtype=np.int64)
    counts += 0.5
    mask = idx < 3
    sel = grid[mask]
    small = np.zeros(n, dtype=np.float32)
    return sel, pad, small


def clean(n: int):
    idx = np.arange(n, dtype=np.int64)
    grid = np.zeros((n, 4), dtype=np.float64)
    rowmask = np.zeros((n, 4), dtype=np.bool_)
    acc = np.zeros(n, dtype=np.float64)
    acc += 0.5
    lanes = np.full((n,), np.inf, dtype=np.float64)
    sel = grid[rowmask]
    return idx, sel, lanes
