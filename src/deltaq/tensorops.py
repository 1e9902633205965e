"""Two float64 array primitives: a finiteness check (used by the network
and the delta engine) and the relu activation of the dense pass (the delta
engine writes its relu into a preallocated buffer instead)."""

from __future__ import annotations

import numpy as np


def check_finite(t: np.ndarray) -> None:
    if not np.isfinite(t).all():
        raise ValueError("tensor contains non-finite values")


def relu(t: np.ndarray) -> np.ndarray:
    return np.maximum(t, 0.0)
