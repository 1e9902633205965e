"""The two float64 array primitives shared by the network and the delta
engine: a finiteness check and the relu activation."""

from __future__ import annotations

import numpy as np


def check_finite(t: np.ndarray) -> None:
    if not np.isfinite(t).all():
        raise ValueError("tensor contains non-finite values")


def relu(t: np.ndarray) -> np.ndarray:
    return np.maximum(t, 0.0)
