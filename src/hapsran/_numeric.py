"""Numeric helpers shared by the model modules."""

import numpy as np


def scalar_or_array(out: np.ndarray):
    """A 0-d result as a Python float, any other result as the array itself."""
    return float(out) if out.ndim == 0 else out
