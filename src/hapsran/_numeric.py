"""Numeric helpers shared by the model modules."""

import math
from dataclasses import fields

import numpy as np

from .errors import InvalidArgumentError


def scalar_or_array(out: np.ndarray):
    """A 0-d result as a Python float, any other result as the array itself."""
    return float(out) if out.ndim == 0 else out


def require_finite(params) -> None:
    """Reject a dataclass whose float fields, or floats in its tuple fields, are NaN or infinite.

    The error names the field, so a bad setting fails where it enters rather than
    as a wrong number or an overflow deep inside a trial.
    """
    for f in fields(params):
        value = getattr(params, f.name)
        values = value if isinstance(value, tuple) else (value,)
        if any(isinstance(v, float) and not math.isfinite(v) for v in values):
            raise InvalidArgumentError(f"{f.name} must be finite, got {value!r}")
