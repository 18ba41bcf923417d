"""Numeric helpers shared by the model modules."""

import math
from dataclasses import fields

import numpy as np

from .errors import InvalidArgumentError, LoadExceedsCapacityError

LOAD_TOLERANCE = 1e-9  # a rate may pass its limit by this fraction, for rounding


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


def _holds(test) -> bool:
    """Whether a comparison holds everywhere: a bool for numbers, a bool array for arrays."""
    return test if type(test) is bool else bool(test.all())


def check_load(rate, limit, error=LoadExceedsCapacityError, message="rate exceeds BS capacity"):
    """Require limit > 0 with a finite bound = limit * (1 + LOAD_TOLERANCE), and 0 <= rate <= bound.

    Elementwise, and a NaN fails every test.  A bad limit or rate is an InvalidArgumentError,
    but a rate over its bound raises the caller's error(message)."""
    bound = limit * (1 + LOAD_TOLERANCE)
    if not _holds((limit > 0) & (bound < math.inf)):
        raise InvalidArgumentError("capacity must be finite and positive")
    if not _holds(rate >= 0):
        raise InvalidArgumentError("rate must be >= 0 and not NaN")
    if not _holds(rate <= bound):
        raise error(message)
