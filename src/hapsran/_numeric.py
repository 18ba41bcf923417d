"""Numeric and input-parsing helpers shared by the model modules."""

import json
import math
import numbers
import os
import sys
from dataclasses import fields

import numpy as np

from .errors import InvalidArgumentError, LoadExceedsCapacityError

LOAD_TOLERANCE = 1e-9  # a rate may pass its limit by this fraction, for rounding


def scalar_or_array(out: np.ndarray):
    """A 0-d result as a Python float, any other result as the array itself."""
    return float(out) if out.ndim == 0 else out


def is_finite(value) -> bool:
    """Whether a real number is finite as a float: an int too large for one is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def require_finite(params) -> None:
    """Reject a dataclass whose int or float fields, or those in its tuple fields, are NaN,
    infinite or too large for a float.

    The error names the field, so a bad setting fails where it enters rather than
    as a wrong number or an overflow deep inside a trial.
    """
    for f in fields(params):
        value = getattr(params, f.name)
        values = value if isinstance(value, tuple) else (value,)
        if any(isinstance(v, (int, float)) and not is_finite(v) for v in values):
            raise InvalidArgumentError(f"{f.name} must be finite, got {value!r}")


def require_integer(name: str, value) -> None:
    """Reject a count or seed that is not an integer, or is a bool: either would run as a
    wrong number or fail late with a bare TypeError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}")


def physical_memory_bytes() -> int | None:
    """The machine's physical memory, or None where os.sysconf cannot tell."""
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        return None
    return memory if memory > 0 else None


def require_memory(need, what: str) -> None:
    """Reject the settings that what names if they need more than the physical memory or,
    where os.sysconf cannot tell it, than the largest array numpy can index."""
    memory = physical_memory_bytes()
    limit = memory or np.iinfo(np.intp).max
    of = "physical memory" if memory else "numpy's largest array"
    if need > limit:
        need = need if need <= sys.float_info.max else np.inf  # an int too large for a float
        raise InvalidArgumentError(
            f"{what} need about {need:.3g} bytes, more than the {limit} bytes of {of}"
        )


def parse_json(raw: bytes):
    """The JSON document in UTF-8 bytes.

    Bytes that are not UTF-8, nesting deeper than the parser's recursion limit and an
    integer with more digits than Python converts are a json.JSONDecodeError, as any
    other text that does not parse.
    """
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[: exc.start].decode("utf-8")  # the text before the first bad byte
        message = f"byte {raw[exc.start]:#04x} is not UTF-8"
        raise json.JSONDecodeError(message, head, len(head)) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except (RecursionError, ValueError) as exc:
        raise json.JSONDecodeError(str(exc), text, 0) from exc


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
