"""The argument checks of every public entry point.  Each raises
``ValueError("<name> must be <condition>, got <value>")``; ``--config``
values reach them unconverted, so a JSON 4.5 or true is refused here."""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np


def require_int(name: str, value, least: int | None) -> int:
    """``value`` as a Python int, after checking that it is an integer (a
    NumPy one counts, a bool does not) and not below ``least``, 0 or 1
    (None for no bound); ``ValueError`` naming ``name`` otherwise.
    Fixed-width NumPy counts would overflow in the products that callers
    form from them."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        bound = "positive" if least == 1 else "non-negative"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return operator.index(value)


def require_real(name: str, value, *, positive: bool = False) -> None:
    """``ValueError`` naming ``name`` unless ``value`` is a real number (a
    NumPy one counts, a bool does not) that is finite, and above 0 when
    ``positive`` is set.  The value itself is left to the caller."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or (positive and value <= 0)):
        condition = "finite and positive" if positive else "finite"
        raise ValueError(f"{name} must be {condition}, got {value!r}")


def require_choice(name: str, value, choices):
    """``value`` if it equals one of ``choices`` and is of that choice's
    type; ``ValueError`` otherwise.  The type is checked before ``==``, so
    a list or a NumPy array is refused, not hashed or compared elementwise."""
    if not any(isinstance(value, type(c)) and value == c for c in choices):
        listed = ", ".join(map(repr, choices))
        raise ValueError(f"{name} must be one of {listed}, got {value!r}")
    return value
