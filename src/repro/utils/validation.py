"""Argument validation helpers.

These raise :class:`repro.exceptions.ValidationError` with messages that name
the offending parameter, so mechanism constructors can validate eagerly and
fail close to the user error.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError


def check_positive(value: float, name: str) -> float:
    """Require ``value > 0``; return it as ``float``."""
    value = float(value)
    if not np.isfinite(value) or value <= 0.0:
        raise ValidationError(f"{name} must be a finite positive number, got {value!r}")
    return value


def check_unit_interval(value: float, name: str, *, open_left: bool = True) -> float:
    """Require ``value`` in ``(0, 1]`` (or ``[0, 1]`` if ``open_left=False``)."""
    value = float(value)
    lower_ok = value > 0.0 if open_left else value >= 0.0
    if not np.isfinite(value) or not lower_ok or value > 1.0:
        bracket = "(0, 1]" if open_left else "[0, 1]"
        raise ValidationError(f"{name} must lie in {bracket}, got {value!r}")
    return value


def check_probability(value: float, name: str) -> float:
    """Require ``value`` in ``[0, 1]``."""
    return check_unit_interval(value, name, open_left=False)


def root_base(array: np.ndarray) -> np.ndarray:
    """The array that owns the memory at the bottom of a view chain.

    Used wherever view-aliasing matters: a query may keep a zero-copy
    view of a buffer only if the *owning* array is frozen, and the
    engine's loss-matrix stacking detects tables that are rows of one
    shared matrix by walking to the same root.
    """
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def byte_view(array: np.ndarray) -> np.ndarray:
    """``array``'s C-order bytes as a flat ``uint8`` array, for hashing.

    The same bytes as ``array.tobytes()``, without that copy when
    ``array`` is already C-contiguous (a non-contiguous array is copied
    once, as ``tobytes`` would). Hashers take the result as a buffer.
    """
    return np.ascontiguousarray(array).reshape(-1).view(np.uint8)


def check_finite_array(array, name: str, *, ndim: int | None = None) -> np.ndarray:
    """Coerce to ``ndarray`` of floats and require all entries finite."""
    array = np.asarray(array, dtype=float)
    if ndim is not None and array.ndim != ndim:
        raise ValidationError(
            f"{name} must be {ndim}-dimensional, got shape {array.shape}"
        )
    if array.size and not np.all(np.isfinite(array)):
        raise ValidationError(f"{name} contains non-finite entries")
    return array
