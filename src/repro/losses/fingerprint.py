"""Canonical fingerprints for queries.

A fingerprint is a stable hex digest identifying the *mathematical* query a
loss object represents — class, domain, and numerical parameters — while
ignoring cosmetic state such as display names. Two loss objects built with
the same parameters fingerprint identically even across processes, which is
what makes the digest usable as

- the key of :class:`PrivateMWConvex`'s data-side minimization cache
  (repeated queries hit the cache even when the analyst rebuilt an equal
  loss object), and
- the key of the serving layer's answer cache and ledger entries
  (:mod:`repro.serve`), where keys must survive snapshot/restart.

The encoding walks the object graph (nested losses, linear-query tables,
domains, numpy arrays) and feeds a type-tagged canonical byte stream to
SHA-256. Floats are hashed by their IEEE-754 bytes, so the digest is exact,
not repr-rounded.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from repro.exceptions import LossSpecificationError
from repro.utils.validation import byte_view

#: Attributes that never influence the mathematical query (display names
#: and the memoized digest itself).
_COSMETIC_ATTRIBUTES = frozenset({"name", "_fingerprint_digest"})


def fingerprint_of(obj) -> str:
    """SHA-256 fingerprint of a query object's canonical state."""
    hasher = hashlib.sha256()
    _feed(hasher, obj)
    return hasher.hexdigest()


def memoized_fingerprint(obj) -> str:
    """``fingerprint_of`` cached on the instance as ``_fingerprint_digest``.

    Query objects are treated as immutable values — mutating one after it
    was fingerprinted is unsupported. The memo attribute is excluded from
    the hashed state, so memoized and fresh objects digest identically.
    """
    digest = getattr(obj, "_fingerprint_digest", None)
    if digest is None:
        digest = fingerprint_of(obj)
        obj._fingerprint_digest = digest
    return digest


def _feed(hasher, obj) -> None:
    """Feed one object to the hasher with an unambiguous type tag."""
    if obj is None:
        hasher.update(b"N")
    elif isinstance(obj, bool):
        hasher.update(b"B1" if obj else b"B0")
    elif isinstance(obj, (int, np.integer)):
        encoded = str(int(obj)).encode()
        hasher.update(b"I" + struct.pack("<q", len(encoded)) + encoded)
    elif isinstance(obj, (float, np.floating)):
        hasher.update(b"F" + struct.pack("<d", float(obj)))
    elif isinstance(obj, str):
        encoded = obj.encode()
        hasher.update(b"S" + struct.pack("<q", len(encoded)) + encoded)
    elif isinstance(obj, bytes):
        hasher.update(b"Y" + struct.pack("<q", len(obj)) + obj)
    elif isinstance(obj, np.ndarray):
        if obj.dtype.hasobject:
            # tobytes() on object arrays would hash PyObject pointers —
            # nondeterministic across processes and aliasing-prone.
            raise LossSpecificationError(
                "cannot fingerprint an object-dtype array; use a numeric "
                "dtype or give the owner a fingerprint_state() method"
            )
        array = np.ascontiguousarray(obj)
        dtype = array.dtype.str.encode()
        hasher.update(b"A" + struct.pack("<q", len(dtype)) + dtype)
        hasher.update(struct.pack("<q", array.ndim))
        hasher.update(struct.pack(f"<{array.ndim}q", *array.shape))
        hasher.update(byte_view(array))
    elif isinstance(obj, (list, tuple)):
        hasher.update(b"L" + struct.pack("<q", len(obj)))
        for item in obj:
            _feed(hasher, item)
    elif isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda pair: str(pair[0]))
        hasher.update(b"D" + struct.pack("<q", len(items)))
        for key, value in items:
            _feed(hasher, str(key))
            _feed(hasher, value)
    elif hasattr(obj, "fingerprint_state"):
        _feed_object(hasher, obj, obj.fingerprint_state())
    elif _is_plain_state_object(obj):
        _feed_object(hasher, obj, _instance_state(obj))
    else:
        raise LossSpecificationError(
            f"cannot fingerprint object of type {type(obj).__qualname__}; "
            f"give it a fingerprint_state() method returning its canonical "
            f"parameters"
        )


def _feed_object(hasher, obj, state: dict) -> None:
    tag = f"{type(obj).__module__}.{type(obj).__qualname__}".encode()
    hasher.update(b"O" + struct.pack("<q", len(tag)) + tag)
    _feed(hasher, state)


def _is_plain_state_object(obj) -> bool:
    """Whether the object's ``__dict__`` fully determines it.

    True for the library's losses, queries, and domains: their instance
    dictionaries hold only scalars, arrays, and further such objects.
    """
    from repro.losses.base import LossFunction
    from repro.optimize.projections import Domain

    # Local import breaks the base <-> fingerprint module cycle; LinearQuery
    # lives in a module that itself imports base.
    from repro.losses.linear import LinearQuery

    return isinstance(obj, (LossFunction, Domain, LinearQuery))


def _instance_state(obj) -> dict:
    state = {
        key: value
        for key, value in vars(obj).items()
        if key not in _COSMETIC_ATTRIBUTES
    }
    # Class-level trait declarations (e.g. strong_convexity, lipschitz_bound
    # set on the class, not the instance) are part of the query definition;
    # fold in the ones the mechanism's schedule reads.
    for trait in ("lipschitz_bound", "strong_convexity", "is_glm",
                  "link_derivative_bound"):
        if trait not in state and hasattr(obj, trait):
            state[trait] = getattr(obj, trait)
    return state
