"""Lossless tagged JSON encoding for campaign records.

Run parameters and really-executed run values must *round-trip*: what
the catalog reads back has to equal what the application produced.  The
old encoder fell back to ``repr(value)`` for anything JSON could not
express, silently persisting a non-round-trippable string into
``result.json`` — the record looked fine and was quietly corrupt.

This codec encodes the known non-JSON types with an explicit tag::

    {"__repro__": "complex", "real": 1.0, "imag": 2.0}

and **raises** :class:`UnserializableValueError` for everything else,
so corruption is impossible by construction: a value either round-trips
exactly or is refused at write time, naming the offending type.

Tagged types: numpy arrays (dtype-preserving) and scalars, ``complex``,
``bytes``/``bytearray`` (base64), ``set``/``frozenset``,
``pathlib.Path``, ``datetime``/``date``.  Plain JSON types pass through
untouched, so documents written by older code still load.
"""

from __future__ import annotations

import base64
import datetime
import json
import pathlib

TAG = "__repro__"


class UnserializableValueError(TypeError):
    """A value cannot be encoded losslessly into a campaign record."""


def tagged_default(value):
    """``json.dumps(default=...)`` hook: tag known types, refuse the rest."""
    # numpy without importing numpy: scalars expose item(), arrays tolist().
    dtype = getattr(value, "dtype", None)
    if dtype is not None:
        if getattr(value, "shape", None) == () or not hasattr(value, "tolist"):
            item = getattr(value, "item", None)
            if callable(item):
                return _checked_scalar(value, item())
        if hasattr(value, "tolist"):
            if dtype.kind in "OV":  # object/void arrays do not round-trip
                raise UnserializableValueError(
                    f"numpy array of dtype {dtype!s} cannot be encoded losslessly"
                )
            return {TAG: "ndarray", "dtype": str(dtype), "data": value.tolist()}
    if isinstance(value, complex):
        return {TAG: "complex", "real": value.real, "imag": value.imag}
    if isinstance(value, (bytes, bytearray)):
        return {TAG: "bytes", "b64": base64.b64encode(bytes(value)).decode("ascii")}
    if isinstance(value, (set, frozenset)):
        try:  # deterministic files when the elements are orderable
            items = sorted(value)
        except TypeError:
            items = list(value)
        return {TAG: "frozenset" if isinstance(value, frozenset) else "set",
                "items": items}
    if isinstance(value, pathlib.PurePath):
        return {TAG: "path", "value": str(value)}
    if isinstance(value, datetime.datetime):
        return {TAG: "datetime", "iso": value.isoformat()}
    if isinstance(value, datetime.date):
        return {TAG: "date", "iso": value.isoformat()}
    raise UnserializableValueError(
        f"value of type {type(value).__name__} cannot be encoded losslessly "
        f"into a campaign record (got {value!r}); return JSON-compatible "
        "values (or numpy/complex/bytes/set/Path/datetime, which are tagged)"
    )


def _checked_scalar(value, item):
    """A numpy scalar's ``item()`` — accepted only when itself JSON-safe."""
    if isinstance(item, (bool, int, float, str)) or item is None:
        return item
    if isinstance(item, complex):
        return {TAG: "complex", "real": item.real, "imag": item.imag}
    raise UnserializableValueError(
        f"numpy scalar {value!r} unwraps to non-JSON type {type(item).__name__}"
    )


def tagged_object_hook(obj: dict):
    """``json.loads(object_hook=...)`` inverse of :func:`tagged_default`."""
    tag = obj.get(TAG)
    if tag is None:
        return obj
    if tag == "ndarray":
        import numpy as np

        return np.array(obj["data"], dtype=obj["dtype"])
    if tag == "complex":
        return complex(obj["real"], obj["imag"])
    if tag == "bytes":
        return base64.b64decode(obj["b64"])
    if tag == "set":
        return set(obj["items"])
    if tag == "frozenset":
        return frozenset(obj["items"])
    if tag == "path":
        return pathlib.Path(obj["value"])
    if tag == "datetime":
        return datetime.datetime.fromisoformat(obj["iso"])
    if tag == "date":
        return datetime.date.fromisoformat(obj["iso"])
    return obj  # unknown tag from a future version: hand back verbatim


#: ``json.dumps`` with any keyword, and ``json.loads`` with an
#: ``object_hook``, build a fresh encoder or decoder on every call; keep
#: one decoder, and one encoder for the ``sort_keys=True`` form the store
#: writes for every run's value and parameters.
_SORTED_ENCODER = json.JSONEncoder(default=tagged_default, sort_keys=True)
_DECODER = json.JSONDecoder(object_hook=tagged_object_hook)


def dumps_tagged(value, **kwargs) -> str:
    """``json.dumps`` with the tagged encoder installed."""
    if kwargs == {"sort_keys": True}:
        return _SORTED_ENCODER.encode(value)
    return json.dumps(value, default=tagged_default, **kwargs)


def loads_tagged(text: str):
    """``json.loads`` with the tagged decoder installed."""
    return _DECODER.decode(text)
