"""The package's JSON files: one writer and one reader for every dataclass
stored as JSON (experiment configs, manifests, RC parameters, difference
coefficients, fitted models and clusterings).

The writer turns a dataclass into plain JSON data, an object keyed by its
fields' names (or by a field's ``metadata["key"]``), with tuples and numpy
arrays as arrays. The reader reads such data back by the dataclass's
annotations and refuses anything else with one error class, naming the key
path of the fault.
"""

from __future__ import annotations

import functools
import json
import types
import typing
from dataclasses import MISSING, fields, is_dataclass

import numpy as np

from .errors import RcthermError

#: How an error names the JSON type a value should have had.
_JSON_NAMES = {dict: "an object", list: "an array", int: "an integer", float: "a number",
               str: "a string", bool: "true or false"}


@functools.cache
def _json_fields(cls):
    """{JSON key: (field name, annotation, required)} of a dataclass; a
    field's key is its name unless its metadata gives another."""
    hints = typing.get_type_hints(cls)
    return {f.metadata.get("key", f.name): (f.name, hints[f.name],
                                            f.default is MISSING and f.default_factory is MISSING)
            for f in fields(cls)}


def plain(value):
    """``value`` as plain JSON data: a dataclass as an object keyed by its
    fields' JSON keys, a tuple, list or numpy array as an array."""
    if is_dataclass(value):
        return {key: plain(getattr(value, name))
                for key, (name, _, _) in _json_fields(type(value)).items()}
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def read(tp, value, where, error):
    """``value``, a parsed JSON value, read as the annotation ``tp``.

    A dataclass is read from an object whose keys are each one of its
    fields and include every field without a default; ``tuple[X, ...]`` and
    ``tuple[X, Y]`` from arrays, ``dict[str, X]`` from an object; ``X | None``
    takes null; ``np.ndarray`` is a float array, read from nested arrays of
    numbers of one shape.
    ``int``, ``float`` (an int reads as a float), ``bool`` and ``str`` are
    checked by type, a bool is not a number, and a float must be finite
    (JSON's ``NaN`` and ``Infinity`` are refused). Every refusal raises
    ``error`` naming the path ``where`` (such as
    ``config.fleet.seasons[0].days``); so does a package error that a
    dataclass's constructor raises.
    """
    if is_dataclass(tp):
        keys = _json_fields(tp)
        obj = read(dict, value, where, error)
        unknown = sorted(set(obj) - set(keys))
        if unknown:
            raise error(f"{where} has unknown keys {unknown}")
        missing = sorted(k for k, (_, _, required) in keys.items() if required and k not in obj)
        if missing:
            raise error(f"{where} lacks keys {missing}")
        kwargs = {keys[k][0]: read(keys[k][1], v, f"{where}.{k}", error) for k, v in obj.items()}
        try:
            return tp(**kwargs)
        except RcthermError as exc:  # an impossible value
            raise error(f"{where}: {exc}") from None
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:  # X | None
        if value is None:
            return None
        (tp,) = (a for a in args if a is not type(None))
        return read(tp, value, where, error)
    if origin is tuple:
        items = read(list, value, where, error)
        kinds = args[:1] * len(items) if args[1:] == (...,) else args
        if len(items) != len(kinds):
            raise error(f"{where} must hold {len(kinds)} items, got {value!r}")
        return tuple(read(t, v, f"{where}[{i}]", error) for i, (t, v) in enumerate(zip(kinds, items)))
    if origin is dict:
        return {k: read(args[1], v, f"{where}.{k}", error)
                for k, v in read(dict, value, where, error).items()}
    if tp is np.ndarray:
        items = [read(np.ndarray if isinstance(v, list) else float, v, f"{where}[{i}]", error)
                 for i, v in enumerate(read(list, value, where, error))]
        try:
            return np.array(items, dtype=float)
        except ValueError:  # rows of different shapes
            raise error(f"{where} must be a rectangular array") from None
    if not isinstance(value, (int, float) if tp is float else tp) or (
            isinstance(value, bool) and tp is not bool):
        raise error(f"{where} must be {_JSON_NAMES[tp]}, got {value!r}")
    if tp is float:
        try:
            value = float(value)
        except OverflowError:
            raise error(f"{where} is too large for a float") from None
        if not np.isfinite(value):
            raise error(f"{where} must be finite, got {value!r}")
    return value


class JsonFile:
    """A dataclass stored as a JSON file: ``to_dict``, ``to_json``,
    ``from_dict`` and ``from_json`` by ``plain`` and ``read``.

    A subclass states in its class statement the ``error`` class every
    malformed file raises, the ``name`` that starts its key paths, its
    ``constants`` (keys written with a fixed value, which a file must hold
    with that value) and the ``indent`` of its text. Its text sorts its
    keys.
    """

    def __init_subclass__(cls, *, error, name, constants=None, indent=None, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._json_error, cls._json_name = error, name
        cls._json_constants, cls._json_indent = constants or {}, indent

    def to_dict(self):
        return {**plain(self), **self._json_constants}

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=self._json_indent)

    @classmethod
    def from_dict(cls, data):
        """Read a parsed file; anything malformed raises the class's error."""
        name, error = cls._json_name, cls._json_error
        data = dict(read(dict, data, name, error))
        for key, value in cls._json_constants.items():
            found = data.pop(key, None)
            if found != value:
                raise error(f"{name}.{key} must be {value!r}, got {found!r}")
        return read(cls, data, name, error)

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise cls._json_error(f"{cls._json_name} is not valid JSON: {exc}") from None
        return cls.from_dict(data)
