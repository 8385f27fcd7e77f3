"""Exception hierarchy and the immutable record base shared across the toolkit."""

import sys
from collections.abc import Mapping
from types import MappingProxyType


class SynthAuditError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(SynthAuditError):
    """Invalid configuration: bad config file, bad parameters, bad QI setup."""


class DataError(SynthAuditError):
    """Invalid data: unreadable file, schema mismatch, bad cell values."""


class Record:
    """An immutable value with named fields: the base of every record class.

    A subclass lists its fields in ``__slots__``, in constructor order, as a
    dict from each name to its type, which ``help()`` shows; a slot whose
    name starts with ``_`` holds internal state, not a field. ``_defaults`` gives
    the optional fields their values and ``_hidden`` names the fields
    ``repr`` leaves out. A record is built from its fields by position or
    keyword, then ``__post_init__`` validates it. Records of one class are
    equal when their fields are (:func:`_same`), and hash alike when they
    hash; no attribute can be assigned or deleted, and a record can be
    weakly referenced. Unlike ``dataclasses``, defining a record generates
    no methods to compile.
    """

    __slots__ = ("__weakref__",)
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}
    _hidden: frozenset = frozenset()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        stray = sorted((set(cls._defaults) | cls._hidden) - set(cls._fields))
        if stray:
            raise TypeError(f"{cls.__name__}: _defaults or _hidden name {stray}, which are not fields")

    def __init__(self, *args, **kwargs) -> None:
        fields, record = self._fields, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{record}() takes at most {len(fields)} arguments, got {len(args)}")
        unknown = sorted(set(kwargs) - set(fields[len(args) :]))
        if unknown:
            raise TypeError(f"{record}() got unexpected or repeated arguments {unknown}")
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        missing = [name for name in fields if name not in values]
        if missing:
            raise TypeError(f"{record}() missing required arguments {missing}")
        for name in fields:
            object.__setattr__(self, name, values[name])
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate the fields; a subclass that checks them overrides this."""

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r} of an immutable {type(self).__name__}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(map(_same, self._values(), other._values()))

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):  # rebuild through the constructor; a mappingproxy cannot be pickled, a dict can
        return type(self), tuple(dict(v) if isinstance(v, MappingProxyType) else v for v in self._values())

    def __repr__(self) -> str:
        shown = (f"{name}={getattr(self, name)!r}" for name in self._fields if name not in self._hidden)
        return f"{type(self).__qualname__}({', '.join(shown)})"


def _same(a, b) -> bool:
    """Field equality: arrays by ``np.array_equal``, mappings by key set and
    then value by value, anything else by ``==``. No array exists before
    numpy is imported, so numpy is looked up, not imported."""
    np = sys.modules.get("numpy")
    if np is not None and (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)):
        return np.array_equal(a, b)
    if isinstance(a, Mapping) and isinstance(b, Mapping):
        return a.keys() == b.keys() and all(_same(v, b[k]) for k, v in a.items())
    return a is b or a == b
