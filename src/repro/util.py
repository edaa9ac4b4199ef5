"""Small shared utilities.

Human-friendly duration parsing: the paper's recipes write intervals as
strings — ``Delay(..., Interval='100ms')``, ``AtMostRequests(RList,
'1min', ...)``, ``Delay(..., Interval='1h')`` — so both the rule layer
and the assertion layer accept the same syntax.

And :func:`plain`, the one copier behind every result document's
``to_dict``; and :func:`lazy_exports`, the one helper behind every
package facade.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import re
import sys
import types
import typing as _t

__all__ = ["parse_duration", "format_duration", "plain", "lazy_exports"]

_DURATION_RE = re.compile(r"^\s*(?P<value>\d+(?:\.\d+)?)\s*(?P<unit>us|ms|s|sec|min|m|h|hr)?\s*$")

_UNIT_SECONDS = {
    "us": 1e-6,
    "ms": 1e-3,
    "s": 1.0,
    "sec": 1.0,
    "m": 60.0,
    "min": 60.0,
    "h": 3600.0,
    "hr": 3600.0,
    None: 1.0,  # bare numbers are seconds
}


def parse_duration(value: _t.Union[str, int, float]) -> float:
    """Convert ``'100ms'`` / ``'1min'`` / ``'1h'`` / ``2.5`` to seconds.

    >>> parse_duration('100ms')
    0.1
    >>> parse_duration('1min')
    60.0
    >>> parse_duration(3)
    3.0
    """
    if isinstance(value, (int, float)):
        result = float(value)
    else:
        match = _DURATION_RE.match(value)
        if match is None:
            raise ValueError(f"unparseable duration {value!r} (try '100ms', '1min', '1h')")
        result = float(match.group("value")) * _UNIT_SECONDS[match.group("unit")]
    if result < 0:
        raise ValueError(f"duration must be >= 0, got {result}")
    return result


def format_duration(seconds: float) -> str:
    """Render seconds compactly: 0.1 -> ``'100ms'``, 90 -> ``'1.5min'``."""
    if seconds >= 3600:
        return f"{seconds / 3600:g}h"
    if seconds >= 60:
        return f"{seconds / 60:g}min"
    if seconds >= 1:
        return f"{seconds:g}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:g}ms"
    return f"{seconds * 1e6:g}us"


#: Leaf types returned as-is (``copy.deepcopy`` returns them as-is too).
_ATOMS = frozenset({type(None), bool, int, float, str, bytes, complex})

#: type -> its dataclass field names in order, or None for a non-dataclass.
_FIELD_NAMES: dict = {}


def plain(value: _t.Any) -> _t.Any:
    """An independent plain-data copy of ``value``: dataclasses become dicts.

    The contract of the standard library's dataclass-to-dict conversion
    (keys in field order, equal values, every mutable leaf
    deep-copied), applied to any value rather than only a dataclass
    instance, at a fraction of the cost: immutable leaves and exact
    ``dict``/``list``/``tuple`` take a fast path, and a dataclass is
    walked by a field-name tuple cached per type.  Everything else —
    container subclasses, named tuples, sets, arbitrary objects — is
    copied the way that conversion copies it, except that a
    ``defaultdict`` keeps its factory (as it does from Python 3.12 on;
    3.11's conversion raises on one).
    """
    cls = type(value)
    if cls in _ATOMS:
        return value
    if cls is dict:
        return {plain(k): plain(v) for k, v in value.items()}
    if cls is list:
        return [plain(item) for item in value]
    if cls is tuple:
        return tuple([plain(item) for item in value])
    try:
        names = _FIELD_NAMES[cls]
    except KeyError:
        names = _FIELD_NAMES[cls] = (
            tuple(field.name for field in dataclasses.fields(cls))
            if dataclasses.is_dataclass(cls)
            else None
        )
    if names is not None:
        return {name: plain(getattr(value, name)) for name in names}
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return cls(*[plain(item) for item in value])
    if isinstance(value, (list, tuple)):
        return cls(plain(item) for item in value)
    if isinstance(value, dict):
        if hasattr(cls, "default_factory"):
            result = cls(value.default_factory)
            for k, v in value.items():
                result[plain(k)] = plain(v)
            return result
        return cls((plain(k), plain(v)) for k, v in value.items())
    return copy.deepcopy(value)


#: package name -> {exported name: defining module}, for every facade.
_FACADES: dict[str, dict[str, str]] = {}


class _Facade(types.ModuleType):
    """A package whose exports resolve on first use.

    The import system binds a freshly loaded submodule onto its package
    as an attribute.  Where an export has the submodule's own name
    (``repro.fuzz.shrink``, the function, in ``repro/fuzz/shrink.py``)
    that binding is refused, so the name keeps meaning the export, as
    it did when the facade ran ``from repro.fuzz.shrink import shrink``.
    """

    def __setattr__(self, name: str, value: _t.Any) -> None:
        if isinstance(value, types.ModuleType) and name in _FACADES[self.__name__]:
            return
        super().__setattr__(name, value)


def lazy_exports(
    package: str, exports: _t.Mapping[str, _t.Sequence[str]]
) -> tuple[_t.Callable[[str], _t.Any], _t.Callable[[], list[str]], list[str]]:
    """PEP 562 ``__getattr__``, ``__dir__`` and ``__all__`` for a facade.

    ``exports`` maps a submodule of ``package`` (relative name) to the
    names it defines and the package re-exports.  Nothing is imported
    until a name is first read; then its module is imported, and the
    value is cached on the package, so the hook runs once per name.
    The pattern is Scientific Python SPEC 1's ``lazy_loader.attach``.
    """
    table = {
        name: f"{package}.{module}" for module, names in exports.items() for name in names
    }
    _FACADES[package] = table
    facade = sys.modules[package]
    facade.__class__ = _Facade

    def __getattr__(name: str) -> _t.Any:
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        setattr(facade, name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(facade)) | set(table))

    return __getattr__, __dir__, list(table)
