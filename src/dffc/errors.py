"""The one exception type that every check run while a run config is built
raises, and the key and range checks shared across the package."""

import math


class ConfigError(ValueError):
    """A run, dataset, augmentation or schedule configuration failed validation."""


def check_range(name: str, bounds: tuple, non_negative: bool = False) -> tuple[float, float]:
    """``bounds`` as two floats ``(lo, hi)``; a :class:`ConfigError` naming ``name``
    unless ``lo <= hi``, ``hi - lo`` is finite and, if asked, ``lo >= 0``."""
    lo, hi = map(float, bounds)
    if not 0.0 <= hi - lo < math.inf:
        raise ConfigError(f"{name}: need lo <= hi and a finite hi - lo, got ({lo}, {hi})")
    if non_negative and lo < 0.0:
        raise ConfigError(f"{name}: lo must be non-negative, got {lo}")
    return lo, hi


def _is_number(value: object, kind: type | tuple[type, ...] = (int, float)) -> bool:
    # JSON true and false load as bool, a subclass of int; they are not numbers.
    return isinstance(value, kind) and not isinstance(value, bool)


#: The kinds of value :func:`require_keys` checks, each with its test.
_KINDS = {
    "a number": _is_number,
    "a flat list of numbers": lambda v: isinstance(v, list) and all(map(_is_number, v)),
    "a flat list of integers": lambda v: isinstance(v, list) and all(_is_number(x, int) for x in v),
}


def require_keys(doc: object, keys: tuple[str, ...] | dict[str, str], prefix: str = "") -> None:
    """Raise a ``ValueError`` unless ``doc`` is a dict holding every key of
    ``keys``, and, where ``keys`` maps each key to a kind of :data:`_KINDS`,
    a value of that kind; the message names the first bad key as ``prefix + key``."""
    if not isinstance(doc, dict):
        where = f" at {prefix.rstrip('.')}" if prefix else ""
        raise ValueError(f"expected a JSON object{where}, got {type(doc).__name__}")
    for key in keys:
        if key not in doc:
            raise ValueError(f"missing key {prefix + key!r}")
        if isinstance(keys, dict) and not _KINDS[keys[key]](doc[key]):
            raise ValueError(f"key {prefix + key!r} must be {keys[key]}")
