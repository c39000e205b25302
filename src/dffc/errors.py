"""The one exception type that every check run while a run config is built
raises, and the checks shared across the package: :func:`typed` is the one
check of the type of a JSON value, read from a config or a run artifact."""

import math
import sys
import typing


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


def check_blur_bound(name: str, bounds: tuple, size_name: str, size: int) -> None:
    """A :class:`ConfigError` naming ``name`` unless the hi of its blur-sigma
    ``bounds`` is at most the image size ``size``, named ``size_name``: a
    wider blur flattens the image, and its kernels would outgrow memory."""
    if bounds[1] > size:
        raise ConfigError(f"{name}: hi must be at most {size_name} ({size}), got {bounds[1]}")


def check_seed(name: str, seed: int) -> None:
    """A :class:`ConfigError` naming ``name`` unless ``seed`` is in the lab's
    seed range, 0..2**64 - 1: one or two uint32 words of a numpy ``SeedSequence``."""
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{name} must be in 0..2**64 - 1, got {seed}")


def check_float64_count(name: str, what: str, count: int) -> None:
    """A :class:`ConfigError` naming ``name`` unless ``count`` float64 values
    fit in one numpy array, whose byte count must fit in ``np.intp``."""
    limit = sys.maxsize // 8
    if count > limit:
        raise ConfigError(
            f"{name}: {what} would hold {count} float64 values, more than the "
            f"{limit} one numpy array can"
        )


_EXPECTED = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string"}


def typed(value: object, hint: object, key: str) -> object:
    """``value`` checked against the annotation ``hint``; lists come back as tuples."""
    if typing.get_origin(hint) is tuple:
        kinds = typing.get_args(hint)
        variadic = kinds[-1] is Ellipsis
        if not isinstance(value, list | tuple) or not (variadic or len(value) == len(kinds)):
            count = "" if variadic else f"{len(kinds)} "
            raise ConfigError(f"{key}: expected a list of {count}values, got {value!r}")
        if variadic:
            kinds = kinds[:1] * len(value)
        return tuple(typed(v, kind, f"{key}[{i}]") for i, (v, kind) in enumerate(zip(value, kinds)))
    kinds = (int, float) if hint is float else (hint,)
    # abs() <= max is False for NaN, the infinities and ints beyond float range.
    if type(value) not in kinds or (hint is float and not abs(value) <= sys.float_info.max):
        raise ConfigError(f"{key}: expected {_EXPECTED[hint]}, got {value!r}")
    return value


def require_keys(doc: object, keys: tuple[str, ...] | dict[str, object], prefix: str = "") -> None:
    """Raise a ``ValueError`` unless ``doc`` is a dict holding every key of
    ``keys``, and, where ``keys`` maps each key to an annotation, a value that
    :func:`typed` accepts; the message names the first bad key as ``prefix + key``."""
    if not isinstance(doc, dict):
        where = f" at {prefix.rstrip('.')}" if prefix else ""
        raise ValueError(f"expected a JSON object{where}, got {type(doc).__name__}")
    for key in keys:
        if key not in doc:
            raise ValueError(f"missing key {prefix + key!r}")
        if isinstance(keys, dict):
            typed(doc[key], keys[key], prefix + key)
