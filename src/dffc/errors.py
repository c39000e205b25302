"""Exception types and the key check shared across the package."""


class InvalidScheduleError(ValueError):
    """A learning-rate or pacing schedule violated its constraints."""


class ConfigError(ValueError):
    """A run or dataset configuration failed validation."""


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
