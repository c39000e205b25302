"""Exception types and the key check shared across the package."""


class InvalidScheduleError(ValueError):
    """A learning-rate or pacing schedule violated its constraints."""


class ConfigError(ValueError):
    """A run or dataset configuration failed validation."""


def require_keys(doc: object, keys: tuple[str, ...], prefix: str = "") -> None:
    """Raise a ``ValueError`` unless ``doc`` is a dict holding every key of
    ``keys``; the message names the first one missing as ``prefix + key``."""
    if not isinstance(doc, dict):
        where = f" at {prefix.rstrip('.')}" if prefix else ""
        raise ValueError(f"expected a JSON object{where}, got {type(doc).__name__}")
    for key in keys:
        if key not in doc:
            raise ValueError(f"missing key {prefix + key!r}")
