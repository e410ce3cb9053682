"""One ``key=value`` line for any config dataclass, and its checkpoint array.

``to_line`` writes every field of a config as ``name=value``, separated by
single spaces; a nested config dataclass contributes its fields under
``name.field`` (``flat`` lists these keys). ``from_line`` reads such a line
back, parsing each value by the type of the field's default (``convert``)
and building the config with ``build``, and rejects a missing, unknown or
repeated key and a value that fails to parse or fails the dataclass's
``__post_init__``. Floats are written with ``repr``, so a line round-trips
every value exactly. The ``--config`` loader (``config.load_config``) uses
the same keys, parser and builder.

Each field declares its range where it is defined (``ranged``). Every
config's ``__post_init__`` calls ``check``, then tests only the rules that
tie fields together; a line, a flag and a constructor meet the same ranges.

In a model checkpoint the line is the ``config`` array: its UTF-8 byte values
as float32, which holds each of them exactly.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import ValidationError

ARRAY_NAME = "config"


def ranged(default, lo, hi=math.inf, below=False):
    """A dataclass field whose value, or each entry of a tuple value, lies in
    [lo, hi], or in [lo, hi) with ``below``."""
    return dataclasses.field(default=default, metadata={"range": (lo, hi, below)})


def check(config) -> None:
    """Raise :class:`ValidationError` for a non-finite float field of
    ``config`` and for a value outside its field's ``ranged`` range."""
    name = type(config).__name__
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValidationError(f"{name}: {f.name} must be finite, got {value}")
        lo, hi, below = f.metadata.get("range", (None, None, None))
        entries = value if isinstance(value, tuple) else (value,)
        if lo is not None and not all(lo <= v < hi if below else lo <= v <= hi for v in entries):
            domain = f">= {lo}" if hi == math.inf else str(lo) if lo == hi else f"in [{lo}, {hi}{')' if below else ']'}"
            raise ValidationError(f"{name}: {f.name} must {'all ' if isinstance(value, tuple) else ''}be {domain}, got {value}")


def convert(current, raw: str):
    """Parse ``raw`` as the type of ``current``; ValueError if it does not parse."""
    if isinstance(current, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if isinstance(current, int):
        return int(raw)
    if isinstance(current, float):
        return float(raw)
    if isinstance(current, str):
        return raw
    if isinstance(current, tuple):
        return tuple(int(x) for x in raw.split(","))
    raise ValidationError(f"config: unsupported field type {type(current).__name__}")


def text(value) -> str:
    """A field value as a line writes it; ``convert`` reads it back exactly."""
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def flat(config, prefix: str = ""):
    """Every ``(key, value)`` of a config; a nested config's under ``name.field``."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            yield from flat(value, f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}", value


def to_line(config) -> str:
    return " ".join(f"{key}={text(value)}" for key, value in flat(config))


def build(cls, values: dict[str, str], prefix: str = ""):
    """A ``cls`` from the keys under ``prefix``, which it pops from ``values``;
    every nested config is built first and every ``__post_init__`` runs."""
    kwargs = {}
    for f in dataclasses.fields(cls):
        key = prefix + f.name
        default = f.default_factory() if f.default is dataclasses.MISSING else f.default
        if dataclasses.is_dataclass(default):
            kwargs[f.name] = build(type(default), values, key + ".")
            continue
        if key not in values:
            raise ValidationError(f"missing key {key!r}")
        raw = values.pop(key)
        try:
            kwargs[f.name] = convert(default, raw)
        except ValueError:
            raise ValidationError(f"cannot parse {key}={raw!r}") from None
    return cls(**kwargs)


def from_line(cls, line: str, where):
    """The ``cls`` instance a ``to_line`` line holds; errors name ``where``."""
    values: dict[str, str] = {}
    try:
        for item in line.split():
            key, sep, raw = item.partition("=")
            if not sep or key in values:
                raise ValidationError(f"expected one key=value per key, got {item!r}")
            values[key] = raw
        config = build(cls, values)
        if values:
            raise ValidationError(f"unknown key {next(iter(values))!r}")
    except ValidationError as exc:
        raise ValidationError(f"{where}: {cls.__name__}: {exc}") from None
    return config


def utf8(data: bytes, where) -> str:
    """``data`` decoded as UTF-8; :class:`ValidationError` naming ``where`` if it is not."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{where}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def to_array(config) -> np.ndarray:
    return np.frombuffer(to_line(config).encode("utf-8"), dtype=np.uint8).astype(np.float32)


def from_array(cls, array: np.ndarray | None, where):
    """Read the config line of a checkpoint's ``config`` array."""
    if array is None:
        raise ValidationError(
            f"{where}: no {ARRAY_NAME!r} array; not a {cls.__name__} checkpoint, "
            "or one written before checkpoints held their config line"
        )
    codes = np.asarray(array)
    if codes.ndim != 1 or not np.all((codes >= 0) & (codes <= 255) & (codes % 1 == 0)):
        raise ValidationError(f"{where}: {ARRAY_NAME!r} array does not hold byte values")
    return from_line(cls, utf8(codes.astype(np.uint8).tobytes(), f"{where}: {ARRAY_NAME!r} array"), where)
