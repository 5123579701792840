"""One loader for the JSON configs of machines, models and energy tables.

A schema maps each JSON key to a `Key`. An optional key left out takes the
dataclass default, and a key outside the schema is an error. Every number
is 0 or of magnitude 2**-53 to 2**53, so every bit, cycle and second count
derived from a config stays finite.
"""

from __future__ import annotations

import difflib
import json
from dataclasses import dataclass
from importlib import resources
from typing import Callable

from .errors import ConfigError

MIN_MAGNITUDE = 2.0**-53
MAX_MAGNITUDE = 2**53
POSITIVE = MIN_MAGNITUDE  # the lower bound of a number that must be > 0


@dataclass(frozen=True)
class Key:
    """One JSON key: int, float (any number), str or dict (names to numbers),
    with `lo` bounding a number or each dict value from below."""

    type: type
    required: bool = True
    lo: float = 0
    field: str | None = None  # the dataclass field, when named otherwise
    convert: Callable | None = None  # JSON unit -> the field's unit
    nullable: bool = False  # null stands for the dataclass default of None


_MUST = {int: "be an integer", float: "be a number", str: "be a string", dict: "map names to numbers"}


def _is(kind: type, value) -> bool:
    if kind is dict:
        return isinstance(value, dict) and all(_is(float, v) for v in value.values())
    return not isinstance(value, bool) and isinstance(value, (int, float) if kind is float else kind)


def _check_number(key: str, value, lo: float) -> None:
    if not (value == 0 or MIN_MAGNITUDE <= abs(value) <= MAX_MAGNITUDE):
        zero = "0 or " if lo <= 0 else ""
        raise ConfigError(f"{key} must be {zero}of magnitude 2**-53 to 2**53, got {value!r}")
    if value < lo:
        bound = "positive" if value <= 0 < lo <= 1 else f">= {lo}"
        raise ConfigError(f"{key} must be {bound}, got {value!r}")


def _check(raw: dict, schema: dict) -> dict:
    """The dataclass arguments that `raw` gives under `schema`."""
    for key in raw:
        if key not in schema:
            close = difflib.get_close_matches(key, schema, n=1)
            hint = f" (did you mean {close[0]!r}?)" if close else ""
            raise ConfigError(f"unknown key {key!r}{hint}")
    out = {}
    for key, spec in schema.items():
        if key not in raw:
            if spec.required:
                raise ConfigError(f"missing key {key!r}")
            continue
        value = raw[key]
        if value is not None or not spec.nullable:
            if not _is(spec.type, value):
                raise ConfigError(f"{key} must {_MUST[spec.type]}, got {value!r}")
            if spec.type is dict:
                for name, number in value.items():
                    _check_number(f"{key}[{name!r}]", number, spec.lo)
            elif spec.type is not str:
                _check_number(key, value, spec.lo)
            if spec.convert is not None:
                value = spec.convert(value)
        out[spec.field or key] = value
    return out


def presets(subdir: str) -> list[str]:
    """Names of the configs shipped under data/<subdir>."""
    base = resources.files("anyprec").joinpath(f"data/{subdir}")
    return sorted(p.name[:-5] for p in base.iterdir() if p.name.endswith(".json"))


def load_json_config(kind: str, subdir: str, source, schema: dict) -> dict:
    """The dataclass arguments of a config: `source` is a JSON file path if
    it ends in .json, else the name of a preset under data/<subdir>."""
    name = str(source)
    try:
        if name.endswith(".json"):
            with open(name) as fh:
                raw = json.load(fh)
        else:
            ref = resources.files("anyprec").joinpath(f"data/{subdir}/{name}.json")
            if not ref.is_file():
                raise ConfigError(f"unknown {kind} {name!r}")
            raw = json.loads(ref.read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{kind} {name!r}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{kind} {name!r} is not a JSON object")
    try:
        return _check(raw, schema)
    except ConfigError as exc:
        raise ConfigError(f"{kind} {name!r}: {exc}") from None
