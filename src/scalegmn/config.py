"""Config tables and their one reader.

A table maps each key of a config to a `Key`: its type, its default and its
allowed choices or range. `read` checks a config against its table before any
work and returns its complete values. A dataclass config is its own table: a
field's annotation is its type, `setting` puts its rule next to its default,
and its `__post_init__` reads its own values. A bool is not an int, an int is
accepted where a number is asked, and a string is never a number or a bool.
"""

from __future__ import annotations

import json
import os
from dataclasses import MISSING, field, fields
from functools import cache
from numbers import Integral, Real
from pathlib import Path
from typing import NamedTuple, get_type_hints

REQUIRED = MISSING  # the default of a key that a config must set
PATH = str | os.PathLike
_WORDS = {bool: "a bool", int: "an int", float: "a number", str: "a string", dict: "a dict",
          PATH: "a path"}


class ConfigError(ValueError):
    """A config key or value that no run accepts."""


class Key(NamedTuple):
    type: object                  # a key of _WORDS, or list: a list of `item`s
    default: object = REQUIRED
    choices: tuple = ()
    least: float | None = None    # the smallest allowed value (of each entry of a list)
    above: float | None = None    # a bound that every allowed value exceeds
    item: type | None = None      # the type of a list's entries
    min_len: int = 0              # the fewest entries of a list


def _is(kind, value) -> bool:
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    return isinstance(value, {int: Integral, float: Real}.get(kind, kind))


def check(name: str, key: Key, value):
    """`value`, unless it breaks `key`: then a ConfigError names `name`, the
    value and the rule, with the type only if the value has another one."""
    def within(v) -> bool:
        return (key.least is None or v >= key.least) and (key.above is None or v > key.above)

    bound = (f" >= {key.least}" if key.least is not None
             else "" if key.above is None else f" > {key.above}")
    if key.choices:
        rule, ok = f"one of {key.choices}", value in key.choices
    elif key.type is list:
        rule = f"a list of at least {key.min_len} {key.item.__name__}s{bound}"
        ok = (isinstance(value, (list, tuple)) and len(value) >= key.min_len
              and all(_is(key.item, v) and within(v) for v in value))
    elif _is(key.type, value):
        rule, ok = bound.lstrip(), within(value)
    else:
        rule, ok = _WORDS[key.type] + bound, False
    if not ok:
        raise ConfigError(f"{name} must be {rule}, got {value!r}")
    return value


def read(table: dict, config: dict, noun: str = "config ", known: str = "known keys:") -> dict:
    """Every key of `table`: its checked value in `config`, else its default.
    Missing required and unknown keys fail first, together. A table with
    optional keys calls the others required."""
    if not isinstance(config, dict):
        raise ConfigError(f"a {noun}must be a dict, got {config!r}")
    required = "required " if any(k.default is not REQUIRED for k in table.values()) else ""
    missing = sorted(n for n, k in table.items() if k.default is REQUIRED and n not in config)
    unknown = sorted(set(config) - set(table))
    problems = [f"{what}{noun}key(s) {names}" for what, names in (
        (f"missing {required}", missing), ("unknown ", unknown)) if names]
    if problems:
        raise ConfigError(f"{'; '.join(problems)}; {known} {sorted(table)}")
    return {n: check(n, k, config[n]) if n in config else k.default for n, k in table.items()}


def setting(default=REQUIRED, *, factory=MISSING, **rule):
    """A dataclass config field: its default, and the rest of its `Key`."""
    return field(default=default, default_factory=factory, metadata=rule)


@cache
def table(cls) -> dict[str, Key]:
    """A dataclass config's table, one row per field."""
    hints = get_type_hints(cls)
    return {f.name: Key(hints[f.name], f.default if f.default_factory is MISSING
                        else f.default_factory(), **f.metadata) for f in fields(cls)}


def build(cls, data: dict, noun: str = "config ", known: str = "known keys:"):
    """`cls(**data)`, once `data` reads under `cls`'s table."""
    read(table(cls), data, noun, known)
    return cls(**data)


def read_json(path) -> dict:
    """The JSON in the file at `path`; a file that is not JSON fails naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: not a JSON file ({err})") from None
