"""Exception hierarchy shared across the package, and the rule checker of JSON inputs.

The CLI maps the exceptions onto its exit-code contract, so raising the right
class matters more than the message wording. ``check`` is the one judge of the
run config (``CONFIG_RULES``) and of the network document (``NETWORK_RULES``),
and each table states every key's rule and, with ``Default``, the value a
missing key takes.
"""

import copy
import sys
from typing import NamedTuple


class OdfuseError(Exception):
    """Base class for all package errors."""


class ConfigError(OdfuseError):
    """Bad run configuration, CLI usage, or network-config schema violation."""


class DataError(OdfuseError):
    """Malformed or inconsistent input data (CSV rows, joins, missing artifacts)."""


class InternalError(OdfuseError):
    """An internal invariant was violated; indicates a bug, not bad input."""


class Each(NamedTuple):
    """A list, or with ``keyed`` an object, whose items all meet ``rule``."""

    rule: object
    keyed: bool = False


class Default(NamedTuple):
    """An optional key: when missing it takes a copy of ``value``, which must meet ``rule``,
    except that a ``value`` of None lets a null through. An object ``value`` is checked
    like any other, so its own missing keys take their defaults too."""

    rule: object
    value: object


def integer(low: int) -> tuple:
    return (lambda v: not isinstance(v, bool) and isinstance(v, int) and v >= low), f"an integer >= {low}", None


def one_of(values: tuple[str, ...]) -> tuple:
    return (lambda v: v in values), "one of " + ", ".join(values), None


def is_number(value) -> bool:
    """A JSON number a float can hold: not a bool, NaN, an infinity or an int beyond float range."""
    return not isinstance(value, bool) and isinstance(value, (int, float)) and abs(value) <= sys.float_info.max


def is_text(value) -> bool:
    """A str that UTF-8 can encode: JSON also decodes a lone surrogate such as "\\ud800",
    which no file or file name can hold, and which the round trip below replaces."""
    return isinstance(value, str) and value.encode("utf-8", "replace").decode("utf-8") == value


# A rule is (test, expected, name), and a message names the key itself when
# name is None; or a dict of rules, an object with exactly those keys, where
# a missing key is null unless its rule is a Default; or an Each or a Default.
OBJECT = (lambda v: isinstance(v, dict), "an object", None)
LIST = (lambda v: isinstance(v, list), "a list", None)
NUMBER = (is_number, "finite and numeric", None)
STRING = (is_text, "a string", None)
TEXT = (lambda v: is_text(v) and "\0" not in v, "a string", None)  # a path: the OS rejects NUL
PATH = (lambda v: v is None or TEXT[0](v), "a string or null", None)


def check(path: str, value, rule) -> None:
    """Raise a ConfigError naming ``path`` unless ``value`` meets ``rule``; fills in missing keys."""
    if isinstance(rule, Default):
        if value is not None or rule.value is not None:
            check(path, value, rule.rule)
        return
    if isinstance(rule, Each):
        test, expected, name = OBJECT if rule.keyed else LIST
    else:
        test, expected, name = OBJECT if isinstance(rule, dict) else rule
    if not test(value):
        raise ConfigError(f"{path}: bad value {value!r}: {name or path.rpartition('.')[2]} must be {expected}")
    if isinstance(rule, Each):
        for key, item in value.items() if rule.keyed else enumerate(value):
            check(f"{path}.{key}", item, rule.rule)
    elif isinstance(rule, dict):
        unknown = sorted(set(value) - set(rule))
        if unknown:
            raise ConfigError(f"{path}: unknown keys {unknown}")
        for key, sub in rule.items():
            # A copy, so that filling in a default, or a flag set on it, never reaches the rule.
            default = copy.deepcopy(sub.value) if isinstance(sub, Default) else None
            check(f"{path}.{key}" if path else key, value.setdefault(key, default), sub)
