"""Exception types shared across the package.

The split mirrors how failures surface to a caller: bad values in
(``DomainError``, ``DegenerateInputError``), bad files in
(``LogFormatError``) and iterative algorithms giving up
(``NonConvergenceError``).  The command line tool maps the first three
to exit code 2 and the last one to exit code 3.  Bad numbers raise
``DomainError`` by name: :func:`require_finite` for dataclass fields,
:func:`require_positive` for lengths, periods, ratios and counts.  Both
refuse what is not a ``numbers.Real`` (text, ``None``, a ``Decimal``),
count an integer beyond float range as not finite, and their messages
show an integer of more than 30 digits by its digit count;
:func:`require_finite` also names a field that holds no value of its
annotated kind, and stores the real fields of a config it passes as
Python floats.  A tuple field's length is read off its annotation by
:func:`_tuple_width`, so ``ratios: tuple[float, float, float]`` refuses a
pair by name.
"""

import functools
import math
import types
from dataclasses import fields, is_dataclass
from numbers import Integral, Real
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class DegenerateInputError(ValueError):
    """An input is singular for the requested operation (e.g. an azimuth
    asked of a point sitting exactly on the zenith axis)."""


class LogFormatError(ValueError):
    """A log file or data stream violates the expected format."""


class NonConvergenceError(RuntimeError):
    """An iterative solver exhausted its budget without converging."""


def _finite(value: Real) -> bool:
    """Whether the real number ``value`` is a finite float; an integer
    beyond float range is not, since no float holds it."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


#: Integers longer than this many digits are shown by their digit count.
_SHOWN_DIGITS = 30


def _digits(value: int) -> int:
    """Decimal digits of ``abs(value)``, counted without ``str``, which
    refuses integers past its digit limit."""
    value = abs(value)
    # (bits - 1) * log10(2) never exceeds log10(value), so counting up
    # from there stops at the exact count.
    count = max(1, int((value.bit_length() - 1) * math.log10(2)))
    while 10 ** count <= value:
        count += 1
    return count


def _shown(value) -> str:
    """``value`` as a message shows it: a tuple or a list entry by entry,
    an integer of more than ``_SHOWN_DIGITS`` digits by its digit count,
    and what is not a number by its ``repr``."""
    if isinstance(value, (tuple, list)):
        entries = ", ".join(map(_shown, value))
        if isinstance(value, list):
            return f"[{entries}]"
        return f"({entries},)" if len(value) == 1 else f"({entries})"
    if isinstance(value, int) and abs(value) >= 10 ** _SHOWN_DIGITS:
        return f"an integer of {_digits(value)} digits"
    return str(value) if isinstance(value, Real) else repr(value)


def _tuple_width(hint) -> int | None:
    """The number of entries a ``tuple[...]`` annotation declares, reading
    ``X | None`` as ``X``; ``None`` for any other annotation, and for
    ``tuple[X, ...]``.  Only a union is unwrapped, since a bare tuple's
    arguments are its entries."""
    if get_origin(hint) in (Union, types.UnionType):
        hint = Union[tuple(arg for arg in get_args(hint) if arg is not type(None))]
    entries = get_args(hint)
    return len(entries) if get_origin(hint) is tuple and Ellipsis not in entries else None


_field_types = functools.cache(get_type_hints)  # resolved once per dataclass


@functools.cache
def _field_widths(cls) -> dict[str, int | None]:
    """Each field of the dataclass ``cls`` and its :func:`_tuple_width`."""
    return {name: _tuple_width(hint) for name, hint in _field_types(cls).items()}


def require_finite(spec) -> None:
    """Reject a dataclass instance with a nan, infinite or out-of-range
    field, by name; tuple fields entry by entry, then by the length their
    annotation declares.  A field that holds no number (a string, a list,
    an array), or a tuple field that holds no tuple of numbers, is refused
    by name as well, and so is an ``int`` field without an integer (a
    ``bool`` is not one), a ``bool`` field without a Python or numpy bool,
    and a field annotated with a dataclass without an instance of it, which
    is not checked further.

    A field that passes is stored as a Python float if annotated
    ``float``, and as a tuple of Python floats if a tuple, so a numpy
    scalar given to a config reaches no result in its own precision;
    ``int`` and ``bool`` fields keep what was given."""
    kinds, widths = _field_types(type(spec)), _field_widths(type(spec))
    for field in fields(spec):
        value, kind = getattr(spec, field.name), kinds[field.name]
        if kind is bool or is_dataclass(kind):
            if not isinstance(value, (bool, np.bool_) if kind is bool else kind):
                raise DomainError(
                    f"{field.name} must be of type {kind.__name__}, got {_shown(value)}")
            continue
        many = get_origin(kind) is tuple
        entries = value if many and isinstance(value, tuple) else (value,)
        if not all(isinstance(entry, Real) for entry in entries):
            what = "a tuple of finite numbers" if many else "a finite number"
            raise DomainError(f"{field.name} must be {what}, got {_shown(value)}")
        if not all(map(_finite, entries)):
            raise DomainError(f"{field.name} must be finite, got {_shown(value)}")
        if kind is int and (isinstance(value, bool) or not isinstance(value, Integral)):
            raise DomainError(f"{field.name} must be an integer, got {_shown(value)}")
        width = widths[field.name]
        if width is not None and len(value) != width:
            raise DomainError(
                f"{field.name} must hold {width} finite numbers, got {_shown(value)}")
        if many:
            object.__setattr__(spec, field.name, tuple(map(float, value)))
        elif kind is float:
            object.__setattr__(spec, field.name, float(value))


def require_positive(name: str, value) -> None:
    """``DomainError`` naming ``name`` unless ``value`` is a real number,
    finite as a float, above 0 (nan, an integer beyond float range, text,
    ``None`` and a ``Decimal``, which is not a ``numbers.Real``, fail)."""
    if not (isinstance(value, Real) and _finite(value) and value > 0.0):
        raise DomainError(f"{name} must be positive and finite, got {_shown(value)}")
