"""Exception types shared across the package.

The split mirrors how failures surface to a caller: bad values in
(``DomainError``, ``DegenerateInputError``), bad files in
(``LogFormatError``) and iterative algorithms giving up
(``NonConvergenceError``).  The command line tool maps the first three
to exit code 2 and the last one to exit code 3.

One rule says what a real number from a caller is, :func:`is_real`: a
``numbers.Real`` that is not a ``bool``.  A Python or numpy float or
integer is one; text, ``None``, a ``Decimal``, a complex number, a Python
``bool`` and a numpy ``bool_`` are not, so ``True`` never runs as 1.
Every number a caller hands the package is checked against it and, when
refused, raises ``DomainError`` naming the argument or field:
:func:`as_real` and :func:`as_reals` return a scalar or a fixed-width
vector as Python floats, :func:`as_real_array` an array of floats (an
array passes by its integer or float dtype), :func:`require_finite`
checks the fields of a config dataclass, and :func:`require_positive`
the lengths, periods, ratios and counts.  The last two count an integer beyond float range as
not finite, and every message shows an integer of more than 30 digits by
its digit count.  :func:`require_finite` also names a field that holds
no value of its annotated kind, and stores the real fields of a config
it passes as Python floats.  A tuple field's length is read off its
annotation by :func:`_tuple_width`, so ``ratios: tuple[float, float,
float]`` refuses a pair by name.

Each config field declares its :class:`Domain` beside it, in its
annotation: ``r: Annotated[float, Domain.POSITIVE]``.  A field declares
none when every finite value is in its domain.  :func:`require_finite`
checks the declarations once every field holds a finite number of its
kind, so a config's classes state only their rules across fields.  The
synthesizer's own limits, which follow from its arithmetic, are checked
where that arithmetic runs (see :mod:`~kitefusion.simkite`).

The package's own producers, :func:`~kitefusion.simkite.synthesize` and
:func:`~kitefusion.evalio.read_log`, build frames from float arrays and
skip the check.
"""

import enum
import functools
import math
import types
from dataclasses import fields, is_dataclass
from numbers import Integral, Real
from typing import Annotated, NamedTuple, Union, get_args, get_origin, get_type_hints

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


def is_real(value) -> bool:
    """Whether ``value`` is a real number: a ``numbers.Real`` that is not
    a ``bool``.  A Python float is answered first, without the slower
    abstract-class check."""
    return type(value) is float or isinstance(value, Real) and not isinstance(value, bool)


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


def as_real(name: str, value) -> float:
    """``value`` as a Python float (a Python float is returned as itself),
    or a ``DomainError`` naming ``name`` unless it is a real number that a
    float holds; nan and infinities pass."""
    try:
        if is_real(value):
            return float(value)
    except OverflowError:  # an integer beyond float range
        pass
    raise DomainError(f"{name} must be a real number, got {_shown(value)}")


def as_reals(name: str, value, width: int) -> tuple[float, ...]:
    """``value``, a tuple, list or 1-D array of ``width`` real numbers, as
    a tuple of Python floats, or a ``DomainError`` naming ``name``."""
    try:
        if (isinstance(value, (tuple, list, np.ndarray)) and len(value) == width
                and all(map(is_real, value))):
            return tuple(map(float, value))
    except (TypeError, OverflowError):  # a 0-d array; an integer beyond float range
        pass
    raise DomainError(f"{name} must hold {width} real numbers, got {_shown(value)}")


def as_real_array(name: str, value) -> np.ndarray:
    """``value`` as a float array, the array counterpart of
    :func:`as_real`, or a ``DomainError`` naming ``name``: an array must
    have an integer or float dtype (a ``bool``, text, complex or object
    array is refused), and any other value must be a real number or a
    sequence, nested or not, of them by :func:`is_real`."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "iuf":
            return np.asarray(value, dtype=float)
        raise DomainError(f"{name} must hold real numbers, got an array of {value.dtype}")
    entries = np.asarray(value, dtype=object).ravel()
    refused = [entry for entry in entries if not is_real(entry)]
    if not refused:
        try:
            return np.asarray(value, dtype=float)
        except OverflowError:  # an integer beyond float range
            refused = [entry for entry in entries if not _finite(entry)]
    raise DomainError(f"{name} must hold real numbers, got {_shown(refused[0])}")


def _tuple_width(hint) -> int | None:
    """The number of entries a ``tuple[...]`` annotation declares, reading
    ``X | None`` as ``X``; ``None`` for any other annotation, and for
    ``tuple[X, ...]``.  Only a union is unwrapped, since a bare tuple's
    arguments are its entries."""
    if get_origin(hint) in (Union, types.UnionType):
        hint = Union[tuple(arg for arg in get_args(hint) if arg is not type(None))]
    entries = get_args(hint)
    return len(entries) if get_origin(hint) is tuple and Ellipsis not in entries else None


class Domain(enum.Enum):
    """The values a number of a config field must take besides being
    finite, declared as the field's ``Annotated[kind, domain]``; a tuple
    field's least entry must take them.  Each value is the README's word
    for its domain."""

    POSITIVE = "positive"
    NOT_NEGATIVE = "not negative"
    ROUTING = "1, 2 or 3"


class _Field(NamedTuple):
    """What :func:`require_finite` reads off one field's annotation: the
    field's kind with ``Annotated`` stripped, the class a ``bool`` or
    dataclass field must hold (``None`` for a number), whether it is a
    tuple and its :func:`_tuple_width`, and its declared :class:`Domain`."""

    name: str
    kind: object
    typed: tuple[type, ...] | type | None
    many: bool
    width: int | None
    domain: Domain | None


@functools.cache
def _fields(cls) -> tuple[_Field, ...]:
    """The :class:`_Field` of each field of the dataclass ``cls``, in field
    order, read once per class."""
    hints = get_type_hints(cls, include_extras=True)
    plan = []
    for field in fields(cls):
        hint = hints[field.name]
        kind, *declared = get_args(hint) if get_origin(hint) is Annotated else (hint,)
        typed = (bool, np.bool_) if kind is bool else kind if is_dataclass(kind) else None
        domain = next((arg for arg in declared if isinstance(arg, Domain)), None)
        plan.append(_Field(field.name, kind, typed, get_origin(kind) is tuple,
                           _tuple_width(kind), domain))
    return tuple(plan)


def require_finite(spec) -> None:
    """Reject a dataclass instance with a nan, infinite or out-of-range
    field, by name; tuple fields entry by entry, then by the length their
    annotation declares.  A field that holds no real number (a string, a
    ``bool``, a list, an array), or a tuple field that holds no tuple of
    them, is refused by name as well, and so is an ``int`` field without an
    integer (a ``bool`` is not one), a ``bool`` field without a Python or
    numpy bool, and a field annotated with a dataclass without an instance
    of it, which is not checked further.

    A field that passes is stored as a Python float if annotated
    ``float``, and as a tuple of Python floats if a tuple, so a numpy
    scalar given to a config reaches no result in its own precision;
    ``int`` and ``bool`` fields keep what was given.  Once every field
    has passed, each field's declared :class:`Domain` is checked, in field
    order: a positive one by :func:`require_positive`."""
    plan = _fields(type(spec))
    for name, kind, typed, many, width, _ in plan:
        value = getattr(spec, name)
        if typed is not None:
            if not isinstance(value, typed):
                raise DomainError(f"{name} must be of type {kind.__name__}, got {_shown(value)}")
            continue
        entries = value if many and isinstance(value, tuple) else (value,)
        # A bool in an int field is named as no integer, below.
        if not (all(map(is_real, entries)) or kind is int and isinstance(value, bool)):
            what = "a tuple of finite numbers" if many else "a finite number"
            raise DomainError(f"{name} must be {what}, got {_shown(value)}")
        if not all(map(_finite, entries)):
            raise DomainError(f"{name} must be finite, got {_shown(value)}")
        if kind is int and (isinstance(value, bool) or not isinstance(value, Integral)):
            raise DomainError(f"{name} must be an integer, got {_shown(value)}")
        if width is not None and len(value) != width:
            raise DomainError(f"{name} must hold {width} finite numbers, got {_shown(value)}")
        if many:
            object.__setattr__(spec, name, tuple(map(float, value)))
        elif kind is float:
            object.__setattr__(spec, name, float(value))
    for name, *_, domain in plan:
        if domain is None:
            continue
        value = getattr(spec, name)
        value = min(value) if isinstance(value, tuple) else value
        if domain is Domain.POSITIVE:
            require_positive(name, value)
        elif domain is Domain.NOT_NEGATIVE and value < 0:
            raise DomainError(f"{name} must not be negative, got {_shown(value)}")
        elif domain is Domain.ROUTING and value not in (1, 2, 3):
            raise DomainError(f"{name} must be 1, 2 or 3, got {_shown(value)}")


def require_positive(name: str, value) -> None:
    """``DomainError`` naming ``name`` unless ``value`` is a real number
    (:func:`is_real`), finite as a float, above 0; nan and an integer
    beyond float range fail."""
    if not (is_real(value) and _finite(value) and value > 0.0):
        raise DomainError(f"{name} must be positive and finite, got {_shown(value)}")
