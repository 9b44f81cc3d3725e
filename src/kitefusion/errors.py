"""Exception types shared across the package.

The split mirrors how failures surface to a caller: bad values in
(``DomainError``, ``DegenerateInputError``), bad files in
(``LogFormatError``) and iterative algorithms giving up
(``NonConvergenceError``).  The command line tool maps the first three
to exit code 2 and the last one to exit code 3.  Bad numbers raise
``DomainError`` by name: :func:`require_finite` for dataclass fields,
:func:`require_positive` for lengths, periods, ratios and counts.  Both
count an integer beyond float range as not finite, and their messages
show an integer of more than 30 digits by its digit count;
:func:`require_finite` also names a field that holds no number.
"""

import math
from dataclasses import fields, is_dataclass
from numbers import Real


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class DegenerateInputError(ValueError):
    """An input is singular for the requested operation (e.g. an azimuth
    asked of a point sitting exactly on the zenith axis)."""


class LogFormatError(ValueError):
    """A log file or data stream violates the expected format."""


class NonConvergenceError(RuntimeError):
    """An iterative solver exhausted its budget without converging."""


def _finite(value) -> bool:
    """Whether ``value`` is a finite float; an integer beyond float range
    is not, since no float holds it."""
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
    """``value`` as a message shows it: a tuple entry by entry, an integer
    of more than ``_SHOWN_DIGITS`` digits by its digit count, and what is
    not a number by its ``repr``."""
    if isinstance(value, tuple):
        return f"({', '.join(map(_shown, value))})"
    if isinstance(value, int) and abs(value) >= 10 ** _SHOWN_DIGITS:
        return f"an integer of {_digits(value)} digits"
    return str(value) if isinstance(value, Real) else repr(value)


def require_finite(spec) -> None:
    """Reject a dataclass instance with a nan, infinite or out-of-range
    field, by name; tuple fields entry by entry, nested dataclasses not
    at all.  A field that holds no number (a string, a list, an array),
    or a tuple field that holds no tuple of numbers, is refused by name
    as well."""
    for field in fields(spec):
        value = getattr(spec, field.name)
        if is_dataclass(value):
            continue
        many = str(field.type).startswith("tuple")
        entries = value if many and isinstance(value, tuple) else (value,)
        if not all(isinstance(entry, Real) for entry in entries):
            kind = "a tuple of finite numbers" if many else "a finite number"
            raise DomainError(f"{field.name} must be {kind}, got {_shown(value)}")
        if not all(map(_finite, entries)):
            raise DomainError(f"{field.name} must be finite, got {_shown(value)}")


def require_positive(name: str, value) -> None:
    """``DomainError`` naming ``name`` unless ``value`` is a finite float
    above 0 (nan and an integer beyond float range fail)."""
    if not (_finite(value) and value > 0.0):
        raise DomainError(f"{name} must be positive and finite, got {_shown(value)}")
