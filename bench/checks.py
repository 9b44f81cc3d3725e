"""Output checks against reference outputs recorded from the seed commit.

Every value must equal its recorded counterpart within ``REL_TOL``
relative to ``max(1, |recorded|)``.  Small tables (RMSE reports) are
stored whole and compared value by value.  Long per-tick series (stream
outputs, estimate CSVs) are too large to store, so they are stored as a
fingerprint: for each block of ``BLOCK`` rows and each column, a sum
weighted with fixed pseudo-random weights in [0.5, 1.5].  A block passes when its sum
is within ``REL_TOL * sum(|weight| * max(1, |value|))``, which always
holds when every value is within tolerance.  It fails for a drift of
more than ``REL_TOL`` in one direction along a block, for scattered
errors above about ``sqrt(BLOCK) * REL_TOL``, and for a single value off
by more than about ``BLOCK * REL_TOL`` (a filter error spreads over many
rows).  The presence of each row and finiteness are checked exactly.
"""

from __future__ import annotations

import hashlib
import math
import random

REL_TOL = 1e-12
BLOCK = 100
_WEIGHT_SEED = 20121121
_weights: list[float] = []


def close(value: float, ref: float | None, slack: float = 0.0) -> bool:
    """``value`` matches ``ref`` (``None`` standing for nan)."""
    if ref is None:
        return math.isnan(value)
    if not math.isfinite(value):
        return False
    return abs(value - ref) <= REL_TOL * max(1.0, abs(ref)) + slack


def _weight_vector(n: int) -> list[float]:
    if len(_weights) < n:
        rng = random.Random(_WEIGHT_SEED)
        _weights[:] = [rng.uniform(0.5, 1.5) for _ in range(n)]
    return _weights[:n]


def fingerprint(rows: list[tuple[float, ...] | None]) -> dict:
    """Fingerprint of a series of equally long float rows; ``None`` rows
    (ticks without output) enter only through the presence mask."""
    kept = [row for row in rows if row is not None]
    width = len(kept[0]) if kept else 0
    weights = _weight_vector(len(kept))
    blocks = []
    for start in range(0, len(kept), BLOCK):
        pairs = list(zip(weights[start:start + BLOCK], kept[start:start + BLOCK]))
        blocks.append([math.fsum(w * row[col] for w, row in pairs) for col in range(width)])
    return {"rows": len(rows), "width": width, "mask": _mask(rows), "blocks": blocks}


def matches_fingerprint(rows: list[tuple[float, ...] | None], ref: dict) -> bool:
    """True when ``rows`` are finite and agree with the recorded series."""
    if (len(rows), _mask(rows)) != (ref["rows"], ref["mask"]):
        return False
    kept = [row for row in rows if row is not None]
    if any(len(row) != ref["width"] or not all(map(math.isfinite, row)) for row in kept):
        return False
    weights = _weight_vector(len(kept))
    for block, recorded in zip(range(0, len(kept), BLOCK), ref["blocks"]):
        pairs = list(zip(weights[block:block + BLOCK], kept[block:block + BLOCK]))
        for col, want in enumerate(recorded):
            got = math.fsum(w * row[col] for w, row in pairs)
            scale = math.fsum(abs(w) * max(1.0, abs(row[col])) for w, row in pairs)
            if not abs(got - want) <= REL_TOL * scale:
                return False
    return len(ref["blocks"]) == -(-len(kept) // BLOCK)


def _mask(rows) -> str:
    return hashlib.sha256(bytes(row is not None for row in rows)).hexdigest()


def table(labels: list[str], bins: list[str], values) -> dict:
    """An RMSE table in storable form, nan cells as ``None``."""
    return {"labels": list(labels), "bins": list(bins),
            "values": [[None if math.isnan(v) else v for v in row] for row in values]}


def matches_table(got: dict, ref: dict, digits: int | None = None) -> bool:
    """Same labels and bins and every cell within tolerance.  ``digits``
    widens the tolerance by one unit in that significant digit, for
    tables that were printed with that many digits."""
    if (got["labels"], got["bins"]) != (ref["labels"], ref["bins"]):
        return False
    for row, ref_row in zip(got["values"], ref["values"]):
        if len(row) != len(ref_row):
            return False
        for value, recorded in zip(row, ref_row):
            slack = 0.0
            if digits is not None and recorded:
                slack = 10.0 ** (math.floor(math.log10(abs(recorded))) - digits + 1)
            if not close(math.nan if value is None else value, recorded, slack):
                return False
    return len(got["values"]) == len(ref["values"])


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
