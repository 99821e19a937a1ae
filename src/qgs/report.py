"""Deterministic JSON and CSV emission for reports.

JSON uses sorted keys and shortest round-trip floats, so identical inputs
produce byte-identical files; non-finite floats become null.  A report's JSON
is its fields: a dataclass is encoded as the dict of its fields, unless it
defines a `to_json` wire form of its own.  CSV renders floats with 17
significant digits (round-trip safe) in a fixed column order.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import fields, is_dataclass

import numpy as np
from typing import Iterable, Mapping, Sequence


def sanitize(obj):
    """Coerce numpy scalars to native types and non-finite floats to None;
    encode objects by their `to_json` method, or dataclasses by their fields."""
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        obj = float(obj)
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [sanitize(v) for v in obj]
    if hasattr(obj, "to_json"):
        return sanitize(obj.to_json())
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: sanitize(getattr(obj, f.name)) for f in fields(obj)}
    return obj


def json_dumps(obj) -> str:
    return json.dumps(sanitize(obj), sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"


def fmt_float(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return ""
        return f"{x:.17g}"
    return str(x)


def csv_dumps(rows: Iterable[Mapping], columns: Sequence[str]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([fmt_float(row.get(c, "")) for c in columns])
    return buf.getvalue()


AUDIT_COLUMNS = ("trial", "graph", "gamma", "rho", "lam", "modes",
                 "mass_observed", "bound", "mass_margin", "mass_passed",
                 "deriv_observed", "deriv_margin", "deriv_passed",
                 "deriv_vacuous")
