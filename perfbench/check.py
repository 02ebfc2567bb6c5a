"""Output check against reference outputs stored from the seed commit.

Floating-point values may differ from the reference by at most
ATOL + RTOL * |reference|: loose enough for reordered arithmetic (a
different BLAS thread count, a vectorised sum), tight enough that any
change of behaviour shows.  Strings, integers and booleans (verdicts,
inner iterations, backtrack rounds) must match exactly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

RTOL = 1e-6
ATOL = 1e-9
REFS = Path(__file__).resolve().parent / "refs"


def mismatches(ref, out, path: str = "") -> list[str]:
    """Every place where `out` differs from `ref` beyond the tolerance."""
    if isinstance(ref, dict) and isinstance(out, dict):
        if set(ref) != set(out):
            return [f"{path}: keys differ"]
        return [m for k in ref
                for m in mismatches(ref[k], out[k], f"{path}.{k}")]
    if isinstance(ref, list) and isinstance(out, list):
        if len(ref) != len(out):
            return [f"{path}: length {len(out)} != {len(ref)}"]
        return [m for i, (r, o) in enumerate(zip(ref, out))
                for m in mismatches(r, o, f"{path}[{i}]")]
    if isinstance(ref, float) or isinstance(out, float):
        ok = _number(ref) and _number(out) and (
            (math.isnan(ref) and math.isnan(out))
            or abs(out - ref) <= ATOL + RTOL * abs(ref))
    else:
        ok = type(ref) is type(out) and ref == out
    return [] if ok else [f"{path}: {out!r} != {ref!r}"]


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def rounded(value, digits: int = 12):
    """Floats cut to `digits` significant digits, for compact storage."""
    if isinstance(value, float):
        return float(f"{value:.{digits}g}")
    if isinstance(value, dict):
        return {k: rounded(v, digits) for k, v in value.items()}
    if isinstance(value, list):
        return [rounded(v, digits) for v in value]
    return value


def ref_path(workload: str) -> Path:
    return REFS / f"{workload}.json"


def load_refs(workload: str) -> dict:
    with open(ref_path(workload)) as fh:
        return json.load(fh)["entries"]


def ref_key(seed: int, key: str) -> str:
    return f"{seed}/{key}"
