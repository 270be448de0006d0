"""Output checks for the benchmark's recipe CSVs.

At the pinned seed and size a CSV must match the stored reference: labels
and counts exactly, numbers to a relative tolerance.  At any other seed it
must keep the reference's row layout and satisfy invariants that hold on
every draw.
"""

from __future__ import annotations

import math

RTOL = 1e-9
EXACT = ("scheme", "ptot_dbm", "q", "n_locations", "n_fadings", "seed")
RATES = ("mean_rate_nats", "mean_rate_bits")
OPTIONAL_POSITIVE = ("gain", "gain_optimized")


def parse(text: str) -> tuple[dict[str, str], list[dict[str, str]]]:
    """Split a result CSV into its ``# key=value`` header and its rows."""
    header: dict[str, str] = {}
    lines = text.splitlines()
    while lines and lines[0].startswith("# "):
        key, _, value = lines.pop(0)[2:].partition("=")
        header[key] = value
    if not lines:
        return header, []
    columns = lines[0].split(",")
    return header, [dict(zip(columns, line.split(","))) for line in lines[1:]]


def compare(text: str, reference: str) -> list[str]:
    """Problems found comparing a CSV with the reference of the same run."""
    header, rows = parse(text)
    ref_header, ref_rows = parse(reference)
    if header != ref_header:
        return [f"header {header} differs from reference {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        if row.keys() != ref.keys():
            return [f"columns {list(row)} differ from reference {list(ref)}"]
        for col, want in ref.items():
            got = row[col]
            if col in EXACT or not (got and want):
                same = got == want
            else:
                same = math.isclose(float(got), float(want), rel_tol=RTOL, abs_tol=0.0)
            if not same:
                problems.append(f"row {i} {col}: {got!r}, reference {want!r}")
    return problems


def invariants(text: str, reference: str, seed: int, locations: int, fadings: int) -> list[str]:
    """Problems found checking a CSV of any seed against draw-free invariants.

    The row layout (scheme, power point and, except for best-q ``_opt``
    rows, the served-user count) comes from the reference CSV.
    """
    header, rows = parse(text)
    ref_header, ref_rows = parse(reference)
    want_header = dict(ref_header, seed=str(seed), locations=str(locations),
                       fadings=str(fadings))
    if header != want_header:
        return [f"header {header}, expected {want_header}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, expected {len(ref_rows)}"]
    problems = []
    counts = {"n_locations": str(locations), "n_fadings": str(fadings), "seed": str(seed)}
    by_point: dict[tuple[str, str], float] = {}
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        labels = ["scheme", "ptot_dbm"]
        if not ref["scheme"].endswith("_opt"):
            labels.append("q")
        for col in labels:
            if row.get(col) != ref[col]:
                problems.append(f"row {i} {col}: {row.get(col)!r}, expected {ref[col]!r}")
        for col, want in counts.items():
            if row.get(col) != want:
                problems.append(f"row {i} {col}: {row.get(col)!r}, expected {want!r}")
        for col in RATES:
            if not _positive(row.get(col, "")):
                problems.append(f"row {i} {col}: {row.get(col)!r} is not finite and positive")
        for col in OPTIONAL_POSITIVE:
            if bool(row.get(col)) != bool(ref[col]) or (row[col] and not _positive(row[col])):
                problems.append(f"row {i} {col}: {row.get(col)!r}, reference {ref[col]!r}")
        stderr = row.get("stderr", "")
        if locations > 1 and not (_finite(stderr) and float(stderr) >= 0):
            problems.append(f"row {i} stderr: {stderr!r} is not finite and nonnegative")
        if _finite(row.get("mean_rate_nats", "")):
            by_point[row["scheme"], row["ptot_dbm"]] = float(row["mean_rate_nats"])
    # Ordered pairs per power point: ZF lower <= upper bound, and the original
    # multi-server scheme <= its stream-count optimum.
    pairs = {(s, s.replace("_lower", "_upper")) for s, _ in by_point if "_lower" in s}
    pairs.add(("msv", "msv_modified_opt"))
    for (scheme, power), value in by_point.items():
        for low, high in pairs:
            if scheme == low and (high, power) in by_point and value > by_point[high, power]:
                problems.append(f"{low} {value!r} > {high} "
                                f"{by_point[high, power]!r} at {power} dBm")
    return problems


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _positive(text: str) -> bool:
    return _finite(text) and float(text) > 0
