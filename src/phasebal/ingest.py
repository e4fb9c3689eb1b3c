"""Measured-series ingest: per-phase power CSVs to imbalance reports.

Input is a CSV of per-phase active power (kW) with optional per-phase
reactive power (kVAr) and an optional measured neutral current column.
The report quantifies imbalance per row (max-min phase spread, a
neutral-current proxy) and aggregates the spread by clock hour.

The neutral proxy assumes nominal balanced voltages when converting
per-phase powers to current phasors; it approximates, not reproduces, a
measured neutral current.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Sequence

from .errors import NonMonotonicTimestamps, SchemaMismatch
from .powerflow import source_phasors

_BASE_COLUMNS = ("timestamp", "p_a_kw", "p_b_kw", "p_c_kw")
_Q_COLUMNS = ("q_a_kvar", "q_b_kvar", "q_c_kvar")
_NEUTRAL_COLUMN = "i_n_a"

#: Accepted header layouts, in column order.
ACCEPTED_HEADERS = tuple(
    _BASE_COLUMNS + q + n
    for q in ((), _Q_COLUMNS)
    for n in ((), (_NEUTRAL_COLUMN,))
)

#: A plain decimal in ASCII digits (``float()`` also reads padding, ``_`` and
#: other digits), and a byte that is not UTF-8 as ``surrogateescape`` reads it.
_DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")
_NOT_UTF8 = re.compile("[\udc80-\udcff]")
#: The date forms ``fromisoformat`` reads, then any time after "T" or a space.
_ISO_SEPARATOR = re.compile(r"\d{4}(-\d\d-\d\d|\d{4}|-W\d\d(-\d)?|W\d{2,3})([T ].*)?", re.ASCII)


@dataclass(frozen=True)
class MeasuredSeries:
    """Validated measured time series; ``q_kvar`` / ``i_n_a`` are None when
    the corresponding columns were absent."""

    timestamps: tuple[str, ...]
    hours: tuple[float, ...]  # hour-of-day per row, for hourly aggregation
    p_kw: tuple[tuple[float, float, float], ...]
    q_kvar: tuple[tuple[float, float, float], ...] | None
    i_n_a: tuple[float, ...] | None


@dataclass(frozen=True)
class ImbalanceReport:
    rows: list[dict[str, object]]
    hourly: list[dict[str, float]]


def _parse_timestamp(raw: str, row: int) -> tuple[str, float, float]:
    """Return (kind, sort key, hour of day). Accepts finite plain hours or
    ISO 8601 with "T" or a space between date and time; the kind is
    ``plain hours`` or ``ISO 8601``."""
    if "\r" in raw:  # the reports echo it, and csv.writer leaves a lone "\r" unquoted
        raise SchemaMismatch(f"row {row}: timestamp {raw!r} holds a carriage return")
    if _NOT_UTF8.search(raw):  # before fromisoformat, which takes it between date and time
        raise SchemaMismatch(f"row {row}: timestamp {raw!r} is not UTF-8")
    try:
        hours = float(raw)
    except ValueError:
        pass
    else:
        if not math.isfinite(hours):
            raise SchemaMismatch(f"row {row}: timestamp {raw!r} is not finite")
        if not _DECIMAL.fullmatch(raw):
            raise SchemaMismatch(f"row {row}: timestamp {raw!r} is not a plain decimal")
        return "plain hours", hours, hours % 24.0
    try:
        stamp = datetime.fromisoformat(raw)
    except ValueError:
        raise SchemaMismatch(f"row {row}: cannot parse timestamp {raw!r}") from None
    if not _ISO_SEPARATOR.fullmatch(raw):
        raise SchemaMismatch(
            f"row {row}: timestamp {raw!r} does not separate date and time by 'T' or a space"
        )
    if stamp.tzinfo is None:  # naive stamps order as UTC, whatever the local zone
        stamp = stamp.replace(tzinfo=timezone.utc)
    hour = stamp.hour + stamp.minute / 60.0 + stamp.second / 3600.0
    return "ISO 8601", stamp.timestamp(), hour


def read_measured_series(path: str) -> MeasuredSeries:
    """Parse and validate a measured-series CSV.

    Raises SchemaMismatch for an unexpected header, a cell that is not
    UTF-8, malformed, non-finite or no plain decimal, or a timestamp of
    another kind (plain hours or ISO 8601) than row 1's, and
    NonMonotonicTimestamps when timestamps do not strictly increase.
    """
    # a BOM is no column, and a byte that is not UTF-8 reaches the cell checks
    with open(path, "r", newline="", encoding="utf-8-sig", errors="surrogateescape") as handle:
        reader = csv.reader(handle)
        try:
            header = tuple(next(reader))
        except StopIteration:
            raise SchemaMismatch("empty file") from None
        if header not in ACCEPTED_HEADERS:
            raise SchemaMismatch(
                f"unexpected columns {list(header)}; expected one of "
                + " | ".join(",".join(h) for h in ACCEPTED_HEADERS)
            )
        has_q = _Q_COLUMNS[0] in header
        has_n = _NEUTRAL_COLUMN in header

        timestamps: list[str] = []
        hours: list[float] = []
        p_rows: list[tuple[float, float, float]] = []
        q_rows: list[tuple[float, float, float]] = []
        n_rows: list[float] = []
        prev_key, first_kind = -math.inf, None
        for i, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise SchemaMismatch(f"row {i}: expected {len(header)} cells, got {len(row)}")
            kind, key, hour = _parse_timestamp(row[0], i)
            first_kind = first_kind or kind
            if kind != first_kind:  # hours and epoch seconds do not order
                raise SchemaMismatch(
                    f"row {i}: timestamp {row[0]!r} is {kind}, but row 1's is {first_kind}"
                )
            if key <= prev_key:
                raise NonMonotonicTimestamps(i)
            prev_key = key
            values = []
            for column, cell in zip(header[1:], row[1:]):
                try:
                    values.append(float(cell))
                except ValueError:
                    why = "is not UTF-8" if _NOT_UTF8.search(cell) else "is not a number"
                    raise SchemaMismatch(f"row {i}: {column} {cell!r} {why}") from None
                if not math.isfinite(values[-1]):
                    raise SchemaMismatch(f"row {i}: {column} {cell!r} is not finite")
                if not _DECIMAL.fullmatch(cell):
                    raise SchemaMismatch(f"row {i}: {column} {cell!r} is not a plain decimal")
            timestamps.append(row[0])
            hours.append(hour)
            p_rows.append((values[0], values[1], values[2]))
            cursor = 3
            if has_q:
                q_rows.append((values[3], values[4], values[5]))
                cursor = 6
            if has_n:
                n_rows.append(values[cursor])

    return MeasuredSeries(
        timestamps=tuple(timestamps),
        hours=tuple(hours),
        p_kw=tuple(p_rows),
        q_kvar=tuple(q_rows) if has_q else None,
        i_n_a=tuple(n_rows) if has_n else None,
    )


def neutral_current_proxy(
    p_kw: Sequence[float], q_kvar: Sequence[float], v_base_ln: float = 230.0
) -> float:
    """|Ia + Ib + Ic| under nominal balanced voltages, amps."""
    phasors = source_phasors(v_base_ln)
    total = 0j
    for p, q, v in zip(p_kw, q_kvar, phasors):
        total += (complex(p, q) * 1000.0 / v).conjugate()
    return abs(total)


def analyze_series(series: MeasuredSeries, v_base_ln: float = 230.0) -> ImbalanceReport:
    """Per-row spread/proxy/power factor plus per-clock-hour spread stats.

    Raises SchemaMismatch naming the row (counted as in the file, from 1)
    whose spread or neutral proxy overflows, or the clock hour whose mean
    spread does.
    """
    rows: list[dict[str, object]] = []
    by_hour: dict[int, list[float]] = {}
    for i, stamp in enumerate(series.timestamps):
        p = series.p_kw[i]
        q = series.q_kvar[i] if series.q_kvar is not None else (0.0, 0.0, 0.0)
        spread = max(p) - min(p)
        try:
            proxy = neutral_current_proxy(p, q, v_base_ln)
        except OverflowError:  # abs() of a complex whose magnitude overflows
            proxy = math.inf
        for name, value in (("spread_kw", spread), ("neutral_proxy_a", proxy)):
            if not math.isfinite(value):
                raise SchemaMismatch(f"row {i + 1}: {name} overflows")
        row: dict[str, object] = {
            "timestamp": stamp,
            "spread_kw": spread,
            "neutral_proxy_a": proxy,
        }
        for label, pk, qk in zip(("a", "b", "c"), p, q):
            if series.q_kvar is None or math.hypot(pk, qk) == 0.0:
                row[f"pf_{label}"] = None
            else:
                row[f"pf_{label}"] = pk / math.hypot(pk, qk)
        if series.i_n_a is not None:
            row["i_n_measured_a"] = series.i_n_a[i]
        rows.append(row)
        by_hour.setdefault(int(series.hours[i]) % 24, []).append(spread)

    hourly = []
    for hour, values in sorted(by_hour.items()):
        mean = sum(values) / len(values)
        if not math.isfinite(mean):
            raise SchemaMismatch(f"hour {hour}: mean_spread_kw overflows")
        hourly.append({"hour": float(hour), "mean_spread_kw": mean, "max_spread_kw": max(values)})
    return ImbalanceReport(rows=rows, hourly=hourly)
