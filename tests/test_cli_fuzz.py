"""CLI fuzz properties: edge values in the bundled configs never crash the
CLI, and neither do drawn measured series under ``phasebal ingest``.

Each example takes a preset or golden config, sets one or two of its
numeric or string leaves (solver settings and feeder base values included)
to an edge value and runs ``main`` in process, now and then with
``--tol``/``--max-iter`` flags. numpy warnings are errors here (pyproject's
pytest settings), so an overflow inside the solver fails the example
instead of passing as a warning.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import tempfile
from datetime import datetime, timedelta
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from phasebal.cli import main
from phasebal.ingest import ACCEPTED_HEADERS
from phasebal.network import DEFAULT_S_BASE_KVA, DEFAULT_V_BASE_LN
from phasebal.powerflow import SolverSettings
from phasebal.presets import preset_config, preset_names

GOLDEN_DIR = Path(__file__).parent / "golden"


def _source_docs() -> dict[str, dict]:
    """The presets and golden configs, with the solver settings and (for a
    custom feeder) the base values spelled out at their defaults so that
    they are leaves to mutate."""
    docs = {name: preset_config(name) for name in preset_names()}
    for path in sorted(GOLDEN_DIR.glob("*.json")):
        docs[path.stem] = json.loads(path.read_text(encoding="utf-8"))
    defaults = SolverSettings()
    for doc in docs.values():
        doc["solver"] = {"tol_pu": defaults.tol_pu, "max_iter": defaults.max_iter}
        feeder = doc.get("scenario", {}).get("feeder")
        if feeder is not None:
            feeder.update(v_base_ln=DEFAULT_V_BASE_LN, s_base_kva=DEFAULT_S_BASE_KVA)
    return docs


SOURCES = _source_docs()

EDGE_NUMBERS = [
    0.0,
    -0.0,
    5e-324,  # the least subnormal
    -5e-324,
    2.2250738585072014e-308,  # the least normal
    1e308,
    -1e308,
    math.inf,
    -math.inf,
    math.nan,
    2**1024,  # an integer too large for a float
    -(10**400),
]

# control characters, quotes, CSV delimiters and line breaks of every kind
NAME_CHARS = st.sampled_from(
    ['"', "'", ",", "\n", "\r", "\t", "\0", "\x1b", "\x7f", "\x85", " ", "\\", "/", "\u2028", "a"]
)

#: Solver flags, which override the config's solver settings.
SOLVER_FLAGS = st.sampled_from(
    [[], ["--tol", "1e-6"], ["--tol", "nan"], ["--max-iter", "1"], ["--max-iter", "0"]]
)

#: Text columns; every other cell is a number or empty.
TEXT_COLUMNS = {"kind", "node", "label", "error"}


def leaves(doc, path=()):
    """(path, value) of every number and string in ``doc``."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from leaves(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from leaves(value, path + (i,))
    elif isinstance(doc, (int, float, str)) and not isinstance(doc, bool):
        yield path, doc


def edge_values(value):
    """Edge numbers for a number; for a string, control characters and
    quotes, alone or after the string."""
    if isinstance(value, str):
        text = st.text(NAME_CHARS, max_size=4)
        return text | text.map(lambda tail: value + tail)
    return st.sampled_from(EDGE_NUMBERS)


@st.composite
def mutations(draw):
    """(source name, [(leaf path, new value)], solver flags) for one or two
    leaves."""
    source = draw(st.sampled_from(sorted(SOURCES)))
    sites = list(leaves(SOURCES[source]))
    picks = draw(
        st.lists(st.sampled_from(sites), min_size=1, max_size=2, unique_by=lambda site: site[0])
    )
    changes = [(path, draw(edge_values(value))) for path, value in picks]
    return source, changes, draw(SOLVER_FLAGS)


def with_leaf(doc, path, new):
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new


def assert_tables_read_back(out: Path) -> None:
    """Every CSV reads back into header-width rows whose cells outside the
    text columns are empty or finite floats; the echoed config is JSON."""
    for path in out.glob("*.csv"):
        with open(path, newline="", encoding="utf-8") as handle:
            header, *rows = list(csv.reader(handle))
        numeric = [i for i, name in enumerate(header) if name not in TEXT_COLUMNS]
        for row in rows:
            assert len(row) == len(header), (path.name, row)
            for i in numeric:
                assert row[i] == "" or math.isfinite(float(row[i])), (path.name, header[i], row)
    for path in out.glob("*-config.json"):
        json.loads(path.read_text(encoding="utf-8"), parse_constant=_not_json)


def _not_json(name: str):
    raise AssertionError(f"{name} is not JSON")


def run_mutated(source: str, changes: list[tuple[tuple, object]], flags: list[str]) -> None:
    doc = json.loads(json.dumps(SOURCES[source]))
    for path, new in changes:
        with_leaf(doc, path, new)
    command = "sweep" if "sweep" in doc else "run"
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, str(config), "--out", str(out), *flags])
        assert code in (0, 2, 3), (code, err.getvalue())
        if code == 2:
            assert "invalid config at '" in err.getvalue(), err.getvalue()
        if code == 0:
            # no output file name reads as a shell option or splits a line
            # of the listing of written paths
            names = [p.name for p in out.iterdir()]
            assert not [name for name in names if name.startswith("-") or "\n" in name]
            assert_tables_read_back(out)


@settings(max_examples=300, deadline=None)
@given(mutations())
# sweep cells that cannot be built: a NaN penetration passes the schema's
# bounds, and a load whose VA figure overflows
@example(("grid-compact", [(("sweep", "penetrations_pct", 5), math.nan)], []))
@example(("sweep-overload", [(("sweep", "total_phase_load_kw"), 1e308)], []))
# a clock window that never opens, echoed as NaN into the config copy
@example(("quoting", [(("scenario", "schedule", "ev_window", 1), math.nan)], []))
# a base voltage whose device currents overflow
@example(("golden", [(("scenario", "feeder", "v_base_ln"), 5e-324)], []))
# a tolerance no pass reaches, with passes that never run out
@example(("overload-n5", [(("solver", "max_iter"), 1e308), (("solver", "tol_pu"), 5e-324)], []))
# an empty label, which would name the output files "-config.json" and so on
@example(("grid-compact", [(("label",), "")], []))
@example(("golden", [(("label",), "")], []))
# a line feed, which would split each written path over two lines
@example(("golden", [(("label",), "a\nb")], []))
# solver flags over a solver that is no object
@example(("golden", [(("solver",), 5)], ["--tol", "1e-6"]))
@example(("grid-compact", [(("solver",), [1, 2])], ["--max-iter", "1"]))
def test_edge_values_exit_cleanly(mutation):
    run_mutated(*mutation)


# --- phasebal ingest ----------------------------------------------------------

#: Power cells: edge numbers as the CSV spells them, plain ones, and ones
#: ``float()`` reads that are no plain decimal number (an underscore,
#: padding, Arabic-Indic and fullwidth digits).
INGEST_NUMBERS = st.sampled_from(
    ["0.0", "-0.0", "5e-324", "-5e-324", "1e308", "-1e308", "1e400", "inf", "-inf", "nan"]
    + [str(2**1024), str(-(10**400)), "1", "-2.5", "0.75", "12", ".5", "+3.", "2E-3"]
    + ["1_000", " 4 ", "\t7", "\u0661\u0662", "\uff14"]
)

#: Bytes that are not UTF-8, as ``surrogateescape`` decodes them: a lone 0xff,
#: a truncated three-byte sequence, a lone continuation byte, an encoded
#: surrogate and an overlong encoding.
RAW_BYTES = [b"\xff", b"\xe2\x82", b"\x80", b"\xed\xa0\x80", b"\xc0\xaf"]

#: Characters that CSV text can trip on: quotes, delimiters, line breaks,
#: control characters and a byte order mark; and what a plain decimal number
#: must not hold: underscores, padding, digits of other scripts and bytes
#: that are not UTF-8.
CSV_HAZARDS = st.sampled_from(
    ['"', ",", "\r", "\n", "\r\n", "\0", "\t", "\x1b", "\x7f", "\x85", "\u2028", "\ufeff", " "]
    + ["_", "\u0663", "\u0966", "\uff10"]
    + [raw.decode("utf-8", "surrogateescape") for raw in RAW_BYTES]
)

#: A plain decimal number in ASCII digits, the only number ``ingest`` reads.
PLAIN_DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")

#: Timestamps that are no steps in time.
ODD_STAMPS = st.sampled_from(["", "x", "inf", "-inf", "nan", "1e400", "2020-02-30T00:00:00"])


def stamp(minutes: int, style: str, sep: str = "T") -> str:
    """A timestamp ``minutes`` after 2020-01-01T00:00 in plain hours, naive
    ISO 8601 or ISO 8601 with a UTC offset, ``sep`` between date and time."""
    if style == "hours":
        return repr(minutes / 60)
    when = datetime(2020, 1, 1) + timedelta(minutes=minutes)
    return when.isoformat(sep) + ("" if style == "naive" else style)


def quoted(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"'


@st.composite
def measured_series(draw):
    """The bytes of a measured-series CSV under one of the accepted headers:
    rows of edge numbers, timestamps that mostly increase but now and then
    repeat, go back, switch between plain hours and ISO 8601, put another
    character than "T" or a space between date and time or are no times at
    all, and text hazards: a byte order
    mark, cells quoted or holding a hazard (bytes that are not UTF-8
    among them), rows with a cell too few or too many, empty lines, CRLF
    line ends."""
    header = draw(st.sampled_from(ACCEPTED_HEADERS))
    styles = st.sampled_from(["hours", "naive", "+00:00", "+05:30", "-08:00"])
    style, sep = draw(styles), draw(st.sampled_from(["T", " "]))
    minutes = draw(st.integers(-(10**6), 10**6))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        minutes += draw(st.sampled_from([15, 60, 90, 1440, 0, -60]))
        if draw(st.integers(0, 9)) == 0:
            style = draw(styles)
        if draw(st.integers(0, 9)) == 0:
            sep = draw(st.sampled_from(["T", " ", "x", "t", "0", "\x85", "\u2028"]))
        odd = draw(st.integers(0, 9)) == 0
        cells = [draw(ODD_STAMPS) if odd else stamp(minutes, style, sep)]
        cells += [draw(INGEST_NUMBERS) for _ in header[1:]]
        for _ in range(draw(st.integers(0, 2))):
            i = draw(st.integers(0, len(cells) - 1))
            hazard = draw(st.sampled_from(["quote", "insert", "insert quoted", "drop", "extra"]))
            if hazard == "quote":
                cells[i] = quoted(cells[i])
            elif hazard.startswith("insert"):
                at = draw(st.integers(0, len(cells[i])))
                cells[i] = cells[i][:at] + draw(CSV_HAZARDS) + cells[i][at:]
                cells[i] = quoted(cells[i]) if hazard == "insert quoted" else cells[i]
            elif hazard == "drop" and len(cells) > 1:
                del cells[i]
            elif hazard == "extra":
                cells.insert(i, draw(INGEST_NUMBERS))
        lines.append(",".join(cells))
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
    end = draw(st.sampled_from(["\n", "\r\n"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    text = bom + end.join(lines) + draw(st.sampled_from([end, ""]))
    return text.encode("utf-8", "surrogateescape")


#: Every column an accepted header can hold.
HEADER = ACCEPTED_HEADERS[-1]


def assert_reports_read_back(out: Path, stem: str) -> None:
    """Both reports exist, and every cell but the timestamp is empty or a
    finite float, in rows as wide as the header."""
    for report in ("imbalance", "hourly"):
        with open(out / f"{stem}-{report}.csv", newline="", encoding="utf-8") as handle:
            header, *rows = list(csv.reader(handle))
        for row in rows:
            assert len(row) == len(header), (report, row)
            for name, cell in zip(header, row):
                if name != "timestamp":
                    assert cell == "" or math.isfinite(float(cell)), (report, name, row)


def assert_plain_cells(data: bytes) -> None:
    """The series is UTF-8; its timestamps are all in plain hours (those
    ``float()`` reads, each a plain decimal number) or all ISO 8601 with a
    "T" or a space between date and time; and every power cell is a plain
    decimal number."""
    header, *rows = csv.reader(io.StringIO(data.decode("utf-8-sig"), newline=""))
    kinds = set()
    for stamp, *cells in rows:
        try:
            float(stamp)
        except ValueError:  # the strategy writes ISO dates as YYYY-MM-DD
            kinds.add("ISO 8601")
            assert len(stamp) == 10 or stamp[10] in "T ", ("timestamp", stamp)
        else:
            kinds.add("plain hours")
            assert PLAIN_DECIMAL.fullmatch(stamp), ("timestamp", stamp)
        for name, cell in zip(header[1:], cells):
            assert PLAIN_DECIMAL.fullmatch(cell), (name, cell)
    assert len(kinds) <= 1, kinds


@settings(max_examples=300, deadline=None)
@given(measured_series())
@example(b"\xef\xbb\xbftimestamp,p_a_kw,p_b_kw,p_c_kw\n0,1,2,3\n")  # a byte order mark
@example(b"timestamp,p_a_kw,p_b_kw,p_c_kw\n0,\x000.0,0,0\n")  # a cell that is no number
@example(b'timestamp,p_a_kw,p_b_kw,p_c_kw\n"0.25\r",1,2,3\n')  # float() strips the "\r"
# float() reads an underscore and padding, in a power cell and a timestamp
@example(b"timestamp,p_a_kw,p_b_kw,p_c_kw\n0,1_000,1,1\n")
@example(b"timestamp,p_a_kw,p_b_kw,p_c_kw\n0, 4 ,1,1\n")
@example(b"timestamp,p_a_kw,p_b_kw,p_c_kw\n 4 ,1,1,1\n")
# a byte that is not UTF-8, and a multi-byte sequence cut short at the end
@example(b"timestamp,p_a_kw,p_b_kw,p_c_kw\n0,1,2,3\n1,1,\xff,3\n")
@example(b"timestamp,p_a_kw,p_b_kw,p_c_kw\n0,1,2,3\xe2\x82")
# fromisoformat reads any character between date and time: a letter, and a
# NEL (U+0085), which str.splitlines breaks a line at
@example(b"timestamp,p_a_kw,p_b_kw,p_c_kw\n2020-01-01x00:00:00,1,2,3\n")
@example(b"timestamp,p_a_kw,p_b_kw,p_c_kw\n2020-01-01\xc2\x8501:00:00,1,2,3\n")
# plain hours, then ISO 8601: hours and epoch seconds do not order
@example(b"timestamp,p_a_kw,p_b_kw,p_c_kw\n5,1,2,3\n2024-03-01T00:00:00,1,2,3\n")
def test_ingest_exits_cleanly(data):
    """Exit 0 writes both reports, which read back finite, from a series of
    plain decimal numbers and timestamps of one kind; exit 2 names the row
    at fault (the hour, for an hourly mean that overflows), and the column
    wherever a cell is at fault."""
    with tempfile.TemporaryDirectory() as tmp:
        series, out = Path(tmp) / "series.csv", Path(tmp) / "out"
        series.write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["ingest", str(series), "--out", str(out)])
        message = err.getvalue()
        assert code in (0, 2), (code, message)
        if code == 2:
            assert re.search(r"\brow \d+|^error: hour \d+: mean_spread_kw", message), message
            # a row of the wrong width, out of order or overflowing has no one cell at fault
            if not re.search(r"cells, got|not greater than the previous row|overflows", message):
                assert any(re.search(rf"\b{name}\b", message) for name in HEADER), message
        else:
            assert_reports_read_back(out, "series")
            assert_plain_cells(data)
