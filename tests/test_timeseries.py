"""Unit tests for trace ingestion, imputation, and regression assembly."""

import io
import warnings
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ingest_trace_rowwise, write_trace_csv_rowwise
from rctherm import timeseries as ts
from rctherm.errors import (
    DuplicateTimestampError,
    InsufficientDataError,
    OrderingError,
    ParseError,
    RcthermError,
    UnimputableError,
)

START = datetime(2024, 1, 1, tzinfo=timezone.utc)


def make_trace(n=12, **overrides):
    fields = dict(
        home_id="h0",
        start=START,
        t_in=np.linspace(68.0, 71.0, n),
        t_out=np.linspace(30.0, 35.0, n),
        t_setheat=np.full(n, 68.0),
        t_setcool=np.full(n, 75.0),
        hvac_mode=np.full(n, ts.MODE_AUTO, dtype=np.int8),
        motion=np.zeros(n),
        humidity=np.full(n, 0.4),
    )
    fields.update(overrides)
    return ts.Trace(**fields)


def csv_lines(rows):
    return ",".join(ts.CSV_HEADER) + "\n" + "\n".join(rows) + "\n"


def stamp(i):
    return (START + timedelta(seconds=i * ts.STEP_SECONDS)).strftime(
        "%Y-%m-%dT%H:%M:%SZ")


# ---------------------------------------------------------------------------
# Ingestion

def test_ingest_happy_path():
    text = csv_lines([
        f"{stamp(0)},70.0,30.0,68.0,75.0,auto,0,0.4",
        f"{stamp(1)},70.1,30.5,68.0,75.0,heat,1,0.41",
    ])
    trace = ts.ingest_trace(io.StringIO(text), "h1")
    assert trace.home_id == "h1"
    assert len(trace) == 2
    assert trace.start == START
    assert trace.t_in == pytest.approx([70.0, 70.1])
    assert list(trace.hvac_mode) == [ts.MODE_AUTO, ts.MODE_HEAT]
    assert trace.motion == pytest.approx([0.0, 1.0])


def test_ingest_grid_completion():
    # a missing grid slot becomes an explicit marked-missing sample
    text = csv_lines([
        f"{stamp(0)},70.0,30.0,68.0,75.0,auto,0,0.4",
        f"{stamp(2)},70.2,31.0,68.0,75.0,auto,0,0.4",
    ])
    trace = ts.ingest_trace(io.StringIO(text), "h1")
    assert len(trace) == 3
    assert np.isnan(trace.t_in[1]) and np.isnan(trace.humidity[1])
    assert trace.hvac_mode[1] == ts.MODE_MISSING
    assert trace.has_missing


def test_ingest_empty_fields_are_missing():
    text = csv_lines([
        f"{stamp(0)},,30.0,,75.0,,,",
        f"{stamp(1)},70.1,30.5,68.0,75.0,cool,1,0.5",
    ])
    trace = ts.ingest_trace(io.StringIO(text), "h1")
    assert np.isnan(trace.t_in[0]) and np.isnan(trace.t_setheat[0])
    assert trace.hvac_mode[0] == ts.MODE_MISSING
    assert np.isnan(trace.motion[0]) and np.isnan(trace.humidity[0])


@pytest.mark.parametrize("rows, exc", [
    ([f"{stamp(0)},70,30,68,75,auto,0,0.4",
      f"{stamp(0)},70,30,68,75,auto,0,0.4"], DuplicateTimestampError),
    ([f"{stamp(1)},70,30,68,75,auto,0,0.4",
      f"{stamp(0)},70,30,68,75,auto,0,0.4"], OrderingError),
    (["not-a-time,70,30,68,75,auto,0,0.4",
      f"{stamp(1)},70,30,68,75,auto,0,0.4"], ParseError),
    (["2024-01-01T00:00:00,70,30,68,75,auto,0,0.4",  # naive timestamp
      f"{stamp(1)},70,30,68,75,auto,0,0.4"], ParseError),
    (["2024-01-01T00:01:00Z,70,30,68,75,auto,0,0.4",  # off the 5-min grid
      f"{stamp(2)},70,30,68,75,auto,0,0.4"], ParseError),
    ([f"{stamp(0)},seventy,30,68,75,auto,0,0.4",
      f"{stamp(1)},70,30,68,75,auto,0,0.4"], ParseError),
    ([f"{stamp(0)},inf,30,68,75,auto,0,0.4",
      f"{stamp(1)},70,30,68,75,auto,0,0.4"], ParseError),
    ([f"{stamp(0)},70,30,68,75,fan,0,0.4",
      f"{stamp(1)},70,30,68,75,auto,0,0.4"], ParseError),
    ([f"{stamp(0)},70,30,68,75,auto,2,0.4",
      f"{stamp(1)},70,30,68,75,auto,0,0.4"], ParseError),
    ([f"{stamp(0)},70,30,68,75,auto,0,1.5",  # humidity out of range
      f"{stamp(1)},70,30,68,75,auto,0,0.4"], ParseError),
    ([f"{stamp(0)},70,30,68,75,auto,0"], ParseError),  # short row
    ([f"{stamp(0)},70,30,68,75,auto,0,0.4"], InsufficientDataError),
])
def test_ingest_rejects_malformed(rows, exc):
    with pytest.raises(exc):
        ts.ingest_trace(io.StringIO(csv_lines(rows)), "h1")


def test_ingest_rejects_bad_header_and_empty():
    with pytest.raises(ParseError):
        ts.ingest_trace(io.StringIO("a,b,c\n"), "h1")
    with pytest.raises(ParseError):
        ts.ingest_trace(io.StringIO(""), "h1")


def test_ingest_from_path(tmp_path):
    path = tmp_path / "trace.csv"
    ts.write_trace_csv(make_trace(), path)
    assert ts.ingest_trace(str(path), "h0") == make_trace()


def test_timestamp_outside_utc_datetime_range_is_a_parse_error():
    header = ",".join(ts.CSV_HEADER)
    row = ",70,30,68,75,auto,0,0.4\n"
    for first, second in (("0001-01-01T00:00:00+01:00", "0001-01-01T00:05:00+01:00"),
                          ("9999-12-31T23:50:00Z", "9999-12-31T23:55:00-00:10")):
        text = f"{header}\n{first}{row}{second}{row}"
        bad = 3 if first.endswith("Z") else 2
        with pytest.raises(ParseError, match=f"line {bad}: .*outside years 1-9999 UTC"):
            ts.ingest_trace(io.StringIO(text), "h0")


_ROW = ",70.5,30,68,75,auto,0,0.4\n"
#: A chunk size that ends each chunk on the second of these 46-character
#: lines once it is completed to a line end.
_TWO_ROWS = 50


@pytest.mark.parametrize("text, line", [
    (",".join(ts.CSV_HEADER) + "\n2024-01-01T00:00:00Z,70\r5,30,68,75,auto,0,0.4\n", 2),
    ("timestamp,t_in\r," + ",".join(ts.CSV_HEADER[2:]) + "\n", 1),
    (csv_lines([stamp(0) + _ROW[:-1], stamp(1) + _ROW[:-1],
                stamp(2) + _ROW[:-1].replace(",", ",\r", 1)]), 4),
    # after a quoted cell, csv.reader reads every later block
    (csv_lines([stamp(0) + _ROW[:-1].replace("auto", '"auto"'), stamp(1) + _ROW[:-1],
                stamp(2) + _ROW[:-1], stamp(3) + "\r" + _ROW[:-1]]), 5),
], ids=["first row", "header", "second block", "quoted blocks"])
def test_lone_cr_in_a_newline_split_stream_is_a_parse_error(text, line):
    # a StringIO splits lines only at "\n", so csv.reader meets the "\r"
    # inside a line and raises csv.Error
    with mock.patch.object(ts, "_BLOCK_CHARS", _TWO_ROWS):
        with pytest.raises(ParseError, match=f"^line {line}: malformed CSV row"):
            ts.ingest_trace(io.StringIO(text), "h")


def test_numpy_reader_is_not_retried_after_its_first_refusal():
    # chunks of two rows: the first is canonical, the second holds a space
    # after a comma, the third is canonical again. csv.reader reads from the
    # second chunk to the end, and the trace is the canonical file's.
    rows = [stamp(i) + _ROW[:-1] for i in range(6)]
    spaced = rows[:2] + [rows[2].replace(",", ", ", 1)] + rows[3:]
    results = []

    def spy(*args):
        results.append(read(*args))
        return results[-1]

    read = ts._read_canonical
    with (mock.patch.object(ts, "_BLOCK_CHARS", _TWO_ROWS),
          mock.patch.object(ts, "_read_canonical", spy)):
        got = ts.ingest_trace(io.StringIO(csv_lines(spaced)), "h")
    assert [block is None for block in results] == [False, True]
    assert got == ts.ingest_trace(io.StringIO(csv_lines(rows)), "h")


def test_a_block_of_blank_lines_reads_without_a_warning():
    # chunks of one character, each completed to a line end: the third holds
    # only the two blank lines, which numpy's reader would warn about; the
    # exact reader skips them
    text = csv_lines([stamp(0) + _ROW[:-1], stamp(1) + _ROW[:-1], "", "", stamp(2) + _ROW[:-1]])
    with mock.patch.object(ts, "_BLOCK_CHARS", 1), warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = ts.ingest_trace(io.StringIO(text), "h")
    assert len(trace) == 3 and not trace.has_missing


# ---------------------------------------------------------------------------
# Serialization round trip

def test_csv_roundtrip_bit_exact():
    t_in = np.linspace(68.0, 71.0, 10) + 1e-13 * np.arange(10)
    t_in[3] = np.nan
    motion = np.array([0, 1, 1, 0, 0, np.nan, 1, 0, 1, 0], dtype=float)
    mode = np.array([0, 1, 2, 3, -1, 3, 3, 1, 2, 0], dtype=np.int8)
    trace = make_trace(10, t_in=t_in, motion=motion, hvac_mode=mode)
    text = ts.trace_to_csv_text(trace)
    back = ts.ingest_trace(io.StringIO(text), "h0")
    assert back == trace
    assert ts.trace_to_csv_text(back) == text  # serialization is a fixed point


def test_csv_writer_stamps_utc_for_an_offset_start():
    trace = make_trace(3, start=datetime(2024, 1, 1, 12, tzinfo=timezone(timedelta(hours=2))))
    text = ts.trace_to_csv_text(trace)
    assert text.splitlines()[1].startswith("2024-01-01T10:00:00Z,")
    assert ts.ingest_trace(io.StringIO(text), "h0") == trace


finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=False)
maybe = st.one_of(st.just(float("nan")), finite)
humid = st.one_of(st.just(float("nan")),
                  st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
starts = st.datetimes(min_value=datetime(1990, 1, 1), max_value=datetime(2060, 1, 1),
                      timezones=st.sampled_from([
                          timezone.utc, timezone(timedelta(hours=2)),
                          timezone(timedelta(hours=-9, minutes=-30)),
                          timezone(timedelta(hours=14))]))
#: Block sizes for the column-at-a-time writer and the exact reader, and
#: chunk sizes in characters for numpy's reader: small ones put block and
#: chunk boundaries inside the generated files.
blocks = st.sampled_from([1, 2, 3, 5, ts._BLOCK_ROWS])
chunks = st.sampled_from([1, 30, 100, 150, ts._BLOCK_CHARS])


def random_trace(data, n, start=START):
    arr = lambda strat: np.array(data.draw(st.lists(strat, min_size=n, max_size=n)))
    return ts.Trace(
        home_id="hp",
        start=start,
        t_in=arr(maybe), t_out=arr(maybe),
        t_setheat=arr(maybe), t_setcool=arr(maybe),
        hvac_mode=np.array(data.draw(st.lists(
            st.sampled_from([-1, 0, 1, 2, 3]), min_size=n, max_size=n)), dtype=np.int8),
        motion=arr(st.sampled_from([0.0, 1.0, float("nan")])),
        humidity=arr(humid),
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=20), st.data())
def test_csv_roundtrip_property(n, data):
    # the writer drops microseconds of start, so round trips use whole
    # seconds; the comparison with the row-by-row writer uses any start.
    # Starts carry UTC offsets: the file is in UTC and reads back the same
    # instant.
    start = data.draw(starts)
    trace = random_trace(data, n, start.replace(microsecond=0))
    fractional = random_trace(data, n, start)
    with (mock.patch.object(ts, "_BLOCK_ROWS", data.draw(blocks)),
          mock.patch.object(ts, "_BLOCK_CHARS", data.draw(chunks))):
        text = ts.trace_to_csv_text(trace)
        # every line the writer emits is canonical: numpy's reader takes it
        with mock.patch.object(ts, "_read_rows", side_effect=AssertionError("exact path")):
            assert ts.ingest_trace(io.StringIO(text), "hp") == trace
        for t in (trace, fractional):
            oracle = io.StringIO()
            write_trace_csv_rowwise(t, oracle)
            assert ts.trace_to_csv_text(t) == oracle.getvalue()


# ---------------------------------------------------------------------------
# The reader (numpy's for canonical blocks, the exact row-at-a-time one for
# the rest) against the row-by-row oracle

_STAMP_FORMS = [
    lambda t: t.strftime("%Y-%m-%dT%H:%M:%SZ"),
    lambda t: t.strftime("%Y-%m-%dT%H:%M:%Sz"),
    lambda t: t.isoformat(),
    lambda t: " " + t.astimezone(timezone(timedelta(hours=-5))).isoformat(),
    lambda t: t.strftime("%Y-%m-%d %H:%M:%S+00:00 "),
]
_CELLS = {
    "float": st.one_of(finite.map(repr), st.sampled_from(["", " ", "70", " 70.5 ", "7e1"])),
    "humidity": st.one_of(st.floats(0.0, 1.0).map(repr), st.sampled_from(["", " 0.5"])),
    "mode": st.sampled_from(["", "off", "heat", "cool", "auto", " auto "]),
    "motion": st.sampled_from(["", "0", "1", " 1 "]),
}
_KINDS = ["float"] * 4 + ["mode", "motion", "humidity"]
#: Cells that are faults in the column they land in.
_BAD_CELLS = {
    0: ["not-a-time", "2024-01-01T00:00:00", "2024-01-01T00:01:00Z", "",
        "2024-02-30T00:00:00Z", "2024-13-01T00:00:00Z", "2024-01-01T24:00:00Z",
        "0000-01-01T00:00:00Z", "2024-01-01T00:00:60Z", "2024-01-01T00:00:00Zx",
        "2024-01-01T00:00:00+00", "0001-01-01T00:00:00+01:00",
        "9999-12-31T23:59:00-00:01"],
    "float": ["seventy", "inf", "nan", "-Infinity", "1e400", "7;0"],
    "humidity": ["1.5", "-0.1", "nan", "x"],
    "mode": ["fan", "AUTO", "1"],
    "motion": ["2", "0.0", "yes"],
}
_FAULTS = ["cell"] * 4 + ["cells", "duplicate", "backwards", "offgrid", "short", "long",
                        "blank", "blank-commas"]


#: Cells as write_trace_csv emits them, blank often enough that runs of blank
#: cells and a blank last cell are common.
_WRITER_CELLS = {
    "float": st.one_of(st.just(""), finite.map(repr)),
    "humidity": st.one_of(st.just(""), st.floats(0.0, 1.0).map(repr)),
    "mode": st.sampled_from(["", "off", "heat", "cool", "auto"]),
    "motion": st.sampled_from(["", "0", "1"]),
}


def _generated_csv(data):
    """A gapped trace CSV with blank fields and rows, and zero or more
    injected faults. Half the files are shaped as write_trace_csv writes them
    (canonical stamps, repr floats), some with CRLF line ends or no final
    newline, so that numpy's reader takes the blocks before a fault."""
    n = data.draw(st.integers(min_value=0, max_value=24))
    gaps = data.draw(st.lists(st.sampled_from([1, 1, 1, 2, 5]), min_size=n, max_size=n))
    writer = data.draw(st.booleans())
    forms, cells = (_STAMP_FORMS[:1], _WRITER_CELLS) if writer else (_STAMP_FORMS, _CELLS)
    rows = []
    for step in np.cumsum(gaps).tolist():
        t = START + timedelta(seconds=step * ts.STEP_SECONDS)
        stamp = data.draw(st.sampled_from(forms))(t)
        rows.append([stamp] + [data.draw(cells[kind]) for kind in _KINDS])
    for _ in range(data.draw(st.integers(min_value=0, max_value=5))):
        if not rows:
            break
        i = data.draw(st.integers(min_value=0, max_value=len(rows) - 1))
        fault = data.draw(st.sampled_from(_FAULTS))
        source = rows[i - 1 if fault == "duplicate" else 0]
        if fault == "blank":
            rows.insert(i, [])
        elif fault == "blank-commas":
            rows.insert(i, [" "] * 8)
        elif len(rows[i]) != 8:
            continue
        elif fault in ("cell", "cells"):
            cols = data.draw(st.sets(st.integers(min_value=0, max_value=7),
                                     min_size=1, max_size=1 if fault == "cell" else 8))
            for col in cols:
                key = 0 if col == 0 else _KINDS[col - 1]
                rows[i][col] = data.draw(st.sampled_from(_BAD_CELLS[key]))
        elif fault in ("duplicate", "backwards") and i > 0 and source:
            rows[i][0] = source[0]
        elif fault == "offgrid" and rows[i][0].endswith("Z"):
            rows[i][0] = rows[i][0].replace(":00Z", ":30Z")
        elif fault == "short":
            rows[i] = rows[i][:data.draw(st.integers(min_value=1, max_value=7))]
        elif fault == "long":
            rows[i] = rows[i] + ["x"]
    header = ",".join(ts.CSV_HEADER)
    if data.draw(st.sampled_from([False] * 20 + [True])):
        header = header.replace("humidity", "rh")
    end = data.draw(st.sampled_from(["\n", "\n", "\r\n"])) if writer else "\n"
    text = header + end + "".join(",".join(row) + end for row in rows)
    return text.removesuffix(end) if writer and data.draw(st.booleans()) else text


#: (edge values, valid range) of year, month, day, hour, minute and second
_STAMP_PARTS = [
    ([0, 1, 1900, 1970, 2000, 2023, 2024, 2100, 9999], (1, 9999)),
    ([0, 1, 2, 12, 13], (1, 12)),
    ([0, 1, 28, 29, 30, 31, 32], (1, 28)),
    ([0, 23, 24], (0, 23)),
    ([0, 59, 60], (0, 59)),
    ([0, 59, 60], (0, 59)),
]
_stamp_parts = st.tuples(*(st.one_of(st.sampled_from(edges), st.integers(*valid))
                           for edges, valid in _STAMP_PARTS))
_canonical = st.one_of(
    st.datetimes().map(lambda t: t.isoformat()[:19] + "Z"),
    _stamp_parts.map(lambda p: "%04d-%02d-%02dT%02d:%02d:%02dZ" % p),
)


def _stamp_codes(cells):
    """The ``(rows, 21)`` bytes that open lines whose first cells are
    ``cells``, as the canonical reader gathers them."""
    opening = [(cell + ",").encode()[:len(ts._STAMP)] for cell in cells]
    assert all(len(o) == len(ts._STAMP) for o in opening)
    return np.frombuffer(b"".join(opening), dtype=np.uint8).reshape(len(cells), -1)


def _check_canonical(cells):
    try:
        exact = [ts._parse_timestamp(c) for c in cells]
    except ParseError:
        exact = None
    fast = ts._canonical_stamps(_stamp_codes(cells))
    if fast is not None:
        assert fast.tolist() == exact
    if all(len(c) == 20 for c in cells):  # the canonical shape: no suffix
        assert (fast is None) == (exact is None)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_canonical, st.sampled_from(["", "", "", "x", " "])),
                min_size=1, max_size=3).map(lambda pairs: [a + b for a, b in pairs]))
def test_canonical_timestamps_read_from_digits_match_exact_parse(cells):
    _check_canonical(cells)


@pytest.mark.parametrize("cell", [
    "0001-01-01T00:00:00Z", "9999-12-31T23:59:59Z", "2000-02-29T00:00:00Z",
    "0000-01-01T00:00:00Z", "1900-02-29T00:00:00Z", "2023-04-31T00:00:00Z",
    "2024-01-01T24:00:00Z", "2024-01-01T00:60:00Z", "2024-01-01T00:00:60Z",
])
def test_canonical_timestamp_edges(cell):
    _check_canonical([cell])


def _result(read, source):
    try:
        return read(source, "h"), None
    except RcthermError as exc:
        return None, (type(exc), str(exc), getattr(exc, "line", None))


def _outcome(read, text, newline="\n", stream=io.StringIO):
    return _result(read, stream(text, newline=newline))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_ingest_matches_rowwise_oracle(data):
    text = _generated_csv(data)
    expected, expected_error = _outcome(ingest_trace_rowwise, text)
    with (mock.patch.object(ts, "_BLOCK_ROWS", data.draw(blocks)),
          mock.patch.object(ts, "_BLOCK_CHARS", data.draw(chunks))):
        got, error = _outcome(ts.ingest_trace, text)
    # the same fault (class, message with its line number) or an equal trace
    assert error == expected_error
    if expected is not None:
        assert got == expected and got.start == expected.start


def _canonical_lines(edits=(), n=7):
    """Data lines as write_trace_csv emits them, with {(row, column): cell}
    ``edits``."""
    rows = [[stamp(i), repr(70.0 + i / 7), "30.25", "", "75.0", "auto", "1", "0.4"]
            for i in range(n)]
    for (row, col), cell in dict(edits).items():
        rows[row][col] = cell
    return [",".join(row) for row in rows]


def _csv(lines, end="\n"):
    return end.join([",".join(ts.CSV_HEADER), *lines]) + end


#: Each input numpy's reader must refuse or read as csv.reader and the exact
#: cell parsers do. With chunks of 100 characters (two lines each), numpy's
#: reader takes rows 0 and 1 before a fault in row 3.
_PITFALLS = {
    "stamp suffix": _csv(_canonical_lines({(3, 0): stamp(3) + "x"})),
    "stamp truncated": _csv(_canonical_lines({(3, 0): stamp(3) + "Zx"})),
    "nan": _csv(_canonical_lines({(3, 1): "nan"})),
    "inf": _csv(_canonical_lines({(3, 2): "inf"})),
    "1e400": _csv(_canonical_lines({(3, 4): "1e400"})),
    "-1e400": _csv(_canonical_lines({(3, 4): "-1e400"})),
    "humidity 1.5": _csv(_canonical_lines({(3, 7): "1.5"})),
    "motion 1.0": _csv(_canonical_lines({(3, 6): "1.0"})),
    "motion +1": _csv(_canonical_lines({(3, 6): "+1"})),
    "motion 1e0": _csv(_canonical_lines({(3, 6): "1e0"})),
    "mode with a space": _csv(_canonical_lines({(3, 5): "auto "})),
    "mode truncated": _csv(_canonical_lines({(3, 5): "autoheat"})),
    "CRLF": _csv(_canonical_lines(), end="\r\n"),
    "CRLF with a fault": _csv(_canonical_lines({(5, 1): "x"}), end="\r\n"),
    "lone CR": _csv(_canonical_lines()).replace("\n", "\r", 3),
    "comment": _csv(_canonical_lines({(3, 0): "#" + stamp(3)})),
    "quoted cell": _csv(_canonical_lines({(1, 5): '"auto"'})),
    "quoted newline": _csv(_canonical_lines({(1, 1): '"70\n.5"', (5, 5): "fan"})),
    "blank line": _csv(_canonical_lines()[:3] + [""] + _canonical_lines()[3:]),
    "blank line then a fault": _csv(
        _canonical_lines({(5, 0): stamp(4)})[:3] + [""] + _canonical_lines({(5, 0): stamp(4)})[3:]),
    "blank line on a block boundary": _csv(
        _canonical_lines({(5, 1): "x"})[:4] + [""] + _canonical_lines({(5, 1): "x"})[4:]),
    "blank line then off grid": _csv(
        _canonical_lines()[:3] + [""]
        + _canonical_lines({(5, 0): stamp(5).replace(":00Z", ":30Z")})[3:]),
    "one row and a blank line": _csv(_canonical_lines()[:1] + [""]),
    "blank cells row": _csv(_canonical_lines()[:3] + [",,,,,,,"] + _canonical_lines()[3:]),
    "no final newline": _csv(_canonical_lines({(6, 7): ""}))[:-1],
    "short row": _csv(_canonical_lines()[:3] + [stamp(9) + ",70"]),
    "long row": _csv(_canonical_lines({(3, 7): "0.4,1"})),
    "long and short rows": _csv([line.rsplit(",", 1)[0] if i == 4 else line for i, line
                                 in enumerate(_canonical_lines({(3, 7): "0.4,1"}))]),
    "short stamp line": _csv(_canonical_lines()[:3] + ["2024"] + _canonical_lines()[3:]),
    "duplicate": _csv(_canonical_lines({(3, 0): stamp(2)})),
    "backwards": _csv(_canonical_lines({(3, 0): stamp(1)})),
    "backwards across blocks": _csv(_canonical_lines({(2, 0): stamp(1)})),
    "off grid": _csv(_canonical_lines({(3, 0): stamp(3).replace(":00Z", ":30Z")})),
    "non-ASCII": _csv(_canonical_lines({(3, 5): "aut\u00f6"})),
    "lone surrogate": _csv(_canonical_lines({(3, 1): "70\udc80"})),
}


@pytest.mark.parametrize("chunk", [1, 100, 150, ts._BLOCK_CHARS])
@pytest.mark.parametrize("name", _PITFALLS)
def test_canonical_reader_pitfalls_match_rowwise_oracle(name, chunk):
    # read as ingest_trace reads a path: "\r", "\n" and "\r\n" end lines
    text = _PITFALLS[name]
    expected, expected_error = _outcome(ingest_trace_rowwise, text, newline="")
    with mock.patch.object(ts, "_BLOCK_CHARS", chunk):
        got, error = _outcome(ts.ingest_trace, text, newline="")
    assert error == expected_error
    if expected is not None:
        assert got == expected and got.start == expected.start


#: The bytes of each pitfall as a file (a UTF-8 file cannot hold a lone
#: surrogate), and a file that is not UTF-8: its byte 0xE9 reads as U+FFFD.
_FILE_PITFALLS = {
    **{name: text.encode() for name, text in _PITFALLS.items() if name != "lone surrogate"},
    "non-UTF-8 byte": _csv(_canonical_lines({(1, 1): "70\u00e9"})).encode("latin-1"),
}


@pytest.mark.parametrize("name", _FILE_PITFALLS)
def test_canonical_reader_pitfalls_read_from_a_path_match_rowwise_oracle(name, tmp_path):
    # the exact reader starts at a sought-back position of a real file
    path = tmp_path / "trace.csv"
    path.write_bytes(_FILE_PITFALLS[name])
    text = _FILE_PITFALLS[name].decode("utf-8", "replace")
    expected, expected_error = _outcome(ingest_trace_rowwise, text, newline="")
    with mock.patch.object(ts, "_BLOCK_CHARS", 100):
        got, error = _result(ts.ingest_trace, path)
    assert error == expected_error
    if expected is not None:
        assert got == expected and got.start == expected.start


class _Pipe(io.StringIO):
    """A text stream that cannot seek, as a pipe's."""

    def seekable(self):
        return False

    def tell(self):
        raise io.UnsupportedOperation("tell")

    def seek(self, *args):
        raise io.UnsupportedOperation("seek")


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_stream_that_cannot_seek_reads_as_a_seekable_one(data):
    text = _generated_csv(data)
    expected = _outcome(ts.ingest_trace, text)
    with mock.patch.object(ts, "_read_canonical", side_effect=AssertionError("numpy's reader")):
        got = _outcome(ts.ingest_trace, text, stream=_Pipe)
    assert got[1] == expected[1]
    if expected[0] is not None:
        assert got[0] == expected[0]


def test_a_lone_cr_in_the_second_chunk_of_a_path_ends_a_line(tmp_path):
    # a path is opened with newline="", so "\r" alone ends a line: the first
    # chunk takes numpy's reader, and csv.reader reads the lines from the
    # second on as iterating the file splits them
    lines = _canonical_lines(n=7)
    path = tmp_path / "trace.csv"
    path.write_bytes(_csv(lines[:3]).encode() + "\r".join(lines[3:]).encode() + b"\n")
    results = []

    def spy(*args):
        results.append(read(*args))
        return results[-1]

    read = ts._read_canonical
    with mock.patch.object(ts, "_BLOCK_CHARS", 100), mock.patch.object(ts, "_read_canonical", spy):
        got = ts.ingest_trace(path, "h")
    assert [block is None for block in results] == [False, True]
    with open(path, newline="") as fh:
        assert got == ingest_trace_rowwise(fh, "h")
    assert got == ts.ingest_trace(io.StringIO(_csv(lines)), "h")


def test_a_gapped_90_day_trace_reads_without_the_exact_reader(tmp_path):
    # a trace file as the real-data benchmark writes it: short dropped runs
    # that impute fills, outages longer than MAX_GAP_STEPS and single blank
    # cells. Each chunk is canonical, so numpy's reader takes all of them.
    rng = np.random.default_rng(19)
    n = 90 * ts.SAMPLES_PER_DAY
    trace = make_trace(
        n,
        t_in=70.0 + np.cumsum(rng.normal(0.0, 0.05, n)),
        t_out=40.0 + 10.0 * np.sin(np.arange(n) * 2 * np.pi / ts.SAMPLES_PER_DAY),
        hvac_mode=rng.integers(0, 4, n).astype(np.int8),
        motion=rng.integers(0, 2, n).astype(float),
        humidity=rng.uniform(0.2, 0.6, n),
    )
    path = tmp_path / "home.csv"
    ts.write_trace_csv(trace, path)
    header, *lines = path.read_text().splitlines()
    drop = np.zeros(n, dtype=bool)
    for count, lo, hi in ((30, 1, ts.MAX_GAP_STEPS), (3, ts.MAX_GAP_STEPS + 1, 24)):
        for length in rng.integers(lo, hi + 1, count).tolist():
            start = int(rng.integers(1, n - 1 - length))
            drop[start:start + length] = True
    cells = [line.split(",") for line in lines]
    for row, col in zip(rng.integers(1, n - 1, 120).tolist(),
                        rng.integers(1, len(ts.CSV_HEADER), 120).tolist()):
        cells[row][col] = ""
    kept = [",".join(row) for row, dropped in zip(cells, drop) if not dropped]
    path.write_text("\n".join([header, *kept]) + "\n")
    with mock.patch.object(ts, "_read_rows", side_effect=AssertionError("exact path")):
        got = ts.ingest_trace(path, "h")
    with open(path, newline="") as fh:
        assert got == ingest_trace_rowwise(fh, "h")
    assert got.has_missing and len(got) == n


_FLOAT_CHARS = "0123456789+-.eE"
_float_cells = st.one_of(
    st.sampled_from(["5e-324", "1e-400", "-0.0", "1e308", "1e309", "0.1e1", "+.5", "5.",
                     "1e5e5", "--1", "1_0", "0x10", "e5", "."]),
    st.text(alphabet=_FLOAT_CHARS, max_size=30),
    st.floats(allow_nan=False).map(repr),
    st.floats(width=32).map(lambda v: f"{v:.9e}"),
    st.tuples(st.integers(-10**20, 10**20), st.integers(-400, 400)).map(
        lambda p: f"{p[0]}e{p[1]}"),
)


@settings(max_examples=500, deadline=None)
@given(_float_cells)
def test_float_cells_read_as_float_reads_them(cell):
    # numpy's reader gives the bits float() gives, or refuses the block
    line = _canonical_lines({(0, 1): cell}, n=1)[0]
    block = ts._read_canonical(line + "\n", 2, None)
    try:
        value = float(cell) if cell else np.nan  # a blank cell is missing
    except ValueError:
        value = None
    if block is not None:
        got = block[2]["t_in"][0]
        assert value is not None and not np.isinf(value)
        assert np.array([got]).tobytes() == np.array([value]).tobytes()
    elif value is not None and not np.isinf(value) and set(cell) <= set(_FLOAT_CHARS):
        pytest.fail(f"finite cell {cell!r} refused")


# ---------------------------------------------------------------------------
# Imputation

def test_impute_linear_interpolation_and_edges():
    t_in = np.array([np.nan, 70.0, np.nan, np.nan, 73.0, np.nan])
    trace = make_trace(6, t_in=t_in)
    out = ts.impute(trace)
    assert out.t_in == pytest.approx([70.0, 70.0, 71.0, 72.0, 73.0, 73.0])
    assert not out.has_missing


def test_impute_motion_and_mode_rules():
    motion = np.array([np.nan, 1.0, np.nan, 0.0])
    mode = np.array([-1, 2, -1, 1], dtype=np.int8)
    out = ts.impute(make_trace(4, motion=motion, hvac_mode=mode))
    assert out.motion == pytest.approx([0.0, 1.0, 0.0, 0.0])  # zero-fill
    # LOCF with the leading gap backfilled from the first observation
    assert list(out.hvac_mode) == [2, 2, 2, 1]


def test_impute_all_mode_missing_defaults_off():
    out = ts.impute(make_trace(4, hvac_mode=np.full(4, -1, dtype=np.int8)))
    assert (out.hvac_mode == ts.MODE_OFF).all()


def test_impute_entirely_missing_field_rejected():
    with pytest.raises(UnimputableError):
        ts.impute(make_trace(4, t_out=np.full(4, np.nan)))


def test_impute_idempotent():
    t_in = np.array([70.0, np.nan, 71.0, 71.5])
    once = ts.impute(make_trace(4, t_in=t_in))
    assert ts.impute(once) == once


def test_impute_long_gap_mask():
    n = 20
    t_in = np.linspace(70.0, 72.0, n)
    t_in[2:9] = np.nan   # run of 7 > MAX_GAP_STEPS -> flagged
    t_in[12:18] = np.nan  # run of 6 -> not flagged
    out = ts.impute(make_trace(n, t_in=t_in))
    expected = np.zeros(n, dtype=bool)
    expected[2:9] = True
    assert (out.long_gap == expected).all()


def _long_gap_mask_loop(missing):
    mask = np.zeros(len(missing), dtype=bool)
    i = 0
    while i < len(missing):
        j = i
        while j < len(missing) and missing[j]:
            j += 1
        if j - i > ts.MAX_GAP_STEPS:
            mask[i:j] = True
        i = max(j, i + 1)
    return mask


def _carry_mode_loop(mode):
    out = mode.copy()
    carried = mode[mode != ts.MODE_MISSING][0]
    for i in range(len(out)):
        if out[i] == ts.MODE_MISSING:
            out[i] = carried
        else:
            carried = out[i]
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(st.booleans(), min_size=2, max_size=60),
       st.lists(st.integers(min_value=0, max_value=2 * ts.MAX_GAP_STEPS), max_size=4),
       st.data())
def test_impute_matches_the_sample_loops(flags, runs, data):
    # random masks plus planted runs around MAX_GAP_STEPS, at random places
    missing = np.array(flags)
    for length in runs:
        lo = data.draw(st.integers(min_value=0, max_value=len(missing) - 1))
        missing[lo:lo + length] = True
    assert (ts._long_gap_mask(missing) == _long_gap_mask_loop(missing)).all()
    # through impute, with one observed t_in and one observed mode at least
    index = st.integers(min_value=0, max_value=len(missing) - 1)
    missing[data.draw(index)] = False
    t_in = np.where(missing, np.nan, 70.0)
    mode = np.array(data.draw(st.lists(st.sampled_from([-1, 0, 1, 2, 3]),
                                       min_size=len(missing), max_size=len(missing))),
                    dtype=np.int8)
    mode[data.draw(index)] = ts.MODE_HEAT
    out = ts.impute(make_trace(len(mode), t_in=t_in, hvac_mode=mode))
    assert out.hvac_mode.dtype == np.int8
    assert (out.hvac_mode == _carry_mode_loop(mode)).all()
    expected = _long_gap_mask_loop(np.isnan(t_in) | (mode == ts.MODE_MISSING))
    assert (out.long_gap == expected).all()


# ---------------------------------------------------------------------------
# Control derivation

def test_derive_controls_requires_imputed():
    with pytest.raises(UnimputableError):
        ts.derive_controls(make_trace(4, t_in=np.array([70, np.nan, 70, 70.0])))


def test_derive_controls_gating():
    t_in = np.array([60.0, 60.0, 60.0, 60.0, 80.0, 80.0, 80.0, 80.0])
    mode = np.array([0, 1, 2, 3, 0, 1, 2, 3], dtype=np.int8)
    c = ts.derive_controls(make_trace(8, t_in=t_in, hvac_mode=mode))
    # cold home: heating only when mode allows heat
    assert list(c.k_heat) == [0, 1, 0, 1, 0, 0, 0, 0]
    # hot home: cooling only when mode allows cool
    assert list(c.k_cool) == [0, 0, 0, 0, 0, 0, 1, 1]
    assert not c.conflict.any()


def test_derive_controls_conflict_heat_wins():
    # inverted setpoints: t_setcool < t_in < t_setheat fires both rules
    trace = make_trace(
        2,
        t_in=np.array([70.0, 70.0]),
        t_setheat=np.array([72.0, 72.0]),
        t_setcool=np.array([65.0, 75.0]),
    )
    c = ts.derive_controls(trace)
    assert list(c.k_heat) == [1, 1]
    assert list(c.k_cool) == [0, 0]
    assert list(c.conflict) == [True, False]


# ---------------------------------------------------------------------------
# Regression assembly

def test_build_regression_layout():
    n = 8
    trace = ts.impute(make_trace(n, t_in=np.arange(n, dtype=float)))
    controls = ts.derive_controls(trace)
    order = 2
    ds = ts.build_regression(trace, controls, order)
    assert ds.inputs.shape == (n - order, 4 * order + 3)
    assert list(ds.indices) == list(range(order, n))
    u = np.column_stack([trace.t_out, controls.k_heat, controls.k_cool])
    for row, t in enumerate(ds.indices):
        expect = np.concatenate([u[t], u[t - 1], u[t - 2],
                                 [trace.t_in[t - 1], trace.t_in[t - 2]]])
        assert ds.inputs[row] == pytest.approx(expect)
        assert ds.targets[row] == trace.t_in[t]


def test_build_regression_drops_long_gap_windows():
    n = 30
    t_in = np.linspace(70.0, 72.0, n)
    t_in[10:18] = np.nan  # 8-step run -> long gap
    trace = ts.impute(make_trace(n, t_in=t_in))
    controls = ts.derive_controls(trace)
    order = 3
    ds = ts.build_regression(trace, controls, order)
    # any row whose window [t-3, t] touches indices 10..17 is dropped
    dropped = set(range(10, 18 + order))
    assert set(ds.indices) == set(range(order, n)) - dropped


def test_build_regression_refuses_a_trace_whose_every_window_touches_a_long_gap():
    t_in = np.full(20, np.nan)
    t_in[[0, -1]] = 70.0  # an imputed 18-step run between two readings
    trace = ts.impute(make_trace(20, t_in=t_in))
    with pytest.raises(InsufficientDataError,
                       match="h0: every order-2 lag window of its 20 samples"):
        ts.build_regression(trace, ts.derive_controls(trace), 2)


def test_build_regression_validation():
    trace = ts.impute(make_trace(6))
    controls = ts.derive_controls(trace)
    with pytest.raises(ParseError):
        ts.build_regression(trace, controls, 0)
    with pytest.raises(InsufficientDataError):
        ts.build_regression(trace, controls, 5)
    short = ts.ControlSeries(k_heat=np.zeros(3), k_cool=np.zeros(3))
    with pytest.raises(ParseError):
        ts.build_regression(trace, short, 2)


def test_build_regression_requires_imputed():
    trace = make_trace(10, t_in=np.r_[np.nan, np.linspace(70, 71, 9)])
    controls = ts.ControlSeries(k_heat=np.zeros(10), k_cool=np.zeros(10))
    with pytest.raises(UnimputableError):
        ts.build_regression(trace, controls, 1)


def test_regression_dataset_validation():
    with pytest.raises(ParseError):
        ts.RegressionDataset(order=1, inputs=np.zeros((4, 6)),
                             targets=np.zeros(4), indices=np.arange(4))
    with pytest.raises(ParseError):
        ts.RegressionDataset(order=1, inputs=np.zeros((4, 7)),
                             targets=np.zeros(3), indices=np.arange(4))


# ---------------------------------------------------------------------------
# Splitting

def test_split_and_slice():
    n = 3 * ts.SAMPLES_PER_DAY
    trace = make_trace(n, t_in=np.arange(n, dtype=float))
    train, test = ts.split(trace, 2, 1)
    assert len(train) == 2 * ts.SAMPLES_PER_DAY
    assert len(test) == ts.SAMPLES_PER_DAY
    assert train.t_in[0] == 0.0
    assert test.t_in[0] == 2 * ts.SAMPLES_PER_DAY
    assert test.start == trace.start + timedelta(days=2)
    with pytest.raises(InsufficientDataError):
        ts.split(trace, 3, 1)


def test_slice_preserves_long_gap():
    trace = ts.impute(make_trace(20, t_in=np.r_[np.full(8, np.nan),
                                                np.linspace(70, 71, 12)]))
    sub = ts.slice_trace(trace, 4, 12)
    assert (sub.long_gap == trace.long_gap[4:12]).all()


@pytest.mark.parametrize("lo, hi", [(-2, 6), (4, 13), (8, 6)])
def test_slice_outside_the_trace_is_insufficient_data(lo, hi):
    # a window is never clamped to the trace
    with pytest.raises(InsufficientDataError, match="lies outside the trace's 12 samples"):
        ts.slice_trace(make_trace(12), lo, hi)
