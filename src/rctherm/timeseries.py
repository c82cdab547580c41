"""Thermostat trace ingestion, imputation, and regression-matrix assembly.

Traces live on a uniform 300 s grid. Missing values are explicit (NaN for
continuous fields, -1 for the HVAC mode) until :func:`impute` fills them.
All temperatures stay in degrees Fahrenheit, the native unit of the data.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone

import numpy as np

from .errors import (
    DuplicateTimestampError,
    InsufficientDataError,
    OrderingError,
    ParseError,
    UnimputableError,
)

STEP_SECONDS = 300
SAMPLES_PER_DAY = 86400 // STEP_SECONDS  # 288
#: A lag window overlapping an imputed run longer than this many steps is
#: dropped from regression matrices (30 minutes of fabricated dynamics).
MAX_GAP_STEPS = 6

MODE_OFF, MODE_HEAT, MODE_COOL, MODE_AUTO = 0, 1, 2, 3
MODE_MISSING = -1
_MODE_NAMES = {"off": MODE_OFF, "heat": MODE_HEAT, "cool": MODE_COOL, "auto": MODE_AUTO}
_MODE_STRINGS = {v: k for k, v in _MODE_NAMES.items()}

CSV_HEADER = [
    "timestamp",
    "t_in",
    "t_out",
    "t_setheat",
    "t_setcool",
    "hvac_mode",
    "motion",
    "humidity",
]

_CONTINUOUS_FIELDS = ("t_in", "t_out", "t_setheat", "t_setcool", "humidity")


@dataclass(frozen=True, eq=False)
class Trace:
    """A single home's uniformly sampled thermostat time series.

    ``long_gap`` marks samples inside an imputed run longer than
    ``MAX_GAP_STEPS``; it marks none unless given, is populated by
    :func:`impute` and is consumed by :func:`build_regression`.
    """

    home_id: str
    start: datetime
    t_in: np.ndarray
    t_out: np.ndarray
    t_setheat: np.ndarray
    t_setcool: np.ndarray
    hvac_mode: np.ndarray
    motion: np.ndarray
    humidity: np.ndarray
    long_gap: np.ndarray = field(default=None)

    def __post_init__(self):
        n = len(self.t_in)
        if n < 2:
            raise InsufficientDataError("trace must contain at least 2 samples")
        for name in ("t_out", "t_setheat", "t_setcool", "hvac_mode", "motion", "humidity"):
            if len(getattr(self, name)) != n:
                raise ParseError(f"field {name} length differs from t_in")
        if self.long_gap is None:
            object.__setattr__(self, "long_gap", np.zeros(n, dtype=bool))

    def __len__(self):
        return len(self.t_in)

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        if (self.home_id, self.start) != (other.home_id, other.start):
            return False
        for name in _CONTINUOUS_FIELDS + ("motion",):
            if not np.array_equal(getattr(self, name), getattr(other, name), equal_nan=True):
                return False
        return (np.array_equal(self.hvac_mode, other.hvac_mode)
                and np.array_equal(self.long_gap, other.long_gap))

    @property
    def has_missing(self):
        if any(np.isnan(getattr(self, f)).any() for f in _CONTINUOUS_FIELDS):
            return True
        return bool((self.hvac_mode == MODE_MISSING).any() or np.isnan(self.motion).any())


@dataclass(frozen=True)
class ControlSeries:
    """Binary heating/cooling activity derived from setpoints and mode.

    ``conflict`` flags samples where inverted setpoints made both rules fire;
    heating wins there and k_cool is forced to zero.
    """

    k_heat: np.ndarray
    k_cool: np.ndarray
    conflict: np.ndarray = field(default=None)

    def __post_init__(self):
        if len(self.k_heat) != len(self.k_cool):
            raise ParseError("k_heat and k_cool lengths differ")
        if self.conflict is None:
            object.__setattr__(self, "conflict", np.zeros(len(self.k_heat), dtype=bool))

    def __len__(self):
        return len(self.k_heat)


@dataclass(frozen=True)
class RegressionDataset:
    """Lagged input/target matrix for an order-n difference-equation model.

    Row layout (width 4n+3): ``u_t, u_{t-1}, ..., u_{t-n}, y_{t-1}, ..., y_{t-n}``
    with ``u = (t_out, k_heat, k_cool)``; target is ``y_t = t_in`` at ``t``.
    ``indices`` records the grid index of each row's target.
    """

    order: int
    inputs: np.ndarray
    targets: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        if self.inputs.ndim != 2 or self.inputs.shape[1] != 4 * self.order + 3:
            raise ParseError(f"inputs must be (rows, {4 * self.order + 3})")
        if len(self.targets) != len(self.inputs) or len(self.indices) != len(self.inputs):
            raise ParseError("inputs, targets, and indices lengths differ")

    def __len__(self):
        return len(self.targets)


#: Rows read by the exact reader, or written, per block. It bounds the
#: per-cell strings and floats held at once: on a 90-day trace, reading or
#: writing in blocks of 1024 rows peaks a few MB lower than in blocks of
#: 4096, at the same speed.
_BLOCK_ROWS = 1024
#: Characters numpy's reader takes per chunk, completed to a line end: about
#: 2800 rows of a written trace. Smaller chunks pay numpy's set-up per call
#: more often; larger ones hold more at once without reading faster.
_BLOCK_CHARS = 1 << 18
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)
_STEP_US = STEP_SECONDS * 1_000_000
_MODE_CELLS = {"": MODE_MISSING, **_MODE_NAMES}
_MOTION_CELLS = {"": np.nan, "0": 0.0, "1": 1.0}
_MODE_TEXT = {MODE_MISSING: "", **_MODE_STRINGS}


def epoch_us(ts):
    """Microseconds from the Unix epoch to the timezone-aware datetime ``ts``."""
    return (ts - _EPOCH) // _MICROSECOND


_MIN_US, _MAX_US = (epoch_us(t.replace(tzinfo=timezone.utc))
                    for t in (datetime.min, datetime.max))


def _parse_timestamp(text):
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(raw)
    except ValueError as exc:
        raise ParseError(f"bad timestamp {text!r}: {exc}") from None
    if ts.tzinfo is None:
        raise ParseError(f"timestamp {text!r} lacks a UTC offset")
    us = epoch_us(ts)
    if not _MIN_US <= us <= _MAX_US:
        raise ParseError(f"timestamp {text!r} is outside years 1-9999 UTC")
    return us


def _float_field(name, lo=None, hi=None):
    def parse(text):
        raw = text.strip()
        if raw == "":
            return np.nan
        try:
            value = float(raw)
        except ValueError:
            raise ParseError(f"bad {name} value {text!r}") from None
        if not math.isfinite(value):
            raise ParseError(f"non-finite {name} value {text!r}")
        if lo is not None and not (lo <= value <= hi):
            raise ParseError(f"{name} value {value} outside [{lo}, {hi}]")
        return value

    return parse


def _lookup_field(table, message):
    def parse(text):
        try:
            return table[text.strip()]
        except KeyError:
            raise ParseError(message.format(text.strip())) from None

    return parse


#: (column in CSV_HEADER, name, dtype, parse) for each non-timestamp field, in
#: the order a row's fields are checked; ``parse`` reads one cell exactly.
_FIELDS = (
    (5, "hvac_mode", np.int8, _lookup_field(_MODE_CELLS, "unknown hvac_mode {!r}")),
    (6, "motion", float, _lookup_field(_MOTION_CELLS, "motion must be 0 or 1, got {!r}")),
    (1, "t_in", float, _float_field("t_in")),
    (2, "t_out", float, _float_field("t_out")),
    (3, "t_setheat", float, _float_field("t_setheat")),
    (4, "t_setcool", float, _float_field("t_setcool")),
    (7, "humidity", float, _float_field("humidity", lo=0.0, hi=1.0)),
)


#: The bytes that open a canonical line, as write_trace_csv writes them: the
#: timestamp and the comma after it. "0" marks a digit, the rest must match
#: exactly, so the comma rejects a longer timestamp cell.
_STAMP = np.frombuffer(b"0000-00-00T00:00:00Z,", dtype=np.uint8)
_DIGITS = _STAMP == ord("0")


def _canonical_stamps(codes):
    """Epoch microseconds of the ``(rows, 21)`` bytes that open each line
    when all are a canonical ``YYYY-MM-DDTHH:MM:SSZ,`` with a valid date and
    time, computed from the digits; None when any takes another form."""
    digits = codes[:, _DIGITS] - np.uint8(ord("0"))
    if not ((digits <= 9).all() and (codes[:, ~_DIGITS] == _STAMP[~_DIGITS]).all()):
        return None
    # the digits pair up as century, year of century, month, day, hour,
    # minute and second
    digits = digits.astype(np.int64)
    pairs = digits[:, 0::2] * 10 + digits[:, 1::2]
    year = pairs[:, 0] * 100 + pairs[:, 1]
    month, day, hour, minute, second = pairs[:, 2:].T
    if not ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
            & (hour <= 23) & (minute <= 59) & (second <= 59)).all():
        return None
    months = (year - 1970) * 12 + month - 1
    first = months.astype("datetime64[M]").astype("datetime64[D]").astype(np.int64)
    after = (months + 1).astype("datetime64[M]").astype("datetime64[D]").astype(np.int64)
    if (first + day > after).any():
        return None
    seconds = (first + day - 1) * 86400 + hour * 3600 + minute * 60 + second
    return seconds * 1_000_000


def _steps(us, last_us):
    """Steps to each of ``us`` from the timestamp before it."""
    return np.diff(np.r_[us[:1] - 1 if last_us is None else [last_us], us])


#: The characters of a canonical chunk: digits, the float signs, point and
#: exponents, the stamp separators and the letters of the hvac_mode names.
#: With no "n" or "i", no cell reads as nan or inf; with no quote, space, "#",
#: "\r" or non-ASCII character, numpy's reader splits the cells of each line
#: exactly as csv.reader does.
_CANONICAL_BYTES = b"0123456789+-.eE,\n:TZ" + "".join(_MODE_NAMES).encode()
_COMMA, _NEWLINE = ord(","), ord("\n")
#: The cells after the timestamp. Each byte column is one character wider
#: than its longest valid cell, so a cell that numpy truncates to that width
#: is never valid.
_CANONICAL_ROW = np.dtype([(name, {"hvac_mode": "S5", "motion": "S4"}.get(name, float))
                           for name in CSV_HEADER[1:]])
#: (name, dtype, {cell: value}) of the hvac_mode and motion columns of a
#: canonical chunk, where a blank cell reads "nan"
_CANONICAL_CELLS = tuple(
    (name, dtype, {(cell or "nan").encode(): value for cell, value in cells.items()})
    for name, dtype, cells in (("hvac_mode", np.int8, _MODE_CELLS),
                               ("motion", float, _MOTION_CELLS)))


def _lookup(cells, table, dtype):
    """Values of an array of cells that are all keys of ``table``, else None."""
    values = np.empty(len(cells), dtype=dtype)
    found = 0
    for cell, value in table.items():
        hit = cells == cell
        values[hit] = value
        found += np.count_nonzero(hit)
    return values if found == len(cells) else None


def _read_canonical(text, first_line, last_us):
    """Parse a chunk of whole lines in the canonical form write_trace_csv
    emits with numpy's C reader: canonical timestamps, no quote, space, blank
    line or "\r" other than in a "\r\n" line end, and blank cells allowed.

    Returns what _read_rows returns for the same lines, or None when any line
    takes another form or holds a fault, for _read_rows to decide.
    """
    if "\r" in text:  # "\r\n" ends a row for csv.reader as "\n" does
        text = text.replace("\r\n", "\n")
    if not text.endswith("\n"):
        text += "\n"
    # any non-ASCII character encodes as "?", which the alphabet refuses
    data = text.encode("ascii", "replace")
    if data.translate(None, _CANONICAL_BYTES):
        return None
    codes = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(codes == _NEWLINE)
    starts = np.r_[0, ends[:-1] + 1]
    # a line too short for its timestamp, a blank one (two adjacent newlines)
    # among them, is not canonical
    if (ends - starts < len(_STAMP)).any():
        return None
    us = _canonical_stamps(codes[starts[:, None] + np.arange(len(_STAMP))])
    if us is None or (_steps(us, last_us) <= 0).any():
        return None
    # numpy's reader refuses a line with fewer than 8 cells but ignores cells
    # past the 8th: 7 commas a line on average then means 7 on each
    comma = codes == _COMMA
    if np.count_nonzero(comma) != (len(CSV_HEADER) - 1) * len(ends):
        return None
    # numpy reads an empty float cell as an error: write "nan" into each blank
    # cell (the alphabet holds no "n", so each "nan" read back was a blank)
    blank = np.flatnonzero(comma[:-1] & (comma[1:] | (codes[1:] == _NEWLINE))) + 1
    cuts = [0, *blank.tolist(), len(data)]
    data = b"nan".join([data[a:b] for a, b in zip(cuts, cuts[1:])])
    try:
        table = np.loadtxt(io.BytesIO(data), dtype=_CANONICAL_ROW, delimiter=",",
                           usecols=range(1, len(CSV_HEADER)), comments=None, ndmin=1,
                           encoding="ascii")
    except ValueError:
        return None
    fields = {name: table[name].copy() for name in _CONTINUOUS_FIELDS}
    humidity = fields["humidity"]
    if (any(np.isinf(values).any() for values in fields.values())
            or (humidity < 0).any() or (humidity > 1).any()):
        return None
    for name, dtype, cells in _CANONICAL_CELLS:
        fields[name] = _lookup(table[name], cells, dtype)
        if fields[name] is None:
            return None
    return first_line + np.arange(len(ends)), us, fields


def _read_rows(rows, first_line, last_us):
    """Parse csv rows one at a time, each cell exactly.

    Returns (line numbers, timestamps in microseconds, {field: values}) of
    the non-blank rows. Raises at the first fault in line order; a row is
    checked for its field count, then its timestamp, hvac_mode, motion and
    the floats in CSV_HEADER order, then for a duplicate or out-of-order
    timestamp against the row before it.
    """
    width = len(CSV_HEADER)
    lines, stamps, records = [], [], []
    for line, row in enumerate(rows, first_line):
        if not any(map(str.strip, row)):
            continue
        try:
            if len(row) != width:
                raise ParseError(f"expected {width} fields, got {len(row)}")
            us = _parse_timestamp(row[0])
            record = [parse(row[col]) for col, _, _, parse in _FIELDS]
        except ParseError as exc:
            raise ParseError(str(exc), line) from None
        if last_us is not None and us == last_us:
            raise DuplicateTimestampError(f"line {line}: duplicate timestamp {row[0]}")
        if last_us is not None and us < last_us:
            raise OrderingError(f"line {line}: timestamp {row[0]} not increasing")
        lines.append(line)
        stamps.append(us)
        records.append(record)
        last_us = us
    columns = list(zip(*records)) or [()] * len(_FIELDS)
    fields = {name: np.array(values, dtype=dtype)
              for (_, name, dtype, _), values in zip(_FIELDS, columns)}
    return np.array(lines, dtype=np.int64), np.array(stamps, dtype=np.int64), fields


def _csv_rows(lines, line):
    """csv.reader over ``lines``, whose first row is on ``line``; a row the
    reader refuses (a lone "\r" inside a line of a stream split only at
    "\n") is a ParseError on that row's line."""
    try:
        for row in csv.reader(lines):
            yield row
            line += 1
    except csv.Error as exc:
        raise ParseError(f"malformed CSV row: {exc}", line) from None


def _blocks(stream):
    """The data records of a stream, as _read_rows returns them: numpy's
    reader parses chunks of about _BLOCK_CHARS characters, each completed to
    a line end, until it refuses one. The stream is then sought back to that
    chunk's start and csv.reader reads from there to the end, _BLOCK_ROWS
    rows at a time, since a quoted field can span lines. A stream that cannot
    seek is read by csv.reader alone."""
    line, last_us = 2, None
    while stream.seekable():
        start = stream.tell()
        if not (text := stream.read(_BLOCK_CHARS)):
            return
        if (block := _read_canonical(text + stream.readline(), line, last_us)) is None:
            stream.seek(start)
            break
        yield block
        line, last_us = line + len(block[0]), block[1][-1]
    rows = _csv_rows(stream, line)
    while chunk := list(itertools.islice(rows, _BLOCK_ROWS)):
        yield (block := _read_rows(chunk, line, last_us))
        line, last_us = line + len(chunk), block[1][-1] if len(block[1]) else last_us


def ingest_trace(source, home_id):
    """Read a trace CSV (see CSV_HEADER) onto the uniform 300 s grid.

    ``source`` is a path or a text file-like object. Rows missing from the
    grid are inserted as marked-missing samples. Raises ParseError,
    OrderingError, or DuplicateTimestampError on malformed input, naming the
    line the fault is on. A path is read as UTF-8, and a byte that is not
    UTF-8 reads as U+FFFD, so its cell is a ParseError too.

    numpy's C reader parses chunks of lines in the canonical form
    write_trace_csv emits. From the first chunk it refuses (a line in
    another form, or a fault) to the end of the stream, the exact
    row-at-a-time reader parses the lines the stream yields, which gives the
    same Trace for canonical lines.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, newline="", encoding="utf-8", errors="replace") as fh:
            return ingest_trace(fh, home_id)

    # readline, not iteration, so the stream can still tell its position
    try:
        header = next(_csv_rows(iter(source.readline, ""), 1))
    except StopIteration:
        raise ParseError("empty CSV stream", 1) from None
    if [h.strip() for h in header] != CSV_HEADER:
        raise ParseError(f"unexpected header {header!r}", 1)

    blocks = list(_blocks(source))
    lines = np.concatenate([b[0] for b in blocks] or [np.empty(0, np.int64)])
    if len(lines) < 2:
        raise InsufficientDataError("trace CSV must contain at least 2 data rows")
    us = np.concatenate([b[1] for b in blocks])

    offset = us - us[0]
    off_grid = np.flatnonzero(offset % _STEP_US)
    if len(off_grid):
        i = off_grid[0]
        ts = _EPOCH + timedelta(microseconds=int(us[i]))
        raise ParseError(f"timestamp {ts.isoformat()} not on the 5-minute grid",
                         int(lines[i]))
    idx = offset // _STEP_US
    n = int(idx[-1]) + 1
    arrays = {}
    for _, name, dtype, _ in _FIELDS:
        full = np.full(n, MODE_MISSING if name == "hvac_mode" else np.nan, dtype=dtype)
        full[idx] = np.concatenate([b[2][name] for b in blocks])
        arrays[name] = full
    start = _EPOCH + timedelta(microseconds=int(us[0]))
    return Trace(home_id=home_id, start=start, **arrays)


def _float_cells(values):
    return ["" if v != v else repr(v) for v in np.asarray(values, dtype=float).tolist()]


def write_trace_csv(trace, sink):
    """Serialize a trace back to CSV; round-trips decimal fields bit-exactly.

    Each column of a block of rows is formatted at once: timestamps as
    ``datetime64`` strings in UTC, floats by
    ``repr`` (shortest round-trip), missing values as empty fields.
    """
    if isinstance(sink, (str, bytes)) or hasattr(sink, "__fspath__"):
        with open(sink, "w", newline="") as fh:
            write_trace_csv(trace, fh)
            return
    sink.write(",".join(CSV_HEADER) + "\n")
    start = trace.start.astimezone(timezone.utc)
    base = np.datetime64(start.replace(tzinfo=None, microsecond=0), "s")
    step = np.timedelta64(STEP_SECONDS, "s")
    for lo in range(0, len(trace), _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, len(trace))
        stamps = np.datetime_as_string(base + np.arange(lo, hi) * step, unit="s")
        columns = [
            [s + "Z" for s in stamps.tolist()],
            _float_cells(trace.t_in[lo:hi]),
            _float_cells(trace.t_out[lo:hi]),
            _float_cells(trace.t_setheat[lo:hi]),
            _float_cells(trace.t_setcool[lo:hi]),
            [_MODE_TEXT[m] for m in trace.hvac_mode[lo:hi].tolist()],
            ["" if v != v else str(int(v)) for v in trace.motion[lo:hi].tolist()],
            _float_cells(trace.humidity[lo:hi]),
        ]
        # one write per row: writing each block as one string left the peak
        # memory of a caller that then splits the text 2 MB higher
        sink.writelines(",".join(cells) + "\n" for cells in zip(*columns))


def trace_to_csv_text(trace):
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    return buf.getvalue()


def _interp_field(values, name):
    present = ~np.isnan(values)
    if not present.any():
        raise UnimputableError(f"field {name} is entirely missing")
    if present.all():
        return values.copy()
    idx = np.arange(len(values), dtype=float)
    # np.interp holds edge values constant outside the observed range.
    return np.interp(idx, idx[present], values[present])


def _long_gap_mask(missing):
    """Samples inside any missing run longer than MAX_GAP_STEPS."""
    edges = np.diff(np.concatenate([[0], np.asarray(missing, dtype=np.int8), [0]]))
    starts, ends = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    long = ends - starts > MAX_GAP_STEPS
    # +1 where a long run starts, -1 just past its end: the running sum is
    # 1 inside a long run and 0 elsewhere
    marks = np.zeros(len(missing) + 1, dtype=np.int8)
    marks[starts[long]] = 1
    marks[ends[long]] = -1
    return np.cumsum(marks[:-1]) > 0


def impute(trace):
    """Fill missing samples: linear interpolation for continuous fields,
    zero-fill for motion, last-observation-carried-forward for hvac_mode.

    Idempotent: a trace without missing markers is returned unchanged.
    """
    if not trace.has_missing:
        return trace

    model_missing = (trace.hvac_mode == MODE_MISSING)
    for name in ("t_in", "t_out", "t_setheat", "t_setcool"):
        model_missing = model_missing | np.isnan(getattr(trace, name))

    filled = {name: _interp_field(getattr(trace, name), name) for name in _CONTINUOUS_FIELDS}

    motion = trace.motion.copy()
    motion[np.isnan(motion)] = 0.0

    mode = trace.hvac_mode.copy()
    present = np.flatnonzero(mode != MODE_MISSING)
    if len(present) == 0:
        mode[:] = MODE_OFF  # no observation to carry; assume HVAC off
    else:
        # LOCF: each sample takes the latest observation at or before it;
        # the leading gap is backfilled from the first observation.
        latest = np.where(mode != MODE_MISSING, np.arange(len(mode)), present[0])
        mode = mode[np.maximum.accumulate(latest)]

    return replace(
        trace,
        hvac_mode=mode,
        motion=motion,
        long_gap=_long_gap_mask(model_missing),
        **filled,
    )


def derive_controls(trace):
    """Binary k_heat/k_cool per the setpoint-and-mode rules.

    Requires an imputed trace. If inverted setpoints make both rules fire at
    a sample, heating wins and the sample is flagged in ``conflict``.
    """
    if trace.has_missing:
        raise UnimputableError("derive_controls requires an imputed trace")
    mode = trace.hvac_mode
    heat_able = (mode == MODE_AUTO) | (mode == MODE_HEAT)
    cool_able = (mode == MODE_AUTO) | (mode == MODE_COOL)
    k_heat = ((trace.t_in < trace.t_setheat) & heat_able).astype(np.int8)
    k_cool = ((trace.t_in > trace.t_setcool) & cool_able).astype(np.int8)
    conflict = (k_heat == 1) & (k_cool == 1)
    k_cool[conflict] = 0
    return ControlSeries(k_heat=k_heat, k_cool=k_cool, conflict=conflict)


def exog(trace, controls):
    """The input matrix ``u = (t_out, k_heat, k_cool)``, one row per sample."""
    return np.column_stack([
        trace.t_out,
        controls.k_heat.astype(float),
        controls.k_cool.astype(float),
    ])


def build_regression(trace, controls, order):
    """Assemble the lagged design matrix for an order-n model.

    Requires an imputed trace. One row per time index t in [order, len);
    rows whose lag window [t-order, t] overlaps a long imputation gap are
    dropped, and a trace that keeps no row raises InsufficientDataError.
    """
    n = int(order)
    if n < 1:
        raise ParseError("order must be >= 1")
    if trace.has_missing:
        raise UnimputableError("build_regression requires an imputed trace")
    if len(trace) <= n + 1:
        raise InsufficientDataError(f"trace length {len(trace)} too short for order {n}")
    if len(controls) != len(trace):
        raise ParseError("controls length differs from trace length")

    u = exog(trace, controls)
    y = trace.t_in
    m = len(trace) - n
    cols = [u[n - i: len(trace) - i] for i in range(n + 1)]  # u_t .. u_{t-n}
    cols += [y[n - i: len(trace) - i, None] for i in range(1, n + 1)]  # y_{t-1} .. y_{t-n}
    inputs = np.hstack(cols)
    targets = y[n:].copy()
    indices = np.arange(n, len(trace))

    if trace.long_gap.any():
        bad = np.convolve(trace.long_gap.astype(int), np.ones(n + 1, dtype=int))[n: len(trace)] > 0
        if bad.all():
            raise InsufficientDataError(
                f"{trace.home_id}: every order-{n} lag window of its {len(trace)} samples "
                f"overlaps a long imputation gap")
        keep = ~bad
        inputs, targets, indices = inputs[keep], targets[keep], indices[keep]

    return RegressionDataset(order=n, inputs=inputs, targets=targets, indices=indices)


def split(trace, train_days, test_days):
    """Contiguous chronological split into (train, test) sub-traces."""
    need = (train_days + test_days) * SAMPLES_PER_DAY
    if len(trace) < need:
        raise InsufficientDataError(
            f"trace has {len(trace)} samples, need {need} for a "
            f"{train_days}+{test_days} day split"
        )
    cut = train_days * SAMPLES_PER_DAY
    end = cut + test_days * SAMPLES_PER_DAY
    return slice_trace(trace, 0, cut), slice_trace(trace, cut, end)


def slice_trace(trace, lo, hi):
    """Sub-trace over grid indices [lo, hi); start shifts accordingly. A
    window outside [0, len(trace)] raises InsufficientDataError."""
    if not 0 <= lo <= hi <= len(trace):
        raise InsufficientDataError(
            f"window [{lo}, {hi}) lies outside the trace's {len(trace)} samples")
    fields = {name: getattr(trace, name)[lo:hi].copy()
              for name in _CONTINUOUS_FIELDS + ("motion", "hvac_mode", "long_gap")}
    return Trace(
        home_id=trace.home_id,
        start=trace.start + timedelta(seconds=lo * STEP_SECONDS),
        **fields,
    )
