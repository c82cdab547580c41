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
    ``MAX_GAP_STEPS``; it is populated by :func:`impute` and consumed by
    :func:`build_regression`.
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
    long_gap: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.t_in)
        if n < 2:
            raise InsufficientDataError("trace must contain at least 2 samples")
        for name in ("t_out", "t_setheat", "t_setcool", "hvac_mode", "motion", "humidity"):
            if len(getattr(self, name)) != n:
                raise ParseError(f"field {name} length differs from t_in")

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
        if not np.array_equal(self.hvac_mode, other.hvac_mode):
            return False
        a, b = self.long_gap, other.long_gap
        if (a is None) != (b is None):
            return False
        return a is None or np.array_equal(a, b)

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


#: Rows read or written per block. It bounds the per-cell strings and floats
#: held at once: on a 90-day trace, reading or writing in blocks of 1024 rows
#: peaks a few MB lower than in blocks of 4096, at the same speed.
_BLOCK_ROWS = 1024
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

    def fast(cells):
        values = np.array([float(c) if c else np.nan for c in cells])
        odd = ~np.isfinite(values)
        if lo is not None:
            odd |= (values < lo) | (values > hi)
        # blank cells are the expected NaNs; any other odd cell is a fault
        return None if any(cells[i] for i in np.flatnonzero(odd).tolist()) else values

    return parse, fast


def _lookup_field(table, message):
    def parse(text):
        try:
            return table[text.strip()]
        except KeyError:
            raise ParseError(message.format(text.strip())) from None

    return parse, lambda cells: [table[c] for c in cells]


#: (column in CSV_HEADER, name, dtype, (parse, fast)) for each non-timestamp
#: field, in the order a row's fields are checked. ``parse`` reads one cell
#: exactly; ``fast`` reads a whole column of canonical cells at once and
#: raises or returns None when any cell needs ``parse``.
_FIELDS = (
    (5, "hvac_mode", np.int8, _lookup_field(_MODE_CELLS, "unknown hvac_mode {!r}")),
    (6, "motion", float, _lookup_field(_MOTION_CELLS, "motion must be 0 or 1, got {!r}")),
    (1, "t_in", float, _float_field("t_in")),
    (2, "t_out", float, _float_field("t_out")),
    (3, "t_setheat", float, _float_field("t_setheat")),
    (4, "t_setcool", float, _float_field("t_setcool")),
    (7, "humidity", float, _float_field("humidity", lo=0.0, hi=1.0)),
)


def _parse_column(cells, parse, fast=None):
    """Values of a column of cells up to the first cell ``parse`` rejects.

    Returns (values, None) or (values before the bad cell, its ParseError).
    """
    try:
        values = fast(cells) if fast else [parse(c) for c in cells]
        if values is not None:
            return values, None
    except (ValueError, KeyError, ParseError):
        pass
    values = []
    for cell in cells:
        try:
            values.append(parse(cell))
        except ParseError as exc:
            return values, exc
    return values, None


#: The canonical timestamp cell, as written by write_trace_csv: "0" marks a
#: digit, the rest must match exactly.
_CANONICAL_DTYPE = np.dtype("<U20")
_CANONICAL = np.array(["0000-00-00T00:00:00Z"], dtype=_CANONICAL_DTYPE).view(np.uint32)
_DIGITS = _CANONICAL == ord("0")


def _canonical_stamps(cells):
    """Epoch microseconds of timestamp cells that are all canonical
    ``YYYY-MM-DDTHH:MM:SSZ`` with a valid date and time, computed from the
    digits; None when any cell takes another form (or is blank)."""
    text = np.array(cells)
    if text.dtype != _CANONICAL_DTYPE:  # some cell is longer, or none is a string
        return None
    codes = text.view(np.uint32).reshape(len(text), len(_CANONICAL))
    digits = codes - np.uint32(ord("0"))
    if not ((digits[:, _DIGITS] <= 9).all()
            and (codes[:, ~_DIGITS] == _CANONICAL[~_DIGITS]).all()):
        return None
    digits = digits.astype(np.int64)
    year, month, day, hour, minute, second = (
        digits[:, lo:hi] @ 10 ** np.arange(hi - lo - 1, -1, -1)
        for lo, hi in ((0, 4), (5, 7), (8, 10), (11, 13), (14, 16), (17, 19)))
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


def _read_block(reader, first_line, last_us):
    """Parse up to _BLOCK_ROWS data rows a column at a time.

    Returns None at the end of the stream, else (rows read, line numbers,
    timestamps in microseconds, {field: values} of the non-blank rows). A block
    that holds a fault raises the one a row-by-row reading meets first: the
    lowest line, then the first check in the row's order (field count,
    timestamp, hvac_mode, motion, the floats in CSV_HEADER order, then
    duplicate and ordering against the previous row). Each check only scans
    rows before the earliest fault found so far.
    """
    rows = list(itertools.islice(reader, _BLOCK_ROWS))
    n_read = len(rows)
    if not rows:
        return None
    width = len(CSV_HEADER)
    lines = first_line + np.arange(n_read)
    fault, limit = None, n_read
    # Full rows with canonical timestamps hold no blank row and no field-count
    # fault; any other block is filtered and checked row by row first.
    columns = list(zip(*rows)) if set(map(len, rows)) == {width} else None
    stamps = None if columns is None else _canonical_stamps(columns[0])
    if stamps is None:
        keep = [i for i, row in enumerate(rows) if any(map(str.strip, row))]
        rows, lines = [rows[i] for i in keep], lines[keep]
        limit = len(rows)
        short = next((i for i, row in enumerate(rows) if len(row) != width), None)
        if short is not None:
            fault = ParseError(f"expected {width} fields, got {len(rows[short])}",
                               int(lines[short]))
            limit = short
        columns = list(zip(*rows[:limit])) or [()] * width
        stamps, exc = _parse_column(columns[0], _parse_timestamp)
        if exc is not None:
            limit = len(stamps)
            fault = ParseError(str(exc), int(lines[limit]))
    del rows

    fields = {}
    for col, name, dtype, field in _FIELDS:
        values, exc = _parse_column(columns[col][:limit], *field)
        columns[col] = None  # release the column's strings before the next
        if exc is not None:
            limit = len(values)
            fault = ParseError(str(exc), int(lines[limit]))
        fields[name] = np.array(values, dtype=dtype)

    us = np.array(stamps[:limit], dtype=np.int64)
    before = us[:1] - 1 if last_us is None else [last_us]
    step = np.diff(np.r_[before, us])
    back = np.flatnonzero(step <= 0)
    if len(back):
        i = back[0]
        cell, line = columns[0][i], lines[i]
        if step[i] == 0:
            fault = DuplicateTimestampError(f"line {line}: duplicate timestamp {cell}")
        else:
            fault = OrderingError(f"line {line}: timestamp {cell} not increasing")
    if fault is not None:
        raise fault
    return n_read, lines, us, fields


def ingest_trace(source, home_id):
    """Read a trace CSV (see CSV_HEADER) onto the uniform 300 s grid.

    ``source`` is a path or a text file-like object. Rows missing from the
    grid are inserted as marked-missing samples. Raises ParseError,
    OrderingError, or DuplicateTimestampError on malformed input, naming the
    line the fault is on.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, newline="") as fh:
            return ingest_trace(fh, home_id)

    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty CSV stream", 1) from None
    if [h.strip() for h in header] != CSV_HEADER:
        raise ParseError(f"unexpected header {header!r}", 1)

    blocks, first_line, last_us = [], 2, None
    while (block := _read_block(reader, first_line, last_us)) is not None:
        n_read, _, us, _ = block
        blocks.append(block)
        first_line += n_read
        if len(us):
            last_us = us[-1]
    lines = np.concatenate([b[1] for b in blocks] or [np.empty(0, np.int64)])
    if len(lines) < 2:
        raise InsufficientDataError("trace CSV must contain at least 2 data rows")
    us = np.concatenate([b[2] for b in blocks])

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
        full[idx] = np.concatenate([b[3][name] for b in blocks])
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

    Idempotent: a trace without missing markers is returned unchanged
    (modulo a populated ``long_gap`` mask).
    """
    if not trace.has_missing:
        if trace.long_gap is not None:
            return trace
        return replace(trace, long_gap=np.zeros(len(trace), dtype=bool))

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
    dropped.
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

    if trace.long_gap is not None and trace.long_gap.any():
        bad = np.convolve(trace.long_gap.astype(int), np.ones(n + 1, dtype=int))[n: len(trace)] > 0
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
    """Sub-trace over grid indices [lo, hi); start shifts accordingly."""
    fields = {name: getattr(trace, name)[lo:hi].copy()
              for name in _CONTINUOUS_FIELDS + ("motion", "hvac_mode")}
    gap = None if trace.long_gap is None else trace.long_gap[lo:hi].copy()
    return Trace(
        home_id=trace.home_id,
        start=trace.start + timedelta(seconds=lo * STEP_SECONDS),
        long_gap=gap,
        **fields,
    )
