"""Independent reference implementations used to cross-check the package.

Each oracle deliberately takes a different computational route from the code
under test: eigendecompositions and polynomial interpolation instead of the
Leverrier recursion, truncated series instead of the matrix exponential,
forward Euler instead of exact discretization, projected gradient
instead of the active-set method, and row-by-row CSV reading and writing
instead of the column-at-a-time trace I/O.
"""

import csv
from datetime import datetime, timedelta, timezone

import numpy as np

from rctherm.errors import (
    DuplicateTimestampError,
    InsufficientDataError,
    OrderingError,
    ParseError,
)
from rctherm.timeseries import CSV_HEADER, MODE_MISSING, STEP_SECONDS, Trace

_MODE_NAMES = {"off": 0, "heat": 1, "cool": 2, "auto": 3}
_MODE_STRINGS = {v: k for k, v in _MODE_NAMES.items()}


_DFT_RADIUS = 1.5  # outside the unit disk, so never near the spectrum of phi


def _poly_coeffs_from_circle(values, radius):
    """Monomial coefficients of a degree-n polynomial from its values at the
    n+1 scaled roots of unity (a DFT inversion; perfectly conditioned).

    values[i] = P(r w^i) = sum_j (c_j r^j) w^{+ij} with w = e^{2 pi i / m},
    which is an unnormalized inverse DFT of the scaled coefficients, so the
    coefficients come back via the forward transform divided by m.
    """
    m = len(values)
    coeffs = np.fft.fft(values, axis=0) / m  # c_k r^k in row k
    scale = radius ** np.arange(m)
    return coeffs / scale.reshape(-1, *([1] * (values.ndim - 1)))


def charpoly_eig_oracle(phi):
    """Characteristic polynomial coefficients (e_1..e_n) of phi from its
    eigenvalues: det(F I - phi) = F^n + e_1 F^{n-1} + ... + e_n."""
    return np.poly(np.linalg.eigvals(phi))[1:].real


def s_interpolation_oracle(phi, gamma1, gamma2, cm):
    """S_0..S_n by polynomial interpolation of the transfer numerator.

    N(F) = det(F I - phi) * cm (F I - phi)^{-1} (F gamma2 + gamma1 - gamma2)
    is a degree-n matrix polynomial in F whose F^{n-i} coefficient is S_i.
    Sampling it on a circle of radius 1.5 and inverting the DFT keeps the
    extraction perfectly conditioned.
    """
    n = phi.shape[0]
    m = n + 1
    points = _DFT_RADIUS * np.exp(2j * np.pi * np.arange(m) / m)
    eye = np.eye(n)
    rows = []
    for f in points:
        mat = f * eye - phi
        rhs = f * gamma2 + gamma1 - gamma2
        rows.append(np.linalg.det(mat) * (cm @ np.linalg.solve(mat, rhs))[0])
    coeffs = _poly_coeffs_from_circle(np.array(rows), _DFT_RADIUS)
    return coeffs[::-1].real  # row i -> coefficient of F^{n-i} = S_i


def expm_series_oracle(a, dt, terms=60):
    """Truncated Taylor series for e^{A dt} (A already per the dt units)."""
    n = a.shape[0]
    acc = np.eye(n)
    term = np.eye(n)
    for k in range(1, terms):
        term = term @ (a * dt) / k
        acc = acc + term
    return acc


def gamma_series_oracle(a, b, dt, terms=60):
    """Gamma1 = integral_0^dt e^{A s} ds B via the series
    sum_k A^k dt^{k+1}/(k+1)! B, independent of any matrix inverse."""
    n = a.shape[0]
    acc = np.eye(n) * dt
    term = np.eye(n) * dt
    for k in range(1, terms):
        term = term @ (a * dt) / (k + 1)
        acc = acc + term
    return acc @ b


def euler_foh_oracle(a, b, cm, u, x0, dt, substeps):
    """Forward Euler at dt/substeps with the input linearly interpolated
    between consecutive samples, summed in closed form per coarse step.

    Exactly equal (up to float reordering) to running the K = substeps tiny
    Euler updates x <- (I + A h) x + h B u(t) with u linear on each step.
    Returns one output per input row.
    """
    n = a.shape[0]
    k = int(substeps)
    h = dt / k
    m = np.eye(n) + a * h
    # S0 = sum_{j=0}^{K-1} M^j  and  U = sum_{j=0}^{K-1} j M^j
    s0 = np.zeros((n, n))
    uu = np.zeros((n, n))
    mp = np.eye(n)
    for j in range(k):
        s0 += mp
        uu += j * mp
        mp = mp @ m
    phi_e = mp  # M^K
    # x_K = M^K x0 + h sum_j M^{K-1-j} B u_j with u_j = u0 + (j/K)(u1-u0):
    # sum_j M^{K-1-j} = S0 and sum_j j M^{K-1-j} = (K-1) S0 - U.
    g_const = h * (s0 @ b)
    g_ramp = (h / k) * (((k - 1) * s0 - uu) @ b)

    y = np.empty(len(u))
    x = np.asarray(x0, dtype=float).copy()
    out = cm[0]
    for t in range(len(u)):
        y[t] = out @ x
        if t + 1 < len(u):
            x = phi_e @ x + g_const @ u[t] + g_ramp @ (u[t + 1] - u[t])
    return y


def simulate_difference_loop(dc, u, y_init):
    """Free-running roll-out of the difference equation, one step at a time."""
    n = dc.order
    y = np.empty(len(u))
    y[:n] = y_init
    for t in range(n, len(u)):
        acc = dc.offset
        for i in range(n + 1):
            acc += dc.s[i] @ u[t - i]
        for i in range(1, n + 1):
            acc -= dc.e[i - 1] * y[t - i]
        y[t] = acc
    return y


def projected_gradient_nnls(a, y, tol=1e-14, max_iter=200_000):
    """min ||Ax - y|| s.t. x >= 0 by projected gradient with a fixed step
    1/||A^T A||_2, run to convergence."""
    ata = a.T @ a
    aty = a.T @ y
    step = 1.0 / max(np.linalg.norm(ata, 2), 1e-300)
    x = np.zeros(a.shape[1])
    for _ in range(max_iter):
        nxt = np.maximum(0.0, x - step * (ata @ x - aty))
        if np.abs(nxt - x).max() <= tol * max(1.0, np.abs(x).max()):
            return nxt
        x = nxt
    return x


def _parse_timestamp_rowwise(text, line):
    raw = text.strip()
    if raw.endswith("Z") or raw.endswith("z"):
        raw = raw[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(raw)
    except ValueError as exc:
        raise ParseError(f"bad timestamp {text!r}: {exc}", line) from None
    if ts.tzinfo is None:
        raise ParseError(f"timestamp {text!r} lacks a UTC offset", line)
    return ts.astimezone(timezone.utc)


def _parse_float_rowwise(text, name, line, lo=None, hi=None):
    raw = text.strip()
    if raw == "":
        return np.nan
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(f"bad {name} value {text!r}", line) from None
    if not np.isfinite(value):
        raise ParseError(f"non-finite {name} value {text!r}", line)
    if lo is not None and not (lo <= value <= hi):
        raise ParseError(f"{name} value {value} outside [{lo}, {hi}]", line)
    return value


def ingest_trace_rowwise(source, home_id):
    """Trace CSV reader that parses and checks one row at a time, raising at
    the first fault in line order (the package's reader before it went
    column-wise)."""
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty CSV stream", 1) from None
    if [h.strip() for h in header] != CSV_HEADER:
        raise ParseError(f"unexpected header {header!r}", 1)

    times, rows = [], []
    for line, row in enumerate(reader, start=2):
        if not row or all(f.strip() == "" for f in row):
            continue
        if len(row) != len(CSV_HEADER):
            raise ParseError(f"expected {len(CSV_HEADER)} fields, got {len(row)}", line)
        ts = _parse_timestamp_rowwise(row[0], line)
        mode_raw = row[5].strip()
        if mode_raw == "":
            mode = MODE_MISSING
        elif mode_raw in _MODE_NAMES:
            mode = _MODE_NAMES[mode_raw]
        else:
            raise ParseError(f"unknown hvac_mode {mode_raw!r}", line)
        motion_raw = row[6].strip()
        if motion_raw == "":
            motion = np.nan
        elif motion_raw in ("0", "1"):
            motion = float(motion_raw)
        else:
            raise ParseError(f"motion must be 0 or 1, got {motion_raw!r}", line)
        rec = (
            _parse_float_rowwise(row[1], "t_in", line),
            _parse_float_rowwise(row[2], "t_out", line),
            _parse_float_rowwise(row[3], "t_setheat", line),
            _parse_float_rowwise(row[4], "t_setcool", line),
            mode,
            motion,
            _parse_float_rowwise(row[7], "humidity", line, lo=0.0, hi=1.0),
        )
        if times:
            if ts == times[-1][0]:
                raise DuplicateTimestampError(f"line {line}: duplicate timestamp {row[0]}")
            if ts < times[-1][0]:
                raise OrderingError(f"line {line}: timestamp {row[0]} not increasing")
        times.append((ts, line))
        rows.append(rec)

    if len(rows) < 2:
        raise InsufficientDataError("trace CSV must contain at least 2 data rows")

    start = times[0][0]
    span = (times[-1][0] - start).total_seconds()
    n = int(span // STEP_SECONDS) + 1
    arrays = {name: np.full(n, np.nan)
              for name in ("t_in", "t_out", "t_setheat", "t_setcool", "motion", "humidity")}
    mode = np.full(n, MODE_MISSING, dtype=np.int8)
    for (ts, line), rec in zip(times, rows):
        offset = (ts - start).total_seconds()
        idx, rem = divmod(offset, STEP_SECONDS)
        if rem != 0:
            raise ParseError(f"timestamp {ts.isoformat()} not on the 5-minute grid", line)
        i = int(idx)
        (arrays["t_in"][i], arrays["t_out"][i], arrays["t_setheat"][i],
         arrays["t_setcool"][i], mode[i], arrays["motion"][i],
         arrays["humidity"][i]) = rec

    return Trace(home_id=home_id, start=start, hvac_mode=mode, **arrays)


def _fmt_rowwise(value):
    return "" if np.isnan(value) else repr(float(value))


def write_trace_csv_rowwise(trace, sink):
    """Trace CSV writer that formats one row at a time through csv.writer."""
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for i in range(len(trace)):
        ts = trace.start + timedelta(seconds=i * trace.step)
        mode = trace.hvac_mode[i]
        motion = trace.motion[i]
        writer.writerow([
            ts.strftime("%Y-%m-%dT%H:%M:%SZ"),
            _fmt_rowwise(trace.t_in[i]),
            _fmt_rowwise(trace.t_out[i]),
            _fmt_rowwise(trace.t_setheat[i]),
            _fmt_rowwise(trace.t_setcool[i]),
            "" if mode == MODE_MISSING else _MODE_STRINGS[int(mode)],
            "" if np.isnan(motion) else str(int(motion)),
            _fmt_rowwise(trace.humidity[i]),
        ])
