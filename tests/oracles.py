"""Independent reference implementations used to cross-check the package.

Each oracle deliberately takes a different computational route from the code
under test: eigendecompositions and polynomial interpolation instead of the
Leverrier recursion, truncated series instead of the matrix exponential,
forward Euler instead of exact discretization, projected gradient
instead of the active-set method, row-by-row CSV reading and writing
instead of the column-at-a-time trace I/O, the stochastic-gradient
variational fit of the paper instead of the closed-form solve, the ELBO
from the explicit design instead of its Gram matrix, the evidence by Bayes'
rule at the posterior mean instead of the Cholesky form, and
one-step-at-a-time state recursions instead of per-mode filtering for the
state-space roll-out and the thermostat simulation, scipy.signal's
direct-form IIR filter seeded by lfiltic instead of the banded triangular
solve for the difference-equation roll-out, and the ARIMAX fit by
L-BFGS-B's finite-difference gradient over all its coefficients (with the
persistence intercept found by the optimiser) instead of Newton steps in
the AR and MA coefficients with the rest projected out.
"""

import csv
import math
from datetime import datetime, timedelta, timezone

import numpy as np
from scipy.optimize import minimize
from scipy.signal import lfilter, lfiltic

from rctherm.baselines import ArimaxModel, difference
from rctherm.errors import (
    ConvergenceError,
    DuplicateTimestampError,
    InsufficientDataError,
    OrderingError,
    ParseError,
    ShapeError,
)
from rctherm.estimators import Posterior
from rctherm.fleet import (
    HYSTERESIS_F,
    _outdoor_profile,
    _season_truth,
    _setpoint_schedule,
)
from rctherm.rcnet import build_state_space, discretize, initial_state
from rctherm.timeseries import (
    CSV_HEADER,
    MODE_AUTO,
    MODE_COOL,
    MODE_HEAT,
    MODE_MISSING,
    SAMPLES_PER_DAY,
    STEP_SECONDS,
    ControlSeries,
    Trace,
    exog,
)

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


def simulate_state_space_loop(ds, ss, u, x0):
    """The discrete state recursion rolled forward one step at a time, in
    state coordinates instead of per mode."""
    x = np.asarray(x0, dtype=float)
    y = np.empty(len(u))
    hold = ds.gamma1 - ds.gamma2
    for t in range(len(u)):
        y[t] = ss.cm[0] @ x
        if t + 1 < len(u):
            x = ds.phi @ x + hold @ u[t] + ds.gamma2 @ u[t + 1]
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


def simulate_difference_lfilter(dc, u, y_init):
    """Free-running roll-out of the difference equation as scipy.signal
    filters: the three input FIR filters summed, then one IIR over
    [1, e_1..e_n] seeded by lfiltic with y_init as the past outputs."""
    n = dc.order
    drive = sum(lfilter(dc.s[:, j], [1.0], u[:, j]) for j in range(3))[n:] + dc.offset
    a = np.concatenate([[1.0], dc.e])
    y = np.empty(len(u))
    y[:n] = y_init
    y[n:], _ = lfilter([1.0], a, drive, zi=lfiltic([1.0], a, np.asarray(y_init)[::-1]))
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
    try:
        return ts.astimezone(timezone.utc)
    except OverflowError:
        raise ParseError(f"timestamp {text!r} is outside years 1-9999 UTC", line) from None


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
        ts = trace.start.astimezone(timezone.utc) + timedelta(seconds=i * STEP_SECONDS)
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


def _softplus(x):
    return np.logaddexp(0.0, x)


def _softplus_inv(y):
    return np.log(np.expm1(y))


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _prior(source, d, alpha):
    """(means, precisions) of the prior N(source means, source scales^2/alpha);
    with no ``source``, of the unit source (means 0, scales 1), which a
    cold fit tempers."""
    if source is None:
        return np.zeros(d), np.full(d, alpha)
    return source.means, alpha / source.scales ** 2


class DivergenceError(Exception):
    """The stochastic-gradient fit's loss stopped being finite."""


def fit_bnn_loop(dataset, noise_std, source=None, alpha=1.0, learning_rate=1e-3,
                 batch_size=256, epochs=200, mc_samples=1, lr_decay=1.0,
                 average_fraction=0.25, seed=0):
    """The paper's fit: stochastic-gradient variational Bayes on the
    Monte-Carlo negative ELBO (Blundell et al. 2015), one sample at a time.

    Minibatches of ``batch_size`` rows, ``mc_samples`` reparameterised draws
    per step, curvature-preconditioned steps for the means and Adam for the
    softplus-parameterised scales, both decaying by ``lr_decay`` per epoch;
    the means are averaged over the last ``average_fraction`` of the epochs.
    The prior is N(source means, source scales^2/alpha), with the unit
    source when there is no ``source``. A ``source`` Posterior is the
    starting point; with none the fit starts from persistence.
    """
    if len(dataset) == 0:
        raise InsufficientDataError("regression dataset is empty")
    n = dataset.order
    d = 4 * n + 4
    if source is not None and source.order != n:
        raise ShapeError(f"source posterior order {source.order} != dataset order {n}")

    x = np.column_stack([dataset.inputs, np.ones(len(dataset))])
    y = dataset.targets
    num_rows = len(y)
    noise_var = noise_std ** 2

    m0, prior_prec = _prior(source, d, alpha)
    s0 = 1.0 / np.sqrt(prior_prec)
    if source is not None:
        mu = source.means.copy()
        rho = _softplus_inv(source.scales)
    else:
        mu = np.zeros(d)
        mu[3 * (n + 1)] = 1.0  # persistence start on the y_{t-1} weight
        rho = np.full(d, _softplus_inv(0.05))

    rng = np.random.default_rng(seed)
    adam_m = np.zeros(2 * d)
    adam_v = np.zeros(2 * d)
    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8
    const_nll = num_rows * 0.5 * math.log(2 * math.pi * noise_var)

    # Lagged temperature regressors are extremely collinear (condition
    # numbers ~1e4 and up), which starves a diagonal adaptive update of
    # progress along the sloppy directions. The mean update is therefore
    # preconditioned by the inverse Gaussian curvature of the objective,
    # computed once from the full design; the scales keep the diagonal
    # adaptive update.
    precond = np.linalg.inv(x.T @ x / noise_var + np.diag(prior_prec))

    batch = min(batch_size, num_rows)
    steps_per_epoch = max(1, num_rows // batch)
    step = 0
    lr = learning_rate
    mean_lr = 0.3
    avg_start = int(epochs * (1.0 - average_fraction))
    mu_sum = np.zeros(d)
    mu_count = 0

    for epoch in range(epochs):
        perm = rng.permutation(num_rows)
        for b in range(steps_per_epoch):
            idx = perm[b * batch:(b + 1) * batch]
            xb, yb = x[idx], y[idx]
            scale_up = num_rows / len(idx)

            g_mu = np.zeros(d)
            g_rho = np.zeros(d)
            loss = 0.0
            for _ in range(mc_samples):
                eps = rng.standard_normal(d)
                sigma = _softplus(rho)
                w = mu + sigma * eps
                r = xb @ w - yb
                g_w = scale_up * (xb.T @ r) / noise_var
                nll = scale_up * 0.5 * np.dot(r, r) / noise_var + const_nll

                kl = np.sum(np.log(s0 / sigma)
                            + (sigma ** 2 + (mu - m0) ** 2) / (2 * s0 ** 2) - 0.5)
                gm = g_w + (mu - m0) / s0 ** 2
                gs = g_w * eps + sigma / s0 ** 2 - 1.0 / sigma
                g_mu += gm
                g_rho += gs * _sigmoid(rho)
                loss += nll + kl

            if not np.isfinite(loss):
                raise DivergenceError(f"step {step}: variational loss diverged")
            g_mu /= mc_samples
            g_rho /= mc_samples

            grad = np.concatenate([g_mu, g_rho])
            step += 1
            adam_m = beta1 * adam_m + (1 - beta1) * grad
            adam_v = beta2 * adam_v + (1 - beta2) * grad * grad
            m_hat = adam_m / (1 - beta1 ** step)
            v_hat = adam_v / (1 - beta2 ** step)
            update = lr * m_hat / (np.sqrt(v_hat) + adam_eps)
            mu = mu - mean_lr * (precond @ g_mu)
            rho = rho - update[d:]
        lr *= lr_decay
        mean_lr *= lr_decay
        if epoch >= avg_start:
            mu_sum += mu
            mu_count += 1

    # Tail-averaged means damp the Monte Carlo jitter of the final iterates.
    if mu_count:
        mu = mu_sum / mu_count
    return Posterior(order=n, means=mu, scales=_softplus(rho), noise_std=noise_std)


def elbo_and_grad(dataset, noise_std, means, scales, source=None, alpha=1.0):
    """(ELBO, dELBO/dmeans, dELBO/dscales) of the factorized Gaussian q
    (means, scales), from the explicit design with its bias column, under
    the prior N(source means, source scales^2/alpha) (the unit source when
    there is no ``source``).
    """
    x = np.column_stack([dataset.inputs, np.ones(len(dataset))])
    noise_var = noise_std ** 2
    r = dataset.targets - x @ means
    col_sq = (x * x).sum(axis=0)
    value = (-0.5 * len(r) * math.log(2 * math.pi * noise_var)
             - (r @ r + scales ** 2 @ col_sq) / (2 * noise_var)
             + np.sum(np.log(scales) + 0.5 * math.log(2 * math.pi) + 0.5))
    g_m = x.T @ r / noise_var
    g_s = -scales * col_sq / noise_var + 1.0 / scales
    m0, prec = _prior(source, len(means), alpha)
    dev = means - m0
    value += 0.5 * np.sum(np.log(prec) - math.log(2 * math.pi) - prec * (scales ** 2 + dev ** 2))
    g_m -= prec * dev
    g_s -= prec * scales
    return float(value), g_m, g_s


def log_evidence_candidate(dataset, noise_std, source, alpha):
    """log p(y | alpha) of the rows under the prior N(source means,
    source scales^2/alpha) (the unit source when there is no ``source``), by
    Bayes' rule at the posterior mean mu (the candidate's formula):
    log p(y | mu) + log p(mu | alpha) - log p(mu | y, alpha), with the
    full-covariance posterior of the explicit design and LU solves and
    determinants."""
    x = np.column_stack([dataset.inputs, np.ones(len(dataset))])
    y, noise_var = dataset.targets, noise_std ** 2
    m0, prior_prec = _prior(source, x.shape[1], alpha)
    a = x.T @ x / noise_var + np.diag(prior_prec)
    mu = np.linalg.solve(a, x.T @ y / noise_var + prior_prec * m0)
    r = y - x @ mu
    log_lik = -0.5 * (len(y) * math.log(2 * math.pi * noise_var) + r @ r / noise_var)
    dev = mu - m0
    log_prior = 0.5 * np.sum(np.log(prior_prec) - math.log(2 * math.pi) - prior_prec * dev ** 2)
    log_post = 0.5 * (np.linalg.slogdet(a)[1] - len(mu) * math.log(2 * math.pi))
    return float(log_lik + log_prior - log_post)


def generate_trace_loop(truth, season, home_id, start, rng, measurement_noise_std):
    """``fleet.generate_trace`` as one state recursion, with the whole input
    vector rebuilt and multiplied at every step, instead of the open-loop
    response filtered per mode plus closed-form duty runs."""
    params = _season_truth(truth, season)
    ss = build_state_space(params)
    ds = discretize(ss, STEP_SECONDS)
    n_samples = season.days * SAMPLES_PER_DAY

    t_out = _outdoor_profile(season, n_samples, rng)
    setheat, setcool = _setpoint_schedule(season, n_samples)
    heating_enabled = season.hvac_mode in (MODE_HEAT, MODE_AUTO)
    cooling_enabled = season.hvac_mode in (MODE_COOL, MODE_AUTO)

    x = initial_state(params, 0.5 * (setheat[0] + setcool[0]), t_out[0])
    out_row = ss.cm[0]
    hold = ds.gamma1 - ds.gamma2

    y = np.empty(n_samples)
    kh = np.zeros(n_samples, dtype=np.int8)
    kc = np.zeros(n_samples, dtype=np.int8)
    heat_on = False
    cool_on = False
    y[0] = out_row @ x
    for t in range(n_samples):
        yt = out_row @ x
        y[t] = yt
        # thermostat decision for the next interval, from the current reading
        if heating_enabled:
            if yt < setheat[t] - HYSTERESIS_F:
                heat_on = True
            elif yt > setheat[t] + HYSTERESIS_F:
                heat_on = False
        if cooling_enabled:
            if yt > setcool[t] + HYSTERESIS_F:
                cool_on = True
            elif yt < setcool[t] - HYSTERESIS_F:
                cool_on = False
        if t + 1 < n_samples:
            kh[t + 1] = 1 if heat_on else 0
            kc[t + 1] = 1 if cool_on and not heat_on else 0
            u_now = np.array([t_out[t], float(kh[t]), float(kc[t])])
            u_next = np.array([t_out[t + 1], float(kh[t + 1]), float(kc[t + 1])])
            x = ds.phi @ x + hold @ u_now + ds.gamma2 @ u_next

    t_in = y + rng.normal(0, measurement_noise_std, size=n_samples) \
        if measurement_noise_std > 0 else y.copy()
    humidity = np.clip(0.4 + rng.normal(0, 0.02, size=n_samples), 0.0, 1.0)
    motion = (rng.random(n_samples) < 0.1).astype(float)
    trace = Trace(
        home_id=home_id,
        start=start,
        t_in=t_in,
        t_out=t_out,
        t_setheat=setheat.astype(float),
        t_setcool=setcool.astype(float),
        hvac_mode=np.full(n_samples, season.hvac_mode, dtype=np.int8),
        motion=motion,
        humidity=humidity,
        long_gap=np.zeros(n_samples, dtype=bool),
    )
    return trace, ControlSeries(k_heat=kh, k_cool=kc)


def _arimax_innovations(params, z, exog_diff, p, q, use_exog):
    ar = params[:p]
    ma = params[p:p + q]
    if use_exog:
        r = z - params[p + q + 3] - exog_diff @ params[p + q:p + q + 3]
    else:
        r = z - params[p + q]
    for i, phi in enumerate(ar, start=1):
        r[i:] -= phi * z[:-i]
    return lfilter([1.0], np.concatenate([[1.0], ma]), r) if q else r


def css_value(params, z, exog_diff, p, q, use_exog=True):
    """Mean conditional sum of squares of ARIMAX(p, ., q) on the differenced
    series z, with initial innovations zero; 1e12 where it is not finite.
    Parameters are (ar, ma, exog coefficients, intercept), or (ar, ma,
    intercept) without exogenous terms."""
    skip = max(p, q)
    with np.errstate(over="ignore", invalid="ignore"):
        e = _arimax_innovations(params, z, exog_diff, p, q, use_exog)
        css = np.dot(e[skip:], e[skip:]) / max(len(e) - skip, 1)
    return float(css) if np.isfinite(css) else 1e12


def fit_arimax_fd(train, controls, order):
    """ARIMAX by L-BFGS-B on the CSS with finite-difference gradients, from
    zero AR/MA coefficients and the OLS exogenous coefficients; persistence
    (p = q = 0) drops the exogenous terms and starts at the mean."""
    p, d, q = order.p, order.d, order.q
    if len(train) < 10 * (p + q + 4):
        raise InsufficientDataError("too few samples for this order")
    z = difference(train.t_in, d)
    x = np.diff(exog(train, controls), n=d, axis=0)
    use_exog = bool(p or q)
    if use_exog:
        ols, *_ = np.linalg.lstsq(np.column_stack([x, np.ones(len(z))]), z, rcond=None)
        x0 = np.concatenate([np.zeros(p + q), ols])
        bounds = [(-0.999, 0.999)] * p + [(None, None)] * (q + 4)
    else:
        x0 = np.array([z.mean()])
        bounds = [(None, None)]
    result = minimize(css_value, x0, args=(z, x, p, q, use_exog), method="L-BFGS-B",
                      bounds=bounds, options={"maxiter": 500})
    if not result.success:
        raise ConvergenceError(f"ARIMAX optimizer failed: {result.message}")
    params = result.x
    e = _arimax_innovations(params, z, x, p, q, use_exog)
    skip = max(p, q)
    var = float(np.einsum("i,i", e[skip:], e[skip:]) / max(len(e) - skip - len(params), 1))
    return ArimaxModel(order=order, ar=params[:p], ma=params[p:p + q],
                       exog=params[p + q:p + q + 3] if use_exog else np.zeros(3),
                       intercept=float(params[-1]), innovation_var=max(var, 1e-300))
