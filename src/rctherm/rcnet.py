"""nRnC thermal-network construction, exact discretization, and simulation.

An order-n network chains n resistors through n-1 envelope lumps into a
single interior lump of capacitance C_n. Resistances are in degF*h per heat
unit and capacitances in heat units per degF, so the continuous dynamics are
per-hour; discretization converts the 300 s data cadence internally.

The input vector is always u = (t_out, k_heat, k_cool).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.signal import lfilter, lfiltic

from .errors import InsufficientDataError, InvalidParameterError, ParseError, ShapeError

#: Models beyond 5R5C are not supported.
MAX_ORDER = 5

SECONDS_PER_HOUR = 3600.0
#: The keys of an RC parameter file besides its optional "order".
_PARAM_KEYS = ("resistances", "capacitances", "q_heat", "q_cool")


@dataclass(frozen=True)
class RcParams:
    """Physical parameters of an nRnC network."""

    resistances: tuple
    capacitances: tuple
    q_heat: float
    q_cool: float

    def __post_init__(self):
        object.__setattr__(self, "resistances", tuple(float(r) for r in self.resistances))
        object.__setattr__(self, "capacitances", tuple(float(c) for c in self.capacitances))
        n = len(self.resistances)
        if n != len(self.capacitances):
            raise InvalidParameterError("resistance and capacitance counts differ")
        if not 1 <= n <= MAX_ORDER:
            raise InvalidParameterError(f"order must be in [1, {MAX_ORDER}], got {n}")
        if not all(0 < v < np.inf for v in self.resistances + self.capacitances):
            raise InvalidParameterError("all R and C values must be finite and strictly positive")
        if not (0 <= self.q_heat < np.inf and 0 <= self.q_cool < np.inf):
            raise InvalidParameterError("q_heat and q_cool must be finite and nonnegative")

    @property
    def order(self):
        return len(self.resistances)

    def to_dict(self):
        return {
            "order": self.order,
            "resistances": list(self.resistances),
            "capacitances": list(self.capacitances),
            "q_heat": self.q_heat,
            "q_cool": self.q_cool,
        }

    @classmethod
    def from_dict(cls, data):
        """Parse parameters; a non-object, or a missing, unknown or mistyped
        key raises ParseError (an impossible value, InvalidParameterError)."""
        if not isinstance(data, dict):
            raise ParseError(f"RC parameters must be a JSON object, got {type(data).__name__}")
        unknown = sorted(set(data) - {"order", *_PARAM_KEYS})
        missing = [k for k in _PARAM_KEYS if k not in data]
        if unknown or missing:
            raise ParseError(f"RC parameters: unknown keys {unknown}, missing keys {missing}")
        for key in _PARAM_KEYS:
            value = data[key]
            if not (isinstance(value, list) and all(map(_is_number, value))
                    if key in ("resistances", "capacitances") else _is_number(value)):
                raise ParseError(f"RC parameter {key!r} has the wrong type: {value!r}")
        try:
            params = cls(resistances=data["resistances"], capacitances=data["capacitances"],
                         q_heat=float(data["q_heat"]), q_cool=float(data["q_cool"]))
        except OverflowError:
            raise ParseError("an RC parameter is too large for a float") from None
        if data.get("order", params.order) != params.order:
            raise ParseError(f"RC parameter 'order' is {data['order']!r} for {params.order} lumps")
        return params

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ParseError(f"RC parameters are not valid JSON: {exc}") from None
        return cls.from_dict(data)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class StateSpace:
    """Continuous dynamics dx/dt = A x + B u, y = Cm x (D = 0).

    State: (T_1, ..., T_{n-1}, T_in); rates are per hour.
    """

    a: np.ndarray
    b: np.ndarray
    cm: np.ndarray

    @property
    def order(self):
        return self.a.shape[0]


@dataclass(frozen=True)
class DiscretizedSystem:
    """First-order-hold discretization at a fixed step."""

    phi: np.ndarray
    gamma1: np.ndarray
    gamma2: np.ndarray

    @property
    def order(self):
        return self.phi.shape[0]


@dataclass(frozen=True)
class DiffCoeffs:
    """Compound coefficients of the scalar input/output difference equation.

    y_t = sum_{i=0..n} s[i] . u_{t-i} - sum_{i=1..n} e[i-1] y_{t-i} + offset
    """

    order: int
    s: np.ndarray  # (n+1, 3)
    e: np.ndarray  # (n,)
    offset: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "s", np.asarray(self.s, dtype=float))
        object.__setattr__(self, "e", np.asarray(self.e, dtype=float))
        if self.s.shape != (self.order + 1, 3):
            raise ShapeError(f"s must be ({self.order + 1}, 3), got {self.s.shape}")
        if self.e.shape != (self.order,):
            raise ShapeError(f"e must be ({self.order},), got {self.e.shape}")

    def to_dict(self):
        return {
            "order": self.order,
            "s": [list(row) for row in self.s],
            "e": list(self.e),
            "offset": self.offset,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(order=data["order"], s=np.array(data["s"]), e=np.array(data["e"]),
                   offset=data["offset"])

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))


def build_state_space(params):
    """Assemble the tridiagonal A and sparse B and Cm for an nRnC network."""
    n = params.order
    r, c = params.resistances, params.capacitances
    a = np.zeros((n, n))
    if n == 1:
        a[0, 0] = -1.0 / (c[0] * r[0])
    else:
        a[0, 0] = -(1.0 / (c[0] * r[0]) + 1.0 / (c[0] * r[1]))
        a[0, 1] = 1.0 / (c[0] * r[1])
        for i in range(1, n - 1):  # interior envelope lumps
            a[i, i - 1] = 1.0 / (c[i] * r[i])
            a[i, i] = -(1.0 / (c[i] * r[i]) + 1.0 / (c[i] * r[i + 1]))
            a[i, i + 1] = 1.0 / (c[i] * r[i + 1])
        a[n - 1, n - 2] = 1.0 / (c[n - 1] * r[n - 1])
        a[n - 1, n - 1] = -1.0 / (c[n - 1] * r[n - 1])

    b = np.zeros((n, 3))
    b[0, 0] = 1.0 / (c[0] * r[0])
    b[n - 1, 1] = params.q_heat / c[n - 1]
    b[n - 1, 2] = -params.q_cool / c[n - 1]

    cm = np.zeros((1, n))
    cm[0, n - 1] = 1.0
    return StateSpace(a=a, b=b, cm=cm)


def matrix_exponential(a, step_seconds):
    """e^{A * dt} with dt = step_seconds converted to hours (A is per-hour)."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"matrix must be square, got {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidParameterError("matrix contains non-finite entries")
    return expm(a * (step_seconds / SECONDS_PER_HOUR))


def discretize(ss, step_seconds):
    """First-order-hold discretization: Phi, Gamma1, Gamma2 at the given step."""
    if step_seconds <= 0:
        raise InvalidParameterError("step must be positive")
    dt = step_seconds / SECONDS_PER_HOUR
    phi = matrix_exponential(ss.a, step_seconds)
    eye = np.eye(ss.order)
    try:
        gamma1 = np.linalg.solve(ss.a, (phi - eye) @ ss.b)
        gamma2 = np.linalg.solve(ss.a, gamma1 / dt - ss.b)
    except np.linalg.LinAlgError:
        raise InvalidParameterError("A matrix is singular") from None
    if not np.isfinite(gamma1).all() or not np.isfinite(gamma2).all():
        raise InvalidParameterError("A matrix is numerically singular")
    return DiscretizedSystem(phi=phi, gamma1=gamma1, gamma2=gamma2)


def difference_coefficients(ds, ss):
    """Collapse the discretized system to the scalar difference equation.

    Uses the trace recursion M_0 = I, M_i = Phi M_{i-1} + e_i I with
    e_i = -Tr(Phi M_{i-1}) / i, so (e_1..e_n) are the characteristic
    polynomial coefficients of Phi. Verifies the Cayley-Hamilton residual.
    """
    n = ds.order
    if ss.order != n:
        raise ShapeError("discretized system and state space orders differ")
    phi, g1, g2, cm = ds.phi, ds.gamma1, ds.gamma2, ss.cm
    eye = np.eye(n)

    m = [eye]
    e = np.zeros(n)
    for i in range(1, n + 1):
        pm = phi @ m[i - 1]
        e[i - 1] = -np.trace(pm) / i
        m.append(pm + e[i - 1] * eye)

    residual = np.linalg.norm(phi @ m[n - 1] + e[n - 1] * eye)
    if residual > 1e-9 * max(np.linalg.norm(phi), 1.0):
        raise InvalidParameterError(
            f"characteristic-polynomial residual too large: {residual:g}")

    s = np.zeros((n + 1, 3))
    s[0] = (cm @ m[0] @ g2)[0]
    for i in range(1, n):
        s[i] = (cm @ (m[i - 1] @ (g1 - g2) + m[i] @ g2))[0]
    s[n] = (cm @ m[n - 1] @ (g1 - g2))[0]
    return DiffCoeffs(order=n, s=s, e=e, offset=0.0)


def analytic_coefficients(params, step_seconds):
    """Convenience path: RcParams straight to its exact DiffCoeffs."""
    ss = build_state_space(params)
    return difference_coefficients(discretize(ss, step_seconds), ss)


def simulate_state_space(ds, ss, u, x0):
    """Roll the discrete state recursion forward; one output per input row.

    x_{t+1} = Phi x_t + (Gamma1 - Gamma2) u_t + Gamma2 u_{t+1}; y_t = Cm x_t.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[1] != 3:
        raise ShapeError(f"inputs must be (steps, 3), got {u.shape}")
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape[0] != ds.order:
        raise ShapeError(f"x0 must have {ds.order} entries, got {x.shape[0]}")

    steps = len(u)
    y = np.empty(steps)
    hold = ds.gamma1 - ds.gamma2
    out = ss.cm[0]
    for t in range(steps):
        y[t] = out @ x
        if t + 1 < steps:
            x = ds.phi @ x + hold @ u[t] + ds.gamma2 @ u[t + 1]
    return y


def simulate_difference(dc, u, y_init):
    """Free-running roll-out of the difference equation.

    ``y_init`` supplies the first n outputs; later outputs feed their own
    lags. Returns one entry per input row.
    """
    u = np.asarray(u, dtype=float)
    n = dc.order
    if u.ndim != 2 or u.shape[1] != 3:
        raise ShapeError(f"inputs must be (steps, 3), got {u.shape}")
    if len(u) < n + 1:
        raise InsufficientDataError(f"need at least {n + 1} input rows")
    y_init = np.asarray(y_init, dtype=float).reshape(-1)
    if len(y_init) != n:
        raise InsufficientDataError(f"need exactly {n} initial outputs, got {len(y_init)}")

    # the three input FIR filters summed, then one IIR over [1, e_1..e_n]
    # seeded with y_init as the past outputs
    drive = sum(lfilter(dc.s[:, j], [1.0], u[:, j]) for j in range(3))[n:] + dc.offset
    a = np.concatenate([[1.0], dc.e])
    y = np.empty(len(u))
    y[:n] = y_init
    y[n:], _ = lfilter([1.0], a, drive, zi=lfiltic([1.0], a, y_init[::-1]))
    return y


def steady_state(params, t_out, k_heat, k_cool):
    """Equilibrium indoor temperature under constant inputs."""
    lift = (k_heat * params.q_heat - k_cool * params.q_cool) * sum(params.resistances)
    return t_out + lift


def initial_state(params, t_in0, t_out0):
    """Simulation initial state: unobservable envelope lumps start at the
    mean of the first indoor and outdoor readings; interior lump at t_in0."""
    n = params.order
    x0 = np.full(n, 0.5 * (t_in0 + t_out0))
    x0[n - 1] = t_in0
    return x0
