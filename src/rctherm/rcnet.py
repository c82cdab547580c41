"""nRnC thermal-network construction, exact discretization, and simulation.

An order-n network chains n resistors through n-1 envelope lumps into a
single interior lump of capacitance C_n. Resistances are in degF*h per heat
unit and capacitances in heat units per degF, so the continuous dynamics are
per-hour; discretization converts the 300 s data cadence internally.

The input vector is always u = (t_out, k_heat, k_cool).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.linalg.lapack import dtbtrs

from .errors import (
    DataError,
    InsufficientDataError,
    InvalidParameterError,
    ParseError,
    ShapeError,
)
from .jsonfile import JsonFile, read

#: Models beyond 5R5C are not supported.
MAX_ORDER = 5

SECONDS_PER_HOUR = 3600.0


@dataclass(frozen=True)
class RcParams(JsonFile, error=ParseError, name="params"):
    """Physical parameters of an nRnC network."""

    resistances: tuple[float, ...]
    capacitances: tuple[float, ...]
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
        return {**super().to_dict(), "order": self.order}

    @classmethod
    def from_dict(cls, data):
        """Parse parameters; an optional "order" key must match the lumps.
        Anything malformed or impossible raises ParseError."""
        data = dict(read(dict, data, "params", ParseError))
        order = read(int | None, data.pop("order", None), "params.order", ParseError)
        params = super().from_dict(data)
        if order not in (None, params.order):
            raise ParseError(f"params.order is {order} for {params.order} lumps")
        return params


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
class DiffCoeffs(JsonFile, error=ShapeError, name="coeffs"):
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

    @property
    def root_radius(self):
        """Largest root modulus of z^n + e_1 z^{n-1} + ... + e_n: the
        equation is stable when it is below 1."""
        return root_radius(self.e)


def root_radius(a):
    """Largest root modulus of z^k + a_1 z^{k-1} + ... + a_k, and 0 when
    k = 0."""
    return float(np.abs(np.roots(np.concatenate([[1.0], a]))).max(initial=0.0))


def build_state_space(params):
    """Assemble the tridiagonal A and sparse B and Cm for an nRnC network.

    An R*C product that underflows to zero raises InvalidParameterError.
    """
    n = params.order
    r, c = params.resistances, params.capacitances
    # each R*C product that the rates below divide by: positive R and C can
    # still multiply to zero
    if 0.0 in [c[i] * r[j] for i in range(n) for j in (i, i + 1) if j < n]:
        raise InvalidParameterError("an R*C product underflows to zero")
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


def modal_form(ds):
    """(lam, v, v_inv) with Phi = v diag(lam) v_inv.

    An RC network's A is C^-1 K with K symmetric, so Phi = e^{A dt} has
    real, distinct eigenvalues in (0, 1); any other spectrum raises
    InvalidParameterError.
    """
    lam, v = np.linalg.eig(ds.phi)
    if np.iscomplexobj(lam) or not ((lam > 0) & (lam < 1)).all() \
            or len(np.unique(lam)) < len(lam):
        raise InvalidParameterError(f"Phi's eigenvalues are not real, distinct and "
                                    f"in (0, 1): {lam}")
    try:
        v_inv = np.linalg.inv(v)
    except np.linalg.LinAlgError:
        raise InvalidParameterError("Phi's eigenvectors are singular") from None
    return lam, v, v_inv


def all_pole_band(a, n):
    """a(B) = 1 + a_1 B + ... + a_k B^k over n steps, for all_pole.

    ``a`` is [1, a_1..a_k]. a(B) is the n-by-n unit lower-triangular banded
    Toeplitz matrix L with a_i on its i-th subdiagonal. The band is L's
    transpose in BLAS upper band storage, (k+1, n): every column is a
    reversed, with the unit diagonal last. dtbtrs never reads that diagonal,
    so it is left unset.
    """
    band = np.empty((n, len(a)))
    # a column at a time: a broadcast band[:] = a runs an inner loop of only
    # k+1 entries per row, and takes several times as long
    for i in range(len(a) - 1):
        band[:, i] = a[-1 - i]
    return band.T


def all_pole(band, x, adjoint=False):
    """x / a(B) from rest, for ``band`` = all_pole_band(a, len(x)).

    The forward solve L y = x is the recursion
    y_t = x_t - a_1 y_{t-1} - ... - a_k y_{t-k}; ``adjoint`` solves L^T y = x,
    the same recursion run backwards in time. As L^T is the stored matrix,
    the forward solve is the transposed form of LAPACK's dtbtrs, whose step
    is a k-term dot product (the adjoint's step is an axpy, which is slower).
    It solves a column at a time: a 1-D ``x`` is one column, and the columns
    of a 2-D ``x`` are best contiguous, as in a Fortran-ordered array.
    """
    cols = x if np.ndim(x) == 2 else np.reshape(x, (-1, 1))
    y = dtbtrs(band, cols, uplo="U", trans="N" if adjoint else "T", diag="U")[0]
    return y if np.ndim(x) == 2 else y[:, 0]


def filter_modes(modes, out_row, x0, u, b_now, b_next):
    """y_t = out_row . x_t for x_{t+1} = Phi x_t + b_now u_t + b_next u_{t+1}
    from x_0 = x0, with Phi's ``modes`` from modal_form.

    Each mode z = v_inv x is one first-order all-pole filter, with its initial
    state lam z_0 added to the first drive; u is (steps, k) against (n, k)
    input matrices.
    """
    lam, v, v_inv = modes
    z0 = v_inv @ x0
    out = out_row @ v
    now, nxt = v_inv @ b_now, v_inv @ b_next
    y = np.zeros(len(u))
    y[:1] = out @ z0
    for i in range(len(lam)):
        drive = u[1:] @ nxt[i]
        drive += u[:-1] @ now[i]
        drive[:1] += lam[i] * z0[i]
        z = all_pole(all_pole_band([1.0, -lam[i]], len(drive)), drive)
        z *= out[i]
        y[1:] += z
    return y


def simulate_state_space(ds, ss, u, x0):
    """Roll the discrete state recursion forward; one output per input row.

    x_{t+1} = Phi x_t + (Gamma1 - Gamma2) u_t + Gamma2 u_{t+1}; y_t = Cm x_t,
    filtered per mode of Phi (filter_modes). An output that overflows raises
    DataError.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[1] != 3:
        raise ShapeError(f"inputs must be (steps, 3), got {u.shape}")
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape[0] != ds.order:
        raise ShapeError(f"x0 must have {ds.order} entries, got {x.shape[0]}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        y = filter_modes(modal_form(ds), ss.cm[0], x, u, ds.gamma1 - ds.gamma2, ds.gamma2)
    if not np.isfinite(y).all():
        raise DataError("the simulated output overflows")
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

    # y_t + e_1 y_{t-1} + ... + e_n y_{t-n} = s_0 . u_t + ... + s_n . u_{t-n}
    # + offset for t >= n; the lags of its first n rows that fall in y_init
    # move to the right-hand side
    m = len(u)
    rhs = sum(u[n - i:m - i] @ dc.s[i] for i in range(n + 1)) + dc.offset
    past = y_init[::-1]
    for j in range(min(n, len(rhs))):
        rhs[j] -= dc.e[j:] @ past[:n - j]
    y = np.empty(m)
    y[:n] = y_init
    y[n:] = all_pole(all_pole_band(np.concatenate([[1.0], dc.e]), len(rhs)), rhs)
    return y


def initial_state(params, t_in0, t_out0):
    """Simulation initial state: unobservable envelope lumps start at the
    mean of the first indoor and outdoor readings; interior lump at t_in0."""
    n = params.order
    x0 = np.full(n, 0.5 * (t_in0 + t_out0))
    x0[n - 1] = t_in0
    return x0
