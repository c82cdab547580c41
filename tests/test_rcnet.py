"""Unit tests for network assembly, discretization, and simulation."""

import numpy as np
import pytest

from conftest import (
    FAST_2R2C,
    random_fast_params,
    random_inputs,
    random_params,
    random_slow_params,
)
from oracles import (
    charpoly_eig_oracle,
    euler_foh_oracle,
    expm_series_oracle,
    gamma_series_oracle,
    s_interpolation_oracle,
    simulate_difference_loop,
)
from rctherm import rcnet
from rctherm.errors import InsufficientDataError, InvalidParameterError, ShapeError


# ---------------------------------------------------------------------------
# Parameters and state-space assembly

def test_rcparams_validation():
    with pytest.raises(InvalidParameterError):
        rcnet.RcParams((1.0,), (1.0, 2.0), 1.0, 1.0)  # count mismatch
    with pytest.raises(InvalidParameterError):
        rcnet.RcParams((1.0, -1.0), (1.0, 2.0), 1.0, 1.0)  # negative R
    with pytest.raises(InvalidParameterError):
        rcnet.RcParams((1.0,), (1.0,), -1.0, 1.0)  # negative flux
    with pytest.raises(InvalidParameterError):
        rcnet.RcParams(tuple([1.0] * 6), tuple([1.0] * 6), 1.0, 1.0)  # order > 5


def test_rcparams_roundtrip():
    p = FAST_2R2C
    assert rcnet.RcParams.from_dict(p.to_dict()) == p


def test_build_state_space_1r1c():
    p = rcnet.RcParams((2.0,), (3.0,), 12.0, 9.0)
    ss = rcnet.build_state_space(p)
    assert ss.a == pytest.approx(np.array([[-1.0 / 6.0]]))
    assert ss.b == pytest.approx(np.array([[1.0 / 6.0, 4.0, -3.0]]))
    assert ss.cm == pytest.approx(np.array([[1.0]]))


def test_build_state_space_structure(rng):
    for order in range(2, 6):
        p = random_params(rng, order)
        ss = rcnet.build_state_space(p)
        a, b = ss.a, ss.b
        # tridiagonal A
        assert np.allclose(np.triu(a, 2), 0.0) and np.allclose(np.tril(a, -2), 0.0)
        # energy balance: each row of A sums to zero once the T_out path
        # through B is included
        flows = a.sum(axis=1)
        flows[0] += b[0, 0]
        assert flows == pytest.approx(np.zeros(order), abs=1e-12)
        # HVAC flux enters only the interior lump
        assert np.allclose(b[:-1, 1:], 0.0)
        assert b[-1, 1] == pytest.approx(p.q_heat / p.capacitances[-1])
        assert b[-1, 2] == pytest.approx(-p.q_cool / p.capacitances[-1])
        assert ss.cm[0, -1] == 1.0 and np.allclose(ss.cm[0, :-1], 0.0)


# ---------------------------------------------------------------------------
# Discretization against series oracles

def test_matrix_exponential_series_oracle(rng):
    for order in (1, 3, 5):
        ss = rcnet.build_state_space(random_params(rng, order))
        phi = rcnet.matrix_exponential(ss.a, 300.0)
        oracle = expm_series_oracle(ss.a, 300.0 / 3600.0)
        assert phi == pytest.approx(oracle, rel=1e-12, abs=1e-14)


def test_matrix_exponential_rejects_bad_input():
    with pytest.raises(ShapeError):
        rcnet.matrix_exponential(np.zeros((2, 3)), 300.0)
    with pytest.raises(InvalidParameterError):
        rcnet.matrix_exponential(np.array([[np.nan]]), 300.0)


def test_discretize_gamma_series_oracle(rng):
    for order in (1, 2, 4):
        ss = rcnet.build_state_space(random_params(rng, order))
        ds = rcnet.discretize(ss, 300.0)
        dt = 300.0 / 3600.0
        gamma1 = gamma_series_oracle(ss.a, ss.b, dt)
        assert ds.gamma1 == pytest.approx(gamma1, rel=1e-11, abs=1e-13)
        # Gamma2 = (1/dt) integral_0^dt s e^{A (dt - s)} ds B; check it via
        # the identity A Gamma2 = Gamma1/dt - B used in reverse
        assert ss.a @ ds.gamma2 == pytest.approx(ds.gamma1 / dt - ss.b,
                                                 rel=1e-10, abs=1e-12)


def test_discretize_rejects_nonpositive_step():
    ss = rcnet.build_state_space(FAST_2R2C)
    with pytest.raises(InvalidParameterError):
        rcnet.discretize(ss, 0.0)


# ---------------------------------------------------------------------------
# Difference coefficients

def test_difference_coefficients_oracles(rng):
    for order in range(1, 6):
        ss = rcnet.build_state_space(random_fast_params(rng, order))
        ds = rcnet.discretize(ss, 300.0)
        dc = rcnet.difference_coefficients(ds, ss)
        e_oracle = charpoly_eig_oracle(ds.phi)
        s_oracle = s_interpolation_oracle(ds.phi, ds.gamma1, ds.gamma2, ss.cm)
        assert np.abs(dc.e - e_oracle).max() <= 1e-9 * np.abs(e_oracle).max()
        assert (np.abs(dc.s - s_oracle) <= 1e-9 * np.abs(s_oracle)).all()


def test_dc_gain_unity(rng):
    # a sustained T_out change passes through with unit gain
    for order in range(1, 6):
        dc = rcnet.analytic_coefficients(random_params(rng, order), 300.0)
        assert dc.s[:, 0].sum() == pytest.approx(1.0 + dc.e.sum(), rel=1e-9)


def test_diffcoeffs_roundtrip_and_validation():
    dc = rcnet.analytic_coefficients(FAST_2R2C, 300.0)
    assert rcnet.DiffCoeffs.from_json(dc.to_json()).s == pytest.approx(dc.s)
    with pytest.raises(ShapeError):
        rcnet.DiffCoeffs(order=2, s=np.zeros((2, 3)), e=np.zeros(2))
    with pytest.raises(ShapeError):
        rcnet.DiffCoeffs(order=2, s=np.zeros((3, 3)), e=np.zeros(3))


def test_difference_coefficients_order_mismatch():
    ss = rcnet.build_state_space(FAST_2R2C)
    ds = rcnet.discretize(ss, 300.0)
    other = rcnet.build_state_space(rcnet.RcParams((1.0,), (1.0,), 1.0, 1.0))
    with pytest.raises(ShapeError):
        rcnet.difference_coefficients(ds, other)


# ---------------------------------------------------------------------------
# Simulation

def test_simulators_agree(rng):
    p = random_params(rng, 3)
    ss = rcnet.build_state_space(p)
    ds = rcnet.discretize(ss, 300.0)
    dc = rcnet.difference_coefficients(ds, ss)
    u = random_inputs(rng, 500)
    x0 = rng.uniform(40.0, 80.0, size=3)
    y_ss = rcnet.simulate_state_space(ds, ss, u, x0)
    y_dc = rcnet.simulate_difference(dc, u, y_ss[:3])
    assert y_dc == pytest.approx(y_ss, abs=1e-9)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_simulate_difference_matches_step_loop(rng, order):
    p = random_params(rng, order)
    ss = rcnet.build_state_space(p)
    dc = rcnet.difference_coefficients(rcnet.discretize(ss, 300.0), ss)
    dc = rcnet.DiffCoeffs(order=dc.order, s=dc.s, e=dc.e, offset=0.25)
    u = random_inputs(rng, 2000)
    y_init = rng.uniform(60.0, 80.0, size=order)
    expected = simulate_difference_loop(dc, u, y_init)
    # filtering sums in another order: agreement to 1e-9 degF over 2000 steps
    assert np.abs(rcnet.simulate_difference(dc, u, y_init) - expected).max() < 1e-9


def test_simulate_against_fine_euler(rng):
    p = random_slow_params(rng, 2)
    ss = rcnet.build_state_space(p)
    ds = rcnet.discretize(ss, 300.0)
    u = random_inputs(rng, 288)
    x0 = rcnet.initial_state(p, 70.0, u[0, 0])
    y = rcnet.simulate_state_space(ds, ss, u, x0)
    y_euler = euler_foh_oracle(ss.a, ss.b, ss.cm, u, x0, 300.0 / 3600.0, 10_000)
    assert np.abs(y - y_euler).max() < 1e-4


def test_simulate_input_validation():
    ss = rcnet.build_state_space(FAST_2R2C)
    ds = rcnet.discretize(ss, 300.0)
    dc = rcnet.difference_coefficients(ds, ss)
    with pytest.raises(ShapeError):
        rcnet.simulate_state_space(ds, ss, np.zeros((5, 2)), np.zeros(2))
    with pytest.raises(ShapeError):
        rcnet.simulate_state_space(ds, ss, np.zeros((5, 3)), np.zeros(3))
    with pytest.raises(InsufficientDataError):
        rcnet.simulate_difference(dc, np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(InsufficientDataError):
        rcnet.simulate_difference(dc, np.zeros((5, 3)), np.zeros(1))


def test_steady_state():
    p = rcnet.RcParams((2.0, 1.0), (1.0, 1.0), 10.0, 8.0)
    assert rcnet.steady_state(p, 30.0, 1, 0) == pytest.approx(60.0)
    assert rcnet.steady_state(p, 90.0, 0, 1) == pytest.approx(66.0)
    assert rcnet.steady_state(p, 50.0, 0, 0) == pytest.approx(50.0)


def test_equilibrium_is_fixed_point():
    p = FAST_2R2C
    ss = rcnet.build_state_space(p)
    ds = rcnet.discretize(ss, 300.0)
    t_eq = rcnet.steady_state(p, 30.0, 1, 0)
    # with heating on, every lump settles between T_out and T_in
    u = np.tile([30.0, 1.0, 0.0], (2000, 1))
    y = rcnet.simulate_state_space(ds, ss, u, rcnet.initial_state(p, 70.0, 30.0))
    assert y[-1] == pytest.approx(t_eq, abs=1e-6)
