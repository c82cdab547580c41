"""Unit tests for network assembly, discretization, and simulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter, lfiltic

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
    simulate_difference_lfilter,
    simulate_difference_loop,
    simulate_state_space_loop,
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
# The all-pole filter against scipy.signal.lfilter

@pytest.mark.parametrize("length", [0, 1, "k", 700])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_all_pole_matches_lfilter(rng, k, length):
    n = k if length == "k" else length
    a = np.poly(rng.uniform(-0.95, 0.95, k))  # [1, a_1..a_k], a stable filter
    x = rng.normal(size=n)
    band = rcnet.all_pole_band(a, n)
    forward = rcnet.all_pole(band, x)
    np.testing.assert_allclose(forward, lfilter([1.0], a, x), rtol=1e-12, atol=1e-12)
    # the adjoint runs the recursion backwards in time
    np.testing.assert_allclose(rcnet.all_pole(band, x, adjoint=True),
                               lfilter([1.0], a, x[::-1])[::-1], rtol=1e-12, atol=1e-12)
    assert forward.shape == (n,)
    if n == 0:  # an empty block of columns solves to an empty block
        for adjoint in (False, True):
            assert rcnet.all_pole(band, np.empty((0, 3)), adjoint=adjoint).shape == (0, 3)
    # an initial state: lfiltic's past-output terms added to the first k entries
    zi = lfiltic([1.0], a, rng.normal(size=k))
    seeded = x.copy()
    seeded[:k] += zi[:n]
    np.testing.assert_allclose(rcnet.all_pole(band, seeded), lfilter([1.0], a, x, zi=zi)[0],
                               rtol=1e-12, atol=1e-12)


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


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_simulate_state_space_matches_step_loop(rng, order):
    ss = rcnet.build_state_space(random_params(rng, order))
    ds = rcnet.discretize(ss, 300.0)
    u = random_inputs(rng, 2000)
    x0 = rng.uniform(40.0, 80.0, size=order)
    expected = simulate_state_space_loop(ds, ss, u, x0)
    # per-mode filtering sums in another order: 1e-9 degF over 2000 steps
    assert np.abs(rcnet.simulate_state_space(ds, ss, u, x0) - expected).max() < 1e-9


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


@pytest.mark.parametrize("steps", [2000, "n+1", "n+2"])
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_simulate_difference_matches_lfilter(rng, order, steps):
    steps = {"n+1": order + 1, "n+2": order + 2}.get(steps, steps)
    dc = rcnet.analytic_coefficients(random_fast_params(rng, order), 300.0)
    dc = rcnet.DiffCoeffs(order=dc.order, s=dc.s, e=dc.e, offset=-0.5)
    u = random_inputs(rng, steps)
    y_init = rng.uniform(60.0, 80.0, size=order)
    expected = simulate_difference_lfilter(dc, u, y_init)
    assert np.abs(rcnet.simulate_difference(dc, u, y_init) - expected).max() < 1e-9


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([random_params, random_slow_params, random_fast_params]),
       st.integers(min_value=1, max_value=rcnet.MAX_ORDER),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_rc_networks_have_real_distinct_modes_in_the_unit_interval(make_params, order, seed):
    ds = rcnet.discretize(rcnet.build_state_space(
        make_params(np.random.default_rng(seed), order)), 300.0)
    eigenvalues = np.linalg.eigvals(ds.phi)
    assert np.isrealobj(eigenvalues)
    assert ((eigenvalues > 0) & (eigenvalues < 1)).all()
    assert len(np.unique(eigenvalues)) == order
    lam, v, v_inv = rcnet.modal_form(ds)
    assert np.isrealobj(lam) and np.isrealobj(v) and np.isrealobj(v_inv)
    assert v @ np.diag(lam) @ v_inv == pytest.approx(ds.phi, abs=1e-12)


@pytest.mark.parametrize("phi", [
    [[0.9, -0.2], [0.2, 0.9]],  # a rotation: complex modes
    [[0.5, 0.0], [0.0, 0.5]],  # a repeated mode
    [[1.2, 0.0], [0.0, 0.5]],  # an unstable mode
    [[-0.3, 0.0], [0.0, 0.5]],  # an oscillating mode
])
def test_modal_form_rejects_a_non_rc_spectrum(phi):
    ds = rcnet.DiscretizedSystem(phi=np.array(phi), gamma1=np.zeros((2, 3)),
                                 gamma2=np.zeros((2, 3)))
    with pytest.raises(InvalidParameterError):
        rcnet.modal_form(ds)


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


def test_equilibrium_is_fixed_point():
    p = FAST_2R2C
    ss = rcnet.build_state_space(p)
    ds = rcnet.discretize(ss, 300.0)
    t_eq = 30.0 + p.q_heat * sum(p.resistances)  # the heat flux across every R
    # with heating on, every lump settles between T_out and T_in
    u = np.tile([30.0, 1.0, 0.0], (2000, 1))
    y = rcnet.simulate_state_space(ds, ss, u, rcnet.initial_state(p, 70.0, 30.0))
    assert y[-1] == pytest.approx(t_eq, abs=1e-6)
