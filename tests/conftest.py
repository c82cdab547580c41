"""Shared synthetic-data builders for the test suite."""

import os

# One BLAS thread, as perfbench pins: on short vectors, waking the other
# threads costs more than the sum they share. Set before numpy is imported;
# test_arimax_model_file_does_not_depend_on_the_blas_thread_count runs fits
# with two threads in subprocesses.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np
import pytest

from rctherm import rcnet
from rctherm.timeseries import RegressionDataset, SAMPLES_PER_DAY

#: A fast, well-conditioned 2R2C network: every difference-equation
#: coefficient has magnitude >= 0.01, so relative recovery checks are
#: numerically meaningful. Steady-state lifts are 45 degF (heat), 36 (cool).
FAST_2R2C = rcnet.RcParams((1.0, 2.0), (0.1, 0.2), 15.0, 12.0)


def random_params(rng, order):
    """Random valid RcParams with time constants comparable to the 300 s
    step (well-conditioned discrete dynamics)."""
    return rcnet.RcParams(
        resistances=tuple(rng.uniform(0.5, 3.0, size=order)),
        capacitances=tuple(rng.uniform(0.05, 0.5, size=order)),
        q_heat=rng.uniform(5.0, 20.0),
        q_cool=rng.uniform(5.0, 20.0),
    )


def random_fast_params(rng, order):
    """Random RcParams whose lump rates are near 1/step, balancing the two
    products that shrink with order (the instantaneous-feedthrough S entries
    and the trailing characteristic coefficient e_n) so every compound
    coefficient stays comfortably above float rounding noise and
    1e-9-relative comparisons are meaningful at every order up to 5."""
    rates = rng.uniform(4.0, 8.0, size=order)  # per hour; ~0.3-0.7 per step
    resistances = rng.uniform(0.3, 0.6, size=order)
    return rcnet.RcParams(
        resistances=tuple(resistances),
        capacitances=tuple(1.0 / (rates * resistances)),
        q_heat=rng.uniform(5.0, 20.0),
        q_cool=rng.uniform(5.0, 20.0),
    )


def random_slow_params(rng, order):
    """Random RcParams at domestic scale (time constants of hours), where a
    forward-Euler reference at 10^4 substeps stays within 1e-4 degF."""
    return rcnet.RcParams(
        resistances=tuple(rng.uniform(1.5, 4.0, size=order)),
        capacitances=tuple(rng.uniform(0.5, 3.0, size=order)),
        q_heat=rng.uniform(5.0, 20.0),
        q_cool=rng.uniform(5.0, 20.0),
    )


def random_inputs(rng, steps, heat_frac=0.35, cool_frac=0.25):
    """Richly exciting open-loop inputs: noisy sinusoidal outdoor profile
    and independent random binary duty signals."""
    t_out = (30.0 + 5.0 * np.sin(2 * np.pi * np.arange(steps) / SAMPLES_PER_DAY)
             + rng.normal(0.0, 2.0, steps))
    r = rng.random(steps)
    k_heat = (r < heat_frac).astype(float)
    k_cool = (r > 1.0 - cool_frac).astype(float)
    return np.column_stack([t_out, k_heat, k_cool])


def open_loop_dataset(dc, seed, noise_std=0.0, days=75):
    """RegressionDataset from a difference-equation roll-out under random
    open-loop excitation, plus optional output measurement noise."""
    rng = np.random.default_rng(seed)
    steps = days * SAMPLES_PER_DAY
    u = random_inputs(rng, steps)
    y = rcnet.simulate_difference(dc, u, np.full(dc.order, 70.0))
    if noise_std:
        y = y + rng.normal(0.0, noise_std, steps)
    n = dc.order
    cols = [u[n - i: steps - i] for i in range(n + 1)]
    cols += [y[n - i: steps - i, None] for i in range(1, n + 1)]
    return RegressionDataset(order=n, inputs=np.hstack(cols), targets=y[n:],
                             indices=np.arange(n, steps))


def split_by_day(ds, train_days):
    """Chronological split of a RegressionDataset at a day boundary."""
    cut = train_days * SAMPLES_PER_DAY
    mask = ds.indices < cut
    def sub(m):
        return RegressionDataset(order=ds.order, inputs=ds.inputs[m],
                                 targets=ds.targets[m], indices=ds.indices[m])
    return sub(mask), sub(~mask)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
