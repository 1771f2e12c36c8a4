import math

import numpy as np
import pytest
import scipy.linalg as sla

from fockdamp.errors import StepSizeUnderflow, TraceDriftExceeded
from fockdamp.integrate import IntegratorConfig, cascade_window, integrate


def test_scalar_exponential_decay():
    samples = {}
    integrate(
        lambda y: -y,
        np.array([1.0]),
        np.linspace(0, 4, 9),
        IntegratorConfig(abs_tol=1e-12, rel_tol=1e-10),
        on_sample=lambda i, t, y: samples.update({t: y[0]}),
    )
    for t, v in samples.items():
        assert abs(v - math.exp(-t)) < 1e-9


def test_linear_system_matches_expm():
    rng = np.random.default_rng(0)
    r = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    a = r - 2.0 * np.linalg.norm(r) * np.eye(6)  # strongly stable
    y0 = rng.normal(size=6) + 1j * rng.normal(size=6)
    t_end = 0.8
    y = integrate(
        lambda y: a @ y, y0, np.array([0.0, t_end]), IntegratorConfig(1e-12, 1e-10)
    )
    exact = sla.expm(a * t_end) @ y0
    assert np.max(np.abs(y - exact)) < 1e-8


def test_nan_rhs_underflows_step():
    def rhs(y):
        return np.array([float("nan")])

    with pytest.raises(StepSizeUnderflow):
        integrate(rhs, np.array([1.0]), np.array([0.0, 1.0]), IntegratorConfig())


def test_fixed_step_deterministic():
    cfg = IntegratorConfig(fixed_step=0.01)
    grid = np.linspace(0, 1, 5)
    outs = []
    for _ in range(2):
        rows = []
        integrate(
            lambda y: -2.0 * y,
            np.array([1.0, 0.5]),
            grid,
            cfg,
            on_sample=lambda i, t, y: rows.append(y.copy()),
        )
        outs.append(np.array(rows))
    assert np.array_equal(outs[0], outs[1])
    assert np.max(np.abs(outs[0][-1] - np.array([1.0, 0.5]) * math.exp(-2.0))) < 1e-9


def test_fixed_step_detects_divergence():
    # explicit step far beyond the stability limit of a stiff decay
    with pytest.raises(TraceDriftExceeded):
        integrate(
            lambda y: -1e5 * y,
            np.array([1.0]),
            np.array([0.0, 10.0]),
            IntegratorConfig(fixed_step=0.1),
        )


def test_grid_validation():
    with pytest.raises(ValueError):
        integrate(lambda y: -y, np.array([1.0]), np.array([0.0, 0.0]), IntegratorConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=-1e-8)
    with pytest.raises(ValueError):
        IntegratorConfig(fixed_step=0.0)


def _cascade(weights):
    # population cascade: level n decays at weights[n] and feeds level n - 1
    return -np.diag(weights) + np.diag(weights[1:], 1)


def _run_window(gen, p0, t_grid):
    h_cap, shrink = cascade_window(np.diag(gen), 1e-12)
    sizes = []
    y0, _ = shrink(p0, None)
    y = integrate(
        lambda y: gen[: y.size, : y.size] @ y,
        y0,
        t_grid,
        IntegratorConfig(1e-12, 1e-10),
        post_accept=shrink,
        on_sample=lambda i, t, y: sizes.append(y.size),
        h_cap_fn=h_cap,
    )
    return np.pad(y, (0, p0.size - y.size)), sizes


def test_cascade_window_drops_drained_top_level():
    # levels 4 and 5 drain at rates 16 and 25 and fall below the floor by t = 3
    gen = _cascade(np.arange(6.0) ** 2)
    p0 = np.full(6, 1 / 6)
    y, sizes = _run_window(gen, p0, np.array([0.0, 0.5, 3.0]))
    assert sizes[0] == 6 and sizes[-1] == 4
    assert np.max(np.abs(y - sla.expm(3.0 * gen) @ p0)) < 1e-10


def test_cascade_window_starts_fock_input_small():
    gen = _cascade(np.arange(6.0) ** 2)
    p0 = np.eye(6)[2]
    y, sizes = _run_window(gen, p0, np.array([0.0, 3.0]))
    assert sizes == [3, 3]
    assert np.max(np.abs(y - sla.expm(3.0 * gen) @ p0)) < 1e-10


def test_cascade_window_matrix_frontier_and_step_cap():
    diag = -np.add.outer(np.arange(4.0), np.arange(4.0))
    h_cap, shrink = cascade_window(diag, 1e-12)
    y = np.zeros((4, 4))
    y[0, 0], y[3, 0] = 1.0, 1e-20
    small, _ = shrink(y, None)
    assert small.shape == (2, 2)  # never below two levels
    assert h_cap(small) == 2.5 / 2.0
    y[0, 3] = 1e-6  # the frontier holds column 3 as well as row 3
    assert shrink(y, None)[0].shape == (4, 4)
    assert h_cap(y) == 2.5 / 6.0
