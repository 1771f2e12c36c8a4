import math

import numpy as np
import pytest
import scipy.linalg as sla

import fockdamp as fd
from conftest import population_oracle
from fockdamp import dynamics
from fockdamp.channels import linear_loss, nonlinear_loss, three_photon_loss, two_photon_loss
from fockdamp.cli import run_scenario
from fockdamp.dynamics import stripe_generators
from fockdamp.integrate import EXACT, _strips, expm, integrate
from fockdamp.pauli import population_generator
from fockdamp.scenario import parse_scenario, preset_scenarios


def propagate(gen, y0, t_grid):
    """The final state and every sampled state, gathered from the blocks."""
    blocks = []

    def post_accept(start, ys):
        assert start == sum(len(b) for b in blocks)
        blocks.append(ys.copy())

    y = integrate(lambda h: expm(gen * h), y0, t_grid, EXACT, post_accept=post_accept)
    return y, np.concatenate(blocks)


def test_scalar_exponential_decay():
    t_grid = np.linspace(0, 4, 9)
    _, samples = propagate(np.array([[-1.0]]), np.array([1.0]), t_grid)
    assert samples.shape == (9, 1)
    assert np.max(np.abs(samples[:, 0] - np.exp(-t_grid))) < 1e-14


def test_linear_system_matches_expm():
    rng = np.random.default_rng(0)
    r = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    a = r - 2.0 * np.linalg.norm(r) * np.eye(6)  # strongly stable
    y0 = rng.normal(size=6) + 1j * rng.normal(size=6)
    t_end = 0.8
    y, _ = propagate(a, y0, np.array([0.0, t_end]))
    exact = sla.expm(a * t_end) @ y0
    assert np.max(np.abs(y - exact)) < 1e-13


@pytest.mark.parametrize("scale", [0.01, 1.0, 10.0, 100.0])
def test_expm_on_random_complex_dense_matrix(scale):
    rng = np.random.default_rng(int(scale * 100))
    a = scale * (rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))) / math.sqrt(12)
    exact = sla.expm(a)
    assert np.max(np.abs(expm(a) - exact)) <= 1e-13 * max(1.0, np.max(np.abs(exact)))


def test_expm_refuses_a_phase_of_2_to_the_53_rad():
    # from 2^53 on, a double's spacing is 2 rad or more: the phase is noise.
    # Just below it the exponential is still formed (and exact on a diagonal)
    below = np.nextafter(2.0**53, 0.0)
    assert expm(np.array([[-1.0 + 1j * below]]))[0, 0] == np.exp(-1.0 + 1j * below)
    for phase in (2.0**53, -(2.0**53), 1e300):
        with pytest.raises(fd.GeneratorOverflow, match="at least 2\\^53"):
            expm(np.array([[-1.0, 0.0], [0.0, -1.0 + 1j * phase]]))
    assert expm(np.array([[-1e300]]))[0, 0] == 0.0  # a real argument has no phase


@pytest.mark.parametrize(
    "a, b",
    [(-1.0, -1.0), (-1.0, -1.0001), (-30.0, -0.5), (-0.1 + 20j, -0.3 - 5j), (-2.0 + 1j, -2.0 + 1j)],
)
def test_expm_triangular_two_by_two_closed_form(a, b):
    # exp([[a, c], [0, b]]) has c (e^b - e^a)/(b - a) above the diagonal, c e^a when a = b
    c = 1e6
    x = expm(np.array([[a, c], [0.0, b]]))
    upper = c * np.exp(a) * (1.0 if a == b else np.expm1(b - a) / (b - a))
    assert abs(x[0, 1] - upper) <= 1e-15 * abs(upper)
    assert x[0, 0] == np.exp(a) and x[1, 1] == np.exp(b) and x[1, 0] == 0.0


@pytest.mark.parametrize("u1", [0.0, 5.0])
def test_expm_matches_scipy_on_the_fig1_stripe_stack(u1):
    # fig1: nmax 40, step 0.5; the stiffest stripe decays at 6e4 per unit time
    stack = 0.5 * stripe_generators([nonlinear_loss(1.0)], fd.KerrTerm(u1), 40)
    assert np.iscomplexobj(stack) == (u1 != 0.0)
    assert np.abs(stack).sum(axis=-2).max() > 3e4
    assert np.max(np.abs(expm(stack) - sla.expm(stack))) <= 1e-14


@pytest.mark.parametrize("u1", [0.0, 5.0])
def test_expm_keeps_the_paired_stripes_apart_on_the_fig1_stack(u1):
    # each block pairs stripe b (rows < 41 - b) with stripe 41 - b; the
    # squarings must not leak between them, and each diagonal sub-block is the
    # exponential of its stripe alone
    stack = 0.5 * stripe_generators([nonlinear_loss(1.0)], fd.KerrTerm(u1), 40)
    prop = expm(stack)
    for b in range(1, len(stack)):
        split = 41 - b
        assert not np.any(prop[b, :split, split:]) and not np.any(prop[b, split:, :split])
        for rows in (slice(None, split), slice(split, None)):
            alone = sla.expm(stack[b, rows, rows])
            assert np.max(np.abs(prop[b, rows, rows] - alone)) <= 1e-14


def test_every_preset_stack_is_one_strip(monkeypatch):
    # the presets' stripe stacks have 41 levels, too few for two strips of
    # 32: expm takes each whole, with the exact triangular resets
    stacks = []
    monkeypatch.setattr(dynamics, "expm", lambda a: stacks.append(a) or expm(a))
    for which in ("fig1", "fig2"):
        for raw in preset_scenarios(which):
            run_scenario(parse_scenario(raw))
    assert len(stacks) == 6
    for stack in stacks:
        assert stack.shape[-1] == 41
        assert _strips(stack) == (True, [0, 41])
        for i in range(0, len(stack), 8):  # the matrices of one Pade evaluation
            assert _strips(stack[i : i + 8]) == (True, [0, 41])


def test_population_propagator_conserves_probability():
    # each column of a probability-conserving generator sums to zero, so each
    # column of its exponential sums to one; without the exact diagonal and
    # superdiagonal after each squaring the sums drift by ~1e-12
    channels = [nonlinear_loss(1.0), linear_loss(0.025), two_photon_loss(0.025)]
    gen = population_generator(channels, 40)
    assert np.max(np.abs(gen.sum(axis=0))) < 1e-9
    for h in (0.05, 0.5, 5.0):
        assert np.max(np.abs(expm(gen * h).sum(axis=0) - 1.0)) <= 1e-14


def _count_builds(t_grid):
    steps = []

    def propagator(h):
        steps.append(h)
        return expm(gen * h)

    gen = population_generator([nonlinear_loss(1.0)], 6)
    p0 = np.eye(7)[6]
    y = integrate(propagator, p0, t_grid, EXACT)
    assert np.max(np.abs(y - sla.expm(gen * t_grid[-1]) @ p0)) < 1e-12
    return len(steps)


def test_integrate_builds_once_on_a_uniform_grid():
    # np.linspace steps differ in the last bits; they share one propagator
    t_grid = np.linspace(0.0, 100.0, 2001)
    assert np.ptp(np.diff(t_grid)) > 0.0
    assert _count_builds(t_grid) == 1


def test_integrate_rebuilds_on_a_non_uniform_grid():
    # steps 0.1, 0.2, 0.1, 0.6: a new propagator whenever the step changes
    assert _count_builds(np.array([0.0, 0.1, 0.3, 0.4, 1.0])) == 4


def test_integrate_acts_blockwise_on_a_stack():
    rng = np.random.default_rng(3)
    gens = rng.normal(size=(3, 4, 4)) - 4.0 * np.eye(4)
    y0 = rng.normal(size=(3, 4))
    y, _ = propagate(gens, y0, np.array([0.0, 0.7]))
    for b in range(3):
        assert np.max(np.abs(y[b] - sla.expm(0.7 * gens[b]) @ y0[b])) < 1e-13


def test_grid_validation():
    with pytest.raises(ValueError):
        propagate(np.array([[-1.0]]), np.array([1.0]), np.array([0.0, 0.0]))


def test_population_generator_matches_the_level_rates():
    channels = [linear_loss(0.3), two_photon_loss(0.7), three_photon_loss(0.2), nonlinear_loss(1.1)]
    expected = population_oracle(channels, 9)
    np.testing.assert_allclose(population_generator(channels, 9), expected, rtol=1e-14, atol=0.0)


def _matvec(prop, y):
    return np.matmul(prop, y[..., None])[..., 0]


def doubled(prop, y0, n_samples, top):
    """The samples of a uniform grid as ``integrate`` forms them, for a state
    vector: windows of 128, each filled from the sample before it by one step,
    then by doubling (samples [j + f, j + 2f) are P^f times samples [j, j + f),
    P^(2f) = P^f P^f) up to the power ``top``, then in chunks of ``top``. A
    chunk of one sample is a matrix-vector product, a longer one a
    matrix-matrix product with the samples as rows."""
    powers = {1: prop}
    while max(powers) < top:
        f = max(powers)
        powers[2 * f] = powers[f] @ powers[f]
    samples = [y0]
    for start in range(0, n_samples, 128):
        run = []
        stop = min(start + 128, n_samples)
        if max(start, 1) < stop:
            run.append(_matvec(prop, samples[-1]))
        while max(start, 1) + len(run) < stop:
            f = min(top, 1 << (len(run).bit_length() - 1))
            m = min(f, stop - max(start, 1) - len(run))
            src = np.array(run[len(run) - f : len(run) - f + m])
            run += [_matvec(powers[f], src[0])] if m == 1 else list(src @ powers[f].T)
        samples += run
    return np.array(samples)


@pytest.mark.parametrize("complex_gen", [False, True])
@pytest.mark.parametrize("n_samples", [1, 6, 31, 32, 33, 65, 300])
def test_integrate_hands_every_sample_once_in_blocks_of_at_most_32(n_samples, complex_gen):
    # a real start under a complex generator: the block widens without losing sample 0
    gen = population_generator([nonlinear_loss(1.0)], 6)
    if complex_gen:
        gen = gen - 0.3j * np.diag(np.arange(7.0))
    p0 = np.eye(7)[6]
    t_grid = 0.05 * np.arange(n_samples)
    blocks = []
    y = integrate(
        lambda h: expm(gen * h), p0, t_grid, EXACT,
        post_accept=lambda start, ys: blocks.append((start, ys.copy())),
    )
    assert [start for start, _ in blocks] == list(range(0, n_samples, 32))
    sizes = [min(32, n_samples - start) for start in range(0, n_samples, 32)]
    assert [len(ys) for _, ys in blocks] == sizes
    prop = expm(gen * t_grid[1]) if n_samples > 1 else None
    stepwise = [p0]
    for _ in range(1, n_samples):
        stepwise.append(_matvec(prop, stepwise[-1]))
    samples = np.concatenate([ys for _, ys in blocks])
    assert samples.dtype == (np.complex128 if complex_gen and n_samples > 1 else np.float64)
    # the doubling's top power at 7 levels: 2^J with J * 7 <= n_samples, up to 64
    top = {1: 1, 6: 1, 31: 16, 32: 16, 33: 16, 65: 64, 300: 64}[n_samples]
    assert np.array_equal(samples, doubled(prop, p0, n_samples, top))
    assert np.array_equal(y, samples[-1])
    # the trace is 1; the doubled samples round differently from the stepped ones
    assert np.max(np.abs(samples - stepwise)) <= 1e-14
    if top == 1:
        assert np.array_equal(samples, stepwise)


def test_integrate_steps_the_two_mode_sector_size():
    # 175 levels over 41 samples: squaring would cost more than it saves, so
    # every sample is one step, bit for bit
    rng = np.random.default_rng(11)
    gen = np.triu(rng.normal(size=(175, 175))) - 20.0 * np.eye(175)
    prop = expm(0.01 * gen)
    y0 = rng.normal(size=175)
    _, samples = propagate(gen, y0, 0.01 * np.arange(41))
    stepwise = [y0]
    for _ in range(40):
        stepwise.append(_matvec(prop, stepwise[-1]))
    assert np.array_equal(samples, stepwise)


def _stepped(gen, y0, t_grid):
    """Plain stepping: one propagator per distinct step, one product per sample."""
    samples, props = [y0], {}
    for h in np.diff(t_grid):
        prop = props.setdefault(h, expm(gen * h))
        samples.append(_matvec(prop, samples[-1]))
    return np.array(samples)


@pytest.mark.parametrize(
    "steps",
    [
        [0.05] * 150 + [0.1] * 149,  # the step changes inside the second window
        [0.05] * 127 + [0.1] * 70 + [0.05] * 60,  # on a window edge, then back
        [0.05, 0.08] * 100,  # a new step at every sample
        [0.05] * 3 + [0.02] + [0.05] * 200,  # one short run early on
    ],
)
def test_integrate_restarts_the_doubling_where_the_step_changes(steps):
    built = []

    def propagator(h):
        built.append(h)
        return expm(gen * h)

    gen = population_generator([nonlinear_loss(1.0), linear_loss(0.1)], 8)
    p0 = np.eye(9)[8]
    t_grid = np.concatenate([[0.0], np.cumsum(steps)])
    changes = 1 + sum(a != b for a, b in zip(steps, steps[1:]))
    blocks = []
    y = integrate(
        propagator, p0, t_grid, EXACT,
        post_accept=lambda start, ys: blocks.append((start, ys.copy())),
    )
    assert len(built) == changes
    assert [start for start, _ in blocks] == list(range(0, t_grid.size, 32))
    samples = np.concatenate([ys for _, ys in blocks])
    assert np.max(np.abs(samples - _stepped(gen, p0, t_grid))) <= 1e-14
    assert np.max(np.abs(samples.sum(axis=1) - 1.0)) <= 1e-14
    assert np.array_equal(y, samples[-1])


def test_integrate_propagates_the_restricted_state():
    # the first two components span an invariant subspace of a
    rng = np.random.default_rng(6)
    a = rng.normal(size=(4, 4)) - 3.0 * np.eye(4)
    a[2:, :2] = 0.0
    y0 = rng.normal(size=4)
    y = integrate(
        lambda h: expm(a[:2, :2] * h), y0, np.array([0.0, 0.4]), EXACT, restrict=lambda v: v[:2]
    )
    assert np.max(np.abs(y - (sla.expm(0.4 * a) @ np.r_[y0[:2], 0.0, 0.0])[:2])) < 1e-14
