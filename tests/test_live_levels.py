"""Properties of the live levels. Every channel lowers, so each propagator
of the single-mode engines is upper-triangular: a level above the highest
one a start holds stays exactly +0.0, and ``integrate`` propagates only the
levels below it. These tests check, against SciPy's ``expm`` of the same
generator, that dropping the empty levels changes no sample beyond
rounding, that a non-triangular generator is still propagated whole, and
that the CSV writer, which writes empty trailing columns as literal zeros,
writes every value as "%.17g" does. Needs ``hypothesis``."""

import math

import numpy as np
import pytest
import scipy.linalg as sla

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import fockdamp as fd  # noqa: E402
from conftest import install_recorder  # noqa: E402
from fockdamp import cli, dynamics, pauli  # noqa: E402
from fockdamp.channels import (  # noqa: E402
    linear_loss,
    nonlinear_loss,
    three_photon_loss,
    two_photon_loss,
)
from fockdamp.dynamics import _stripe_index, stripe_generators  # noqa: E402
from fockdamp.fock import coherent_amplitudes  # noqa: E402
from fockdamp.integrate import EXACT, expm, integrate  # noqa: E402

CHANNELS = (nonlinear_loss, linear_loss, two_photon_loss, three_photon_loss)
PROPS = settings(derandomize=True, deadline=None, max_examples=25)

rate = st.one_of(st.just(0.0), st.floats(0.05, 1.0))
mixes = st.lists(rate, min_size=4, max_size=4).filter(any)
# up to 160 samples: past the first window of 128, where the held levels are found again
grids = st.tuples(st.integers(2, 160), st.floats(0.005, 0.5))


@st.composite
def small_starts(draw):
    """(amplitudes, top): a coherent state of small alpha cut at level top,
    or the Fock state |top>, as amplitudes over levels 0..nmax, nmax 10..22,
    +0.0 above top."""
    nmax = draw(st.integers(10, 22))
    top = draw(st.integers(0, 5))
    c = np.zeros(nmax + 1, dtype=complex)
    if draw(st.booleans()):
        alpha = draw(st.complex_numbers(min_magnitude=0.05, max_magnitude=0.8))
        c[: top + 1] = coherent_amplitudes(alpha, fd.FockCutoff(max(top, 1)))[: top + 1]
    else:
        c[top] = 1.0
    return c, top


def _channels(rates):
    return [make(r) for make, r in zip(CHANNELS, rates) if r > 0.0]


def _assert_matches(samples, exact):
    assert np.max(np.abs(samples - exact)) <= 1e-13 * np.max(np.abs(exact))


def _assert_positive_zero(a):
    a = np.asarray(a)
    for part in (a.real, a.imag) if a.dtype.kind == "c" else (a,):
        assert np.all(part == 0.0) and not np.signbit(part).any()


@settings(derandomize=True, deadline=None, max_examples=12)  # SciPy's expm takes ~1 ms a block
@given(
    rates=mixes,
    kerr=st.one_of(st.just(0.0), st.floats(0.1, 3.0)),
    start=small_starts(),
    grid=grids,
)
def test_the_dense_engine_drops_only_empty_levels(rates, kerr, start, grid):
    c, top = start
    nmax, (size, step) = c.size - 1, grid
    t_grid = step * np.arange(size)
    rho = np.zeros((nmax + 1, nmax + 1), dtype=complex)  # +0.0 outside the support
    rho[: top + 1, : top + 1] = np.outer(c[: top + 1], c[: top + 1].conj())
    rho0 = fd.DensityMatrix(rho, trace_deficit=1.0 - np.trace(rho).real)
    channels = _channels(rates)
    with pytest.MonkeyPatch.context() as mp:
        states = install_recorder(mp, dynamics)
        series, final = fd.evolve(rho0, channels, fd.KerrTerm(kerr), t_grid)
    states = np.array(states)
    stack = stripe_generators(channels, fd.KerrTerm(kerr), nmax)
    b, r, k, l = _stripe_index(nmax + 1)
    y0 = np.zeros(stack.shape[:2], dtype=complex)
    y0[b, r] = rho[k, l]
    exact = (sla.expm(stack * t_grid[:, None, None, None]) @ y0[..., None])[..., 0]
    _assert_matches(states, exact)
    _assert_matches(series.populations, exact[:, 0].real)
    # the rows above top, in every block, are never propagated; an element
    # (k, l), k <= l, reaches level l, and any with l > top is zero, though
    # under Kerr a rotated product with a held zero may give it the sign -0.0
    _assert_positive_zero(states[:, :, top + 1 :])
    assert np.all(states[:, b[l > top], r[l > top]] == 0.0)
    _assert_positive_zero(series.populations[:, top + 1 :])
    _assert_positive_zero(final.entries[top + 1 :])
    _assert_positive_zero(final.entries[:, top + 1 :])


@PROPS
@given(
    rate_sets=st.lists(mixes, min_size=1, max_size=3),
    starts=st.lists(small_starts(), min_size=3, max_size=3),
    nmax=st.integers(10, 30),
    grid=grids,
)
def test_the_pauli_engine_drops_only_empty_levels(rate_sets, starts, nmax, grid):
    size, step = grid
    t_grid = step * np.arange(size)
    p0s, tops = [], []
    for c, top in starts[: len(rate_sets)]:
        p = np.zeros(nmax + 1)
        p[: top + 1] = np.abs(c[: top + 1]) ** 2
        p0s.append(p)
        tops.append(top)
    channel_sets = [_channels(rates) for rates in rate_sets]
    series = list(pauli.evolve_population_batch(p0s, channel_sets, t_grid))
    for s, p0, channels, top in zip(series, p0s, channel_sets, tops):
        gen = fd.population_generator(channels, nmax)
        exact = (sla.expm(gen * t_grid[:, None, None]) @ p0[:, None])[..., 0]
        _assert_matches(s.populations, exact)
        _assert_positive_zero(s.populations[:, top + 1 :])


@PROPS
@given(
    strength=st.floats(0.1, 1.0),
    kappa=st.floats(0.0, 1.0),
    nmax=st.integers(6, 20),
    top=st.integers(0, 3),
    grid=grids,
)
def test_a_non_triangular_generator_is_propagated_whole(strength, kappa, nmax, top, grid):
    # a driven, damped mode's amplitudes: the drive raises as well as lowers,
    # so the levels above the start fill, as expm fills them
    size, step = grid
    t_grid = step * np.arange(size)
    a = fd.annihilation_matrix(fd.FockCutoff(nmax))
    gen = -1j * strength * (a + a.conj().T) - 0.5 * kappa * a.conj().T @ a
    c0 = np.zeros(nmax + 1, dtype=complex)
    c0[top] = 1.0
    blocks = []
    integrate(
        lambda h: expm(gen * h), c0, t_grid, EXACT,
        post_accept=lambda start, ys: blocks.append(ys.copy()),
    )
    samples = np.concatenate(blocks)
    exact = (sla.expm(gen * t_grid[:, None, None]) @ c0[:, None])[..., 0]
    _assert_matches(samples, exact)
    assert np.all(samples[1:, top + 1] != 0.0)


specials = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2e-308, 1e300])
values = st.one_of(specials, st.floats(allow_nan=True, allow_infinity=True))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    rows=st.integers(1, 300),
    width=st.integers(1, 8),
    zeros=st.integers(0, 8),
    cells=st.lists(st.tuples(st.integers(0, 299), st.integers(0, 15), values), max_size=40),
    tail_cells=st.lists(st.tuples(st.integers(0, 299), st.integers(0, 7), specials), max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_csv_writer_writes_every_value_as_percent_17g(
    tmp_path_factory, rows, width, zeros, cells, tail_cells, seed
):
    # random columns, then a run of +0.0 columns, with special values
    # scattered over both and a few in the run: -0.0, nan, inf or a
    # subnormal in a trailing column must still be formatted
    rng = np.random.default_rng(seed)
    table = np.zeros((rows, width + zeros))
    scale = 10.0 ** rng.integers(-300, 300, (rows, width))
    table[:, :width] = rng.normal(size=(rows, width)) * scale
    for i, j, v in cells:
        table[i % rows, j % table.shape[1]] = v
    for i, j, v in tail_cells:
        if zeros:
            table[i % rows, width + j % zeros] = v
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    header = [f"c{j}" for j in range(table.shape[1])]
    cli._write_csv(path, header, table[:, 0], table[:, 1:])
    expected = ",".join(header) + "\n" + "".join(
        ",".join("%.17g" % x for x in row) + "\n" for row in table.tolist()
    )
    assert path.read_bytes() == expected.encode()
