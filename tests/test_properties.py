"""Property tests over random channel mixes: the dense engine matches the
exponential of the vectorized master equation, the dense and population
engines agree, the trace holds, the dense state stays positive, pure
d-photon loss conserves the mass of each class of n mod d, the engines
and the long-time prediction read one loss table, and doubling the samples
of a grid agrees with stepping through it. Over random states near the
positivity limit, the recorder's Cholesky gate decides as eigvalsh does. A
coherent state's populations are the same bits from its amplitudes as from
its density matrix. The exponential of a random block upper-triangular
matrix, built strip by strip, matches scipy's."""

import re

import numpy as np
import pytest
import scipy.linalg as sla

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import fockdamp as fd  # noqa: E402
from conftest import (  # noqa: E402
    install_recorder,
    lindblad_superoperator,
    matrix_samples,
    random_density,
    states_with_lowest,
    stripe_min_eigenvalues,
)
from fockdamp import dynamics  # noqa: E402
from fockdamp.analysis import POSITIVITY_LIMIT  # noqa: E402
from fockdamp.channels import (  # noqa: E402
    linear_loss,
    nonlinear_loss,
    three_photon_loss,
    two_photon_loss,
)
from fockdamp.dynamics import _stripe_index, stripe_generators  # noqa: E402
from fockdamp.integrate import EXACT, _strips, expm, integrate  # noqa: E402

GRID = np.linspace(0.0, 3.0, 7)
CHANNELS = (nonlinear_loss, linear_loss, two_photon_loss, three_photon_loss)
PROPS = settings(derandomize=True, deadline=None, max_examples=20)

rate = st.one_of(st.just(0.0), st.floats(0.05, 1.0))
mixes = st.lists(rate, min_size=4, max_size=4).filter(any)


def _coherent(alpha, nmax):
    return fd.coherent_density(alpha, fd.FockCutoff(nmax), tail_tol=1.0)


@PROPS
@given(
    rates=mixes,
    kerr=st.floats(0.0, 2.0),
    nmax=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_dense_matches_the_vectorized_expm(rates, kerr, nmax, seed):
    cut, kerr = fd.FockCutoff(nmax), fd.KerrTerm(kerr)
    channels = [
        make(r) for make, r in zip(CHANNELS, rates) if r > 0.0 and make(r).annihilation_power <= nmax
    ]
    rho0 = random_density(cut.dim, seed)
    series, final = fd.evolve(rho0, channels, kerr, GRID)
    lsup = lindblad_superoperator(channels, kerr, cut)
    exact = np.array([sla.expm(lsup * t) @ rho0.entries.reshape(-1) for t in GRID])
    exact = exact.reshape(GRID.size, cut.dim, cut.dim)
    pops = np.diagonal(exact, axis1=1, axis2=2).real
    assert np.max(np.abs(series.populations - pops)) <= 1e-12
    assert np.max(np.abs(final.entries - exact[-1])) <= 1e-12


@PROPS
@given(
    rates=mixes,
    alpha=st.floats(0.3, 2.0),
    kerr=st.floats(0.0, 2.0),
    nmax=st.integers(6, 14),
)
def test_dense_matches_pauli_and_keeps_trace(rates, alpha, kerr, nmax):
    channels = [make(r) for make, r in zip(CHANNELS, rates) if r > 0.0]
    rho0 = _coherent(alpha, nmax)
    dense, _ = fd.evolve(rho0, channels, fd.KerrTerm(kerr), GRID)
    pauli = fd.evolve_populations(rho0.populations(), channels, GRID)
    assert np.max(np.abs(dense.populations - pauli.populations)) <= 1e-8
    assert dense.trace_err.max() <= 1e-8
    assert pauli.trace_err.max() <= 1e-8


@PROPS
@given(
    rates=mixes,
    alpha=st.complex_numbers(min_magnitude=0.3, max_magnitude=2.0),
    kerr=st.floats(0.0, 5.0),
    nmax=st.integers(6, 14),
)
def test_dense_state_stays_positive(rates, alpha, kerr, nmax):
    channels = [make(r) for make, r in zip(CHANNELS, rates) if r > 0.0]
    # hypothesis rejects function-scoped fixtures, so the recorder is patched here
    with pytest.MonkeyPatch.context() as mp:
        lowest = install_recorder(mp, dynamics, stripe_min_eigenvalues)
        _, final = fd.evolve(_coherent(alpha, nmax), channels, fd.KerrTerm(kerr), GRID)
    assert len(lowest) == GRID.size and min(lowest) >= -1e-10
    assert np.linalg.eigvalsh(final.entries)[0] >= -1e-10


@PROPS
@given(
    d=st.sampled_from((2, 3)),
    rate=st.floats(0.05, 1.0),
    alpha=st.floats(0.3, 2.0),
    nmax=st.integers(6, 14),
)
def test_pure_d_photon_loss_conserves_classes(d, rate, alpha, nmax):
    loss = two_photon_loss if d == 2 else three_photon_loss
    p0 = _coherent(alpha, nmax).populations()
    pops = fd.evolve_populations(p0, [loss(rate)], GRID).populations
    for r in range(d):
        assert np.max(np.abs(pops[:, r::d].sum(axis=1) - p0[r::d].sum())) <= 1e-8


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    rates=mixes,
    kerr=st.one_of(st.just(0.0), st.floats(0.1, 3.0)),
    alpha=st.floats(0.3, 2.0),
    nmax=st.integers(3, 12),
    size=st.integers(2, 300),
    step=st.floats(0.005, 0.5),
)
def test_doubling_matches_stepping(rates, kerr, alpha, nmax, size, step):
    channels = [make(r) for make, r in zip(CHANNELS, rates) if r > 0.0]
    stack = stripe_generators(channels, fd.KerrTerm(kerr), nmax)
    b, r, k, l = _stripe_index(nmax + 1)
    y0 = np.zeros(stack.shape[:2], dtype=stack.dtype)
    values = _coherent(alpha, nmax).entries[k, l]
    y0[b, r] = values if np.iscomplexobj(stack) else values.real
    t_grid = step * np.arange(size)
    blocks = []
    integrate(
        lambda h: expm(stack * h), y0, t_grid, EXACT,
        post_accept=lambda start, ys: blocks.append((start, ys.copy())),
    )
    prop = expm(stack * (t_grid[1] - t_grid[0]))
    stepped = [y0]
    for _ in range(1, size):
        stepped.append(np.matmul(prop, stepped[-1][..., None])[..., 0])
    starts = list(range(0, size, 32))
    assert [(start, len(ys)) for start, ys in blocks] == [(s, min(32, size - s)) for s in starts]
    samples = np.concatenate([ys for _, ys in blocks])
    assert np.max(np.abs(samples - np.array(stepped))) <= 1e-13
    # stripe 0, in block 0, holds the populations
    assert np.max(np.abs(samples[:, 0].real.sum(axis=1) - y0[0].real.sum())) <= 1e-13


@st.composite
def populations(draw):
    """A random population vector over 4..31 levels, summing to at most 1."""
    nmax = draw(st.integers(3, 30))
    w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=nmax + 1, max_size=nmax + 1)))
    return w / max(w.sum(), 1.0)


@PROPS
@given(rates=mixes, p0=populations(), kerr=st.floats(0.0, 2.0))
def test_engines_read_one_loss_table(rates, p0, kerr):
    channels = [make(r) for make, r in zip(CHANNELS, rates)]
    nmax = p0.size - 1
    gen = fd.population_generator(channels, nmax)
    diag = np.diag(gen)
    # columns conserve probability: what level n loses, lower levels gain
    assert np.max(np.abs(gen.sum(axis=0))) <= 1e-12 * np.max(np.abs(diag))
    # stripe 0 of the dense generator is the population cascade, bit for bit
    for strength in (0.0, kerr):
        assert np.array_equal(stripe_generators(channels, fd.KerrTerm(strength), nmax)[0], gen)
    # the long-time state keeps the total and lives on the dark levels
    pred = fd.steady_state_prediction(p0, channels).populations
    assert abs(pred.sum() - p0.sum()) <= 1e-12
    assert np.all(pred[diag != 0.0] == 0.0)
    t_end = 100.0 / np.abs(diag[diag != 0.0]).min()
    series = fd.evolve_populations(p0, channels, np.array([0.0, t_end]))
    assert np.max(np.abs(series.populations[-1] - pred)) <= 1e-9


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    n=st.integers(4, 41),
    complex_=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    lowest=st.lists(st.floats(-2e-8, 2e-9), min_size=1, max_size=4),
)
def test_positivity_gate_decides_as_eigvalsh(n, complex_, seed, lowest):
    # rank-deficient states whose smallest eigenvalue straddles the gate's
    # bound (-5e-9) and the limit (-1e-8)
    assert_gate_decides_as_eigvalsh(states_with_lowest(lowest, n, complex_, seed))


def assert_gate_decides_as_eigvalsh(states):
    """The recorder raises where eigvalsh finds a value below the limit, at
    the first such sample, and otherwise ends on eigvalsh's last value."""
    reference = np.linalg.eigvalsh(states)[:, 0]
    t = np.arange(len(states), dtype=float)
    samples = matrix_samples(t, states.shape[-1])
    bad = np.flatnonzero(reference < POSITIVITY_LIMIT)
    if bad.size:
        message = f"min eigenvalue {reference[bad[0]]:.3e} at t={t[bad[0]]:.6g} "
        with pytest.raises(fd.PositivityViolated, match=re.escape(message)):
            samples.add(0, states.reshape(len(t), -1))
    else:
        samples.add(0, states.reshape(len(t), -1))
        assert samples.min_eigenvalue == reference[-1]


def states_near_the_tail_bound(lowest, n, lead, tail, hidden, complex_, seed):
    """Unit-trace n x n Hermitian states, one per value of ``lowest``. The
    leading ``lead`` levels hold that eigenvalue (in the trailing levels
    instead when ``hidden``), zeros and, from level lead // 2, positive
    weights, in a random basis. The trailing levels hold
    eigenvalues up to ``tail`` times the gate's tail bound, 1.25e-9, and a
    rotation by an angle of that size mixes them with the leading ones, so
    the weight outside the leading block sits around the bound."""
    rng = np.random.default_rng(seed)
    scale = tail * 1.25e-9
    out = []
    for lam in lowest:
        spectrum = np.zeros(n)
        spectrum[lead:] = rng.uniform(0.0, scale / n, n - lead) * rng.integers(0, 2, n - lead)
        spectrum[lead if hidden else 0] = lam
        weights = rng.uniform(0.1, 1.0, lead - lead // 2)
        spectrum[lead // 2 : lead] = weights / weights.sum() * (1.0 - spectrum.sum())
        mix = np.zeros((n, n), dtype=complex if complex_ else float)
        mix[:lead, lead:] = rng.normal(size=(lead, n - lead))
        if complex_:
            mix[:lead, lead:] += 1j * rng.normal(size=(lead, n - lead))
        mix *= scale / np.linalg.norm(mix)
        basis = np.zeros((n, n), dtype=mix.dtype)
        for lo, hi in ((0, lead), (lead, n)):
            a = rng.normal(size=(hi - lo, hi - lo))
            if complex_:
                a = a + 1j * rng.normal(size=(hi - lo, hi - lo))
            basis[lo:hi, lo:hi] = np.linalg.qr(a)[0]
        q = sla.expm(mix - mix.conj().T) @ basis
        m = (q * spectrum) @ q.conj().T
        out.append(0.5 * (m + m.conj().T))
    return np.array(out)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    n=st.integers(6, 41),
    lead=st.integers(2, 5),
    complex_=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    lowest=st.lists(st.floats(-2e-8, 2e-9), min_size=1, max_size=4),
    tail=st.floats(0.1, 4.0),
    hidden=st.booleans(),
)
def test_the_split_gate_decides_as_eigvalsh(n, lead, complex_, seed, lowest, tail, hidden):
    # the gate factors only the leading levels when the weight outside them
    # is below its tail bound; whatever block it takes, it decides as eigvalsh
    assert_gate_decides_as_eigvalsh(
        states_near_the_tail_bound(lowest, n, lead, tail, hidden, complex_, seed)
    )


@PROPS
@given(
    re_=st.floats(-4.0, 4.0),
    im=st.floats(-4.0, 4.0),
    extra=st.integers(0, 8),
)
def test_a_pure_state_and_its_density_matrix_share_their_populations(re_, im, extra):
    # one formula: the products on the diagonal of np.outer(c, c.conj())
    alpha = complex(re_, im)
    cut = fd.FockCutoff(fd.min_cutoff_for_coherent(alpha).nmax + extra)
    pure = fd.coherent_state(alpha, cut).populations()
    assert np.array_equal(pure, fd.coherent_density(alpha, cut).populations())


@PROPS
@given(
    blocks=st.lists(st.integers(1, 30), min_size=1, max_size=6),
    stack=st.sampled_from([(), (1,), (3,)]),
    complex_=st.booleans(),
    triangular=st.booleans(),
    scale=st.floats(0.1, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
# the two-mode sector's strips at nmax_a = 12, nmax_b = 4, and a triangular stack of 100 levels
@example(blocks=[35, 45, 75], stack=(), complex_=False, triangular=False, scale=3.0, seed=1)
@example(blocks=[30] * 3 + [10], stack=(3,), complex_=True, triangular=True, scale=3.0, seed=2)
def test_expm_of_a_block_upper_triangular_matrix_matches_scipy(
    blocks, stack, complex_, triangular, scale, seed
):
    # from 64 levels on, expm splits such a matrix into strips of its blocks
    n = sum(blocks)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=stack + (n, n))
    if complex_:
        a = a + 1j * rng.normal(size=a.shape)
    block = np.repeat(np.arange(len(blocks)), blocks)
    a = np.where(block[:, None] <= block, a, 0.0) * (scale / np.sqrt(n))
    if triangular:
        a = np.triu(a)
    if blocks in ([35, 45, 75], [30] * 3 + [10]):
        assert _strips(a) == (triangular, [0, 35, 80, 155] if n == 155 else [0, 32, 64, 100])
    exact = sla.expm(a)
    assert np.max(np.abs(expm(a) - exact)) <= 1e-12 * np.max(np.abs(exact))
