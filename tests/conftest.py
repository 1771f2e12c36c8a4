import functools

import numpy as np
import pytest

import fockdamp as fd
from fockdamp.analysis import Samples
from fockdamp.dynamics import _stripe_index


def install_recorder(monkeypatch, module, keep=np.copy):
    """Wrap ``module.integrate`` through ``monkeypatch`` and return the list
    that ``keep(ys)`` of every block of sampled states is appended to, one
    item per sample; by default a copy of each state."""
    states = []
    original = module.integrate

    def integrate(propagator, y0, t_grid, cfg, post_accept, **kwargs):
        def record(start, ys):
            assert start == len(states)
            states.extend(keep(ys))
            post_accept(start, ys)

        return original(propagator, y0, t_grid, cfg, post_accept=record, **kwargs)

    monkeypatch.setattr(module, "integrate", integrate)
    return states


@pytest.fixture
def record_samples(monkeypatch):
    """``record_samples(module)`` wraps ``module.integrate`` for the test and
    returns the list that a copy of every sampled state is appended to."""
    return functools.partial(install_recorder, monkeypatch)


def hermitian(rows, cols, values):
    """The stack of Hermitian matrices whose i-th has ``values[i, p]`` at
    ``(rows[p], cols[p])``, on or above the diagonal."""
    values = np.asarray(values)
    n = int(max(rows.max(), cols.max())) + 1
    out = np.zeros((len(values), n, n), dtype=values.dtype)
    out[:, rows, cols] = values
    out[:, cols, rows] = values.conj()
    return out


def stripe_min_eigenvalues(ys):
    """Smallest eigenvalue of each dense state in a block of paired stripe
    stacks (``dynamics.evolve``'s layout), from ``eigvalsh`` of its matrix."""
    b, r, k, l = _stripe_index(ys.shape[-1])
    return np.linalg.eigvalsh(hermitian(k, l, ys[:, b, r]))[:, 0]


def random_density(dim, seed):
    """A full-rank unit-trace density matrix with random complex coherences."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = m @ m.conj().T
    m /= np.trace(m).real
    return fd.DensityMatrix(0.5 * (m + m.conj().T))


# The operator-product oracle: built from annihilation_matrix and the state
# types only, never from the loss table or the cascade rule the engines share.


def fock_state(n, cutoff):
    """|n> over the truncated basis."""
    return fd.PureState(np.eye(cutoff.dim)[n])


def fock_density(n, cutoff):
    """|n><n| over the truncated basis."""
    return fd.DensityMatrix(np.diag(np.eye(cutoff.dim)[n]))


def jump_matrix(channel, cutoff):
    """(a^dag)^j a^k as an explicit operator product on the truncated basis."""
    a = fd.annihilation_matrix(cutoff)
    power = np.linalg.matrix_power
    return power(a.conj().T, channel.creation_power) @ power(a, channel.annihilation_power)


def lindblad_rhs(rho, channels, kerr=None):
    """d(rho)/dt from operator products; Hermitian and traceless by construction."""
    m = rho.entries if isinstance(rho, fd.DensityMatrix) else np.asarray(rho, dtype=np.complex128)
    cutoff = fd.FockCutoff(m.shape[0] - 1)
    out = np.zeros_like(m)
    for ch in channels:
        if ch.rate == 0.0:
            continue
        L = jump_matrix(ch, cutoff)
        Ld = L.conj().T
        LdL = Ld @ L
        out += ch.rate * (L @ m @ Ld - 0.5 * (LdL @ m + m @ LdL))
    if kerr is not None and kerr.strength != 0.0:
        n = np.arange(cutoff.dim)
        H = kerr.strength * np.diag(n * (n - 1.0))
        out += -1j * (H @ m - m @ H)
    return out


def lindblad_superoperator(channels, kerr, cutoff):
    """The generator on row-major vec(rho): column i is lindblad_rhs of basis matrix i."""
    d = cutoff.dim
    basis = np.eye(d * d).reshape(d * d, d, d)
    return np.stack([lindblad_rhs(e, channels, kerr).reshape(-1) for e in basis], axis=1)


def population_oracle(channels, nmax):
    """M of dp/dt = M p, levels 0..nmax: column n is the diagonal of lindblad_rhs(|n><n|)."""
    cutoff = fd.FockCutoff(nmax)
    columns = [np.diag(lindblad_rhs(fock_density(n, cutoff), channels)) for n in range(cutoff.dim)]
    return np.stack(columns, axis=1).real


ORACLE = (fock_state, fock_density, jump_matrix, lindblad_rhs, lindblad_superoperator,
          population_oracle)


def states_with_lowest(lowest, n, complex_, seed):
    """One unit-trace n x n Hermitian state per value of ``lowest``, with that
    smallest eigenvalue, n // 2 zero eigenvalues and the rest positive, in a
    random (unitary or orthogonal) basis; exactly Hermitian, so ``eigvalsh``
    reads the same matrix from either triangle."""
    rng = np.random.default_rng(seed)
    out = []
    for lam in lowest:
        a = rng.normal(size=(n, n))
        if complex_:
            a = a + 1j * rng.normal(size=(n, n))
        q, _ = np.linalg.qr(a)
        spectrum = np.zeros(n)
        spectrum[0] = lam
        weights = rng.uniform(0.1, 1.0, n - n // 2 - 1)
        spectrum[n // 2 + 1 :] = weights / weights.sum() * (1.0 - lam)
        m = (q * spectrum) @ q.conj().T
        out.append(0.5 * (m + m.conj().T))
    return np.array(out)


def matrix_samples(t_grid, n):
    """An ``analysis.Samples`` of unit-trace states stored as whole n x n
    matrices, flattened, with the positivity check on."""
    rows, cols = np.triu_indices(n)
    return Samples(t_grid, 1.0, upper=(rows, cols, rows * n + cols))
