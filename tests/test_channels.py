import math

import numpy as np
import pytest

import fockdamp as fd
from fockdamp.channels import (
    JumpChannel,
    KerrTerm,
    linear_loss,
    lowering_amplitudes,
    lowering_weight,
    nonlinear_loss,
    three_photon_loss,
    two_photon_loss,
)

ALL_CHANNELS = [
    linear_loss(1.0),
    two_photon_loss(1.0),
    three_photon_loss(1.0),
    nonlinear_loss(1.0),
]


@pytest.mark.parametrize("channel", ALL_CHANNELS)
def test_amplitudes_match_operator_matrix(channel):
    # oracle: read the matrix elements straight off the operator product
    nmax = 12
    cut = fd.FockCutoff(nmax)
    L = fd.jump_matrix(channel, cut)
    amp = lowering_amplitudes(channel, nmax)
    d = channel.net_lowering
    for n in range(nmax + 1):
        expected = L[n - d, n].real if n - d >= 0 else 0.0
        assert abs(amp[n] - expected) < 1e-12


def test_weights_by_hand():
    assert lowering_weight(nonlinear_loss(1.0), 2) == 2.0  # 2*(2-1)^2
    assert lowering_weight(nonlinear_loss(1.0), 1) == 0.0
    assert lowering_weight(three_photon_loss(1.0), 5) == 60.0  # 5*4*3
    assert lowering_weight(linear_loss(1.0), 7) == 7.0
    assert lowering_weight(two_photon_loss(1.0), 4) == 12.0  # 4*3


@pytest.mark.parametrize("channel", ALL_CHANNELS + [JumpChannel(2, 5, 1.0)])
def test_weights_of_a_level_array_are_the_exact_products(channel):
    # reference in Python integers: n!/(n-k)! times (n-k+j)!/(n-k)!
    j, k = channel.creation_power, channel.annihilation_power
    levels = np.arange(-1, 60)
    exact = [math.perm(n, k) * math.perm(n - k + j, j) if n >= k else 0 for n in levels]
    weights = lowering_weight(channel, levels)
    np.testing.assert_array_equal(weights, np.array(exact, dtype=float))
    assert not np.signbit(weights).any()  # levels below k weigh +0.0
    assert [lowering_weight(channel, int(n)) for n in levels] == weights.tolist()


def test_channel_validation():
    with pytest.raises(ValueError):
        JumpChannel(1, 1, 1.0)  # does not lower
    with pytest.raises(ValueError):
        JumpChannel(0, 0, 1.0)
    with pytest.raises(ValueError):
        JumpChannel(0, 1, -0.5)
    with pytest.raises(ValueError):
        JumpChannel(0, 1, float("nan"))
    with pytest.raises(ValueError):
        JumpChannel(-1, 1, 1.0)


def test_standard_channel_powers():
    assert (linear_loss(1.0).creation_power, linear_loss(1.0).annihilation_power) == (0, 1)
    assert (two_photon_loss(1.0).creation_power, two_photon_loss(1.0).annihilation_power) == (0, 2)
    assert (three_photon_loss(1.0).creation_power, three_photon_loss(1.0).annihilation_power) == (0, 3)
    assert (nonlinear_loss(1.0).creation_power, nonlinear_loss(1.0).annihilation_power) == (1, 2)
    assert nonlinear_loss(1.0).net_lowering == 1


def test_kerr_validation():
    with pytest.raises(ValueError):
        KerrTerm(float("inf"))
    assert KerrTerm(0.0).strength == 0.0
