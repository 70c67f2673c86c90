import math

import numpy as np
import pytest

from nomajam.channel import (
    Geometry,
    default_geometry,
    draw_channels,
    path_loss,
)

# 10^-3.53 / 250^3.76 evaluated with 60-digit mpmath arithmetic.
PATH_LOSS_250 = 2.842795160196713e-13


def test_path_loss_unit_distance():
    assert path_loss(1.0) == pytest.approx(10.0 ** -3.53, rel=1e-15)


def test_path_loss_powers_of_ten():
    # exponents add: 3.53 + 3.76
    assert path_loss(10.0) == pytest.approx(10.0 ** -7.29, rel=1e-12)


def test_path_loss_at_250m_matches_high_precision_oracle():
    assert path_loss(250.0) == pytest.approx(PATH_LOSS_250, rel=1e-12)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        oracle = float(mp.mpf(10) ** mp.mpf("-3.53") / mp.mpf(250) ** mp.mpf("3.76"))
    assert path_loss(250.0) == pytest.approx(oracle, rel=1e-13)


@pytest.mark.parametrize("d", [0.0, -1.0, -250.0])
def test_path_loss_rejects_nonpositive_distance(d):
    with pytest.raises(ValueError):
        path_loss(d)


def test_path_loss_strictly_decreasing():
    rng = np.random.default_rng(0)
    for _ in range(200):
        d1, d2 = sorted(rng.uniform(0.1, 1e4, size=2))
        if d1 == d2:
            continue
        assert path_loss(d1) > path_loss(d2)


def test_geometry_rejects_zero_distance():
    with pytest.raises(ValueError):
        Geometry(jammer_position=250.0)  # on top of UE1


def test_geometry_rejects_nonfinite_noise():
    with pytest.raises(ValueError):
        Geometry(noise_power_db=math.inf)


def test_draw_channels_deterministic(geom):
    a = draw_channels(geom, seed=123)
    b = draw_channels(geom, seed=123)
    assert np.array_equal(a.gains, b.gains)
    c = draw_channels(geom, seed=124)
    assert not np.array_equal(a.gains, c.gains)


def test_realization_immutable(geom):
    ch = draw_channels(geom, seed=1)
    with pytest.raises(ValueError):
        ch.gains[0, 0] = 3.0


def test_fading_disabled_reduces_to_path_loss():
    # unit distances, unit noise: every gain is the bare large-scale factor
    geom = Geometry(
        user_positions=(1.0, 1.0, 1.0, 1.0),
        bs_positions=(0.0, 2.0),
        jammer_position=0.0,
        noise_power_db=0.0,
    )
    ch = draw_channels(geom, seed=0, fading=False)
    assert np.allclose(ch.gains, 10.0 ** -3.53, rtol=1e-14)


@pytest.mark.parametrize("geom", [
    default_geometry(),
    Geometry(user_positions=(13.7, 333.3, 612.9, 977.1), bs_positions=(-41.5, 700.25),
             jammer_position=1234.5, noise_power_db=-117.3),
])
def test_cached_large_scale_gives_the_per_element_gains(geom):
    # the per-draw expression the cache replaced: path_loss on each distance
    # as a Python float, times the fading draw, over the noise power
    loss = np.array([[path_loss(float(d)) for d in row] for row in geom.distances()])
    assert not geom.large_scale.flags.writeable
    for seed in (0, 1, 7, 2**40 + 3):
        f = np.random.default_rng(seed).exponential(scale=1.0, size=(4, 3))
        gains = draw_channels(geom, seed).gains
        assert gains.tobytes() == (loss * f / geom.noise_power).tobytes()
    unfaded = draw_channels(geom, 0, fading=False).gains
    assert unfaded.tobytes() == (loss * np.ones((4, 3)) / geom.noise_power).tobytes()


def test_unit_mean_fading_monte_carlo(geom):
    # mean over many seeds recovers L(d)/sigma^2 within 2% relative
    n = 100_000
    total = np.zeros((4, 3))
    for seed in range(n):
        total += draw_channels(geom, seed).gains
    mean = total / n
    expected = draw_channels(geom, seed=0, fading=False).gains
    assert np.all(np.abs(mean / expected - 1.0) < 0.02)


def test_default_geometry_distances():
    geom = default_geometry()
    d = geom.distances()
    assert d[0, 0] == 250.0 and d[1, 0] == 20.0
    assert d[2, 1] == 100.0 and d[3, 1] == 20.0
    assert geom.noise_power == pytest.approx(1e-14)
