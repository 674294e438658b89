"""Lens/shutter geometry: the minimum separation and angle."""

import math

import numpy as np
import pytest

from shuttervlc.geometry import (InvalidSetupError, OpticalSetup, min_angle,
                                 min_separation)

PROTO = dict(d=0.036, S1=0.155, BFL=0.0375)


def test_prototype_separation_and_angle():
    setup = OpticalSetup(**PROTO)
    assert min_separation(setup) * 100 == pytest.approx(14.88, abs=0.005)
    assert min_angle(setup) == pytest.approx(51.2, abs=0.1)


def test_separation_matches_image_scale_oracle():
    # independent check: two emitters separated by exactly h must image
    # exactly one pixel pitch apart (similar-triangles magnification)
    rng = np.random.default_rng(42)
    for _ in range(100):
        d = rng.uniform(0.001, 0.1)
        bfl = rng.uniform(0.01, 0.2)
        s1 = bfl * rng.uniform(1.5, 20.0)
        setup = OpticalSetup(d=d, S1=s1, BFL=bfl)
        h = min_separation(setup)
        image_gap = h * setup.BFL / setup.S1
        assert image_gap == pytest.approx(d, rel=1e-12)
        # and the angle subtended at the lens by that separation
        expected_angle = math.degrees(2 * math.atan(h / (2 * s1)))
        assert min_angle(setup) == pytest.approx(expected_angle, rel=1e-12)


def test_invalid_setups_rejected():
    with pytest.raises(InvalidSetupError):
        OpticalSetup(d=-0.01, S1=0.1, BFL=0.05)
    with pytest.raises(InvalidSetupError):
        OpticalSetup(d=0.01, S1=0.04, BFL=0.05)   # S1 <= BFL
    # d, S1 and BFL finite and positive, and h = d * S1 / BFL finite
    for bad in (dict(d=math.inf), dict(S1=math.inf), dict(BFL=math.inf),
                dict(d=math.nan), dict(d=1e300, S1=1e300, BFL=1e-300),
                dict(d=1e300, BFL=1e-10)):
        with pytest.raises(InvalidSetupError):
            OpticalSetup(**dict(PROTO, **bad))
