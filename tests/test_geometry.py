"""Lens/shutter geometry: separation limits, angles and pixel mapping."""

import math

import numpy as np
import pytest

from shuttervlc.geometry import (EmitterPlacement, InvalidSetupError,
                                 OpticalSetup, map_emitters_to_pixels,
                                 min_angle, min_separation)

PROTO = dict(d=0.036, S1=0.155, BFL=0.0375, grid_rows=1, grid_cols=2)


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


def test_separation_boundary_feasibility_oracle():
    # emitters exactly h apart (at +-h/2, imaging onto the centres of the
    # two pixels) map to distinct pixels; shrinking the separation below h
    # collapses them onto one pixel
    setup = OpticalSetup(**PROTO)
    h = min_separation(setup)
    x0, x1 = -h / 2, h / 2
    good = EmitterPlacement(((x0, 0.0), (x1, 0.0)))
    result = map_emitters_to_pixels(setup, good)
    assert result.feasible and result.mapping == (0, 1)

    squeezed = EmitterPlacement(((x0 + 0.6 * h, 0.0), (x1, 0.0)))
    result = map_emitters_to_pixels(setup, squeezed)
    assert not result.feasible
    assert "same pixel" in result.reason


def test_mapping_half_open_boundary():
    # an image landing exactly on a cell edge belongs to the higher pixel
    setup = OpticalSetup(d=0.01, S1=0.1, BFL=0.05,
                         grid_rows=1, grid_cols=2)
    scale = setup.BFL / setup.S1
    # image x = width/2 -> boundary between col 0 and col 1 is at image 0.01
    boundary_emitter_x = 0.0  # images to grid center, i.e. the col boundary
    placement = EmitterPlacement(((boundary_emitter_x, -0.004 / scale),))
    result = map_emitters_to_pixels(setup, placement)
    assert result.feasible
    assert result.mapping == (1,)


def test_mapping_off_grid_infeasible():
    setup = OpticalSetup(**PROTO)
    far = EmitterPlacement(((10.0, 0.0),))
    result = map_emitters_to_pixels(setup, far)
    assert not result.feasible
    assert "outside" in result.reason


def test_invalid_setups_rejected():
    with pytest.raises(InvalidSetupError):
        OpticalSetup(d=-0.01, S1=0.1, BFL=0.05)
    with pytest.raises(InvalidSetupError):
        OpticalSetup(d=0.01, S1=0.04, BFL=0.05)   # S1 <= BFL
    with pytest.raises(InvalidSetupError):
        OpticalSetup(d=0.01, S1=0.1, BFL=0.05, grid_cols=0)
    # d, S1 and BFL finite and positive, the grid whole numbers
    for bad in (dict(d=math.inf), dict(S1=math.inf), dict(BFL=math.inf),
                dict(d=math.nan), dict(grid_cols=2.5), dict(grid_rows=0.5)):
        with pytest.raises(InvalidSetupError):
            OpticalSetup(**dict(PROTO, **bad))
    with pytest.raises(InvalidSetupError):
        EmitterPlacement(((0.0, 0.0), (0.0, 0.0)))


def test_whole_float_grid_taken_as_integer():
    setup = OpticalSetup(**dict(PROTO, grid_rows=2.0, grid_cols=3.0))
    assert (setup.grid_rows, setup.grid_cols) == (2, 3)
    assert type(setup.grid_rows) is int and type(setup.grid_cols) is int
