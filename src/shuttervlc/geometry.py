"""Lens and shutter geometry: emitter separation limits and pixel mapping.

The shutter sits behind a condenser lens; an emitter at distance S1 images
onto the shutter plane at scale BFL/S1. Two emitters land on different
pixels only if their images are at least one pixel pitch apart, which
translates to a minimum separation h = d * S1 / BFL in the emitter plane.
"""

import math
from dataclasses import dataclass
from typing import Tuple


class InvalidSetupError(ValueError):
    """Raised when an optical setup or placement violates its invariants."""


@dataclass(frozen=True)
class OpticalSetup:
    """Lens/shutter geometry. Lengths in meters.

    d is the center-to-center pixel pitch (square pixels: side length),
    S1 the emitter-to-lens distance and BFL the back focal length of the
    condenser lens. The lens-to-shutter distance enters no formula here.
    """

    d: float
    S1: float
    BFL: float
    grid_rows: int = 1
    grid_cols: int = 2

    def __post_init__(self):
        for name in ("grid_rows", "grid_cols"):
            if int(getattr(self, name)) != getattr(self, name):
                raise InvalidSetupError(f"{name} must be an integer")
            object.__setattr__(self, name, int(getattr(self, name)))
        if not all(0 < x < math.inf for x in (self.d, self.S1, self.BFL)):
            raise InvalidSetupError("d, S1 and BFL must be finite and positive")
        if self.grid_rows < 1 or self.grid_cols < 1:
            raise InvalidSetupError("grid must have at least one pixel")
        if not self.S1 > self.BFL:
            raise InvalidSetupError("S1 must exceed BFL for an image to form")


@dataclass(frozen=True)
class EmitterPlacement:
    """2-D emitter coordinates (meters) in the plane at distance S1."""

    positions: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        pos = tuple((float(x), float(y)) for x, y in self.positions)
        object.__setattr__(self, "positions", pos)
        if not all(math.isfinite(c) for p in pos for c in p):
            raise InvalidSetupError("emitter coordinates must be finite")
        if len(set(pos)) != len(pos):
            raise InvalidSetupError("emitter positions must be distinct")


def min_separation(setup: OpticalSetup) -> float:
    """Minimum emitter separation h = d * S1 / BFL (meters)."""
    return setup.d * setup.S1 / setup.BFL


def min_angle(setup: OpticalSetup) -> float:
    """Minimum angular separation 2*arctan(h / (2*S1)), in degrees."""
    h = min_separation(setup)
    return math.degrees(2.0 * math.atan(h / (2.0 * setup.S1)))


@dataclass(frozen=True)
class MappingResult:
    """Outcome of projecting emitters onto the pixel grid."""

    feasible: bool
    mapping: Tuple[int, ...] = ()   # emitter index -> pixel index
    reason: str = ""


def map_emitters_to_pixels(setup: OpticalSetup,
                           placement: EmitterPlacement) -> MappingResult:
    """Assign each emitter to the shutter pixel its image falls on.

    Images form at scale BFL/S1; the grid is centered on the optical axis
    with half-open pixel cells [k*d, (k+1)*d) per axis, so an image exactly
    on a boundary belongs to the higher-index pixel. Infeasible if two
    emitters share a pixel or an image misses the grid.
    """
    scale = setup.BFL / setup.S1
    width = setup.grid_cols * setup.d
    height = setup.grid_rows * setup.d
    mapping = []
    for i, (x, y) in enumerate(placement.positions):
        ix = x * scale + width / 2.0
        iy = y * scale + height / 2.0
        col = math.floor(ix / setup.d)
        row = math.floor(iy / setup.d)
        if not (0 <= col < setup.grid_cols and 0 <= row < setup.grid_rows):
            return MappingResult(False, reason=f"emitter {i} images outside the grid")
        mapping.append(row * setup.grid_cols + col)
    if len(set(mapping)) != len(mapping):
        return MappingResult(False, reason="two emitters image onto the same pixel")
    return MappingResult(True, mapping=tuple(mapping))

