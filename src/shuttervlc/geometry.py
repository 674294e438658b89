"""Lens and shutter geometry: the paper's emitter separation limits.

The shutter sits behind a condenser lens; an emitter at distance S1 images
onto the shutter plane at scale BFL/S1. Two emitters land on different
pixels only if their images are at least one pixel pitch apart, which
translates to a minimum separation h = d * S1 / BFL in the emitter plane
and an angle alpha = 2 * arctan(h / (2 * S1)) at the lens. A scenario
names each emitter's pixel; h says how far apart two emitters must be.
"""

import math
from dataclasses import dataclass


class InvalidSetupError(ValueError):
    """Raised when an optical setup violates its invariants."""


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

    def __post_init__(self):
        if not all(0 < x < math.inf for x in (self.d, self.S1, self.BFL)):
            raise InvalidSetupError("d, S1 and BFL must be finite and positive")
        if not self.S1 > self.BFL:
            raise InvalidSetupError("S1 must exceed BFL for an image to form")
        if not math.isfinite(min_separation(self)):
            raise InvalidSetupError("h = d * S1 / BFL overflows")


def min_separation(setup: OpticalSetup) -> float:
    """Minimum emitter separation h = d * S1 / BFL (meters)."""
    return setup.d * setup.S1 / setup.BFL


def min_angle(setup: OpticalSetup) -> float:
    """Minimum angular separation 2*arctan(h / (2*S1)), in degrees."""
    h = min_separation(setup)
    return math.degrees(2.0 * math.atan(h / (2.0 * setup.S1)))
