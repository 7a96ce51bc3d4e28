"""Physical constants parameterizing every formula in the package."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SpecValidationError


@dataclass(frozen=True)
class PhysicalConstants:
    """Fundamental constants: hbar, particle mass, charge, speed of light.

    Defaults are natural units (all equal to 1), in which the closed-form
    expressions and their special values are exact.
    """

    hbar: float = 1.0
    mass: float = 1.0
    charge: float = 1.0
    light_speed: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "mass", "charge", "light_speed"):
            value = getattr(self, name)
            if not (0.0 < value < math.inf):
                raise SpecValidationError(f"{name} must be finite and > 0, got {value!r}")

    def cyclotron_frequency(self, field_strength: float) -> float:
        return self.charge * field_strength / self.mass


NATURAL_UNITS = PhysicalConstants()
