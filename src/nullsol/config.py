"""Shared solver configuration."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class SolverConfig:
    max_depth: int = 24
    default_box_halfwidth: Fraction = Fraction(16)
    lattice_radius: int = 16
    groebner_cap: int = 50000

    def __post_init__(self):
        if self.max_depth < 0:
            raise ValueError("max_depth must be nonnegative")
        for name in ("lattice_radius", "groebner_cap"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.default_box_halfwidth <= 0:
            raise ValueError("default_box_halfwidth must be positive")


DEFAULT_CONFIG = SolverConfig()
