from fractions import Fraction

import pytest

from nullsol.config import SolverConfig


@pytest.mark.parametrize("field, value, message", [
    ("lattice_radius", 0, "lattice_radius must be positive"),
    ("groebner_cap", 0, "groebner_cap must be positive"),
    ("default_box_halfwidth", Fraction(0), "default_box_halfwidth must be positive"),
])
def test_config_rejects_out_of_range_values(field, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SolverConfig(**{field: value})


def test_config_admits_the_least_values():
    config = SolverConfig(max_depth=0, lattice_radius=1, groebner_cap=1,
                          default_box_halfwidth=Fraction(1, 2))
    assert (config.max_depth, config.lattice_radius, config.groebner_cap) == (0, 1, 1)
