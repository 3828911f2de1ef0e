"""The datum constructors' own guards, which the config schema pre-empts on the command line
(initial.width is positive there, and gevrey_synthetic's decay is initial.sigma0 >= 0)."""

import pytest

import kdvbbm as kb


@pytest.mark.parametrize("width", [0.0, -0.3])
def test_gaussian_needs_positive_width(small_grid, width):
    with pytest.raises(ValueError, match=r"^width must be positive, got "):
        kb.gaussian(small_grid, width, 1.0)


def test_gevrey_synthetic_needs_nonnegative_decay(small_grid):
    with pytest.raises(ValueError, match=r"^decay must be nonnegative, got -0.1$"):
        kb.gevrey_synthetic(small_grid, -0.1)
    assert abs(kb.gevrey_synthetic(small_grid, 0.0, roll_off=2.0).half[1]) > 0.0  # decay 0 is one
