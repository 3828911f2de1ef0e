"""Random real fields for tests, drawn as the estimate campaigns draw them."""

import kdvbbm as kb
from kdvbbm.estimates import _streams


def random_spectrum(grid, profile, seed, **profile_kw):
    """The first field of the campaign streams of the int seed."""
    return kb.Spectrum(grid, kb.random_fields(grid, profile, _streams(seed), 1, **profile_kw)[0])
