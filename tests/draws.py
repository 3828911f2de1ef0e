"""Random real fields for tests, drawn as the estimate campaigns draw them."""

import kdvbbm as kb
from kdvbbm.estimates import _streams
from kdvbbm.spectral import full_spectrum


def random_spectrum(grid, profile, seed, **profile_kw):
    """The first field of the campaign streams of seed (an int or a SeedSequence), in FFT layout."""
    d = kb.random_fields(grid, profile, _streams(seed), 1, **profile_kw)[0]
    return kb.Spectrum(grid, full_spectrum(d))
