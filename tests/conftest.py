import os

import numpy as np
import pytest
from hypothesis import settings

from bsradar import ArrayGeometry, ChirpParams

# Every run draws the same examples and writes no example database; the
# storage directory is a device no directory can be made in, so hypothesis
# also leaves no cache of the source constants it draws from.
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", os.devnull)
settings.register_profile("bsradar", derandomize=True, deadline=None, database=None)
settings.load_profile("bsradar")


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture
def geom():
    """The default 4x32 X-band array."""
    return ArrayGeometry(n_z=4, n_x=32, design_freq=10e9)


@pytest.fixture
def small_geom():
    return ArrayGeometry(n_z=2, n_x=4, design_freq=10e9)


@pytest.fixture
def small_chirp():
    """Tiny pulse train for fast end-to-end tests."""
    return ChirpParams(
        carrier_freq=10e9,
        sample_rate=500e6,
        bandwidth=400e6,
        pulse_samples=256,
        num_pulses=8,
        pri=1e-6,
    )


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
