"""Shared fixtures: the paper's default design point and fast stimuli.

Simulation fixtures use modest oversampling (16 samples/bit) and short
PRBS repeats so the whole suite stays fast while still exercising the
full signal paths.
"""

import pytest
from hypothesis import settings

from repro import (
    BackplaneChannel,
    bits_to_nrz,
    build_input_interface,
    build_io_interface,
    build_output_interface,
    prbs7,
)

BIT_RATE = 10e9
SAMPLES_PER_BIT = 16
N_BITS = 280

# A deep run of the kernel oracles, the statistical-eye surfaces and
# run-finder properties and the eye oracle (CI step "Kernel oracle deep
# run"):
#   pytest tests/test_numpy_kernel_oracle.py \
#     tests/test_stateye.py::test_surfaces_property \
#     tests/test_stateye.py::test_run_finder_and_flat_center_property \
#     tests/test_eye_oracle.py::test_batched_eye_matches_frozen_scalar_oracle \
#     --hypothesis-profile=kernel-deep
settings.register_profile("kernel-deep", max_examples=500, deadline=None)


@pytest.fixture(scope="session")
def rx_interface():
    """The paper's input interface (equalizer + limiting amplifier)."""
    return build_input_interface()


@pytest.fixture(scope="session")
def tx_interface():
    """The paper's output interface (driver + voltage peaking)."""
    return build_output_interface()


@pytest.fixture(scope="session")
def io_link():
    """The complete link with a 0.3 m backplane channel."""
    return build_io_interface(channel=BackplaneChannel(0.3))


@pytest.fixture(scope="session")
def channel():
    """A 0.5 m FR-4 backplane (~13 dB at Nyquist)."""
    return BackplaneChannel(0.5)


@pytest.fixture(scope="session")
def prbs_wave():
    """PRBS7 NRZ at 10 Gb/s, 250 mV pp differential."""
    return bits_to_nrz(prbs7(N_BITS), BIT_RATE, amplitude=0.25,
                       samples_per_bit=SAMPLES_PER_BIT)


@pytest.fixture(scope="session")
def small_wave():
    """PRBS7 NRZ at the paper's 4 mV sensitivity point."""
    return bits_to_nrz(prbs7(N_BITS), BIT_RATE, amplitude=0.004,
                       samples_per_bit=SAMPLES_PER_BIT)
