import numpy as np
import pytest

from fuzzydiff import (
    GaussianFieldModel,
    GmmPixelModel,
    Grid,
    RngStream,
    linear_schedule,
)

# Reduced-step schedules used throughout the tests. The beta endpoints are
# scaled inversely with T so that alpha_bar[T] stays close to 0; running the
# conventional 1000-step endpoints at small T would leave too much signal at
# the deepest step and every distributional check would measure that artifact
# instead of the sampler.
SCHED_50 = (50, 1.2e-3, 0.24)
SCHED_200 = (200, 3.0e-4, 0.06)
SCHED_400 = (400, 1.25e-4, 0.025)
# DDPM's 1000-step beta range (Ho et al., 2020), the config's schedule default.
DDPM_BETAS = (1e-4, 0.02)

# The pinned bimodal pixel distribution: weights 0.5/0.5, modes 0.25/0.75,
# variance 0.005 each.
TWO_MODE = ([0.5, 0.5], [0.25, 0.75], [0.005, 0.005])


def two_mode(height=8, width=8, channels=1) -> GmmPixelModel:
    return GmmPixelModel((height, width, channels), *TWO_MODE)


def exp_field(height=8, width=8, channels=1, mean=0.5, marginal_variance=0.04):
    """An exponential field of correlation length 2; with no arguments, the config's default."""
    return GaussianFieldModel.exponential(height, width, channels, mean, marginal_variance, 2.0)


@pytest.fixture(scope="session")
def sched50():
    return linear_schedule(*SCHED_50)


@pytest.fixture(scope="session")
def sched200():
    return linear_schedule(*SCHED_200)


@pytest.fixture(scope="session")
def sched400():
    return linear_schedule(*SCHED_400)


@pytest.fixture(scope="session")
def field_model():
    return exp_field()


@pytest.fixture(scope="session")
def gmm_model():
    return two_mode()


@pytest.fixture
def rng():
    return RngStream(20240817, 0)


# One human-readable verdict line per acceptance criterion, echoed after the
# test summary so the outcome survives pytest's stdout capture.
ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_lines():
    return ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def grid_from(values) -> Grid:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    return Grid(arr)
