import numpy as np
import pytest

from gnk.coefficient import One
from gnk.geometry import ParamGrid, Region, circle, ellipse
from helpers import perturbed_circle

# Shared gallery: three well-separated holes, origin in the unbounded region.
CENTERS = (3.0 + 0.0j, -2.0 + 2.5j, -0.5 - 3.0j)
RADII = (1.0, 0.8, 1.2)
POLE_AMPLITUDES = (1.0 + 0.5j, -0.7 + 0.2j, 0.4 - 1.1j)


@pytest.fixture(scope="session")
def three_circles() -> Region:
    curves = [circle(c, r) for c, r in zip(CENTERS, RADII)]
    return Region.from_curves(curves)


@pytest.fixture(scope="session")
def perturbed_gallery() -> Region:
    curves = [
        perturbed_circle(CENTERS[0], RADII[0], [(3, 0.12)]),
        perturbed_circle(CENTERS[1], RADII[1], [(4, 0.10)]),
        perturbed_circle(CENTERS[2], RADII[2], [(2, 0.08), (5, 0.05)]),
    ]
    return Region.from_curves(curves)


@pytest.fixture(scope="session")
def mixed_gallery() -> Region:
    curves = [
        ellipse(CENTERS[0], 1.2, 0.7),
        circle(CENTERS[1], RADII[1]),
        ellipse(CENTERS[2], 0.9, 1.3),
    ]
    return Region.from_curves(curves)


@pytest.fixture(scope="session")
def unit_circle_region() -> Region:
    # the classic single-hole case; note 0 sits inside the hole here, so the
    # zero-in-region validation check is expected to fail by design
    return Region.from_curves([circle(0.0, 1.0)])


@pytest.fixture(scope="session")
def grid128() -> ParamGrid:
    return ParamGrid(128)


@pytest.fixture(scope="session")
def grid64() -> ParamGrid:
    return ParamGrid(64)


@pytest.fixture(scope="session")
def coeff_one() -> One:
    return One()


def oracle_terms():
    """Pole terms (c_k, a_k) of the rational solution used across tests."""
    return list(zip(CENTERS, POLE_AMPLITUDES))


def oracle_boundary(region: Region, grid: ParamGrid) -> np.ndarray:
    """Boundary samples of the rational oracle f on the region."""
    eta, _, _ = region.sample(grid)
    total = np.zeros_like(eta)
    for c, a in oracle_terms():
        total = total + a / (eta - c)
    return total
