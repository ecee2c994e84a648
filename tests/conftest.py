import json
from pathlib import Path

import numpy as np
import pytest

import drfrontier as drf

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

# Three-asset universe used throughout: every derived quantity is a nice
# rational or small surd, so closed forms can be checked exactly.
V3 = np.array(
    [
        [11.0, 8.0, 8.0],
        [8.0, 23.0, -4.0],
        [8.0, -4.0, 23.0],
    ]
) / 9.0
RBAR3 = np.array([0.06, 0.10, 0.08])
R0_3 = 0.01


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which RFC 8259 JSON has not."""

    def refuse(constant):
        raise AssertionError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.fixture(scope="session")
def ex3():
    return drf.validate_universe(V3, names=("a", "b", "c"))


@pytest.fixture(scope="session")
def ex3_returns():
    return drf.validate_universe(
        V3, names=("a", "b", "c"), expected_returns=RBAR3, risk_free_rate=R0_3
    )


@pytest.fixture(scope="session")
def identity3():
    return drf.validate_universe(np.eye(3))


@pytest.fixture(scope="session")
def degenerate3():
    # one riskless asset; V is singular but D is not
    return drf.validate_universe(np.diag([0.0, 1.0, 1.0]))


@pytest.fixture(scope="session")
def fixture_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def panel30():
    return drf.load_panel(FIXTURES / "synthetic_panel_30.csv", format="prices")


@pytest.fixture(scope="session")
def universe30(panel30):
    return drf.annualize(panel30)
