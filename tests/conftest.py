import warnings

import numpy as np
import pytest

from mvhedge import levy, market, ngou


@pytest.fixture(autouse=True)
def _quiet_regression_warnings():
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="collinear basis columns")
        yield


@pytest.fixture
def ou_unit():
    return ngou.OUParams([1.0], [10.0])


@pytest.fixture
def cpe_spec():
    return levy.CompoundPoissonExp(10.0, 8.0, 1.0)


@pytest.fixture
def no_jumps():
    return levy.TableMeasure(())


@pytest.fixture
def bns_model():
    return market.BNS(0.5, 0.02, rate=0.0)


def empty_jump_path(horizon, h=1):
    return levy.JumpPath(np.empty(0), np.empty(0, dtype=np.int64), np.empty(0), horizon, h)


class TwoAssetConstant(market.CoefficientModel):
    """Two correlated assets with flat drift and volatility; the factor is ignored."""

    d, h, rate = 2, 1, 0.0

    def __init__(self, drift, sigma):
        self.b = np.asarray(drift, dtype=float)
        self.sigma = np.asarray(sigma, dtype=float)
        self.constant_sharpe = float(self.b @ np.linalg.solve(self.sigma @ self.sigma.T, self.b))

    def drift(self, y):
        return np.broadcast_to(self.b, np.shape(y)[:-1] + (2,))

    def vol(self, y):
        return np.broadcast_to(self.sigma, np.shape(y)[:-1] + (2, 2))
