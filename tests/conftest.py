import contextlib
import inspect
import warnings

import numpy as np
import pytest

from mvhedge import _kernels as kernels
from mvhedge import levy, market, ngou, opportunity


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


def event_path(events, i):
    """Path i of a ``levy.JumpEvents``, as a checked ``JumpPath``."""
    at = slice(events.offsets[i], events.offsets[i + 1])
    return levy.JumpPath(events.times[at], events.components[at], events.sizes[at], events.horizon,
                         events.n_components)


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


def discounted(bundle):
    """Discounted prices exp(-r t) S (n, K+1, d) of a bundle's whole paths."""
    return np.exp(-bundle.rate * bundle.times)[None, :, None] * bundle.s


@contextlib.contextmanager
def no_whole_paths():
    """Fail the test if an engine run is given initial prices inside the
    block: that run derives ``PathBundle.y`` and ``.s``, the whole-path
    factor and prices."""
    run = kernels.simulate_d1h1
    signature = inspect.signature(run)

    def guarded(*args, **kwargs):
        if signature.bind(*args, **kwargs).arguments.get("s0") is not None:
            pytest.fail("derived the whole-path factor and prices")
        return run(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "simulate_d1h1", guarded)
        yield


def left_limits(bundle):
    """The factor's left limits (n, K+1, h) at the grid nodes: ``bundle.y``
    with every jump event that lies exactly on a node taken back out."""
    y_left = bundle.y.copy()
    j = bundle.jumps
    node = np.minimum(np.searchsorted(bundle.times, j.times), bundle.n_steps)
    on = bundle.times[node] == j.times
    np.subtract.at(y_left, (j.paths[on], node[on], j.components[on]), j.sizes[on])
    return y_left


def walk_density(surface, bundle):
    """Run ``opportunity.density_walk`` to its end and record every
    ``_kernels.density_step`` it calls: the densities and their left
    limits (n, K+1) and the per-step quadratures (n, K), stacked."""
    terms = []
    step = kernels.density_step
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "density_step", lambda *a: terms.append(step(*a)) or terms[-1])
        density, left = (np.stack(a, axis=1) for a in zip(*opportunity.density_walk(surface, bundle)))
    sharpe_steps, mpr_steps = (np.stack(a, axis=1) for a in zip(*terms))
    return density, left, sharpe_steps, mpr_steps
