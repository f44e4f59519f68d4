"""Coefficient models, price simulation and standing-assumption checks.

The stock simulation discretizes the explicit log-solution with
coefficients frozen at the step-left factor value, so prices stay
positive and constant-coefficient models are simulated exactly per
step.  The factor itself and its time integral carry no discretization
error at all (see ngou).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as kernels
from .levy import ConfigurationError, JumpPath, pack_events, path_states, sample_jump_path
from .ngou import FactorPath, OUParams, evolve, merge_grid


class CoefficientModel:
    """Drift/volatility maps b(y), sigma(y) with constant interest rate.

    Subclasses provide vectorized ``drift`` (shape (..., d)) and ``vol``
    (shape (..., d, d)) over factor states y of shape (..., h).  The
    squared market price of risk and the market price of risk follow
    from them here; a model with closed forms overrides the two methods,
    and every caller reads them through the model.
    """

    d: int = 1
    h: int = 1
    rate: float = 0.0
    constant_sharpe: float | None = None

    def drift(self, y):
        raise NotImplementedError

    def vol(self, y):
        raise NotImplementedError

    def sharpe_squared(self, y):
        """Squared market price of risk B'(sigma sigma')^{-1} B, shape (...)."""
        b = excess_drift(self, y)
        x = _solve_cov(self, y, b)
        return np.sum(b * x, axis=-1)

    def market_price_of_risk(self, y):
        """sigma'(sigma sigma')^{-1} B, shape (..., d)."""
        b = excess_drift(self, y)
        x = _solve_cov(self, y, b)
        return np.einsum("...ji,...j->...i", self.vol(y), x)


class ConstantBS(CoefficientModel):
    """Flat drift alpha and volatility beta; the factor is ignored."""

    def __init__(self, alpha: float, beta: float, rate: float = 0.0):
        if beta <= 0:
            raise ConfigurationError("volatility must be positive")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.rate = float(rate)
        self.d = 1
        self.h = 1
        self.constant_sharpe = (self.alpha - self.rate) ** 2 / self.beta**2

    def drift(self, y):
        y = np.asarray(y, dtype=float)
        return np.full(y.shape[:-1] + (1,), self.alpha)

    def vol(self, y):
        y = np.asarray(y, dtype=float)
        return np.full(y.shape[:-1] + (1, 1), self.beta)

    def sharpe_squared(self, y):
        return np.full(np.shape(y)[:-1], self.constant_sharpe)

    def market_price_of_risk(self, y):
        return np.full(np.shape(y)[:-1] + (1,), (self.alpha - self.rate) / self.beta)

    def __repr__(self):
        return f"ConstantBS(alpha={self.alpha}, beta={self.beta}, rate={self.rate})"


class BNS(CoefficientModel):
    """Volatility-factor model: b(y) = alpha + beta*y, sigma(y) = sqrt(y)."""

    def __init__(self, alpha: float, beta: float, rate: float = 0.0):
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.rate = float(rate)
        self.d = 1
        self.h = 1
        self.constant_sharpe = None

    def drift(self, y):
        y = np.asarray(y, dtype=float)
        return self.alpha + self.beta * y

    def vol(self, y):
        y = np.asarray(y, dtype=float)
        return np.sqrt(y)[..., None]

    def _excess(self, y):
        """Factor level and excess drift alpha + beta*y - r; y must be positive."""
        y = np.asarray(y, dtype=float)[..., 0]
        if (y <= 0).any():
            raise np.linalg.LinAlgError("singular volatility covariance (condition number inf)")
        return y, self.alpha + self.beta * y - self.rate

    def sharpe_squared(self, y):
        y, e = self._excess(y)
        return e * e / y

    def market_price_of_risk(self, y):
        y, e = self._excess(y)
        return (e / np.sqrt(y))[..., None]

    def __repr__(self):
        return f"BNS(alpha={self.alpha}, beta={self.beta}, rate={self.rate})"


class TabulatedModel(CoefficientModel):
    """One-asset model with piecewise-linear drift/vol tables in y."""

    def __init__(self, y_nodes, drift_values, vol_values, rate: float = 0.0):
        self.y_nodes = np.asarray(y_nodes, dtype=float)
        self.drift_values = np.asarray(drift_values, dtype=float)
        self.vol_values = np.asarray(vol_values, dtype=float)
        if not (np.diff(self.y_nodes) > 0).all():
            raise ConfigurationError("y_nodes must be strictly increasing")
        if (self.vol_values <= 0).any():
            raise ConfigurationError("tabulated volatilities must be positive")
        self.rate = float(rate)
        self.d = 1
        self.h = 1

    def drift(self, y):
        y = np.asarray(y, dtype=float)
        return np.interp(y[..., 0], self.y_nodes, self.drift_values)[..., None]

    def vol(self, y):
        y = np.asarray(y, dtype=float)
        return np.interp(y[..., 0], self.y_nodes, self.vol_values)[..., None, None]


def covariance(model, y):
    """sigma(y) sigma(y)', shape (..., d, d)."""
    sig = model.vol(y)
    return sig @ np.swapaxes(sig, -1, -2)


def excess_drift(model, y):
    """b(y) - r, shape (..., d)."""
    return model.drift(y) - model.rate


def _solve_cov(model, y, rhs):
    cov = covariance(model, y)
    if model.d == 1:
        c = cov[..., 0, 0]
        bad = c <= 0
        if np.any(bad):
            raise np.linalg.LinAlgError(
                "singular volatility covariance (condition number inf)"
            )
        return rhs / cov[..., 0]
    try:
        return np.linalg.solve(cov, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        cond = np.linalg.cond(cov)
        worst = float(np.max(cond))
        raise np.linalg.LinAlgError(
            f"singular volatility covariance (condition number {worst:.3e})"
        ) from exc


def market_price_of_risk(model, y):
    """sigma'(sigma sigma')^{-1} B, the Brownian loading of the risk premium."""
    return model.market_price_of_risk(y)


def adjustment(model, d_prices, y):
    """Feedback coefficient diag(D)^{-1} (sigma sigma')^{-1} B at the left limit."""
    b = excess_drift(model, y)
    x = _solve_cov(model, y, b)
    return x / np.asarray(d_prices, dtype=float)


@dataclass(frozen=True)
class GridConfig:
    """Uniform simulation grid: n_steps of equal length covering the horizon."""

    horizon: float
    step: float = 0.01

    def __post_init__(self):
        if self.horizon <= 0 or self.step <= 0:
            raise ConfigurationError("horizon and step must be positive")
        n = max(1, int(round(self.horizon / self.step)))
        object.__setattr__(self, "n_steps", n)
        object.__setattr__(self, "step", self.horizon / n)

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)


@dataclass(frozen=True, eq=False)
class JumpRecord:
    """The jump events of one chunk of paths, stored once, in step order.

    The events of grid step k, (t_k, t_k+1], are the slice
    ``bounds[k]:bounds[k + 1]`` of ``times``, ``components``, ``sizes``
    and their owning ``paths``.  A stable sort put them there, so within
    a step they keep the order of the paths and, within a path, its
    (time, component) order.  Only this class reads the arrays by step.
    """

    times: np.ndarray
    components: np.ndarray
    sizes: np.ndarray
    paths: np.ndarray
    bounds: np.ndarray
    grid_times: np.ndarray
    n_paths: int
    n_components: int

    @classmethod
    def pack(cls, jump_paths, grid: GridConfig, n_paths: int, n_components: int) -> JumpRecord:
        """The record of ``jump_paths`` on ``grid``, checked once as a chunk
        (``levy.pack_events``); an empty list stands for paths without events.

        The step index is sorted in the smallest unsigned dtype that holds
        the step count (a radix sort up to 16 bits); a stable sort has one
        result, so the order is that of the int64 index.  The arrays are
        permuted one at a time, so no event is held twice at once.
        """
        grid_times = grid.times
        offsets, times, comps, sizes = pack_events(jump_paths, n_paths, grid.horizon, n_components)
        # event times lie in (0, T], so every event falls in one of the steps
        step = (np.searchsorted(grid_times, times, side="left") - 1).astype(np.min_scalar_type(grid.n_steps))
        order = np.argsort(step, kind="stable")
        bounds = np.concatenate(([0], np.cumsum(np.bincount(step, minlength=grid.n_steps))))
        times = times[order]
        comps = comps[order]
        sizes = sizes[order]
        paths = np.repeat(np.arange(n_paths), np.diff(offsets))[order]
        return cls(times, comps, sizes, paths, bounds, grid_times, n_paths, n_components)

    def step(self, k: int, lam: np.ndarray):
        """The jumps of step k: (flat index of each event's (path, factor)
        entry in an (n, h) array, size, rate from ``lam`` (h,), time
        after the step's left node), in step order."""
        sl = slice(self.bounds[k], self.bounds[k + 1])
        comps = self.components[sl]
        return self.paths[sl] * lam.size + comps, self.sizes[sl], lam[comps], self.times[sl] - self.grid_times[k]

    def path(self, i: int) -> JumpPath:
        """The events of path i, in its (time, component) order."""
        at = np.flatnonzero(self.paths == i)
        return JumpPath(self.times[at], self.components[at], self.sizes[at], self.grid_times[-1],
                        self.n_components)

    def totals(self) -> np.ndarray:
        """Total jump mass (n_paths, h) per path and component, each summed
        in the path's event order, as ``JumpPath.totals`` sums it."""
        out = np.zeros((self.n_paths, self.n_components))
        np.add.at(out, (self.paths, self.components), self.sizes)
        return out


class PathBundle:
    """One simulated chunk: increments, jump record, terminal factor and totals.

    A bundle stores the Brownian increments ``dw`` (n_paths, n_steps, d)
    step-major (``_kernels.step_major``), so one step's slice ``[:, k]``
    is contiguous, and the jump events in step order (``jumps``, the
    ``JumpRecord`` the simulation built), so one step's events are
    contiguous slices too.  The factor is a deterministic
    function of the jump record and the prices follow from the factor
    and the increments, so every other per-step quantity is replayed,
    bitwise, by the recursions the engine runs (``_kernels.factor_step``,
    ``_kernels.log_price_step`` and ``_kernels.density_step``):

    walk           : forward, node by node, keeping no history (the
                     hedge, ``validate``'s whole-path checks and
                     ``dump_paths_csv``)
    walk_backward  : backward, from checkpoints every m = ceil(sqrt(K))
                     steps, one segment at a time (the backward solve)
    terminal_prices: (n_paths, d), from the pass that saves the
                     checkpoints (the payoffs)

    ``y`` and ``s`` (n_paths, n_steps + 1, ...) exist for the benchmark's
    tracer and the tests: one engine run derives both on first read, and
    the bundle keeps them; no module of the package reads them.

    Stored per path, each total the in-order sum of its per-step terms:

    y_end      : the factor at the horizon (n_paths, h)
    sharpe_int : integral of the squared market price of risk (n_paths,)
    mpr_dw     : market price of risk (at step left) dotted with dW,
                 variance-matched to sharpe_int step by step (n_paths,)
    factor_int : lambda_i * integral of Y_i, exact including jumps
                 (n_paths, h)
    """

    def __init__(self, model, ou, specs, s0, grid, dw, y_end, sharpe_int, mpr_dw,
                 factor_int, jumps, master_seed, path_offset):
        self.model = model
        self.ou = ou
        self.specs = tuple(specs)
        self.s0 = np.atleast_1d(np.asarray(s0, dtype=float))
        self.grid = grid
        self.times = grid.times
        self.dw = dw
        self.y_end = y_end
        self.sharpe_int = sharpe_int
        self.mpr_dw = mpr_dw
        self.factor_int = factor_int
        self.jumps = jumps
        self.master_seed = master_seed
        self.path_offset = path_offset
        # checkpoint spacing of the backward walk; tests set it on a
        # fresh bundle to check that the walk does not depend on it
        self._every = math.ceil(math.sqrt(self.n_steps))
        self._on_node = None
        self._checkpoints = None
        self._terminal = None
        self._whole = None

    @property
    def n_paths(self) -> int:
        return self.dw.shape[0]

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    @property
    def rate(self) -> float:
        return self.model.rate

    @property
    def y_start(self) -> np.ndarray:
        """The factor at time zero, shared by every path (1, h)."""
        return self.ou.y0[None, :]

    @property
    def y(self) -> np.ndarray:
        """Factor (n, K+1, h) at every node, for the benchmark's tracer."""
        return self._whole_paths()[0]

    @property
    def s(self) -> np.ndarray:
        """Prices (n, K+1, d) at every node, for the benchmark's tracer."""
        return self._whole_paths()[1]

    def _whole_paths(self):
        """(y, s) from one engine run given the initial prices, on first read."""
        if self._whole is None:
            self._whole = kernels.simulate_d1h1(*self._engine_args(), s0=self.s0)[4:]
        return self._whole

    @property
    def terminal_prices(self) -> np.ndarray:
        """Prices (n, d) at the horizon."""
        if self._terminal is None:
            self._checkpoint()
        return self._terminal

    def _node_jumps(self):
        """(node, path, component, size) of the events exactly on a grid
        node, which make a left limit differ from the factor, sorted by
        node, and each node's bounds in them; found once."""
        if self._on_node is None:
            j = self.jumps
            # an event of step k lies in (t_k, t_k+1], so in step order the nodes ascend
            node = np.repeat(np.arange(1, self.n_steps + 1), np.diff(j.bounds))
            on = np.flatnonzero(self.times[node] == j.times)
            node = node[on]
            bounds = np.searchsorted(node, np.arange(self.n_steps + 2))
            self._on_node = node, j.paths[on], j.components[on], j.sizes[on], bounds
        return self._on_node

    def _start(self):
        """The factor (n, h) and log prices (n, d) at time zero."""
        y = np.empty((self.n_paths, self.ou.dim))
        y[:] = self.ou.y0
        return y, kernels.log_price_start(self.s0, self.n_paths)

    def _steps(self, y, ls, k0, k1):
        """Advance the factor ``y`` (in place) and the log prices ``ls``
        from node k0 to node k1, yielding both at nodes k0+1..k1."""
        lam, delta = self.ou.mean_reversion, self.grid.step
        edel = kernels.step_decay(lam, delta)
        for k in range(k0, k1):
            ls = kernels.log_price_step(self.model, ls, y, self.dw[:, k], delta)
            kernels.factor_step(y, edel, delta, self.jumps.step(k, lam))
            yield y, ls

    def left_limit(self, k, y):
        """The factor's left limit at node k, given its value ``y`` there:
        ``y`` itself unless an event lies exactly on the node."""
        _, path, comp, size, bounds = self._node_jumps()
        on = slice(bounds[k], bounds[k + 1])
        if on.start == on.stop:
            return y
        yl = y.copy()
        np.subtract.at(yl, (path[on], comp[on]), size[on])
        return yl

    def _checkpoint(self):
        """One forward pass: the terminal prices, and the factor and log
        prices every ``_every`` steps for ``walk_backward``."""
        m, nk = self._every, self.n_steps
        y, ls = self._start()
        saved = [(y.copy(), ls)]
        for k, (y, ls) in enumerate(self._steps(y, ls, 0, nk), 1):
            if k % m == 0 and k < nk:
                saved.append((y.copy(), ls))
        self._terminal = np.exp(ls)
        self._checkpoints = saved

    def _engine_args(self):
        return self.model, self.ou.y0, self.ou.mean_reversion, self.grid.step, self.dw, self.jumps

    def engine_steps(self):
        """The engine's pass replayed step by step (``_kernels.engine_steps``)."""
        return kernels.engine_steps(*self._engine_args())

    def walk(self):
        """Yield (y_k, y_left_k, s_k), each (n, ...), at nodes k = 0..K.

        The factor and prices are replayed step by step and no step is
        kept, except the terminal prices, which a payoff reads next.
        """
        y, ls = self._start()
        y_k = y.copy()
        yield y_k, self.left_limit(0, y_k), np.exp(ls)
        for k, (y, ls) in enumerate(self._steps(y, ls, 0, self.n_steps), 1):
            s = np.exp(ls)
            if k == self.n_steps and self._terminal is None:
                self._terminal = s
            y_k = y.copy()
            yield y_k, self.left_limit(k, y_k), s

    def walk_backward(self):
        """Yield (y_k, y_left_k, s_k), each (n, ...), at nodes k = K..0.

        The pass behind ``terminal_prices`` saves the factor and the log
        prices every m steps; each segment between two checkpoints is
        re-run forward into one pair of (m, n, ...) buffers, then read
        backward.
        """
        if self._checkpoints is None:
            self._checkpoint()
        m, nk = self._every, self.n_steps
        yield self.y_end, self.left_limit(nk, self.y_end), self.terminal_prices
        ys = np.empty((min(m, nk), self.n_paths, self.ou.dim))
        lss = np.empty((min(m, nk), self.n_paths, self.model.d))
        for j in range(len(self._checkpoints) - 1, -1, -1):
            k0 = j * m
            size = min(m, nk - k0)
            y, ls = self._checkpoints[j]
            ys[0], lss[0] = y, ls
            for i, (y, ls) in enumerate(self._steps(y.copy(), ls, k0, k0 + size - 1), 1):
                ys[i], lss[i] = y, ls
            # copies, so the buffers can take the next segment
            for i in range(size - 1, -1, -1):
                y_k = ys[i].copy()
                yield y_k, self.left_limit(k0 + i, y_k), np.exp(lss[i])

    def factor_path(self, i: int) -> FactorPath:
        jp = self.jumps.path(i)
        return evolve(self.ou, jp, merge_grid(self.times, jp.times))


# Paths whose streams are derived at once and whose normals are drawn
# into one path-major block before the block is scaled into the
# step-major increments (1 MB at 500 steps).
DRAW_BLOCK = 256


def _draw_jumps_and_normals(specs, grid, n_paths, master_seed, path_offset, d, jump_paths):
    """Each path's jumps, then its normals, from its own stream.

    A block of paths derives all its streams at once (``levy.path_states``)
    and draws them one after the other from one reused generator; the
    tests pin every stream to numpy's ``SeedSequence((master_seed, index))``.
    """
    # Without intensity the sampler would draw n = 0 events from every
    # stream, which consumes no state: skipping it leaves the normals as they were.
    can_jump = any(spec.total_intensity > 0 for spec in specs)
    paths = []
    dw = kernels.step_major(grid.n_steps, n_paths, d)
    block = np.empty((min(DRAW_BLOCK, n_paths), grid.n_steps, d))
    sqdt = math.sqrt(grid.step)
    # every path assigns its own state before it draws
    rng = np.random.Generator(np.random.PCG64())
    for i0 in range(0, n_paths, DRAW_BLOCK):
        m = min(DRAW_BLOCK, n_paths - i0)
        for j, state in enumerate(path_states(master_seed, path_offset + i0, m)):
            rng.bit_generator.state = state
            if jump_paths is not None:
                paths.append(jump_paths[i0 + j])
            elif can_jump:
                paths.append(sample_jump_path(specs, grid.horizon, rng))
            rng.standard_normal((grid.n_steps, d), out=block[j])
        np.multiply(block[:m], sqdt, out=dw[i0:i0 + m])
    return paths, dw


def simulate_paths(model, ou: OUParams, specs, s0, grid: GridConfig, n_paths: int,
                   master_seed: int, jump_paths=None, path_offset: int = 0) -> PathBundle:
    """Simulate a bundle of paths, reproducible per (master_seed, path index).

    Each path draws its jumps first and its Brownian increments second
    from the same derived stream, so results do not depend on chunking.
    Pre-drawn ``jump_paths`` may be injected (the normals then come
    first in each stream).
    """
    specs = list(specs)
    if len(specs) != ou.dim or ou.dim != model.h:
        raise ConfigurationError("factor dimension mismatch between model, OU params and subordinators")
    s0 = np.atleast_1d(np.asarray(s0, dtype=float))
    if s0.size != model.d or (s0 <= 0).any():
        raise ConfigurationError("initial prices must be positive, one per asset")
    paths, dw = _draw_jumps_and_normals(specs, grid, n_paths, master_seed, path_offset, model.d, jump_paths)
    jumps = JumpRecord.pack(paths, grid, n_paths, len(specs))
    del paths  # the engine runs without the sampled paths: the record holds the events
    y_end, sharpe_int, mpr_dw, factor_int = kernels.simulate_d1h1(model, ou.y0, ou.mean_reversion, grid.step,
                                                                  dw, jumps)
    return PathBundle(model, ou, specs, s0, grid, dw, y_end, sharpe_int, mpr_dw,
                      factor_int, jumps, master_seed, path_offset)


def iter_path_chunks(model, ou, specs, s0, grid, n_paths, master_seed, chunk_size=10_000,
                     path_offset=0):
    """Yield PathBundle chunks covering ``n_paths`` paths from index ``path_offset``."""
    done = 0
    while done < n_paths:
        n = min(chunk_size, n_paths - done)
        yield simulate_paths(model, ou, specs, s0, grid, n, master_seed, path_offset=path_offset + done)
        done += n


def dump_paths_csv(bundle: PathBundle, fname, max_paths: int = 100):
    """Write (path, t, Y_*, S_*, D_*) rows for the first paths of a bundle,
    kept node by node from one forward walk."""
    n = min(bundle.n_paths, max_paths)
    discount = np.exp(-bundle.rate * bundle.times)
    nodes = [(y[:n].copy(), s[:n].copy(), s[:n] * discount[k]) for k, (y, _, s) in enumerate(bundle.walk())]
    with open(fname, "w") as f:
        ycols = ",".join(f"Y_{i+1}" for i in range(bundle.ou.dim))
        scols = ",".join(f"S_{m+1}" for m in range(bundle.model.d))
        dcols = ",".join(f"D_{m+1}" for m in range(bundle.model.d))
        f.write(f"path,t,{ycols},{scols},{dcols}\n")
        for p in range(n):
            for t, (y, s, d) in zip(bundle.times, nodes):
                yv, sv, dv = (",".join(f"{v:.12g}" for v in a[p]) for a in (y, s, d))
                f.write(f"{bundle.path_offset + p},{t:.12g},{yv},{sv},{dv}\n")
