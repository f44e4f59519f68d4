"""Opportunity surface and variance-optimal density path.

The surface P(t, y) = E[exp(-integral of the squared market price of
risk along the factor started at (t, y))] has two independent
evaluators: a Monte Carlo estimator (any factor dimension) and a
backward finite-difference solve of its integro-PDE (one factor).
Models with a flat market price of risk short-circuit to the closed
form exp(-s2 * (T - t)).

The density path combines the surface with the stochastic exponential
of the adjusted price integral; its terminal value is the change of
measure used to price and to validate the backward solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as kernels
from .levy import (
    ConfigurationError,
    chernoff_quantile_bound,
    jump_quadrature,
    sample_jump_path,
)
from .ngou import OUParams


class OpportunitySurface:
    """Callable surface with clamped evaluation outside its state box."""

    horizon: float

    def value(self, t: float, y) -> float:
        raise NotImplementedError

    def value_at_states(self, t: float, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value_along(self, times: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Evaluate at (times[k], y[:, k]) for every step column."""
        out = np.empty(y.shape[:2])
        for k, t in enumerate(times):
            out[:, k] = self.value_at_states(t, y[:, k])
        return out


class ConstantSharpeSurface(OpportunitySurface):
    """Closed form when the squared market price of risk is flat."""

    def __init__(self, sharpe2: float, horizon: float):
        if sharpe2 < 0:
            raise ConfigurationError("squared market price of risk must be nonnegative")
        self.sharpe2 = float(sharpe2)
        self.horizon = float(horizon)

    def value(self, t, y=None):
        return math.exp(-self.sharpe2 * (self.horizon - t))

    def value_at_states(self, t, y):
        return np.full(np.asarray(y).shape[0], self.value(t))

    def value_along(self, times, y):
        col = np.exp(-self.sharpe2 * (self.horizon - np.asarray(times)))
        return np.tile(col, (y.shape[0], 1))


@dataclass
class MeshConfig:
    """Discretization of the one-factor integro-PDE solve."""

    n_y: int = 400
    n_time_slices: int = 513
    cfl: float = 0.8
    reaction_theta: float = 0.5
    quantile_eps: float = 1e-4
    tail_eps: float = 1e-8
    n_quad: int = 24
    y_floor: float | None = None
    y_top: float | None = None
    n_time_steps: int | None = None
    floor_odds: float = 1e16


class IpdeSurface(OpportunitySurface):
    """Bilinear table in (t, log y) from the backward grid solve.

    Accurate on states the factor can actually reach, y >= y0*exp(-lam*t):
    characteristics from that wedge exit through the terminal slice.
    Below the wedge the transport runs along the floor boundary and the
    one-sided closure there degrades the solution.
    """

    def __init__(self, t_slices, y_nodes, table, horizon):
        self.t_slices = np.asarray(t_slices)
        self.y_nodes = np.asarray(y_nodes)
        self.eta = np.log(self.y_nodes)
        self.table = np.asarray(table)
        self.horizon = float(horizon)
        self.n_below_floor = 0
        self.n_above_top = 0
        self._dt = self.t_slices[1] - self.t_slices[0]
        self._deta = self.eta[1] - self.eta[0]

    def _t_bracket(self, t):
        x = (t - self.t_slices[0]) / self._dt
        x = min(max(x, 0.0), self.t_slices.size - 1 - 1e-12)
        i = int(x)
        return i, x - i

    def _lookup(self, t_idx, wts, y):
        """Values at states y (n, m), column k at time bracket (t_idx[k], wts[k]).

        Counts the states clamped at the floor and continues the surface
        log-linearly above the mesh top.
        """
        eta = np.log(np.maximum(y, 1e-300))
        self.n_below_floor += int(np.count_nonzero(eta < self.eta[0]))
        out = kernels.bilinear_steps(self.table, t_idx, wts, eta, self.eta[0], 1.0 / self._deta)
        above = eta > self.eta[-1]
        if np.any(above):
            self.n_above_top += int(np.count_nonzero(above))
            rows, cols = np.nonzero(above)
            i, w = t_idx[cols], wts[cols]
            top = (1 - w)[:, None] * self.table[i, -2:] + w[:, None] * self.table[i + 1, -2:]
            slope = (np.log(np.maximum(top[:, 1], 1e-300))
                     - np.log(np.maximum(top[:, 0], 1e-300))) / self._deta
            out[rows, cols] = top[:, 1] * np.exp(slope * (eta[rows, cols] - self.eta[-1]))
        return out

    def value_at_states(self, t, y):
        y = np.asarray(y, dtype=float)
        if y.ndim == 2:
            y = y[:, 0]
        i, wt = self._t_bracket(t)
        return self._lookup(np.array([i]), np.array([wt]), y[:, None])[:, 0]

    def value(self, t, y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        return float(self.value_at_states(t, y.reshape(1, -1))[0])

    def value_along(self, times, y):
        if y.ndim == 3:
            y = y[:, :, 0]
        times = np.asarray(times)
        t_idx = np.empty(times.size, dtype=np.int64)
        wts = np.empty(times.size)
        for k, t in enumerate(times):
            t_idx[k], wts[k] = self._t_bracket(t)
        return self._lookup(t_idx, wts, y)

    def export_csv(self, fname):
        with open(fname, "w") as f:
            f.write("t,y,P\n")
            for i, t in enumerate(self.t_slices):
                for j, yv in enumerate(self.y_nodes):
                    f.write(f"{t:.12g},{yv:.12g},{self.table[i, j]:.12g}\n")


def practical_floor(ou: OUParams, specs, horizon: float, odds: float = 1e16) -> float:
    """State floor actually reachable at meaningful probability.

    The hard bound is y0*exp(-lambda*T); when jumps arrive at rate R the
    factor only approaches it through jump-free windows, whose longest
    plausible length is log(odds * R * T) / R.
    """
    lam = ou.mean_reversion[0]
    y0 = ou.y0[0]
    rate = sum(s.time_scale * s.total_intensity for s in specs)
    hard = y0 * math.exp(-lam * horizon)
    if rate <= 0:
        return hard
    window = math.log(odds * max(rate * horizon, 1.0)) / rate
    return max(hard, y0 * math.exp(-lam * min(horizon, window)))


def solve_opportunity_ipde(model, ou: OUParams, spec, horizon: float,
                           mesh: MeshConfig | None = None,
                           force_mesh: bool = False) -> OpportunitySurface:
    """Backward solve of the surface equation for a one-factor model.

    First-order upwind in log-state for the mean-reversion transport,
    theta-weighted reaction, explicit jump integral by quadrature with
    tail truncation; terminal data P(T, .) = 1.  Models with a flat
    squared market price of risk short-circuit to the closed form
    unless ``force_mesh`` is set.
    """
    mesh = mesh or MeshConfig()
    if ou.dim != 1 or model.h != 1:
        raise ConfigurationError("grid solve supports one factor; use the MC evaluator")
    if model.constant_sharpe is not None and not force_mesh:
        return ConstantSharpeSurface(model.constant_sharpe, horizon)
    lam = ou.mean_reversion[0]
    z_nodes, z_weights = jump_quadrature(spec, mesh.tail_eps, mesh.n_quad)
    z_weights = z_weights * spec.time_scale  # calendar-time intensity lambda*nu
    z_max = float(z_nodes.max()) if z_nodes.size else 0.0

    floor = mesh.y_floor if mesh.y_floor is not None else practical_floor(ou, [spec], horizon, mesh.floor_odds)
    if mesh.y_top is not None:
        top = mesh.y_top
        if top < ou.y0[0] + z_max:
            raise ValueError(
                f"mesh top {top} cannot cover the jump range: need at least {ou.y0[0] + z_max}"
            )
    else:
        top = (ou.y0[0] + chernoff_quantile_bound(spec, horizon, mesh.quantile_eps) + z_max) * 1.05
    if floor >= top:
        raise ConfigurationError("mesh floor must lie below the mesh top")

    eta = np.linspace(math.log(floor), math.log(top), mesh.n_y)
    deta = eta[1] - eta[0]
    y_nodes = np.exp(eta)
    rho = model.sharpe_squared(y_nodes[:, None])
    nu_mass = float(z_weights.sum())

    # stability limits for the explicit transport and jump pieces
    dt_max = mesh.cfl * deta / lam
    if nu_mass > 0:
        dt_max = min(dt_max, mesh.cfl / nu_mass)
    m_slices = mesh.n_time_slices
    per = max(1, math.ceil(horizon / dt_max / (m_slices - 1)))
    n_steps = per * (m_slices - 1)
    if mesh.n_time_steps is not None:
        n_steps = mesh.n_time_steps
        if n_steps % (m_slices - 1):
            raise ConfigurationError("n_time_steps must be a multiple of n_time_slices - 1")
        per = n_steps // (m_slices - 1)
    dt = horizon / n_steps
    if lam * dt / deta > 1.0 + 1e-9 or (nu_mass > 0 and dt * nu_mass > 1.0 + 1e-9):
        raise ValueError("time step violates the stability bound for the explicit terms")
    if mesh.reaction_theta < 1.0 and dt * (1 - mesh.reaction_theta) * float(rho.max()) > 1.0:
        raise ValueError("time step violates the stability bound for the explicit reaction")

    # gather indices for u(y + z) with clamping at the top of the mesh
    if z_nodes.size:
        tgt = np.log(y_nodes[:, None] + z_nodes[None, :])
        x = (tgt - eta[0]) / deta
        x = np.clip(x, 0.0, mesh.n_y - 1 - 1e-12)
        jidx = x.astype(np.int64)
        jw = x - jidx

    theta = mesh.reaction_theta
    u = np.ones(mesh.n_y)
    table = np.empty((m_slices, mesh.n_y))
    table[m_slices - 1] = u  # t = T
    store_row = m_slices - 1
    denom = 1.0 + theta * dt * rho
    shrink = 1.0 - (1 - theta) * dt * rho
    for step in range(1, n_steps + 1):
        conv = np.empty_like(u)
        conv[1:] = (u[1:] - u[:-1]) / deta
        conv[0] = 0.0  # floor node: transport dropped, state never reaches it
        if z_nodes.size:
            u_shift = u[jidx] * (1 - jw) + u[np.minimum(jidx + 1, mesh.n_y - 1)] * jw
            jump = u_shift @ z_weights - nu_mass * u
        else:
            jump = 0.0
        u = (u * shrink - dt * lam * conv + dt * jump) / denom
        if step % per == 0:
            store_row -= 1
            table[store_row] = u
    t_slices = np.linspace(0.0, horizon, m_slices)
    return IpdeSurface(t_slices, y_nodes, table, horizon)


def estimate_opportunity_mc(model, ou: OUParams, specs, t: float, y, horizon: float,
                            n_inner: int = 2000, seed=0):
    """Monte Carlo estimate of the surface at one state, with standard error.

    Averages exp(-I) over exact factor paths started at (t, y), where I
    is the pathwise integral of the squared market price of risk,
    computed by fixed-order quadrature on every inter-jump segment.
    """
    if n_inner < 100:
        raise ConfigurationError("need at least 100 inner samples")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    rng = np.random.default_rng(seed)
    span = horizon - t
    if span < 0:
        raise ConfigurationError("t must not exceed the horizon")
    if span == 0:
        return 1.0, 0.0
    paths = [sample_jump_path(specs, span, rng) for _ in range(n_inner)]
    offsets = np.zeros(n_inner + 1, dtype=np.int64)
    offsets[1:] = np.cumsum([len(p) for p in paths])
    expo = kernels.opportunity_mc_exponent(
        model.sharpe_squared, ou.mean_reversion, y, span, offsets,
        np.concatenate([p.times for p in paths]),
        np.concatenate([p.components for p in paths]),
        np.concatenate([p.sizes for p in paths]),
    )
    vals = np.exp(-expo)
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n_inner))
    return est, se


class McSurface(OpportunitySurface):
    """Pointwise Monte Carlo surface with memoized, seeded evaluations."""

    def __init__(self, model, ou, specs, horizon, n_inner=2000, master_seed=0):
        self.model = model
        self.ou = ou
        self.specs = list(specs)
        self.horizon = float(horizon)
        self.n_inner = n_inner
        self.master_seed = master_seed
        self._cache = {}

    def value(self, t, y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        key = (float(t),) + tuple(float(v) for v in y)
        if key not in self._cache:
            bits = tuple(int(np.float64(v).view(np.uint64)) for v in key)
            seed = np.random.SeedSequence((self.master_seed,) + bits)
            est, se = estimate_opportunity_mc(
                self.model, self.ou, self.specs, t, y, self.horizon, self.n_inner, seed
            )
            self._cache[key] = (est, se)
        return self._cache[key][0]

    def value_at_states(self, t, y):
        y = np.asarray(y, dtype=float).reshape(-1, self.ou.dim)
        return np.array([self.value(t, row) for row in y])


def make_surface(model, ou, specs, horizon, mesh: MeshConfig | None = None,
                 mode: str = "auto", n_inner: int = 2000, master_seed: int = 0):
    """Pick the surface evaluator: closed form, grid solve, or Monte Carlo."""
    if mode not in ("auto", "ipde", "mc"):
        raise ConfigurationError(f"unknown surface mode {mode!r}")
    if model.constant_sharpe is not None and mode != "mc":
        return ConstantSharpeSurface(model.constant_sharpe, horizon)
    if mode == "mc" or (mode == "auto" and ou.dim != 1):
        return McSurface(model, ou, specs, horizon, n_inner, master_seed)
    return solve_opportunity_ipde(model, ou, specs[0], horizon, mesh)


def stochastic_exponential(n_path: np.ndarray, qv_path: np.ndarray) -> np.ndarray:
    """exp(N - [N, N]/2) along the grid for a continuous semimartingale N."""
    return np.exp(np.asarray(n_path) - 0.5 * np.asarray(qv_path))


@dataclass
class DensityPath:
    """Opportunity values, adjusted-gain integral and density along paths."""

    times: np.ndarray
    opportunity: np.ndarray  # (n, K+1)
    a_dot_d: np.ndarray      # (n, K+1) running integral of a against D
    stoch_exp: np.ndarray    # (n, K+1)
    density: np.ndarray      # (n, K+1)
    density_left: np.ndarray
    o0: float

    @property
    def terminal(self) -> np.ndarray:
        return self.density[:, -1]


def _adjusted_gain_parts(bundle):
    """Running integral of a against D and its quadratic variation.

    Both reduce to integrals of the (squared) market price of risk, so
    they are accumulated from the bundle's per-step quadratures rather
    than from realized price differences; this keeps the density exact
    for flat-coefficient models.
    """
    n, nk = bundle.sharpe_int.shape
    # step-major running sums, one contiguous add per step (a cumsum
    # along the step axis would walk each path with a stride)
    r_cum = kernels.step_major(nk + 1, n)
    m_cum = kernels.step_major(nk + 1, n)
    r_cum[:, 0] = m_cum[:, 0] = 0.0
    for k in range(nk):
        np.add(r_cum[:, k], bundle.sharpe_int[:, k], out=r_cum[:, k + 1])
        np.add(m_cum[:, k], bundle.mpr_dw[:, k], out=m_cum[:, k + 1])
    return r_cum + m_cum, r_cum


def density_path(surface: OpportunitySurface, bundle) -> DensityPath:
    """Variance-optimal density along a bundle, normalized to one at t=0."""
    if abs(surface.horizon - bundle.times[-1]) > 1e-9:
        raise ConfigurationError("surface horizon does not match the bundle grid")
    opp = surface.value_along(bundle.times, bundle.y)
    a_dot_d, qv = _adjusted_gain_parts(bundle)
    see = stochastic_exponential(-a_dot_d, qv)
    o0 = float(opp[0, 0])
    density = opp * see / o0
    yl = bundle.y_left
    if yl is bundle.y or np.shares_memory(yl, bundle.y):
        density_left = density
    else:
        opp_left = surface.value_along(bundle.times, yl)
        density_left = opp_left * see / o0
    return DensityPath(bundle.times, opp, a_dot_d, see, density, density_left, o0)


def density_terminal(surface: OpportunitySurface, bundle) -> np.ndarray:
    """Terminal density values only; avoids storing whole density paths.

    The two running sums of ``_adjusted_gain_parts`` are kept for the
    last step alone, added step by step in the same order, so the
    values equal ``density_path(...).terminal`` bitwise.
    """
    qv = np.zeros(bundle.n_paths)
    m = np.zeros(bundle.n_paths)
    for k in range(bundle.n_steps):
        qv += bundle.sharpe_int[:, k]
        m += bundle.mpr_dw[:, k]
    o0 = float(surface.value_at_states(0.0, bundle.y[:, 0])[0])
    o_t = surface.value_at_states(bundle.times[-1], bundle.y[:, -1])
    return o_t * np.exp(-(qv + m) - 0.5 * qv) / o0
