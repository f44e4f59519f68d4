"""Opportunity surface and variance-optimal density path.

The surface P(t, y) = E[exp(-integral of the squared market price of
risk along the factor started at (t, y))] is evaluated in closed form,
exp(-s2 * (T - t)), when the squared market price of risk is flat, and
by a backward finite-difference solve of its integro-PDE (one factor)
otherwise.  A Monte Carlo estimator at single states (any factor
dimension) is the independent check of both.

Every read of the surface goes through ``value_at_states``; on the grid
solve it and the backward solve's jump-channel tables share one
interpolation routine.  The density walk combines the surface with the
stochastic exponential of the adjusted price integral, node by node;
its terminal value is the change of measure used to price and to
validate the backward solver.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
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


class OpportunitySurface(ABC):
    """Surface P(t, y) with clamped evaluation outside its state box.

    Every read goes through ``value_at_states``; the backward solve reads
    the surface's jump integrals from ``jump_channels``.
    """

    horizon: float

    def value(self, t: float, y) -> float:
        """P at one state (t, y)."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        return float(self.value_at_states(t, y.reshape(1, -1))[0])

    @abstractmethod
    def value_at_states(self, t: float, y: np.ndarray) -> np.ndarray:
        """P at time t and states y (n,) or (n, 1)."""

    @abstractmethod
    def jump_channels(self, times, z_nodes, z_weights):
        """The surface's three jump integrals, tabulated once for a backward solve.

        With F_q = P(t, y + z_q)/P(t, y) - 1 at the jump quadrature
        (``z_nodes``, ``z_weights``), the channels are C1 = sum_q w_q z_q F_q,
        C2 = sum_q w_q z_q^2 F_q and C3 = sum_q w_q F_q^2/(1 + F_q), each a
        function of (t, y) alone.  Returns ``channels(k, y)``: the three
        at time ``times[k]`` and states ``y`` (n,), as an (n, 3) array.
        """


class ConstantSharpeSurface(OpportunitySurface):
    """Closed form when the squared market price of risk is flat."""

    def __init__(self, sharpe2: float, horizon: float):
        if sharpe2 < 0:
            raise ConfigurationError("squared market price of risk must be nonnegative")
        self.sharpe2 = float(sharpe2)
        self.horizon = float(horizon)

    def value_at_states(self, t, y):
        return np.full(np.asarray(y).shape[0], math.exp(-self.sharpe2 * (self.horizon - t)))

    def jump_channels(self, times, z_nodes, z_weights):
        # P does not depend on y, so F is zero
        return lambda k, y: np.zeros((y.shape[0], 3))


# share of the explicit transport and jump stability limits a time step takes
_CFL = 0.8
# implicit weight of the reaction term: one half is Crank–Nicolson
_REACTION_THETA = 0.5
# most time steps a surface solve may march; the defaults need at most
# 12 800 (T = 200), and n_y = 4000 needs 126 800
MAX_IPDE_STEPS = 1_000_000


@dataclass
class MeshConfig:
    """Discretization of the one-factor integro-PDE solve.

    The time step count is not set here: the solve takes the fewest
    steps, a multiple of ``n_time_slices - 1``, that keep the explicit
    transport and jump terms stable and the explicit reaction positive.
    The jump quadrature's tail cut, the default floor's odds and the
    default top's quantile are the defaults of ``jump_quadrature``,
    ``practical_floor`` and ``chernoff_quantile_bound``.
    """

    n_y: int = 400
    n_time_slices: int = 513
    n_quad: int = 24
    y_floor: float | None = None
    y_top: float | None = None


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

    def _t_brackets(self, times):
        """The time slices (s,) that the times (m,) read, clamped to the
        table, each time's bracketing rows among them (m,) and its weight (m, 1)."""
        x = np.clip((np.asarray(times) - self.t_slices[0]) / self._dt, 0.0, self.t_slices.size - 1 - 1e-12)
        t_idx = x.astype(np.int64)
        slices, at = np.unique(np.concatenate([t_idx, t_idx + 1]), return_inverse=True)
        return slices, at[:t_idx.size], at[t_idx.size:], (x - t_idx)[:, None]

    def _count_clamped(self, eta):
        self.n_below_floor += int(np.count_nonzero(eta < self.eta[0]))
        self.n_above_top += int(np.count_nonzero(eta > self.eta[-1]))

    def _at_states(self, brackets, eta):
        """Values (m, n) at log-states eta (n,), row k at the k-th time of ``brackets``.

        Each distinct time slice is interpolated in log y once, then
        every row in time.  Clamps at the floor and continues the surface
        log-linearly above the mesh top.  Counts no clamped state.
        """
        slices, lo, hi, w = brackets
        x = np.clip((eta - self.eta[0]) * (1.0 / self._deta), 0.0, self.eta.size - 1 - 1e-12)
        j = x.astype(np.int64)
        wy = x - j
        on_slices = self.table[slices[:, None], j] * (1.0 - wy) + self.table[slices[:, None], j + 1] * wy
        out = on_slices[lo] * (1.0 - w) + on_slices[hi] * w
        above = eta > self.eta[-1]
        if np.any(above):
            # the two top columns at the bracket times
            top = (1 - w) * self.table[slices[lo], -2:] + w * self.table[slices[hi], -2:]
            slope = (np.log(np.maximum(top[:, 1:], 1e-300)) - np.log(np.maximum(top[:, :1], 1e-300))) / self._deta
            out[:, above] = top[:, 1:] * np.exp(slope * (eta[above] - self.eta[-1]))
        return out

    def value_at_states(self, t, y):
        y = np.asarray(y, dtype=float)
        if y.ndim == 2:
            y = y[:, 0]
        eta = np.log(np.maximum(y, 1e-300))
        self._count_clamped(eta)
        return self._at_states(self._t_brackets([t]), eta)[0]

    def jump_channels(self, times, z_nodes, z_weights):
        """Channel tables at ``times`` on the mesh nodes, read bilinearly in log y.

        At a node (times[k], y_j) each channel is the contraction of the
        values ``value_at_states`` gives at [y_j, y_j + z_q], bit for bit.
        Building the tables counts no clamped state.  Reading them counts
        the states below the floor and above the top; a channel holds its
        floor and top-node values outside the mesh.
        """
        brackets = self._t_brackets(times)
        # one (3, n_y) block of the three channels per time, read by row
        table = np.zeros((brackets[1].size, 3, self.y_nodes.size))
        base = self._at_states(brackets, self.eta)
        for zq, wq in zip(z_nodes, z_weights):
            f = self._at_states(brackets, np.log(self.y_nodes + zq)) / base - 1.0
            table[:, 0] += (wq * zq) * f
            table[:, 1] += (wq * zq * zq) * f
            table[:, 2] += wq * (f * f / (1.0 + f))

        def channels(k, y):
            eta = np.log(np.maximum(y, 1e-300))
            self._count_clamped(eta)
            return kernels.bilinear_steps(table[k], eta, self.eta[0], 1.0 / self._deta)

        return channels

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
                           mesh: MeshConfig | None = None) -> IpdeSurface:
    """Backward solve of the surface equation for a one-factor model.

    First-order upwind in log-state for the mean-reversion transport,
    theta-weighted reaction, explicit jump integral by quadrature with
    tail truncation; terminal data P(T, .) = 1.  Flat coefficients are
    solved on the mesh too (``make_surface`` takes the closed form).
    """
    mesh = mesh or MeshConfig()
    if ou.dim != 1 or model.h != 1:
        raise ConfigurationError("grid solve supports one factor only")
    lam = ou.mean_reversion[0]
    z_nodes, z_weights = jump_quadrature(spec, n_nodes=mesh.n_quad)
    z_weights = z_weights * spec.time_scale  # calendar-time intensity lambda*nu
    z_max = float(z_nodes.max(initial=0.0))

    floor = mesh.y_floor if mesh.y_floor is not None else practical_floor(ou, [spec], horizon)
    if mesh.y_top is not None:
        top = mesh.y_top
        if top < ou.y0[0] + z_max:
            raise ConfigurationError(
                f"mesh top {top} cannot cover the jump range: need at least {ou.y0[0] + z_max}"
            )
    else:
        top = (ou.y0[0] + chernoff_quantile_bound(spec, horizon) + z_max) * 1.05
    if floor >= top:
        raise ConfigurationError("mesh floor must lie below the mesh top")

    eta = np.linspace(math.log(floor), math.log(top), mesh.n_y)
    deta = eta[1] - eta[0]
    y_nodes = np.exp(eta)
    rho = model.sharpe_squared(y_nodes[:, None])
    nu_mass = float(z_weights.sum())

    # stability limits for the explicit transport and jump pieces and the
    # positivity limit of the explicit reaction
    dt_max = _CFL * deta / lam
    if nu_mass > 0:
        dt_max = min(dt_max, _CFL / nu_mass)
    react = (1 - _REACTION_THETA) * float(rho.max())
    if react > 0:
        dt_max = min(dt_max, 1.0 / react)
    m_slices = mesh.n_time_slices
    # dt <= dt_max, so every bound above holds
    per = max(1, math.ceil(horizon / dt_max / (m_slices - 1)))
    n_steps = per * (m_slices - 1)
    if n_steps > MAX_IPDE_STEPS:
        raise ConfigurationError(
            f"surface solve needs {n_steps} time steps, more than {MAX_IPDE_STEPS}, "
            f"with the mesh floor at {floor:.3g}: raise the floor or lower n_y"
        )
    dt = horizon / n_steps

    # gather indices for u(y + z) with clamping at the top of the mesh
    tgt = np.log(y_nodes[:, None] + z_nodes[None, :])
    x = (tgt - eta[0]) / deta
    x = np.clip(x, 0.0, mesh.n_y - 1 - 1e-12)
    jidx = x.astype(np.int64)
    jw = x - jidx
    jidx_up = np.minimum(jidx + 1, mesh.n_y - 1)
    jw_down = 1 - jw

    u = np.ones(mesh.n_y)
    table = np.empty((m_slices, mesh.n_y))
    table[m_slices - 1] = u  # t = T
    store_row = m_slices - 1
    denom = 1.0 + _REACTION_THETA * dt * rho
    shrink = 1.0 - (1 - _REACTION_THETA) * dt * rho
    conv = np.zeros(mesh.n_y)  # floor entry stays 0: transport dropped, state never reaches it
    for step in range(1, n_steps + 1):
        np.subtract(u[1:], u[:-1], out=conv[1:])
        conv[1:] /= deta
        jump = (u.take(jidx) * jw_down + u.take(jidx_up) * jw) @ z_weights - nu_mass * u
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
    computed by fixed-order quadrature on every inter-jump segment.  The
    ``n_inner`` paths' jumps come from one ``sample_jump_path`` call on
    ``seed``, checked before use.
    """
    if n_inner < 100:
        raise ConfigurationError("need at least 100 inner samples")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    span = horizon - t
    if span < 0:
        raise ConfigurationError("t must not exceed the horizon")
    if span == 0:
        return 1.0, 0.0
    events = sample_jump_path(specs, span, n_inner, seed)
    events.check()
    expo = kernels.opportunity_mc_exponent(model.sharpe_squared, ou.mean_reversion, y, span, events.offsets,
                                           events.times, events.components, events.sizes)
    vals = np.exp(-expo)
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n_inner))
    return est, se


def make_surface(model, ou, specs, horizon, mesh: MeshConfig | None = None):
    """Closed form for a flat squared market price of risk, else the grid solve."""
    if model.constant_sharpe is not None:
        return ConstantSharpeSurface(model.constant_sharpe, horizon)
    return solve_opportunity_ipde(model, ou, specs[0], horizon, mesh)


def stochastic_exponential(n_path: np.ndarray, qv_path: np.ndarray) -> np.ndarray:
    """exp(N - [N, N]/2) along the grid for a continuous semimartingale N."""
    return np.exp(np.asarray(n_path) - 0.5 * np.asarray(qv_path))


def check_horizon(surface: OpportunitySurface, bundle):
    """Raise unless the surface was solved for the bundle's horizon."""
    if abs(surface.horizon - bundle.times[-1]) > 1e-9:
        raise ConfigurationError("surface horizon does not match the bundle grid")


def density_walk(surface: OpportunitySurface, bundle):
    """Yield the variance-optimal density and its left limit (n,),
    normalized to one at t = 0, at nodes k = 0..K.

    The quadratures are the engine's per-step terms, replayed
    (``PathBundle.engine_steps``) into running sums (n,), and the surface
    is read node by node through ``value_at_states``, at the factor's
    left limit only where an event lies on the node; so the last density
    equals ``density_terminal`` bitwise.
    """
    check_horizon(surface, bundle)
    times = bundle.times
    qv, m = np.zeros(bundle.n_paths), np.zeros(bundle.n_paths)
    o0 = surface.value(0.0, bundle.ou.y0)

    def at_node(k, y):
        see = stochastic_exponential(-(qv + m), qv)
        density = surface.value_at_states(times[k], y) * see / o0
        y_left = bundle.left_limit(k, y)
        if y_left is y:
            return density, density
        return density, surface.value_at_states(times[k], y_left) * see / o0

    yield at_node(0, np.tile(bundle.ou.y0, (bundle.n_paths, 1)))
    for k, (r_step, m_step, _, y) in enumerate(bundle.engine_steps(), 1):
        qv += r_step
        m += m_step
        yield at_node(k, y)


def density_terminal(surface: OpportunitySurface, bundle) -> np.ndarray:
    """Terminal density values only, from the bundle's two path totals
    and its terminal factor.

    The engine sums the per-step quadratures from zero in step order,
    as the running sums of ``density_walk`` do, and both read the
    surface through ``value_at_states``, so the values equal the walk's
    last density bitwise.
    """
    check_horizon(surface, bundle)
    qv, m = bundle.sharpe_int, bundle.mpr_dw
    o0 = surface.value(0.0, bundle.ou.y0)
    o_t = surface.value_at_states(bundle.times[-1], bundle.y_end)
    return o_t * stochastic_exponential(-(qv + m), qv) / o0
