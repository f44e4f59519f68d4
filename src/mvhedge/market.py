"""Coefficient models, price simulation and standing-assumption checks.

The stock simulation discretizes the explicit log-solution with
coefficients frozen at the step-left factor value, so prices stay
positive and constant-coefficient models are simulated exactly per
step.  The factor itself and its time integral carry no discretization
error at all (see ngou).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels as kernels
from .levy import ConfigurationError, JumpPath, rng_for_path, sample_jump_path
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
    declared_bounds: dict = {}

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
        self.declared_bounds = {
            "A_b": abs(self.alpha),
            "B_b": 0.0,
            "A_cov": self.beta**2,
            "B_cov": 0.0,
            "Abar_b": 0.0,
            "Bbar_b": 0.0,
            "Abar_cov": 0.0,
            "Bbar_cov": 0.0,
        }

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
        self.declared_bounds = {
            "A_b": abs(self.alpha),
            "B_b": abs(self.beta),
            "A_cov": 0.0,
            "B_cov": 1.0,
            "b_cov": 1.0,
            "Abar_b": abs(self.beta),
            "Bbar_b": 0.0,
        }

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


def sharpe_squared(model, y):
    """Squared market price of risk B'(sigma sigma')^{-1} B, nonnegative."""
    return model.sharpe_squared(y)


def market_price_of_risk(model, y):
    """sigma'(sigma sigma')^{-1} B, the Brownian loading of the risk premium."""
    return model.market_price_of_risk(y)


def adjustment(model, d_prices, y):
    """Feedback coefficient diag(D)^{-1} (sigma sigma')^{-1} B at the left limit."""
    b = excess_drift(model, y)
    x = _solve_cov(model, y, b)
    return x / np.asarray(d_prices, dtype=float)


@dataclass
class CheckRow:
    name: str
    satisfied: bool
    worst_margin: float | None
    implied_constant: float | None
    detail: str


@dataclass
class ConditionReport:
    rows: list
    max_cov_condition: float
    warnings: list

    @property
    def ok(self) -> bool:
        return all(r.satisfied for r in self.rows)

    def __str__(self):
        lines = [f"coefficient conditions ({'pass' if self.ok else 'FAIL'})"]
        for r in self.rows:
            tag = "ok " if r.satisfied else "BAD"
            lines.append(f"  [{tag}] {r.name}: {r.detail}")
        lines.append(f"  max cov condition number: {self.max_cov_condition:.4g}")
        for w in self.warnings:
            lines.append(f"  warning: {w}")
        return "\n".join(lines)


def _sup_norm(a):
    return np.max(np.abs(a), axis=tuple(range(1, a.ndim))) if a.ndim > 1 else np.abs(a)


def check_conditions(model, y_samples) -> ConditionReport:
    """Evaluate the linear-growth and derivative bounds at sample states.

    Bounds declared by the model are checked directly; undeclared ones
    are reported through the smallest constant consistent with the
    samples.  Derivatives use central differences with relative step
    1e-5.  The report never raises; degenerate volatility is flagged.
    """
    y = np.atleast_2d(np.asarray(y_samples, dtype=float))
    rows = []
    warns = []
    bounds = dict(model.declared_bounds or {})
    ynorm = _sup_norm(y)

    b = np.atleast_2d(model.drift(y))
    cov = covariance(model, y)
    cov_flat = cov.reshape(y.shape[0], -1)
    bnorm = _sup_norm(b)
    covnorm = _sup_norm(cov_flat)

    def linear_row(name, lhs, a_key, b_key):
        a0, b0 = bounds.get(a_key), bounds.get(b_key)
        if a0 is not None and b0 is not None:
            margin = (a0 + b0 * ynorm) - lhs
            i = int(np.argmin(margin))
            ok = margin[i] >= -1e-9
            return CheckRow(name, ok, float(margin[i]), None,
                            f"declared ({a0}, {b0}); worst margin {margin[i]:.4g} at y={y[i]}")
        implied = float(np.max(lhs))
        return CheckRow(name, True, None, implied,
                        f"no declared bound; implied constant {implied:.4g}")

    rows.append(linear_row("drift linear growth", bnorm, "A_b", "B_b"))
    rows.append(linear_row("covariance linear growth", covnorm, "A_cov", "B_cov"))

    # inverse covariance bound: ||(sigma sigma')^{-1}|| <= 1/(b_cov ||y||)
    try:
        inv = np.linalg.inv(cov)
        invnorm = _sup_norm(inv.reshape(y.shape[0], -1))
        conds = np.linalg.cond(cov)
        max_cond = float(np.max(conds))
        implied_bcov = float(np.min(1.0 / (invnorm * ynorm)))
        b_cov = bounds.get("b_cov")
        if b_cov is not None:
            margin = 1.0 / (b_cov * ynorm) - invnorm
            i = int(np.argmin(margin))
            rows.append(CheckRow("inverse covariance bound", bool(margin[i] >= -1e-9),
                                 float(margin[i]), implied_bcov,
                                 f"declared b={b_cov}; implied b={implied_bcov:.4g}"))
        else:
            rows.append(CheckRow("inverse covariance bound", True, None, implied_bcov,
                                 f"implied b={implied_bcov:.4g}"))
    except np.linalg.LinAlgError:
        max_cond = math.inf
        rows.append(CheckRow("inverse covariance bound", False, None, None,
                             "covariance singular at a sample"))

    # derivative bounds by central differences
    db_norm = np.zeros(y.shape[0])
    dinv_norm = np.zeros(y.shape[0])
    inv_ok = max_cond < math.inf
    for i in range(model.h):
        step = 1e-5 * np.maximum(np.abs(y[:, i]), 1.0)
        yp = y.copy()
        ym = y.copy()
        yp[:, i] += step
        ym[:, i] -= step
        der_b = (np.atleast_2d(model.drift(yp)) - np.atleast_2d(model.drift(ym))) / (2 * step[:, None])
        db_norm = np.maximum(db_norm, _sup_norm(der_b))
        if inv_ok:
            try:
                der_inv = (np.linalg.inv(covariance(model, yp)) - np.linalg.inv(covariance(model, ym)))
                der_inv = der_inv.reshape(y.shape[0], -1) / (2 * step[:, None])
                dinv_norm = np.maximum(dinv_norm, _sup_norm(der_inv))
            except np.linalg.LinAlgError:
                inv_ok = False
    rows.append(linear_row("drift derivative growth", db_norm, "Abar_b", "Bbar_b"))
    if inv_ok:
        rows.append(linear_row("inverse covariance derivative growth", dinv_norm, "Abar_cov", "Bbar_cov"))
        big = dinv_norm > 1e6
        if np.any(big):
            warns.append(
                "inverse-covariance derivative is large near the factor floor; "
                "bounded on the sampled domain but degenerate as y -> 0"
            )
    else:
        rows.append(CheckRow("inverse covariance derivative growth", False, None, None,
                             "covariance singular; derivative undefined"))
    try:
        s2 = sharpe_squared(model, y)
        if (s2 < -1e-12).any():
            rows.append(CheckRow("nonnegative squared market price of risk", False,
                                 float(s2.min()), None, "negative value found"))
        else:
            rows.append(CheckRow("nonnegative squared market price of risk", True,
                                 float(s2.min()), None, f"min {s2.min():.4g}"))
        # auxiliary gain bound sum_m x_m^2 sum_n sigma_mn^2 with
        # x = (sigma sigma')^{-1} B; controls the adjustment integrand
        x = _solve_cov(model, y, np.atleast_2d(model.drift(y)) - model.rate)
        sig = model.vol(y)
        rbar = np.sum(x**2 * np.sum(sig**2, axis=-1), axis=-1)
        rows.append(CheckRow("adjustment gain bound", True, None, float(rbar.max()),
                             f"max {rbar.max():.4g} over samples"))
    except np.linalg.LinAlgError:
        rows.append(CheckRow("nonnegative squared market price of risk", False, None, None,
                             "covariance singular"))
    return ConditionReport(rows, max_cond, warns)


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


@dataclass(frozen=True)
class RaggedJumps:
    """Jump events of a whole path set in flat arrays with per-path offsets."""

    offsets: np.ndarray
    times: np.ndarray
    components: np.ndarray
    sizes: np.ndarray
    step_index: np.ndarray
    horizon: float
    n_components: int

    @property
    def n_paths(self) -> int:
        return self.offsets.size - 1

    def path(self, i: int) -> JumpPath:
        sl = slice(self.offsets[i], self.offsets[i + 1])
        return JumpPath(self.times[sl], self.components[sl], self.sizes[sl], self.horizon, self.n_components)

    def by_step(self, grid_times: np.ndarray) -> StepEvents:
        """Group the events by the step of ``grid_times`` they fall in."""
        order = np.argsort(self.step_index, kind="stable")
        bounds = np.searchsorted(self.step_index[order], np.arange(grid_times.size))
        return StepEvents(
            path=np.repeat(np.arange(self.n_paths), np.diff(self.offsets)),
            offset=self.times - grid_times[self.step_index],
            order=order,
            bounds=bounds,
        )


@dataclass(frozen=True)
class StepEvents:
    """Jump events grouped by grid step; arrays indexed in storage order.

    path   : owning path of each event
    offset : time of each event after the left node of its step
    """

    path: np.ndarray
    offset: np.ndarray
    order: np.ndarray
    bounds: np.ndarray  # events of step k are order[bounds[k]:bounds[k + 1]]

    def rows(self, k: int) -> np.ndarray:
        """Storage indices of the events in step k, in storage order."""
        return self.order[self.bounds[k]:self.bounds[k + 1]]


def _pack_jumps(paths: list[JumpPath], grid: GridConfig) -> RaggedJumps:
    offsets = np.zeros(len(paths) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum([len(p) for p in paths])
    times = np.concatenate([p.times for p in paths]) if paths else np.empty(0)
    comps = np.concatenate([p.components for p in paths]) if paths else np.empty(0, dtype=np.int64)
    sizes = np.concatenate([p.sizes for p in paths]) if paths else np.empty(0)
    step = np.searchsorted(grid.times, times, side="left") - 1
    step = np.clip(step, 0, grid.n_steps - 1)
    return RaggedJumps(offsets, times, comps, sizes, step, grid.horizon, paths[0].n_components if paths else 1)


class PathBundle:
    """One simulated chunk: factor, prices, increments and jump records.

    Per-step arrays have shape (n_paths, n_steps[+1], ...) and are stored
    step-major (``_kernels.step_major``), so one step's slice ``[:, k]``
    is contiguous.

    Per-step integral accumulators:

    sharpe_int : integral of the squared market price of risk
    mpr_dw     : market price of risk (at step left) dotted with dW
    factor_int : lambda_i * integral of Y_i, exact including jumps
    """

    def __init__(self, model, ou, specs, s0, grid, y, s, dw, sharpe_int, mpr_dw,
                 factor_int, jumps, master_seed, path_offset):
        self.model = model
        self.ou = ou
        self.specs = tuple(specs)
        self.s0 = np.atleast_1d(np.asarray(s0, dtype=float))
        self.grid = grid
        self.times = grid.times
        self.y = y
        self.s = s
        self.dw = dw
        self.sharpe_int = sharpe_int
        self.mpr_dw = mpr_dw
        self.factor_int = factor_int
        self.jumps = jumps
        self.master_seed = master_seed
        self.path_offset = path_offset
        self._y_left = None

    @property
    def n_paths(self) -> int:
        return self.y.shape[0]

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    @property
    def rate(self) -> float:
        return self.model.rate

    @property
    def discounted(self) -> np.ndarray:
        disc = np.exp(-self.model.rate * self.times)
        return self.s * disc[None, :, None]

    @property
    def y_left(self) -> np.ndarray:
        """Left limits at grid times; differs from y only at exact node jumps."""
        if self._y_left is None:
            j = self.jumps
            on_node = np.zeros(0, dtype=bool)
            if j.times.size:
                node = np.searchsorted(self.times, j.times)
                on_node = (node < self.times.size) & (
                    self.times[np.minimum(node, self.times.size - 1)] == j.times
                )
            if j.times.size and np.any(on_node):
                yl = self.y.copy(order="K")
                pidx = np.repeat(np.arange(j.n_paths), np.diff(j.offsets))
                np.subtract.at(
                    yl,
                    (pidx[on_node], node[on_node], j.components[on_node]),
                    j.sizes[on_node],
                )
                self._y_left = yl
            else:
                self._y_left = self.y
        return self._y_left

    def factor_path(self, i: int) -> FactorPath:
        jp = self.jumps.path(i)
        return evolve(self.ou, jp, merge_grid(self.times, jp.times))


# Paths whose normals are drawn into one path-major block before the
# block is scaled into the step-major increments (1 MB at 500 steps).
DRAW_BLOCK = 256


def _draw_jumps_and_normals(specs, grid, n_paths, master_seed, path_offset, d, jump_paths):
    paths = []
    dw = kernels.step_major(grid.n_steps, n_paths, d)
    block = np.empty((min(DRAW_BLOCK, n_paths), grid.n_steps, d))
    sqdt = math.sqrt(grid.step)
    for i0 in range(0, n_paths, DRAW_BLOCK):
        m = min(DRAW_BLOCK, n_paths - i0)
        for j in range(m):
            rng = rng_for_path(master_seed, path_offset + i0 + j)
            if jump_paths is None:
                paths.append(sample_jump_path(specs, grid.horizon, rng))
            else:
                paths.append(jump_paths[i0 + j])
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
    rj = _pack_jumps(paths, grid)
    y, s, sharpe_int, mpr_dw, factor_int = kernels.simulate_d1h1(
        model, ou.y0, ou.mean_reversion, grid.step, s0, dw,
        rj.by_step(grid.times), rj.components, rj.sizes,
    )
    return PathBundle(model, ou, specs, s0, grid, y, s, dw, sharpe_int, mpr_dw,
                      factor_int, rj, master_seed, path_offset)


def iter_path_chunks(model, ou, specs, s0, grid, n_paths, master_seed, chunk_size=10_000):
    """Yield PathBundle chunks covering ``n_paths`` paths."""
    done = 0
    while done < n_paths:
        n = min(chunk_size, n_paths - done)
        yield simulate_paths(model, ou, specs, s0, grid, n, master_seed, path_offset=done)
        done += n


def dump_paths_csv(bundle: PathBundle, fname, max_paths: int = 100):
    """Write (path, t, Y_*, S_*, D_*) rows for the first paths of a bundle."""
    n = min(bundle.n_paths, max_paths)
    disc = bundle.discounted
    with open(fname, "w") as f:
        ycols = ",".join(f"Y_{i+1}" for i in range(bundle.ou.dim))
        scols = ",".join(f"S_{m+1}" for m in range(bundle.model.d))
        dcols = ",".join(f"D_{m+1}" for m in range(bundle.model.d))
        f.write(f"path,t,{ycols},{scols},{dcols}\n")
        for p in range(n):
            for k, t in enumerate(bundle.times):
                yv = ",".join(f"{v:.12g}" for v in bundle.y[p, k])
                sv = ",".join(f"{v:.12g}" for v in bundle.s[p, k])
                dv = ",".join(f"{v:.12g}" for v in disc[p, k])
                f.write(f"{bundle.path_offset + p},{t:.12g},{yv},{sv},{dv}\n")
