"""Backward solver for the claim's mean-value process under the
variance-optimal measure, plus its independent density-weighted oracle.

The unknown triple is (value V, Brownian loadings Vbar, jump loadings
Vtilde).  Backward induction uses cross-path least squares for the
conditional expectations; the driver couples the loadings to the market
price of risk and to the jump sensitivity of the opportunity surface.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .levy import ConfigurationError, jump_quadrature
from .market import PathBundle, market_price_of_risk
from .opportunity import OpportunitySurface, check_horizon, density_terminal


class ConstantPayoff:
    """Deterministic discounted payoff."""

    def __init__(self, p: float):
        self.p = float(p)

    def __call__(self, bundle: PathBundle) -> np.ndarray:
        return np.full(bundle.n_paths, self.p)

    def value_and_loadings(self, k, d_prices, y):
        """The claim is its own value at every step, with zero loadings."""
        return np.full(d_prices.shape[0], self.p), np.zeros(d_prices.shape)


class DiscountedCall:
    sign = 1.0  # the put's -1 flips S - K exactly: -(a - b) == b - a in rounding

    def __init__(self, strike: float, asset: int = 0):
        if strike <= 0:
            raise ConfigurationError("strike must be positive")
        self.strike = float(strike)
        self.asset = asset

    def __call__(self, bundle: PathBundle) -> np.ndarray:
        t_end = bundle.times[-1]
        s_t = bundle.terminal_prices[:, self.asset]
        return np.exp(-bundle.rate * t_end) * np.maximum(self.sign * (s_t - self.strike), 0.0)

    def basis_feature(self, d_prices, horizon, rate):
        # intrinsic value in discounted units
        strike = self.strike * math.exp(-rate * horizon)
        return np.maximum(self.sign * (d_prices[:, self.asset] - strike), 0.0)


class DiscountedPut(DiscountedCall):
    sign = -1.0


def black_scholes_call(s: float, k: float, r: float, sig: float, t_end: float) -> float:
    """Black–Scholes price of a call with strike k and expiry t_end on spot s."""
    d1 = (math.log(s / k) + (r + 0.5 * sig * sig) * t_end) / (sig * math.sqrt(t_end))
    d2 = d1 - sig * math.sqrt(t_end)
    cdf = lambda x: 0.5 * (1 + math.erf(x / math.sqrt(2)))
    return s * cdf(d1) - k * math.exp(-r * t_end) * cdf(d2)


@dataclass
class BsdeConfig:
    """Regression settings for the backward sweep: the state columns of
    the design (``basis``) and the number of per-step quantile hinge knots."""

    basis: tuple = ("1", "D", "Y", "DY", "D2", "Y2", "logD", "payoff", "knots")
    n_knots: int = 6


@dataclass
class StepFit:
    """Per-step regression coefficients in standardized feature space."""

    keep: np.ndarray
    mean: np.ndarray
    scale: np.ndarray
    coef_value: np.ndarray  # v_hat = E[V_{k+1} | X_k], whose factor shift is the jump loading
    coef_dw: np.ndarray  # (d, n_feat + 1) with intercept first
    knots: np.ndarray | None = None  # per-asset hinge positions
    coef_process: np.ndarray | None = None  # the solver's V_k = v_hat - g dt, which the table returns


def _basis_columns(basis, payoff, d, n_knots, horizon, rate):
    """The design's state columns in order, as (column, role) pairs.

    ``column(d_prices, y, knots)`` gives one column at states (n, d)
    and (n, 1) with per-asset hinge positions ``knots`` (n_knots, d).
    ``role`` says how the column moves with the factor: None (it does
    not), ``"Y"``, ``"Y2"``, or the asset index m of a D_m·Y column.
    The intercept ("1") is not a column here.
    """
    cols = []
    for name in basis:
        if name == "1":
            continue
        elif name == "D":
            cols += [(lambda dp, y, kn, m=m: dp[:, m], None) for m in range(d)]
        elif name == "Y":
            cols.append((lambda dp, y, kn: y[:, 0], "Y"))
        elif name == "DY":
            cols += [(lambda dp, y, kn, m=m: dp[:, m] * y[:, 0], m) for m in range(d)]
        elif name == "D2":
            cols += [(lambda dp, y, kn, m=m: dp[:, m] ** 2, None) for m in range(d)]
        elif name == "Y2":
            cols.append((lambda dp, y, kn: y[:, 0] ** 2, "Y2"))
        elif name == "logD":
            cols += [(lambda dp, y, kn, m=m: np.log(np.maximum(dp[:, m], 1e-300)), None) for m in range(d)]
        elif name == "payoff":
            # never evaluated for a constant claim: its solve stops before any design
            cols.append((lambda dp, y, kn: payoff.basis_feature(dp, horizon, rate), None))
        elif name == "knots":
            cols += [(lambda dp, y, kn, m=m, j=j: np.maximum(dp[:, m] - kn[j, m], 0.0), None)
                     for m in range(d) for j in range(n_knots)]
        else:
            raise ConfigurationError(f"unknown basis entry {name!r}")
    return cols


class RegressionTable:
    """Fitted per-step functions of the state: the solver's value and loadings.

    Step 0 has no fit (``steps[0]`` is None): every path shares the
    time-zero state, whose value and loadings are the constants
    ``value_at_zero`` and ``loadings_at_zero`` (d,).
    """

    def __init__(self, columns, n_steps):
        self.columns = columns
        self.steps: list[StepFit | None] = [None] * n_steps
        self.value_at_zero = math.nan
        self.loadings_at_zero = None

    def features(self, d_prices, y, knots, keep):
        """The state columns that ``keep`` marks, as contiguous feature rows (q, n)."""
        cols = list(itertools.compress(self.columns, keep))
        xs = np.empty((len(cols), d_prices.shape[0]))
        for row, (col, _) in zip(xs, cols):
            row[:] = col(d_prices, y, knots)
        return xs

    def value_and_loadings(self, k, d_prices, y):
        fit = self.steps[k]
        if fit is None:
            n = d_prices.shape[0]
            return np.full(n, self.value_at_zero), np.tile(self.loadings_at_zero, (n, 1))
        xs = self.features(d_prices, y, fit.knots, fit.keep)
        x = (xs - fit.mean[:, None]) / fit.scale[:, None]
        v = fit.coef_process[0] + fit.coef_process[1:] @ x
        vbar = fit.coef_dw[:, 0][None, :] + x.T @ fit.coef_dw[:, 1:].T
        return v, vbar


# CholeskyQR2 keeps its factors accurate to rounding only while the
# design's condition number stays well below 1/sqrt(eps) (about 7e7);
# designs estimated at or above this take the thin SVD
_CHOLESKY_COND_LIMIT = 1e7
# relative singular-value cutoff of a rank-deficient fit
_RCOND = 1e-10


class _LeastSquares:
    """One factorization of a design matrix, shared by every target fitted on it.

    The design's first column is the intercept.  A well-conditioned
    design is factored by CholeskyQR2: two Gram products and two p x p
    Cholesky factors give ``a = Q R`` with Q orthonormal to rounding.
    The first factor's singular values estimate the condition number;
    at or above ``_CHOLESKY_COND_LIMIT`` or ``1/rcond``, or when a
    Gram matrix is not numerically positive definite, the design takes
    one thin SVD instead.  There singular values at or below ``rcond``
    times the largest are truncated, as ``np.linalg.lstsq`` does, so
    collinear directions are dropped and reported (``deficient``), not
    fatal.  ``cond`` is the condition number over the kept directions
    and ``route`` names the factorization taken.
    """

    def __init__(self, a, rcond):
        rows = a.T
        try:
            l1 = np.linalg.cholesky(rows @ rows.T)
            sv1 = np.linalg.svd(l1, compute_uv=False)
            if not (sv1[0] < sv1[-1] * _CHOLESKY_COND_LIMIT and sv1[0] * rcond < sv1[-1]):
                raise np.linalg.LinAlgError("design too ill-conditioned for CholeskyQR2")
            # p x p inverses applied by one product each: a triangular
            # solve with n right-hand sides costs more than the SVD
            x1 = np.linalg.inv(l1)
            q1 = x1 @ rows
            l2 = np.linalg.cholesky(q1 @ q1.T)
            x2 = np.linalg.inv(l2)
        except np.linalg.LinAlgError:
            self._svd(a, rcond)
            return
        self.route = "cholesky_qr2"
        self.deficient = False
        self._q = x2 @ q1
        # a @ coef reproduces the predictions: Q's rows are (x2 x1) a.T
        self._coef = (x2 @ x1).T
        sv = np.linalg.svd(l1 @ l2, compute_uv=False)  # R = (l1 l2)^T
        self.cond = float(sv[0] / sv[-1])

    def _svd(self, a, rcond):
        u, sv, vt = np.linalg.svd(a, full_matrices=False)
        # singular values come sorted, so the kept directions lead
        r = int(np.count_nonzero(sv > sv[0] * rcond))
        self.route = "svd"
        self.deficient = r < a.shape[1]
        self.cond = float(sv[0] / sv[r - 1])
        self._q = u[:, :r].T
        self._coef = vt[:r].T / sv[:r]

    def _project(self, targets):
        level = targets.mean(axis=0)
        proj = self._q @ (targets - level)
        coef = self._coef @ proj
        coef[0] += level
        return level, proj, coef

    def fit(self, targets):
        """(predictions, coefficients) for targets (n,) or (n, m).

        A target's mean is fitted exactly by the intercept and only the
        deviation goes through the factorization: rounding scales with
        the spread, not with the level.
        """
        level, proj, coef = self._project(targets)
        return self._q.T @ proj + level, coef

    def coefficients(self, targets):
        """The coefficients of ``fit`` alone, without forming the predictions."""
        return self._project(targets)[2]


def _r2(target, pred):
    """Share of the target's spread explained; 1 when there is no spread.

    A spread at rounding level relative to the target's mean counts as
    none.
    """
    mean = target.mean()
    ss_tot = float(np.sum((target - mean) ** 2))
    if ss_tot <= target.size * (1e3 * np.finfo(float).eps * mean) ** 2:
        return 1.0
    return 1.0 - float(np.sum((target - pred) ** 2)) / ss_tot


@dataclass
class BSDESolution:
    """Backward solve on the fit bundle: per-step means plus reusable fits."""

    times: np.ndarray
    mean_value: np.ndarray       # (K+1,) cross-path mean of V
    mean_loading: np.ndarray     # (K,) cross-path mean of Vbar over paths and assets
    mean_jump_term: np.ndarray   # (K,) cross-path mean of the driver's jump part
    table: RegressionTable
    r2: np.ndarray
    cond: np.ndarray
    value_at_zero: float
    se_at_zero: float
    diagnostics: dict = field(default_factory=dict)

    def agrees_with(self, est: float, se: float, widen: float = 1.0):
        """(ok, band): whether a density-weighted value ``est`` with
        standard error ``se`` lies within 4 (se0 + se) of the value at
        zero, the band scaled by ``widen``."""
        band = 4 * (self.se_at_zero + se) * widen
        return abs(self.value_at_zero - est) <= band, band

    def export_csv(self, fname):
        with open(fname, "w") as f:
            f.write("t,mean_value,mean_loading,r2\n")
            for k in range(self.times.size - 1):
                f.write(
                    f"{self.times[k]:.12g},{self.mean_value[k]:.12g},"
                    f"{self.mean_loading[k]:.12g},{self.r2[k]:.6g}\n"
                )
            f.write(f"{self.times[-1]:.12g},{self.mean_value[-1]:.12g},0,1\n")


def driver(dw_loadings, mpr, slope, quad, channels, time_scale):
    """Driver of the backward equation at one time, vectorized over paths.

    g = sum_i Vbar_i * mpr_i - lambda * integral of Vtilde(z) F(z) against
    the jump measure, with F the relative surface jump.  The jump loading
    is a factor shift Vtilde(z) = slope * z + quad * z**2, so the integral
    contracts to slope * C1 + quad * C2 with the surface's channels
    C1 = sum_q w_q z_q F_q and C2 = sum_q w_q z_q^2 F_q.

    Parameters
    ----------
    dw_loadings : (n, d)
    mpr : (n, d) market price of risk
    slope : (n,) or scalar; quad : scalar
    channels : (n, 3) the surface's jump channels (see ``jump_channels``),
        or None for a model without jumps, whose jump part is 0
    time_scale : the calendar intensity multiplier lambda

    Returns (g, jump part of g).
    """
    g = np.sum(np.atleast_2d(dw_loadings) * np.atleast_2d(mpr), axis=-1)
    if channels is None:
        return g, 0.0
    jump = -time_scale * (slope * channels[:, 0] + quad * channels[:, 1])
    return g + jump, jump


def _factor_shift(roles, keep, coef, scale, d_prices, y):
    """Analytic change of a fitted value function under a factor jump.

    Only the factor-dependent basis columns move when y -> y + z, so
    the fitted-value difference is linear in their coefficients; means
    and the intercept cancel.  It is ``slope * z + quad * z**2`` with a
    per-path slope from the Y, Y^2 and D·Y columns, named by their
    ``roles`` (see ``_basis_columns``).  Returns (slope, quad) at states
    (n, d) and (n, 1), or None when no kept column depends on the factor.
    """
    slope, quad, signal = np.zeros(y.shape[0]), 0.0, False
    for pos, col in enumerate(np.flatnonzero(keep)):
        role = roles[col]
        if role is None:
            continue
        c = coef[pos + 1] / scale[pos]
        if role == "Y":
            slope += c
        elif role == "Y2":
            quad = c
            slope += 2.0 * c * y[:, 0]
        else:
            slope += c * d_prices[:, role]
        signal = True
    return (slope, quad) if signal else None


def solve_backward(bundle: PathBundle, surface: OpportunitySurface, payoff,
                   config: BsdeConfig | None = None) -> BSDESolution:
    """Regression-based backward induction for the mean-value process.

    Terminal data is the payoff path by path.  Each step regresses the
    next value (and its product with the Brownian increments) on state
    functions, applies the driver and projects the resulting V_k on the
    same design for the table.  The jump loading is the fitted value
    function's factor shift where the fit has a factor column, and
    otherwise the surface term -V F/(1+F), linear in V: that step solves
    for V in closed form.  Both read the surface only through its jump
    channels (``OpportunitySurface.jump_channels``), tabulated once per
    solve.  The value rolls from step to step, and the states come from
    the bundle's backward walk, so no per-step array but ``dw`` is held.

    Zero spread is absorbing: a target with none is fitted exactly by
    its level with zero coefficients, so the loadings, the driver and the
    factor shift vanish and V_k is that level again.  The solve therefore
    stops at the first step k whose target V_{k+1} has exactly zero
    spread (min == max): steps 1..k share one intercept-only fit with
    no kept column, value the level and zero loadings; ``mean_value``
    at 0..k is the level, ``mean_loading`` and ``mean_jump_term`` there
    are 0, ``r2`` at 1..k is 1, ``cond`` stays 1 and the loadings at zero
    are 0.  The walk and the jump channels are built by the first step
    with spread, so a constant claim factors nothing and builds neither.
    """
    config = config or BsdeConfig()
    if bundle.n_paths < 100:
        raise ConfigurationError("backward solve needs a sensible cross-path sample")
    check_horizon(surface, bundle)
    n, nk = bundle.n_paths, bundle.n_steps
    d, h = bundle.model.d, bundle.ou.dim
    if h != 1:
        raise ConfigurationError("backward solve is implemented for one factor")
    spec = bundle.specs[0]
    dt = bundle.grid.step
    # prices are discounted one step at a time, as the walk reaches them
    discount = np.exp(-bundle.rate * bundle.times)
    h_term = np.asarray(payoff(bundle), dtype=float)
    diagnostics = {}

    z_nodes, z_weights = jump_quadrature(spec)
    nq = z_nodes.size
    lam_cal = spec.time_scale

    columns = _basis_columns(config.basis, payoff, d, config.n_knots, bundle.times[-1], bundle.rate)
    table = RegressionTable(columns, nk)
    roles = [role for _, role in columns]
    # a D·Y column without the Y column's spread is a multiple of D
    dy_cols = [j for j, role in enumerate(roles) if type(role) is int] if "Y" in roles else []
    every_column = np.ones(len(columns), dtype=bool)

    v_next = h_term
    mean_value = np.empty(nk + 1)
    mean_value[nk] = h_term.mean()
    mean_loading = np.empty(nk)
    mean_jump_term = np.empty(nk)
    # step 0 fits nothing: it keeps r2 = 0 and cond = 1
    r2 = np.zeros(nk)
    cond = np.ones(nk)
    n_deficient = 0
    routes = {"cholesky_qr2": 0, "svd": 0}

    for k in range(nk - 1, -1, -1):
        if v_next.min() == v_next.max():
            # zero spread is absorbing: this step and every earlier one are the level
            level = v_next[0]
            flat = StepFit(~every_column, np.empty(0), np.empty(0), np.array([level]),
                           np.zeros((d, 1)), coef_process=np.array([level]))
            table.steps[1:k + 1] = [flat] * k
            table.loadings_at_zero = np.zeros(d)
            mean_value[:k + 1] = level
            mean_loading[:k + 1] = 0.0
            mean_jump_term[:k + 1] = 0.0
            r2[1:k + 1] = 1.0
            break
        if k == nk - 1:
            # the factor, its left limit and the prices, replayed step by
            # step from checkpoints; the terminal node is the payoff's
            nodes = bundle.walk_backward()
            next(nodes)
            # the surface enters the driver only through its jump channels
            channels = surface.jump_channels(bundle.times, z_nodes, z_weights) if nq else None
        y_k, yl_k, s_k = next(nodes)
        disc_k = s_k * discount[k]
        mpr = np.atleast_2d(market_price_of_risk(bundle.model, yl_k))
        chan = channels(k, yl_k[:, 0]) if nq else None

        if k == 0:
            # all paths share the time-zero state: plain means
            v_hat = np.full(n, v_next.mean())
            centered = v_next - v_hat
            table.loadings_at_zero = centered @ bundle.dw[:, 0] / (n * dt)
            vbar = np.tile(table.loadings_at_zero, (n, 1))
        else:
            knots = None
            if "knots" in config.basis and config.n_knots > 0:
                qs = np.linspace(0.0, 1.0, config.n_knots + 2)[1:-1]
                knots = np.quantile(disc_k, qs, axis=0)
            xs = table.features(disc_k, y_k, knots, every_column)
            mean = xs.mean(axis=1)
            scale = xs.std(axis=1)
            keep = scale > 1e-10 * (1.0 + np.abs(mean))
            if dy_cols:
                keep[dy_cols] &= keep[roles.index("Y")]
            mean, scale = mean[keep], scale[keep]
            # standardized design with the intercept first, built as
            # contiguous feature rows (the transpose is the column-major
            # matrix LAPACK factors) and factored once for the value
            # target, the Brownian-loading targets and the step's V_k
            a = np.empty((mean.size + 1, n))
            a[0] = 1.0
            np.subtract(xs[keep], mean[:, None], out=a[1:])
            a[1:] /= scale[:, None]
            ls = _LeastSquares(a.T, _RCOND)
            v_hat, coef_v = ls.fit(v_next)
            # martingale-residual control variate: center before the
            # Brownian-loading regressions to kill the dW sample-mean noise
            centered = v_next - v_hat
            preds_w, coef_w = ls.fit(centered[:, None] * bundle.dw[:, k])
            vbar = preds_w / dt
            n_deficient += int(ls.deficient)
            routes[ls.route] += 1
            r2[k] = _r2(v_next, v_hat)
            cond[k] = ls.cond
            table.steps[k] = StepFit(keep, mean, scale, coef_v, coef_w.T / dt, knots)

        # regression-implied loading from the factor sensitivity of the
        # fitted value function (at k = 0, where all paths share one state,
        # the step-1 fit's); structural surface term as the fallback
        fit = table.steps[max(k, 1)] if nk > 1 else None
        shift = None
        if nq and fit is not None:
            shift = _factor_shift(roles, fit.keep, fit.coef_value, fit.scale, disc_k, yl_k)
        slope, quad = shift if shift is not None else (0.0, 0.0)
        g, jump = driver(vbar, mpr, slope, quad, chan, lam_cal)
        v_now = v_hat - g * dt
        del g  # not held through the next step's regression
        if nq and shift is None:
            # the surface term -V F/(1+F) is linear in V, so the step solves
            # exactly: V = v_hat - dt (Vbar theta + lam V C3)
            v_now /= 1.0 + dt * lam_cal * chan[:, 2]
            jump = lam_cal * v_now * chan[:, 2]
        if k:
            # the table carries V_k, not v_hat (Gobet, Lemor & Warin 2005)
            table.steps[k].coef_process = ls.coefficients(v_now)
        mean_value[k] = v_now.mean()
        mean_loading[k] = vbar.mean()
        mean_jump_term[k] = np.mean(jump)
        v_next = v_now

    if n_deficient:
        warnings.warn(f"collinear basis columns truncated at {n_deficient} steps")
        diagnostics["rank_deficient_steps"] = n_deficient
    diagnostics["factorization"] = routes
    # the regression controls correlate in-sample residuals, so the raw
    # payoff dispersion is the trustworthy error scale for the estimate
    se0 = float(h_term.std(ddof=1) / math.sqrt(n))
    table.value_at_zero = float(mean_value[0])
    return BSDESolution(
        times=bundle.times,
        mean_value=mean_value,
        mean_loading=mean_loading,
        mean_jump_term=mean_jump_term,
        table=table,
        r2=r2,
        cond=cond,
        value_at_zero=table.value_at_zero,
        se_at_zero=se0,
        diagnostics=diagnostics,
    )


class StreamedMean:
    """Sample mean and standard error (ddof = 1) of values added chunk by
    chunk, from running sums of the values and their squares."""

    def __init__(self):
        self.total = self.total_sq = 0.0
        self.count = 0

    def add(self, values):
        self.total += float(values.sum())
        self.total_sq += float((values**2).sum())
        self.count += values.size

    def mean_se(self):
        n, mean = self.count, self.total / self.count
        var = max(self.total_sq / n - mean**2, 0.0) * n / max(n - 1, 1)
        return mean, math.sqrt(var / n)


def mc_value_at_zero(surface: OpportunitySurface, bundles, payoff):
    """Density-weighted Monte Carlo value E[Z(T) H] with standard error.

    Independent of the backward solver; accepts a single bundle or an
    iterable of chunks.
    """
    if isinstance(bundles, PathBundle):
        bundles = [bundles]
    zh = StreamedMean()
    for bundle in bundles:
        zh.add(density_terminal(surface, bundle) * payoff(bundle))
        # release the chunk before a generator simulates the next one
        del bundle
    return zh.mean_se()
