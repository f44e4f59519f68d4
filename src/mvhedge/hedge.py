"""Optimal strategy assembly, hedge simulation and closed-form comparators.

The position is the pure hedge coefficient plus a feedback correction
proportional to the tracking gap between current wealth and the claim's
mean value, scaled by the adjustment coefficient.  Gains accumulate by
left-point sums against the discounted prices, so the self-financing
identity holds to round-off by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels as kernels
from ._kernels import gains_step, step_major
from .bsde import BSDESolution, ConstantPayoff
from .levy import ConfigurationError
from .market import PathBundle, adjustment
from .opportunity import OpportunitySurface


def pure_hedge(model, d_prices, y_left, dw_loadings):
    """Locally risk-matching position from the Brownian loadings.

    Solves diag(D) sigma sigma' diag(D) xi = diag(D) sigma Vbar at the
    left-limit factor state.
    """
    d_prices = np.atleast_2d(d_prices)
    vbar = np.atleast_2d(dw_loadings)
    sig = model.vol(np.atleast_2d(y_left))
    if model.d == 1:
        s = sig[..., 0, 0]
        return vbar / (d_prices * s[..., None])
    cov = sig @ np.swapaxes(sig, -1, -2)
    rhs = np.einsum("nij,nj->ni", sig, vbar)
    x = np.linalg.solve(cov, rhs[..., None])[..., 0]
    return x / d_prices


def strategy_position(xi, adj, v, gains_left, value_left):
    """Position: pure hedge minus the tracking gap times the adjustment."""
    gap = v + np.atleast_1d(gains_left) - np.atleast_1d(value_left)
    return np.atleast_2d(xi) - gap[:, None] * np.atleast_2d(adj)


def closed_forms(p: float, v: float, p0: float):
    """Terminal variance, optimal hedging error and their gap for a
    constant claim, from the time-zero opportunity value.

    Identity: variance - hedging_error = gap, with
    gap = p0^2 / (1 - p0) * (p - v)^2 > 0 whenever p != v.
    """
    if not (0.0 < p0 < 1.0):
        raise ValueError(f"opportunity value must lie in (0, 1), got {p0}")
    gap2 = (p - v) ** 2
    herr = p0 * gap2
    # the gap from its own closed form: the difference herr-based route
    # cancels catastrophically when p0 is tiny
    gap = p0**2 / (1.0 - p0) * gap2
    return herr + gap, herr, gap


@dataclass
class HedgeConfig:
    use_closed_form_value: bool = False
    record_paths: int = 0  # number of leading paths to keep for export


@dataclass
class HedgeReport:
    """Aggregates of a hedge simulation plus optional comparators."""

    endowment: float
    n_paths: int
    mse: float
    se_mse: float
    mean_shortfall: float
    payoff_mean: float
    comparators: dict = field(default_factory=dict)
    recorded: dict = field(default_factory=dict)

    def summary(self) -> str:
        lines = [
            "hedge report",
            f"  paths simulated     : {self.n_paths}",
            f"  initial endowment   : {self.endowment:.6g}",
            f"  mean payoff         : {self.payoff_mean:.6g}",
            f"  mean shortfall      : {self.mean_shortfall:.6g}",
            f"  mean squared error  : {self.mse:.6g} (se {self.se_mse:.3g})",
        ]
        if self.comparators:
            c = self.comparators
            lines.append(f"  opportunity at zero : {c['p0']:.6g} ({c['p0_source']})")
            lines.append(f"  closed-form variance: {c['variance']:.6g}")
            lines.append(f"  closed-form error   : {c['hedging_error']:.6g}")
            lines.append(f"  variance gap        : {c['gap']:.6g}")
            band = max(4 * self.se_mse, 0.02 * c["hedging_error"])
            ok = abs(self.mse - c["hedging_error"]) <= band
            lines.append(f"  simulated vs closed : {'PASS' if ok else 'FAIL'} (band {band:.4g})")
        return "\n".join(lines)

    def export_csv(self, fname):
        with open(fname, "w") as f:
            f.write("quantity,value\n")
            f.write(f"endowment,{self.endowment:.12g}\n")
            f.write(f"n_paths,{self.n_paths}\n")
            f.write(f"mse,{self.mse:.12g}\n")
            f.write(f"se_mse,{self.se_mse:.12g}\n")
            f.write(f"mean_shortfall,{self.mean_shortfall:.12g}\n")
            for key, val in self.comparators.items():
                f.write(f"{key},{val}\n")


def _value_arrays(bundle: PathBundle, disc: np.ndarray, solution: BSDESolution | None, payoff,
                  cfg: HedgeConfig):
    """Per-step value and loadings along a bundle (out-of-sample safe).

    ``disc`` is the bundle's discounted prices, computed once by the caller.
    """
    n, nk = bundle.n_paths, bundle.n_steps
    value = step_major(nk, n)
    vbar = step_major(nk, n, bundle.model.d)
    if cfg.use_closed_form_value:
        if not isinstance(payoff, ConstantPayoff):
            raise ConfigurationError("closed-form value path applies to constant payoffs only")
        value[...] = payoff.p
        vbar[...] = 0.0
        return value, vbar
    if solution is None:
        raise ConfigurationError("a backward solution is required unless the closed form is enabled")
    for k in range(nk):
        if solution.table.steps[k] is None:
            # shared time-zero state: constant fit across paths
            value[:, k] = solution.value_at_zero
            vbar[:, k] = solution.dw_loadings[0, k][None, :]
        else:
            v, vb = solution.table.value_and_loadings(k, disc[:, k], bundle.y[:, k])
            value[:, k] = v
            vbar[:, k] = vb
    return value, vbar


def run_hedge(bundles, surface: OpportunitySurface, solution: BSDESolution | None,
              payoff, endowment: float, config: HedgeConfig | None = None) -> HedgeReport:
    """Forward hedge sweep over one bundle or an iterable of chunks.

    Reports the mean squared terminal shortfall with its standard error
    and, for constant payoffs, the closed-form comparators evaluated at
    the surface's time-zero value.
    """
    cfg = config or HedgeConfig()
    if isinstance(bundles, PathBundle):
        bundles = [bundles]
    total = 0.0
    sq_sum = 0.0
    sq_sq = 0.0
    count = 0
    payoff_sum = 0.0
    recorded = {}
    p0 = None
    for bundle in bundles:
        n, nk = bundle.n_paths, bundle.n_steps
        disc = bundle.discounted
        value, vbar = _value_arrays(bundle, disc, solution, payoff, cfg)
        if p0 is None:
            p0 = float(surface.value_at_states(0.0, bundle.y[:, 0])[0])
        adj = step_major(nk, n, bundle.model.d)
        xi = step_major(nk, n, bundle.model.d)
        for k in range(nk):
            adj[:, k] = adjustment(bundle.model, disc[:, k], bundle.y_left[:, k])
            xi[:, k] = pure_hedge(bundle.model, disc[:, k], bundle.y_left[:, k], vbar[:, k])
        gains = kernels.hedge_sweep(disc, value, xi, adj, endowment)
        h_term = payoff(bundle)
        shortfall = endowment + gains - h_term
        if cfg.record_paths and not recorded:
            recorded = _record_paths(bundle, disc, value, xi, adj, endowment, cfg.record_paths)
        total += float(shortfall.sum())
        sq = shortfall**2
        sq_sum += float(sq.sum())
        sq_sq += float((sq**2).sum())
        payoff_sum += float(h_term.sum())
        count += n
        # release the chunk and its per-step arrays before a generator
        # simulates the next one
        del bundle, disc, value, vbar, adj, xi, gains
    mse = sq_sum / count
    var_sq = max(sq_sq / count - mse**2, 0.0) * count / max(count - 1, 1)
    report = HedgeReport(
        endowment=endowment,
        n_paths=count,
        mse=mse,
        se_mse=math.sqrt(var_sq / count),
        mean_shortfall=total / count,
        payoff_mean=payoff_sum / count,
        recorded=recorded,
    )
    if isinstance(payoff, ConstantPayoff) and p0 is not None and 0.0 < p0 < 1.0:
        variance, herr, gap = closed_forms(payoff.p, endowment, p0)
        report.comparators = {
            "p0": p0,
            "p0_source": type(surface).__name__,
            "variance": variance,
            "hedging_error": herr,
            "gap": gap,
        }
    return report


def _record_paths(bundle, disc, value, xi, adj, endowment, n_record):
    """Keep full strategy paths for a few leading paths (exports/tests)."""
    n = min(n_record, bundle.n_paths)
    nk = bundle.n_steps
    disc = disc[:n].copy()  # a view would keep the whole chunk alive
    gains = np.zeros((n, nk + 1))
    position = np.zeros((n, nk, bundle.model.d))
    for k in range(nk):
        dd = disc[:, k + 1] - disc[:, k]
        position[:, k] = strategy_position(xi[:n, k], adj[:n, k], endowment, gains[:, k], value[:n, k])
        gains[:, k + 1] = gains_step(gains[:, k], xi[:n, k], adj[:n, k], endowment, value[:n, k], dd)
    wealth = endowment + gains
    return {"gains": gains, "position": position, "wealth": wealth, "discounted": disc}
