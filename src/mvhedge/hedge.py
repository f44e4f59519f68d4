"""Optimal strategy assembly, hedge simulation and closed-form comparators.

The position is the pure hedge coefficient plus a feedback correction
proportional to the tracking gap between current wealth and the claim's
mean value, scaled by the adjustment coefficient.  Gains accumulate by
left-point sums against the discounted prices, so the self-financing
identity holds to round-off by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels as kernels
from .bsde import BSDESolution, ConstantPayoff, StreamedMean
from .levy import ConfigurationError
from .market import PathBundle, adjustment
from .opportunity import OpportunitySurface, check_horizon


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

    def closed_form_agreement(self):
        """(ok, band): whether the simulated MSE lies within
        max(4 se, 2 % of it) of the closed-form hedging error."""
        herr = self.comparators["hedging_error"]
        band = max(4 * self.se_mse, 0.02 * herr)
        return abs(self.mse - herr) <= band, band

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
            ok, band = self.closed_form_agreement()
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


def run_hedge(bundles, surface: OpportunitySurface, solution: BSDESolution | None,
              payoff, endowment: float, record_paths: int = 0) -> HedgeReport:
    """Forward hedge sweep over one bundle or an iterable of chunks.

    The claim's value and Brownian loadings at each step come from one
    value source, read through ``value_and_loadings(k, d_prices, y)``:
    the backward solution's regression table, or, when ``solution`` is
    None, the payoff itself (a constant claim is its own value).  Each
    chunk is swept once along its forward walk, step by step, keeping
    only per-path running gains.  Reports the mean squared terminal
    shortfall with its standard error and, for constant payoffs, the
    closed-form comparators evaluated at the surface's time-zero value.
    The gains, positions, wealth and discounted prices of the first
    ``record_paths`` paths are kept in ``recorded``.
    """
    source = solution.table if solution is not None else payoff
    if not hasattr(source, "value_and_loadings"):
        raise ConfigurationError("without a backward solution the payoff must give its own value "
                                 "(a constant claim)")
    if isinstance(bundles, PathBundle):
        bundles = [bundles]
    shortfall, sq, paid = StreamedMean(), StreamedMean(), StreamedMean()
    recorded = {}
    p0 = None
    for bundle in bundles:
        check_horizon(surface, bundle)
        model = bundle.model
        if p0 is None:
            p0 = float(surface.value_at_states(0.0, bundle.y_start)[0])

        def strategy(k, d_k, y_k, y_left_k):
            value, vbar = source.value_and_loadings(k, d_k, y_k)
            adj = adjustment(model, d_k, y_left_k)
            return value, pure_hedge(model, d_k, y_left_k, vbar), adj

        gains, rec = kernels.hedge_sweep(bundle.walk(), np.exp(-bundle.rate * bundle.times), strategy,
                                         endowment, 0 if recorded else record_paths)
        recorded = recorded or rec
        h_term = payoff(bundle)
        short = endowment + gains - h_term
        shortfall.add(short)
        sq.add(short**2)
        paid.add(h_term)
        # release the chunk before a generator simulates the next one
        del bundle, gains
    mse, se_mse = sq.mean_se()
    report = HedgeReport(
        endowment=endowment,
        n_paths=sq.count,
        mse=mse,
        se_mse=se_mse,
        mean_shortfall=shortfall.mean_se()[0],
        payoff_mean=paid.mean_se()[0],
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
