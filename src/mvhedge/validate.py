"""Desk-scale invariant suites across all modules, used by the CLI.

The checks of acceptance criteria 1, 3 and 4 take their scale as
arguments; the acceptance and unit tests call them at their own scales.
Each desk check is small enough to run in seconds; bands combine a
statistical part (standard errors) with a discretization budget that
widens with the square root of the step scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import bsde, hedge, levy, market, ngou, opportunity


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


@dataclass
class ValidationReport:
    checks: list = field(default_factory=list)

    def add(self, name, ok, detail=""):
        self.checks.append(CheckResult(name, bool(ok), detail))

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def render(self):
        lines = []
        for c in self.checks:
            lines.append(f"[{'pass' if c.ok else 'FAIL'}] {c.name}: {c.detail}")
        n_bad = sum(not c.ok for c in self.checks)
        lines.append(f"{len(self.checks) - n_bad}/{len(self.checks)} checks passed")
        return "\n".join(lines)


def closed_form_identities(seed, p0_margin=1e-8, level=5e4) -> CheckResult:
    """Criterion 1: variance = hedging error + gap, the gap's closed form
    and its sign, over 100 random (p0, p, v) with p0 in
    (p0_margin, 1 - p0_margin) and p, v in (-level, level)."""
    rng = np.random.default_rng(seed)
    worst_diff = worst_gap = 0.0
    positive = True
    for _ in range(100):
        p0 = rng.uniform(p0_margin, 1 - p0_margin)
        p_level = rng.uniform(-level, level)
        v = rng.uniform(-level, level)
        var, herr, gap = hedge.closed_forms(p_level, v, p0)
        worst_diff = max(worst_diff, abs(var - herr - gap) / max(var, 1.0))
        direct = p0**2 / (1.0 - p0) * (p_level - v) ** 2
        worst_gap = max(worst_gap, abs(gap - direct) / max(direct, 1e-300))
        positive &= p_level == v or gap > 0
    return CheckResult("closed-form identities", worst_diff <= 1e-12 and worst_gap <= 1e-12 and positive,
                       f"variance-error identity rel {worst_diff:.2e}, gap closed form rel {worst_gap:.2e}")


def density_mean_one(surface, bundles, slack=0.0) -> CheckResult:
    """Criterion 3's mean: the terminal density's sample mean over an
    iterable of bundles lies within 4 se + ``slack`` of one."""
    total = total_sq = count = 0.0
    for bundle in bundles:
        zt = opportunity.density_terminal(surface, bundle)
        total += zt.sum()
        total_sq += (zt**2).sum()
        count += zt.size
        # release the chunk before a generator simulates the next one
        del bundle, zt
    mean = total / count
    se = math.sqrt(max(total_sq / count - mean**2, 0.0) / count)
    return CheckResult("density terminal mean one", abs(mean - 1.0) <= 4 * se + slack,
                       f"mean {mean:.4f} (se {se:.4f})")


def flat_density_pathwise(surface, bundle) -> CheckResult:
    """Criterion 3's identity: under flat coefficients the density along
    each path is exp(-theta W - theta^2 t / 2), to 1e-6 relative."""
    model = bundle.model
    theta = (model.alpha - model.rate) / model.beta
    dp = opportunity.density_path(surface, bundle)
    w_acc = np.concatenate([np.zeros((bundle.n_paths, 1)), np.cumsum(bundle.dw[:, :, 0], axis=1)], axis=1)
    ref = np.exp(-theta * w_acc - 0.5 * theta**2 * bundle.times[None, :])
    err = float(np.max(np.abs(dp.density - ref) / ref))
    return CheckResult("flat-model density matches the explicit change of measure", err < 1e-6,
                       f"pathwise err {err:.2e}")


def surface_against_mc(surface, model, ou, specs, probes, seed) -> CheckResult:
    """Criterion 4: the surface at the i-th (t, y) probe lies within
    4 se + 1e-4 of a 2000-path Monte Carlo estimate seeded ``(*seed, i)``."""
    inside, worst = 0, 0.0
    for i, (t, yv) in enumerate(probes):
        est, se = opportunity.estimate_opportunity_mc(model, ou, specs, t, [yv], surface.horizon, 2000,
                                                      (*seed, i))
        diff = abs(surface.value(t, yv) - est)
        band = 4 * se + 1e-4
        worst = max(worst, diff / band)
        inside += diff <= band
    return CheckResult("grid solve agrees with Monte Carlo", inside == len(probes),
                       f"{inside}/{len(probes)} probes inside 4 se + 1e-4; worst ratio {worst:.2f}")


def run_validate(delta_scale: float = 1.0, master_seed: int = 0) -> ValidationReport:
    rep = ValidationReport()
    rng = np.random.default_rng(master_seed)
    step = 0.01 * delta_scale
    widen = math.sqrt(max(delta_scale, 1.0))

    cpe = levy.CompoundPoissonExp(10.0, 8.0, 1.0)
    table = levy.TableMeasure(((1.0, 2.0),))
    ou = ngou.OUParams([1.0], [10.0])
    bns = market.BNS(0.5, 0.02)
    cbs = market.ConstantBS(0.1, 0.2)

    # moment machinery
    psi = levy.exp_moment_rate(cpe, 1.0)
    x, w = leggauss(200)
    z = 15.0 * (x + 1.0) / 2.0
    quad = float(np.sum(7.5 * w * np.expm1(z) * 10 * 8 * np.exp(-8 * z)))
    rep.add("moment rate closed form vs quadrature", abs(psi - quad) < 1e-9,
            f"closed {psi:.9g} quad {quad:.9g}")
    try:
        levy.validate_moment_condition(cpe, 8.0)
        rep.add("moment condition rejects critical order", False, "no error raised")
    except levy.MomentConditionError as exc:
        rep.add("moment condition rejects critical order", True, str(exc)[:60])

    jp1 = levy.sample_jump_path([cpe], 5.0, 42)
    jp2 = levy.sample_jump_path([cpe], 5.0, 42)
    same = (
        np.array_equal(jp1.times, jp2.times)
        and np.array_equal(jp1.sizes, jp2.sizes)
        and np.array_equal(jp1.components, jp2.components)
    )
    rep.add("jump sampling reproducible", same, f"{len(jp1)} events")

    counts = np.array([len(levy.sample_jump_path([cpe], 20.0, (master_seed, i))) for i in range(500)])
    mean, target = counts.mean(), 10.0 * 20.0
    band = 3 * math.sqrt(target) / math.sqrt(500)
    rep.add("event count statistics", abs(mean - target) <= band,
            f"mean {mean:.2f} target {target} band {band:.2f}")

    c_ord = 2.0
    totals = np.array([levy.sample_jump_path([cpe], 1.0, (master_seed, 7, i)).totals()[0] for i in range(4000)])
    emp = np.exp(c_ord * totals)
    target = math.exp(levy.exp_moment_rate(cpe, c_ord))
    se = emp.std(ddof=1) / math.sqrt(emp.size)
    rep.add("exponential moment matches", abs(emp.mean() - target) <= 4 * se,
            f"emp {emp.mean():.3f} target {target:.3f} se {se:.3f}")

    # factor identities on simulated bundles
    grid = market.GridConfig(5.0, step)
    b = market.simulate_paths(bns, ou, [cpe], [100.0], grid, 1000, master_seed + 1)
    lhs = b.factor_int[:, 0]
    l_tot = np.array([b.jumps.path(i).totals()[0] for i in range(b.n_paths)])
    resid = np.abs(lhs - (10.0 + l_tot - b.y[:, -1, 0])) / np.maximum(np.abs(lhs), 1.0)
    rep.add("factor balance identity", resid.max() < 1e-12, f"max rel resid {resid.max():.2e}")
    floor = 10.0 * np.exp(-b.times)
    rep.add("factor floor", (b.y[:, :, 0] - floor[None, :]).min() >= -1e-12,
            f"min margin {(b.y[:, :, 0] - floor[None, :]).min():.2e}")
    disc = b.discounted
    rep.add("discount identity", np.max(np.abs(disc - np.exp(-bns.rate * b.times)[None, :, None] * b.s)) == 0.0,
            "exact by construction")
    s2 = market.sharpe_squared(bns, b.y.reshape(-1, 1))
    rep.add("squared market price of risk nonnegative", float(s2.min()) >= 0.0, f"min {s2.min():.3g}")

    # price moment against the lognormal mean
    grid1 = market.GridConfig(1.0, step)
    bc = market.simulate_paths(cbs, ou, [levy.TableMeasure(())], [100.0], grid1, 10000, master_seed + 2)
    st = bc.s[:, -1, 0]
    target = 100.0 * math.exp(0.1)
    se = st.std(ddof=1) / math.sqrt(st.size)
    rep.add("price moment matches lognormal", abs(st.mean() - target) <= 4 * se,
            f"mean {st.mean():.3f} target {target:.3f} se {se:.3f}")

    # frozen-factor equivalence
    ou_frozen = ngou.OUParams([1e-12], [10.0])
    empty = [levy.TableMeasure(())]
    b_bns = market.simulate_paths(bns, ou_frozen, empty, [100.0], grid1, 200, master_seed + 3)
    b_cbs = market.simulate_paths(market.ConstantBS(0.5 + 0.02 * 10, math.sqrt(10.0)), ou_frozen, empty,
                                  [100.0], grid1, 200, master_seed + 3)
    diff = np.max(np.abs(b_bns.s - b_cbs.s) / b_cbs.s)
    rep.add("frozen-factor equivalence", diff < 1e-9, f"max rel diff {diff:.2e}")

    # stochastic exponential martingale
    theta = 0.5
    nsim, nk = 10000, 200
    dw = rng.standard_normal((nsim, nk)) * math.sqrt(1.0 / nk)
    w_path = np.cumsum(dw, axis=1)
    vals = opportunity.stochastic_exponential(-theta * w_path[:, -1], theta**2 * np.ones(nsim))
    se = vals.std(ddof=1) / math.sqrt(nsim)
    rep.add("stochastic exponential martingale", abs(vals.mean() - 1.0) <= 4 * se,
            f"mean {vals.mean():.4f} se {se:.4f}")

    # density: flat-coefficient closed form and martingale mean
    rep.checks.append(flat_density_pathwise(opportunity.make_surface(cbs, ou, empty, 1.0), bc))
    surf_b = opportunity.solve_opportunity_ipde(bns, ou, cpe, 1.0)
    bb = market.simulate_paths(bns, ou, [cpe], [100.0], grid1, 10000, master_seed + 4)
    rep.checks.append(density_mean_one(surf_b, [bb], slack=0.004 * widen))
    zt = opportunity.density_terminal(surf_b, bb)
    rep.add("density positive", float(zt.min()) > 0.0, f"min {zt.min():.3g}")

    # density ratio is one except at jump nodes
    jump_node = levy.JumpPath(np.array([0.5]), np.array([0]), np.array([2.0]), 1.0, 1)
    b1 = market.simulate_paths(bns, ou, [cpe], [100.0], grid1, 4, master_seed, jump_paths=[jump_node] * 4)
    dp1 = opportunity.density_path(surf_b, b1)
    ratio = dp1.density_left / dp1.density
    node = int(round(0.5 / grid1.step))
    off = np.delete(ratio, node, axis=1)
    rep.add("density jumps only at jump times",
            np.allclose(off, 1.0, atol=1e-12) and np.all(np.abs(ratio[:, node] - 1.0) > 1e-6),
            f"ratio at jump {ratio[0, node]:.4f}")

    # surface properties
    ys = np.linspace(4.0, 16.0, 7)
    vals = surf_b.value_at_states(0.3, ys)
    rep.add("surface within (0, 1]", bool((vals > 0).all() and (vals <= 1.0 + 1e-12).all()),
            f"range [{vals.min():.4f}, {vals.max():.4f}]")
    rep.add("surface terminal one", abs(surf_b.value(1.0, 10.0) - 1.0) < 1e-12, "")
    surf_b2 = opportunity.solve_opportunity_ipde(bns, ou, cpe, 2.0)
    mono = np.all(surf_b2.value_at_states(0.0, ys) <= surf_b.value_at_states(0.0, ys) + 1e-9)
    rep.add("surface decreases with horizon", bool(mono), "")

    mesh = opportunity.MeshConfig(n_y=60, n_time_slices=65, n_time_steps=512)
    surf_flat = opportunity.solve_opportunity_ipde(cbs, ou, cpe, 1.0, mesh)
    errs = []
    for t in surf_flat.t_slices[[0, 26, 58]]:
        target = math.exp(-cbs.constant_sharpe * (1.0 - t))
        errs.append(np.max(np.abs(surf_flat.value_at_states(t, ys) - target)))
    rep.add("grid solve reproduces the flat closed form", max(errs) < 1e-8, f"max err {max(errs):.2e}")

    probes = [(0.0, 10.0), (0.4, 8.0), (0.7, 13.0)]
    rep.checks.append(surface_against_mc(surf_b, bns, ou, [cpe], probes, (master_seed, 5)))

    # backward solver and closed forms
    pay = bsde.ConstantPayoff(30000.0)
    sol = bsde.solve_backward(bb, surf_b, pay)
    tol = max(1e-6 * 30000.0, 3 * sol.se_at_zero) * widen
    rep.add("backward value of a constant claim", abs(sol.value_at_zero - 30000.0) <= tol,
            f"V0 {sol.value_at_zero:.4f} tol {tol:.3g}")
    pay_call = bsde.DiscountedCall(100.0)
    sol_c = bsde.solve_backward(bb, surf_b, pay_call)
    est, se_o = bsde.mc_value_at_zero(surf_b, bb, pay_call)
    ok, band = sol_c.agrees_with(est, se_o, widen)
    rep.add("backward value agrees with the density-weighted value", ok,
            f"|{sol_c.value_at_zero:.4f} - {est:.4f}| <= {band:.3g}")

    rep.checks.append(closed_form_identities(master_seed + 9, p0_margin=1e-6, level=1e4))

    rep_h = hedge.run_hedge(bb, surf_b, None, pay, 10000.0,
                            hedge.HedgeConfig(record_paths=16))
    rec = rep_h.recorded
    gains_recon = np.sum(rec["position"][:, :, 0] * np.diff(rec["discounted"][:, :, 0], axis=1), axis=1)
    sf_err = np.max(np.abs(rec["wealth"][:, -1] - 10000.0 - gains_recon))
    rep.add("self-financing bookkeeping", sf_err < 1e-6 * 10000.0, f"max resid {sf_err:.2e}")

    pay_eq = bsde.ConstantPayoff(10000.0)
    rep_eq = hedge.run_hedge(bb, surf_b, None, pay_eq, 10000.0,
                             hedge.HedgeConfig(record_paths=8))
    rep.add("zero tracking gap keeps a flat position",
            rep_eq.mse == 0.0 and np.max(np.abs(rep_eq.recorded["position"])) == 0.0,
            f"mse {rep_eq.mse:.3g}")
    return rep
