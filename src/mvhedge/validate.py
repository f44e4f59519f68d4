"""Desk-scale invariant suites across all modules, used by the CLI.

Every check that a test also runs is one function that takes its scale
(specs, bundles, surfaces, path counts, seeds, probes) as arguments and
returns a ``CheckResult``; ``run_validate`` calls it at desk scale, the
tests at theirs.  Each desk check runs in seconds; bands combine a
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


def _mean_within_4se(name, vals, target, detail) -> CheckResult:
    """The mean of ``vals`` lies within 4 se (ddof = 1) of ``target``; ``detail`` formats mean, se, target."""
    mean = vals.mean()
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    return CheckResult(name, abs(mean - target) <= 4 * se, detail.format(mean=mean, se=se, target=target))


def moment_rate_quadrature(spec, c, n_nodes, z_max) -> CheckResult:
    """A compound Poisson spec's moment rate at order ``c`` against
    Gauss-Legendre quadrature of its Levy density on [0, z_max], to 1e-10 relative."""
    psi = levy.exp_moment_rate(spec, c)
    x, w = leggauss(n_nodes)
    z = z_max * (x + 1.0) / 2.0
    mu, mu1 = spec.event_rate, spec.jump_rate
    quad = float(np.sum(z_max / 2.0 * w * np.expm1(c * z) * mu * mu1 * np.exp(-mu1 * z)))
    return CheckResult("moment rate closed form vs quadrature", abs(psi - quad) <= 1e-10 * abs(quad),
                       f"closed {psi:.9g} quad {quad:.9g}")


def moment_condition_rejects(spec, order) -> CheckResult:
    """The exponential-moment condition raises at ``order``."""
    name = "moment condition rejects critical order"
    try:
        levy.exp_moment_rate(spec, order)
    except levy.MomentConditionError as exc:
        return CheckResult(name, True, str(exc)[:60])
    return CheckResult(name, False, "no error raised")


def jump_sampling_reproducible(specs, horizon, seed) -> CheckResult:
    """Two draws of one path from one seed are bit-identical."""
    a = levy.sample_jump_path(specs, horizon, seed)
    b = levy.sample_jump_path(specs, horizon, seed)
    same = all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ("times", "sizes", "components"))
    return CheckResult("jump sampling reproducible", same, f"{len(a)} events")


def event_count_statistics(specs, horizon, n_seeds, seed) -> CheckResult:
    """The mean event count over paths seeded ``(seed, i)`` lies within 3 sd of the Poisson mean."""
    counts = np.array([len(levy.sample_jump_path(specs, horizon, (seed, i))) for i in range(n_seeds)])
    mean = counts.mean()
    target = sum(s.total_intensity * s.time_scale for s in specs) * horizon
    band = 3 * math.sqrt(target) / math.sqrt(n_seeds)
    return CheckResult("event count statistics", abs(mean - target) <= band,
                       f"mean {mean:.2f} target {target} band {band:.2f}")


def exponential_moment(spec, c, n_paths, seed) -> CheckResult:
    """E[exp(c L(lambda))] over paths seeded ``(*seed, i)`` on [0, 1] against exp(lambda psi(c))."""
    totals = np.array([levy.sample_jump_path([spec], 1.0, (*seed, i)).totals()[0] for i in range(n_paths)])
    target = math.exp(spec.time_scale * levy.exp_moment_rate(spec, c))
    return _mean_within_4se("exponential moment matches", np.exp(c * totals), target,
                            "emp {mean:.3f} target {target:.3f} se {se:.3f}")


def factor_balance(bundle) -> CheckResult:
    """lambda * integral of Y = y0 + L(lambda T) - Y_T on every path, to 1e-12 relative."""
    l_tot = bundle.jumps.totals()
    lhs = bundle.factor_int
    resid = np.abs(lhs - (bundle.ou.y0 + l_tot - bundle.y_end)) / np.maximum(np.abs(lhs), 1.0)
    return CheckResult("factor balance identity", resid.max() < 1e-12, f"max rel resid {resid.max():.2e}")


def discount_identity(bundle) -> CheckResult:
    """The discounted prices exp(-r t) S that the hedge reads from the
    forward walk equal those the backward solve reads from the backward
    walk, node by node, bitwise."""
    discount = np.exp(-bundle.rate * bundle.times)
    forward = [s * discount[k] for k, (_, _, s) in enumerate(bundle.walk())]
    ok = all(np.array_equal(s * discount[k], forward[k])
             for k, (_, _, s) in zip(range(bundle.n_steps, -1, -1), bundle.walk_backward()))
    return CheckResult("discount identity", ok, "exact by construction")


def price_moment_lognormal(bundle) -> CheckResult:
    """Terminal prices of a flat-coefficient bundle have the lognormal mean s0 exp(alpha T)."""
    target = bundle.s0[0] * math.exp(bundle.model.alpha * bundle.times[-1])
    return _mean_within_4se("price moment matches lognormal", bundle.terminal_prices[:, 0], target,
                            "mean {mean:.3f} target {target:.3f} se {se:.3f}")


def frozen_factor_equivalence(grid, n_paths, seed) -> CheckResult:
    """BNS prices with the factor pinned at 10 equal the flat model's, to 1e-9 relative."""
    ou = ngou.OUParams([1e-12], [10.0])
    empty = [levy.TableMeasure(())]
    b_bns, b_flat = (market.simulate_paths(model, ou, empty, [100.0], grid, n_paths, seed)
                     for model in (market.BNS(0.5, 0.02), market.ConstantBS(0.5 + 0.02 * 10, math.sqrt(10.0))))
    diff = max(np.max(np.abs(s_bns - s_flat) / s_flat)
               for (_, _, s_bns), (_, _, s_flat) in zip(b_bns.walk(), b_flat.walk()))
    return CheckResult("frozen-factor equivalence", diff < 1e-9, f"max rel diff {diff:.2e}")


def stochastic_exponential_martingale(theta, n_paths, seed) -> CheckResult:
    """The stochastic exponential of -theta W at t = 1 has mean one."""
    w_1 = np.random.default_rng(seed).standard_normal(n_paths)
    vals = opportunity.stochastic_exponential(-theta * w_1, theta**2 * np.ones(n_paths))
    return _mean_within_4se("stochastic exponential martingale", vals, 1.0, "mean {mean:.4f} se {se:.4f}")


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
    iterable of bundles lies within 4 se + ``slack`` of one: the
    density-weighted value of the unit claim."""
    mean, se = bsde.mc_value_at_zero(surface, bundles, bsde.ConstantPayoff(1.0))
    return CheckResult("density terminal mean one", abs(mean - 1.0) <= 4 * se + slack,
                       f"mean {mean:.4f} (se {se:.4f})")


def flat_density_pathwise(surface, bundle) -> CheckResult:
    """Criterion 3's identity: under flat coefficients the density along
    each path is exp(-theta W - theta^2 t / 2), to 1e-6 relative, one node at a time."""
    model = bundle.model
    theta = (model.alpha - model.rate) / model.beta
    w = np.zeros(bundle.n_paths)
    err = 0.0
    for k, (density, _) in enumerate(opportunity.density_walk(surface, bundle)):
        if k:
            w += bundle.dw[:, k - 1, 0]
        ref = np.exp(-theta * w - 0.5 * theta**2 * bundle.times[k])
        err = max(err, float(np.max(np.abs(density - ref) / ref)))
    return CheckResult("flat-model density matches the explicit change of measure", err < 1e-6,
                       f"pathwise err {err:.2e}")


def density_jumps_only_at_jump_times(surface, model, ou, specs, grid, n_paths, seed) -> CheckResult:
    """With one jump on the middle node of every path, the density's left
    limit differs from it there and nowhere else (by at most 1e-13)."""
    node = grid.n_steps // 2
    jp = levy.JumpPath(grid.times[[node]], np.array([0]), np.array([2.0]), grid.horizon, 1)
    b = market.simulate_paths(model, ou, specs, [100.0], grid, n_paths, seed, jump_paths=[jp] * n_paths)
    ratio = np.stack([left / density for density, left in opportunity.density_walk(surface, b)], axis=1)
    off = np.delete(ratio, node, axis=1)
    return CheckResult("density jumps only at jump times",
                       np.all(np.abs(off - 1.0) <= 1e-13) and np.all(np.abs(ratio[:, node] - 1.0) > 1e-6),
                       f"ratio at jump {ratio[0, node]:.4f}")


def surface_decreases_with_horizon(shorter, longer, ys) -> CheckResult:
    """At t = 0 the longer horizon's surface lies below the shorter's at ``ys``, to 1e-9."""
    mono = np.all(longer.value_at_states(0.0, ys) <= shorter.value_at_states(0.0, ys) + 1e-9)
    return CheckResult("surface decreases with horizon", bool(mono), "")


def flat_grid_closed_form(surface, model, slices, ys) -> CheckResult:
    """A flat-coefficient grid solve is exp(-theta^2 (T - t)) at the
    time slices indexed ``slices`` and states ``ys``, to 1e-8."""
    err = max(np.max(np.abs(surface.value_at_states(t, ys)
                             - math.exp(-model.constant_sharpe * (surface.horizon - t))))
              for t in surface.t_slices[slices])
    return CheckResult("grid solve reproduces the flat closed form", err < 1e-8, f"max err {err:.2e}")


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


def self_financing(report, endowment) -> CheckResult:
    """A hedge report's recorded terminal wealth is the endowment plus the
    positions' gains on the discounted prices of every asset, to 1e-6 of the endowment."""
    rec = report.recorded
    gains = np.sum(rec["position"] * np.diff(rec["discounted"], axis=1), axis=(1, 2))
    err = np.max(np.abs(rec["wealth"][:, -1] - endowment - gains))
    return CheckResult("self-financing bookkeeping", err < 1e-6 * endowment, f"max resid {err:.2e}")


def zero_gap_flat_position(bundle, surface, endowment, n_record) -> CheckResult:
    """A constant claim equal to the endowment is hedged exactly by holding nothing."""
    rep = hedge.run_hedge(bundle, surface, None, bsde.ConstantPayoff(endowment), endowment,
                          record_paths=n_record)
    flat = rep.mse == 0.0 and np.max(np.abs(rep.recorded["position"])) == 0.0
    return CheckResult("zero tracking gap keeps a flat position", flat, f"mse {rep.mse:.3g}")


def run_validate(delta_scale: float = 1.0, master_seed: int = 0) -> ValidationReport:
    rep = ValidationReport()
    step = 0.01 * delta_scale
    widen = math.sqrt(max(delta_scale, 1.0))

    cpe = levy.CompoundPoissonExp(10.0, 8.0, 1.0)
    ou = ngou.OUParams([1.0], [10.0])
    bns = market.BNS(0.5, 0.02)
    cbs = market.ConstantBS(0.1, 0.2)
    empty = [levy.TableMeasure(())]

    # moment machinery
    rep.checks += [
        moment_rate_quadrature(cpe, 1.0, 200, 15.0),
        moment_condition_rejects(cpe, 8.0),
        jump_sampling_reproducible([cpe], 5.0, 42),
        event_count_statistics([cpe], 20.0, 500, master_seed),
        exponential_moment(cpe, 2.0, 4000, (master_seed, 7)),
    ]

    # factor identities on simulated bundles
    b = market.simulate_paths(bns, ou, [cpe], [100.0], market.GridConfig(5.0, step), 1000, master_seed + 1)
    rep.checks.append(factor_balance(b))
    # the factor's margin above its floor y0 exp(-t), and the squared
    # market price of risk, at every node of the forward walk
    floor = 10.0 * np.exp(-b.times)
    margin = s2 = math.inf
    for k, (y, _, _) in enumerate(b.walk()):
        margin = min(margin, (y[:, 0] - floor[k]).min())
        s2 = min(s2, bns.sharpe_squared(y).min())
    rep.add("factor floor", margin >= -1e-12, f"min margin {margin:.2e}")
    rep.checks.append(discount_identity(b))
    rep.add("squared market price of risk nonnegative", float(s2) >= 0.0, f"min {s2:.3g}")

    grid1 = market.GridConfig(1.0, step)
    bc = market.simulate_paths(cbs, ou, empty, [100.0], grid1, 10000, master_seed + 2)
    rep.checks += [
        price_moment_lognormal(bc),
        frozen_factor_equivalence(grid1, 200, master_seed + 3),
        stochastic_exponential_martingale(0.5, 10000, master_seed),
    ]

    # density: flat-coefficient closed form and martingale mean
    rep.checks.append(flat_density_pathwise(opportunity.make_surface(cbs, ou, empty, 1.0), bc))
    surf_b = opportunity.solve_opportunity_ipde(bns, ou, cpe, 1.0)
    bb = market.simulate_paths(bns, ou, [cpe], [100.0], grid1, 10000, master_seed + 4)
    rep.checks.append(density_mean_one(surf_b, [bb], slack=0.004 * widen))
    zt = opportunity.density_terminal(surf_b, bb)
    rep.add("density positive", float(zt.min()) > 0.0, f"min {zt.min():.3g}")
    rep.checks.append(density_jumps_only_at_jump_times(surf_b, bns, ou, [cpe], grid1, 4, master_seed))

    # surface properties
    ys = np.linspace(4.0, 16.0, 7)
    vals = surf_b.value_at_states(0.3, ys)
    rep.add("surface within (0, 1]", bool((vals > 0).all() and (vals <= 1.0 + 1e-12).all()),
            f"range [{vals.min():.4f}, {vals.max():.4f}]")
    rep.add("surface terminal one", abs(surf_b.value(1.0, 10.0) - 1.0) < 1e-12, "")
    mesh = opportunity.MeshConfig(n_y=60, n_time_slices=65, n_time_steps=512)
    probes = [(0.0, 10.0), (0.4, 8.0), (0.7, 13.0)]
    rep.checks += [
        surface_decreases_with_horizon(surf_b, opportunity.solve_opportunity_ipde(bns, ou, cpe, 2.0), ys),
        flat_grid_closed_form(opportunity.solve_opportunity_ipde(cbs, ou, cpe, 1.0, mesh), cbs, [0, 26, 58], ys),
        surface_against_mc(surf_b, bns, ou, [cpe], probes, (master_seed, 5)),
    ]

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

    rep.checks += [
        closed_form_identities(master_seed + 9, p0_margin=1e-6, level=1e4),
        self_financing(hedge.run_hedge(bb, surf_b, None, pay, 10000.0, record_paths=16),
                       10000.0),
        zero_gap_flat_position(bb, surf_b, 10000.0, 8),
    ]
    return rep
