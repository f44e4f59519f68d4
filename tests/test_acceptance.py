"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.  Scale notes: criterion 3 runs the preset models at
horizons where the four-standard-error band has statistical power
(longer horizons make the density so heavy-tailed that the sample mean
of 1e5 paths cannot resolve the test either way), and criterion 7 runs
the jump preset at a twentieth of its headline horizon, as stated in
its definition.  Everything else is at the stated scale.

Criteria 1, 3 and 4 are the shared checks of ``mvhedge.validate``, and
the bands of criteria 6 and 7 are ``BSDESolution.agrees_with`` and
``HedgeReport.closed_form_agreement``; ``mvhedge validate`` and the unit
tests run the same code at their own scales.
"""

import math

import numpy as np

from mvhedge import bsde, hedge, levy, market, ngou, opportunity as opp, validate


def _line(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{tag}: {detail}"


OU = ngou.OUParams([1.0], [10.0])
CPE = levy.CompoundPoissonExp(10.0, 8.0, 1.0)
BNS = market.BNS(0.5, 0.02, rate=0.0)
NO_JUMPS = levy.TableMeasure(())


def test_criterion_1_closed_form_identities():
    check = validate.closed_form_identities(2024)
    _line("criterion 1", check.ok, check.detail)


def test_criterion_2_flat_preset_endpoint():
    sharpe2 = (2.0 / 100.0) ** 2
    horizons = np.linspace(2000.0, 40000.0, 20)
    rows = [hedge.closed_forms(3e4, 1e4, math.exp(-sharpe2 * t)) for t in horizons]
    herr_end = rows[-1][1]
    gap_end = rows[-1][2]
    gaps = [r[2] for r in rows]
    ok = (
        abs(herr_end - 45.01406988770365) <= 1e-4 * 45.0
        and abs(gap_end - 5.065666789703367e-06) <= 1e-3 * 5.07e-06
        and all(a > b for a, b in zip(gaps, gaps[1:]))
        and gap_end < 1e-5
    )
    _line("criterion 2", ok,
          f"endpoint error {herr_end:.6f}, gap {gap_end:.4e}, strictly decreasing {all(a > b for a, b in zip(gaps, gaps[1:]))}")


def _handed_on(held, rest):
    """Yield the chunk in the list ``held``, then the chunks of ``rest``;
    the first chunk leaves ``held`` as it is yielded, so once its reader
    lets go of it nothing keeps it while the next chunk is simulated."""
    yield held.pop()
    yield from rest


def test_criterion_3_density_martingale():
    # flat-coefficient preset at a horizon with unit accumulated squared
    # market price of risk; the pathwise identity is checked on a chunk
    model = market.ConstantBS(2.0, 10.0, rate=0.0)
    t_end = 25.0
    grid = market.GridConfig(t_end, 0.01)
    surf = opp.make_surface(model, OU, [NO_JUMPS], t_end)
    chunks = market.iter_path_chunks(model, OU, [NO_JUMPS], [100.0], grid, 100000, 31, 10000)
    held = [next(chunks)]
    pathwise = validate.flat_density_pathwise(surf, held[0])
    flat = validate.density_mean_one(surf, _handed_on(held, chunks))

    t_end = 5.0
    grid = market.GridConfig(t_end, 0.01)
    surf_b = opp.solve_opportunity_ipde(BNS, OU, CPE, t_end)
    jump = validate.density_mean_one(
        surf_b, market.iter_path_chunks(BNS, OU, [CPE], [100.0], grid, 100000, 32, 20000))
    _line("criterion 3", flat.ok and pathwise.ok and jump.ok,
          f"flat {flat.detail}, {pathwise.detail}; jump {jump.detail}")


def test_criterion_4_surface_cross_validation():
    surf = opp.solve_opportunity_ipde(BNS, OU, CPE, 1.0)
    probes = []
    for t in (0.0, 0.2, 0.4, 0.6, 0.8):
        env = 10.0 * math.exp(-t)
        probes += [(t, env + 0.3), (t, env * 1.3), (t, max(10.0, env + 0.5)), (t, 13.0), (t, 16.0)]
    check = validate.surface_against_mc(surf, BNS, OU, [CPE], probes, (41,))
    _line("criterion 4", check.ok, check.detail)


def test_criterion_5_factor_integral_identity():
    worst = 0.0
    for i in range(1000):
        jp = levy.sample_jump_path([CPE], 2.0, levy.rng_for_path(51, i))
        grid = ngou.merge_grid(np.linspace(0.0, 2.0, 201), jp.times)
        fp = ngou.evolve(OU, jp, grid)
        lhs = 1.0 * ngou.integrated_factor(fp, 0.0, 2.0)[0]
        rhs = 10.0 + jp.totals()[0] - fp.values[-1, 0]
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1.0))
    _line("criterion 5", worst <= 1e-12, f"max relative residual {worst:.2e} over 1000 paths")


def test_criterion_6_backward_vs_oracle():
    results = []

    # (a) constant claim under the jump preset
    grid = market.GridConfig(1.0, 0.01)
    surf = opp.solve_opportunity_ipde(BNS, OU, CPE, 1.0)
    bundle = market.simulate_paths(BNS, OU, [CPE], [100.0], grid, 10000, 61)
    pay = bsde.ConstantPayoff(30000.0)
    sol = bsde.solve_backward(bundle, surf, pay)
    est, se_o = bsde.mc_value_at_zero(surf, bundle, pay)
    ok, band = sol.agrees_with(est, se_o)
    results.append(("a", ok, f"|{sol.value_at_zero:.2f}-{est:.2f}|<={band:.2f}"))

    # (b) flat-coefficient call against the lognormal closed form
    model = market.ConstantBS(0.1, 0.2, rate=0.05)
    surf_c = opp.make_surface(model, OU, [NO_JUMPS], 1.0)
    bundle_c = market.simulate_paths(model, OU, [NO_JUMPS], [100.0], grid, 10000, 62)
    pay_c = bsde.DiscountedCall(100.0)
    sol_c = bsde.solve_backward(bundle_c, surf_c, pay_c)
    est_c, se_c = bsde.mc_value_at_zero(surf_c, bundle_c, pay_c)
    price = bsde.black_scholes_call(100.0, 100.0, 0.05, 0.2, 1.0)
    ok_bs = (abs(sol_c.value_at_zero - price) <= 3 * sol_c.se_at_zero
             and abs(est_c - price) <= 3 * se_c)
    results.append(("b", sol_c.agrees_with(est_c, se_c)[0] and ok_bs,
                    f"backward {sol_c.value_at_zero:.3f}, oracle {est_c:.3f}, closed {price:.3f}"))

    # (c) at-the-money call under the jump preset
    pay_k = bsde.DiscountedCall(100.0)
    sol_k = bsde.solve_backward(bundle, surf, pay_k)
    est_k, se_k = bsde.mc_value_at_zero(surf, bundle, pay_k)
    ok, band = sol_k.agrees_with(est_k, se_k)
    results.append(("c", ok, f"|{sol_k.value_at_zero:.2f}-{est_k:.2f}|<={band:.2f}"))

    ok = all(r[1] for r in results)
    _line("criterion 6", ok, "; ".join(f"({r[0]}) {r[2]}" for r in results))


def test_criterion_7_hedging_error_reproduction():
    t_end = 20.0
    grid = market.GridConfig(t_end, 0.01)
    surf = opp.solve_opportunity_ipde(BNS, OU, CPE, t_end)
    bundle = market.simulate_paths(BNS, OU, [CPE], [100.0], grid, 10000, 71)
    pay = bsde.ConstantPayoff(30000.0)
    sol = bsde.solve_backward(bundle, surf, pay)
    rep = hedge.run_hedge(bundle, surf, sol, pay, 10000.0)
    ok, band = rep.closed_form_agreement()
    _line("criterion 7", ok,
          f"simulated {rep.mse:.4g} vs closed {rep.comparators['hedging_error']:.4g}, band {band:.4g}")


def test_criterion_8_complete_market_replication():
    model = market.ConstantBS(0.1, 0.2, rate=0.0)
    t_end = 1.0
    grid = market.GridConfig(t_end, 1e-3)
    surf = opp.make_surface(model, OU, [NO_JUMPS], t_end)
    pay = bsde.DiscountedCall(100.0)
    fit = market.simulate_paths(model, OU, [NO_JUMPS], [100.0], grid, 30000, 81)
    sol = bsde.solve_backward(fit, surf, pay)
    del fit
    price = bsde.black_scholes_call(100.0, 100.0, 0.0, 0.2, 1.0)
    chunks = market.iter_path_chunks(model, OU, [NO_JUMPS], [100.0], grid, 100000, 82, 10000)
    rep = hedge.run_hedge(chunks, surf, sol, pay, price)
    budget = 0.01 * price**2
    ok = rep.mse < budget
    _line("criterion 8", ok,
          f"mean squared error {rep.mse:.4f} < budget {budget:.4f} (se {rep.se_mse:.4f})")
