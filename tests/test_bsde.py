import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from mvhedge import _kernels as kernels
from mvhedge import bsde, levy, market, ngou, opportunity as opp

from conftest import discounted, left_limits


def step_design(sol, bundle, k):
    """Standardized design (p, n) of fitted step k at the fit states, intercept first."""
    fit = sol.table.steps[k]
    xs = sol.table.features(discounted(bundle)[:, k], bundle.y[:, k], knots=fit.knots)
    return np.vstack([np.ones(bundle.n_paths), (xs[fit.keep] - fit.mean[:, None]) / fit.scale[:, None]])


def table_at_fit_states(sol, bundle):
    """The table's value (n, K) and Brownian loadings (n, K, d) at the fit paths' states."""
    disc = discounted(bundle)
    pairs = [sol.table.value_and_loadings(k, disc[:, k], bundle.y[:, k]) for k in range(bundle.n_steps)]
    return np.stack([v for v, _ in pairs], 1), np.stack([vbar for _, vbar in pairs], 1)


@pytest.fixture(scope="module")
def ou():
    return ngou.OUParams([1.0], [10.0])


@pytest.fixture(scope="module")
def cpe():
    return levy.CompoundPoissonExp(10.0, 8.0, 1.0)


@pytest.fixture(scope="module")
def flat_setup(ou):
    model = market.ConstantBS(0.1, 0.2, rate=0.0)
    spec = levy.TableMeasure(())
    grid = market.GridConfig(1.0, 0.01)
    bundle = market.simulate_paths(model, ou, [spec], [100.0], grid, 4000, 11)
    surface = opp.make_surface(model, ou, [spec], 1.0)
    return model, bundle, surface


@pytest.fixture(scope="module")
def bns_setup(ou, cpe):
    model = market.BNS(0.5, 0.02, rate=0.0)
    grid = market.GridConfig(1.0, 0.01)
    bundle = market.simulate_paths(model, ou, [cpe], [100.0], grid, 4000, 12)
    surface = opp.solve_opportunity_ipde(model, ou, cpe, 1.0)
    return model, bundle, surface


class TestPayoffs:
    def test_call_put_evaluation(self, flat_setup):
        _, bundle, _ = flat_setup
        call = bsde.DiscountedCall(100.0)(bundle)
        put = bsde.DiscountedPut(100.0)(bundle)
        s_t = bundle.s[:, -1, 0]
        assert call == pytest.approx(np.maximum(s_t - 100.0, 0.0))
        # put-call parity in discounted units (rate is zero here)
        assert call - put == pytest.approx(s_t - 100.0, rel=1e-12)

    @pytest.mark.parametrize("payoff, strike", [(bsde.DiscountedCall, 0.0), (bsde.DiscountedPut, -1.0)])
    def test_nonpositive_strike_rejected(self, payoff, strike):
        with pytest.raises(levy.ConfigurationError, match="strike must be positive"):
            payoff(strike)

    def test_constant(self, flat_setup):
        _, bundle, _ = flat_setup
        assert np.array_equal(bsde.ConstantPayoff(5.0)(bundle), np.full(bundle.n_paths, 5.0))

    def test_square_integrability_report(self):
        rep = bsde.check_square_integrability(np.array([1.0, 2.0, 3.0]))
        assert rep["finite"]


class TestDriver:
    def test_all_zero(self):
        g, jump = bsde.driver(np.zeros((3, 1)), np.zeros((3, 1)), np.zeros(3), 0.0, np.zeros((3, 3)), 1.0)
        assert np.array_equal(g, np.zeros(3)) and np.array_equal(jump, np.zeros(3))

    def test_flat_surface_single_term(self):
        # with a flat surface only the Brownian-loading term survives;
        # for one asset it is Vbar * (alpha - r) / beta
        vbar = np.array([[2.0], [3.0]])
        mpr = np.full((2, 1), (0.1 - 0.0) / 0.2)
        g, _ = bsde.driver(vbar, mpr, np.array([1.5, -4.0]), 0.7, np.zeros((2, 3)), 1.0)
        assert g == pytest.approx(vbar[:, 0] * 0.5)
        # a model without jumps has no channels and no jump part
        assert np.array_equal(bsde.driver(vbar, mpr, 0.0, 0.0, None, 1.0)[0], g)

    def test_atomic_integral_term(self):
        # single atom (z=1, nu=2), lam=1: g = Vbar*mpr - lam*nu*Vtilde*F, with
        # Vtilde(1) = 0.1 * 1 + 0.2 * 1**2 = 0.3 and the channels
        # C1 = nu z F, C2 = nu z^2 F, C3 = nu F^2/(1 + F) at F = 0.2
        vbar = np.array([[1.0]])
        f = 0.2
        channels = np.array([[2.0 * f, 2.0 * f, 2.0 * f * f / (1.0 + f)]])
        mpr = np.array([[0.5]])
        g, jump = bsde.driver(vbar, mpr, np.array([0.1]), 0.2, channels, 1.0)
        assert g[0] == pytest.approx(1.0 * 0.5 - 1.0 * 2.0 * 0.3 * 0.2, rel=1e-14)
        assert jump[0] == pytest.approx(-1.0 * 2.0 * 0.3 * 0.2, rel=1e-14)


class TestSolveBackward:
    def test_terminal_condition_exact(self, bns_setup):
        _, bundle, surface = bns_setup
        pay = bsde.DiscountedCall(100.0)
        sol = bsde.solve_backward(bundle, surface, pay)
        h = pay(bundle)
        assert sol.mean_value[-1] == h.mean()
        # the last fitted step regresses exactly the payoff path by path
        k = bundle.n_steps - 1
        a = step_design(sol, bundle, k)
        coef, *_ = np.linalg.lstsq(a.T, h, rcond=bsde._RCOND)
        fitted = sol.table.steps[k].coef_value @ a
        assert np.max(np.abs(fitted - a.T @ coef)) <= 1e-10 * np.max(np.abs(h))

    def test_constant_payoff_degenerate(self, flat_setup):
        _, bundle, surface = flat_setup
        sol = bsde.solve_backward(bundle, surface, bsde.ConstantPayoff(30000.0))
        # flat surface and constant terminal data: loadings and driver vanish
        assert sol.value_at_zero == pytest.approx(30000.0, abs=1e-6)
        _, vbar = table_at_fit_states(sol, bundle)
        assert np.max(np.abs(vbar)) < 1e-6 and np.max(np.abs(sol.table.loadings_at_zero)) < 1e-6

    def test_constant_payoff_with_jumps(self, bns_setup):
        _, bundle, surface = bns_setup
        sol = bsde.solve_backward(bundle, surface, bsde.ConstantPayoff(30000.0))
        assert sol.value_at_zero == pytest.approx(30000.0, abs=0.25)

    def test_flat_call_matches_closed_form(self, flat_setup):
        _, bundle, surface = flat_setup
        sol = bsde.solve_backward(bundle, surface, bsde.DiscountedCall(100.0))
        target = bsde.black_scholes_call(100.0, 100.0, 0.0, 0.2, 1.0)
        assert abs(sol.value_at_zero - target) <= 3 * sol.se_at_zero
        # without jumps Y has no spread, so D·Y is a multiple of D and is dropped with Y
        assert "rank_deficient_steps" not in sol.diagnostics
        assert sol.diagnostics["factorization"] == {"cholesky_qr2": bundle.n_steps - 1, "svd": 0}

    def test_discounted_never_built(self, bns_setup, ou, cpe, monkeypatch):
        # the solve discounts one step at a time, derives no whole price
        # array, and replays the factor from the simulation's grouping of
        # the jump events by step
        model, _, surface = bns_setup
        grouped = []
        monkeypatch.setattr(kernels, "price_path", lambda *args: pytest.fail("derived a whole price array"))
        by_step = market.RaggedJumps.by_step
        monkeypatch.setattr(market.RaggedJumps, "by_step", lambda rj, t: grouped.append(rj) or by_step(rj, t))
        bundle = market.simulate_paths(model, ou, [cpe], [100.0], market.GridConfig(1.0, 0.02), 300, 5)
        bsde.solve_backward(bundle, surface, bsde.DiscountedCall(100.0))
        assert grouped == [bundle.jumps]
        # nor do the whole factor, the density walk or a hedge's walk
        bundle.y, list(opp.density_walk(surface, bundle)), list(bundle.walk())
        assert grouped == [bundle.jumps]

    def test_ill_conditioned_steps_take_svd(self, ou, cpe):
        # at T = 5 the BNS designs reach cond 1e7 at some steps
        model = market.BNS(0.5, 0.02, rate=0.0)
        grid = market.GridConfig(5.0, 0.05)
        bundle = market.simulate_paths(model, ou, [cpe], [100.0], grid, 1000, 71)
        surface = opp.solve_opportunity_ipde(model, ou, cpe, 5.0)
        sol = bsde.solve_backward(bundle, surface, bsde.ConstantPayoff(3e4))
        routes = sol.diagnostics["factorization"]
        n_ill = int(np.count_nonzero(sol.cond[1:] >= bsde._CHOLESKY_COND_LIMIT))
        assert routes == {"cholesky_qr2": bundle.n_steps - 1 - n_ill, "svd": n_ill}
        assert n_ill > 0

    def test_common_path_has_no_tall_svd(self, ou, flat_setup, monkeypatch):
        # the guard against a thin SVD of the (n, p) design on every step
        model, _, surface = flat_setup
        grid = market.GridConfig(1.0, 0.02)
        bundle = market.simulate_paths(model, ou, [levy.TableMeasure(())], [100.0], grid, 5000, 23)
        pay = bsde.DiscountedCall(100.0)
        tall = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            if a.shape[-2] > a.shape[-1]:
                tall.append(a.shape)
            return svd(a, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(np.linalg, "svd", counting_svd)
            sol = bsde.solve_backward(bundle, surface, pay)
        assert tall == []
        monkeypatch.setattr(bsde, "_CHOLESKY_COND_LIMIT", 0.0)
        forced = bsde.solve_backward(bundle, surface, pay)
        assert forced.diagnostics["factorization"] == {"cholesky_qr2": 0, "svd": bundle.n_steps - 1}

        def close(x, ref, rel):
            return np.max(np.abs(x - ref)) <= rel * np.max(np.abs(ref))

        for x, ref in zip(table_at_fit_states(sol, bundle), table_at_fit_states(forced, bundle)):
            assert close(x, ref, 1e-10)
        assert close(sol.mean_value, forced.mean_value, 1e-10)
        assert close(sol.table.loadings_at_zero, forced.table.loadings_at_zero, 1e-10)
        assert sol.value_at_zero == pytest.approx(forced.value_at_zero, rel=1e-10)
        assert np.max(np.abs(sol.r2 - forced.r2)) <= 1e-8
        assert sol.cond == pytest.approx(forced.cond, rel=1e-8)

    def test_constant_claim_exact_at_time_zero(self, bns_setup):
        # the time-zero step borrows the step-1 fit's factor sensitivity,
        # which is exactly zero for a constant claim, in place of the
        # structural loading -V F / (1 + F)
        _, bundle, surface = bns_setup
        sol = bsde.solve_backward(bundle, surface, bsde.ConstantPayoff(30000.0))
        assert sol.value_at_zero == pytest.approx(30000.0, rel=1e-12)
        assert sol.mean_jump_term[0] == 0.0

    def test_intercept_only_basis(self, flat_setup):
        # a constant claim needs no state feature: the intercept carries it exactly
        _, bundle, surface = flat_setup
        sol = bsde.solve_backward(bundle, surface, bsde.ConstantPayoff(10.0), bsde.BsdeConfig(basis=("1",)))
        value, vbar = table_at_fit_states(sol, bundle)
        assert np.all(value == 10.0) and np.all(sol.mean_value == 10.0)
        assert np.all(vbar == 0.0) and np.all(sol.table.loadings_at_zero == 0.0)

    @pytest.mark.parametrize("case, bound", [("flat", 0.3), ("bns", 0.85), ("bns", 0.3)])
    def test_solve_keeps_value_state_per_step(self, case, bound, flat_setup, bns_setup):
        # the value rolls from step to step: the solve allocates only
        # per-step temporaries above the bundle, which at 100 steps are a
        # fraction of five (n, K) float arrays, the factor, prices,
        # increments and two per-step quadratures the bundle held when the
        # bounds were set (0.21 of them here without jumps and 0.24 with
        # them, where the jump channels are read once per path and step);
        # (n, K + 1) values and (n, K, d) loadings would add 0.4.
        # bns-0.85 held while the solve looked P up at 25 shifted states
        # per path and step (0.68); bns-0.3 holds with the channels
        _, bundle, surface = flat_setup if case == "flat" else bns_setup
        size = 5 * bundle.n_paths * bundle.n_steps * 8
        tracemalloc.start()
        try:
            bsde.solve_backward(bundle, surface, bsde.DiscountedCall(100.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * size

    def test_fresh_bundle_solve_builds_no_full_path(self, ou):
        # the solve reads the factor and the prices from the bundle's
        # backward walk: checkpoints every ceil(sqrt(K)) steps and one
        # segment's buffers, on top of the per-step regression temporaries
        # and the table; a full factor or price array would add 1 (n, K)
        # array (0.39 of one is measured here at K = 500)
        model = market.ConstantBS(0.1, 0.2, rate=0.0)
        spec = levy.TableMeasure(())
        surface = opp.make_surface(model, ou, [spec], 1.0)
        grid = market.GridConfig(1.0, 0.002)
        call = bsde.DiscountedCall(100.0)
        bsde.solve_backward(market.simulate_paths(model, ou, [spec], [100.0], grid, 200, 3), surface,
                            call)  # one-time caches
        bundle = market.simulate_paths(model, ou, [spec], [100.0], grid, 3000, 3)
        tracemalloc.start()
        try:
            bsde.solve_backward(bundle, surface, call)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bundle._y is None and bundle._s is None
        assert peak < 0.45 * bundle.n_paths * bundle.n_steps * 8

    def test_constant_claim_r2_in_unit_interval(self, bns_setup):
        # the value target's spread is rounding noise: no spread, r2 = 1
        _, bundle, surface = bns_setup
        sol = bsde.solve_backward(bundle, surface, bsde.ConstantPayoff(30000.0))
        assert np.all((sol.r2 >= 0.0) & (sol.r2 <= 1.0))

    def test_structural_fallback_matches_oracle(self, bns_setup):
        # no Y columns: no factor shift, so the jump loadings come from the
        # surface term at every step
        _, bundle, surface = bns_setup
        pay = bsde.DiscountedCall(100.0)
        basis = ("1", "D", "D2", "logD", "payoff", "knots")
        sol = bsde.solve_backward(bundle, surface, pay, bsde.BsdeConfig(basis=basis))
        assert sol.agrees_with(*bsde.mc_value_at_zero(surface, bundle, pay))[0]

    def test_one_step_fallback_closed_form(self, ou, cpe):
        # one step fits no regression, so the surface term -V F/(1+F) is the
        # jump loading and V0 solves V = mean H - dt (Vbar0 theta + lam V C3),
        # with the surface's channel C3 = sum_q w_q F_q^2 / (1 + F_q) at y0
        model = market.BNS(0.5, 0.02, rate=0.0)
        grid = market.GridConfig(0.05, 0.05)
        bundle = market.simulate_paths(model, ou, [cpe], [100.0], grid, 2000, 3)
        surface = opp.solve_opportunity_ipde(model, ou, cpe, 0.05)
        pay = bsde.DiscountedCall(100.0)
        sol = bsde.solve_backward(bundle, surface, pay)
        assert bundle.n_steps == 1
        h, dt, n = pay(bundle), grid.step, bundle.n_paths
        vbar = (h - h.mean()) @ bundle.dw[:, 0] / (n * dt)
        theta = market.market_price_of_risk(model, ou.y0[None, :])[0]
        c3 = surface.jump_channels(bundle.times, *levy.jump_quadrature(cpe))(0, ou.y0)[0, 2]
        v0 = (h.mean() - dt * vbar @ theta) / (1.0 + dt * cpe.time_scale * c3)
        assert c3 > 0.0
        assert sol.value_at_zero == pytest.approx(v0, rel=1e-12)
        assert sol.mean_jump_term[0] == pytest.approx(cpe.time_scale * v0 * c3, rel=1e-12)

    def test_oracle_agreement(self, bns_setup):
        _, bundle, surface = bns_setup
        pay = bsde.DiscountedCall(100.0)
        sol = bsde.solve_backward(bundle, surface, pay)
        assert sol.agrees_with(*bsde.mc_value_at_zero(surface, bundle, pay))[0]

    @pytest.mark.parametrize("case", ["flat", "flat_rate", "bns"])
    def test_put_call_parity(self, case, flat_setup, bns_setup, ou):
        # D_T is worth D_0 under the variance-optimal measure, so
        # V0(call) - V0(put) = D_0 - K exp(-rT) up to the regression noise
        if case == "flat":
            _, bundle, surface = flat_setup
        elif case == "bns":
            _, bundle, surface = bns_setup
        else:
            model = market.ConstantBS(0.1, 0.2, rate=0.03)
            spec = levy.TableMeasure(())
            bundle = market.simulate_paths(model, ou, [spec], [100.0], market.GridConfig(1.0, 0.01), 4000, 11)
            surface = opp.make_surface(model, ou, [spec], 1.0)
        call, put = (bsde.solve_backward(bundle, surface, pay).value_at_zero
                     for pay in (bsde.DiscountedCall(100.0), bsde.DiscountedPut(100.0)))
        parity = 100.0 - 100.0 * math.exp(-bundle.rate * bundle.times[-1])
        d_t = discounted(bundle)[:, -1, 0]
        assert abs(call - put - parity) <= 4 * d_t.std(ddof=1) / math.sqrt(bundle.n_paths)

    def test_martingale_residuals(self, bns_setup):
        # per-step mean of the unexplained increment stays within noise
        _, bundle, surface = bns_setup
        pay = bsde.DiscountedCall(100.0)
        sol = bsde.solve_backward(bundle, surface, pay)
        value, _ = table_at_fit_states(sol, bundle)
        for k in (5, 40, 80):
            v_next = value[:, k + 1]
            v_now = value[:, k]
            incr = v_next - v_now
            drift = incr.mean()
            se = incr.std(ddof=1) / math.sqrt(incr.size)
            assert abs(drift) <= 4 * se + 1e-3 * max(1.0, abs(v_now.mean()))

    @pytest.mark.parametrize("basis", [
        bsde.BsdeConfig().basis, ("1", "D", "Y", "DY", "payoff"), ("1", "D", "Y2", "knots"),
    ])
    def test_factor_shift_matches_refitted_value(self, bns_setup, basis):
        # the column roles give the fitted value's exact change under y -> y + z
        _, bundle, surface = bns_setup
        sol = bsde.solve_backward(bundle, surface, bsde.DiscountedCall(100.0), bsde.BsdeConfig(basis=basis))
        roles = [role for _, role in sol.table.columns]
        disc = discounted(bundle)
        for k in (1, 30, 70, 99):
            fit = sol.table.steps[k]
            d_k, y_k = disc[:, k], bundle.y[:, k]
            slope, quad = bsde._factor_shift(roles, fit.keep, fit.coef_process, fit.scale, d_k, y_k)
            v, _ = sol.table.value_and_loadings(k, d_k, y_k)
            for z in (0.05, 0.5, 2.0):
                v_z, _ = sol.table.value_and_loadings(k, d_k, y_k + z)
                assert np.max(np.abs(slope * z + quad * z**2 - (v_z - v))) <= 1e-12 * np.max(np.abs(v))

    @pytest.mark.parametrize("basis", [bsde.BsdeConfig().basis, ("1", "D", "D2", "logD", "payoff", "knots")])
    def test_table_value_is_the_solved_process(self, bns_setup, cpe, basis):
        # the table returns the projection of the solver's V_k = v_hat - g dt
        # on the step's design, not v_hat = E[V_{k+1} | X_k]; V_k is rebuilt
        # here from the fitted v_hat and loadings, the factor shift and the
        # surface's jump channels, with the structural fallback's division
        # by 1 + dt lam C3 where the basis has no factor column
        model, bundle, surface = bns_setup
        sol = bsde.solve_backward(bundle, surface, bsde.DiscountedCall(100.0), bsde.BsdeConfig(basis=basis))
        roles = [role for _, role in sol.table.columns]
        channels = surface.jump_channels(bundle.times, *levy.jump_quadrature(cpe))
        lam, dt, nk = cpe.time_scale, bundle.grid.step, bundle.n_steps
        disc, y_left = discounted(bundle), left_limits(bundle)
        for k in (1, nk // 2, nk - 1):
            fit = sol.table.steps[k]
            d_k, y_k, yl_k = disc[:, k], bundle.y[:, k], y_left[:, k]
            a = step_design(sol, bundle, k)
            value, vbar = sol.table.value_and_loadings(k, d_k, y_k)
            c = channels(k, yl_k[:, 0])
            brownian = np.sum(vbar * market.market_price_of_risk(model, yl_k), axis=1)
            shift = bsde._factor_shift(roles, fit.keep, fit.coef_value, fit.scale, d_k, yl_k)
            v_hat = fit.coef_value @ a
            if shift is None:
                v_k = (v_hat - dt * brownian) / (1.0 + dt * lam * c[:, 2])
            else:
                slope, quad = shift
                v_k = v_hat - dt * (brownian - lam * (slope * c[:, 0] + quad * c[:, 1]))
            assert (shift is None) == ("Y" not in basis)
            coef, *_ = np.linalg.lstsq(a.T, v_k, rcond=bsde._RCOND)
            projected = a.T @ coef
            assert np.max(np.abs(value - projected)) <= 1e-10 * np.max(np.abs(projected))

    def test_lookups_off_the_mesh_are_counted(self, bns_setup):
        # a surface cut to the middle of its mesh: each step reads the
        # channels once per path at its left state, and every read below
        # the floor or above the top counts; building the channels counts none
        _, bundle, surface = bns_setup
        yl = left_limits(bundle)[:, :-1, 0]
        lo, hi = np.searchsorted(surface.y_nodes, np.quantile(yl, [0.2, 0.8]))
        cut = opp.IpdeSurface(surface.t_slices, surface.y_nodes[lo:hi], surface.table[:, lo:hi], surface.horizon)
        bsde.solve_backward(bundle, cut, bsde.DiscountedCall(100.0))
        eta = np.log(yl)
        assert cut.n_below_floor == np.count_nonzero(eta < cut.eta[0]) > 0
        assert cut.n_above_top == np.count_nonzero(eta > cut.eta[-1]) > 0

    def test_r2_and_cond_recorded(self, bns_setup):
        _, bundle, surface = bns_setup
        sol = bsde.solve_backward(bundle, surface, bsde.DiscountedCall(100.0))
        assert sol.r2.shape == (bundle.n_steps,)
        assert np.isfinite(sol.cond[1:]).all()

    def test_too_few_paths_rejected(self, ou, flat_setup):
        model, _, surface = flat_setup
        grid = market.GridConfig(1.0, 0.25)
        small = market.simulate_paths(model, ou, [levy.TableMeasure(())], [100.0], grid, 10, 1)
        with pytest.raises(levy.ConfigurationError):
            bsde.solve_backward(small, surface, bsde.ConstantPayoff(1.0))

    def test_two_factor_bundle_rejected(self):
        # a flat model ignores the factor, so it simulates with two
        model = market.ConstantBS(0.1, 0.2)
        model.h = 2
        ou2 = ngou.OUParams([1.0, 0.5], [10.0, 5.0])
        bundle = market.simulate_paths(model, ou2, [levy.TableMeasure(())] * 2, [100.0],
                                       market.GridConfig(1.0, 0.25), 100, 1)
        with pytest.raises(levy.ConfigurationError, match="backward solve is implemented for one factor"):
            bsde.solve_backward(bundle, opp.ConstantSharpeSurface(model.constant_sharpe, 1.0),
                                bsde.ConstantPayoff(1.0))

    def test_export_csv(self, tmp_path, flat_setup):
        _, bundle, surface = flat_setup
        sol = bsde.solve_backward(bundle, surface, bsde.ConstantPayoff(10.0))
        out = tmp_path / "sol.csv"
        sol.export_csv(out)
        assert out.read_text().splitlines()[0] == "t,mean_value,mean_loading,r2"


class TestLeastSquares:
    @staticmethod
    def design(n, collinear):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((n, 4)) * [1.0, 3.0, 0.1, 2.0] + [0.0, 5.0, -1.0, 2.0]
        if collinear:
            x[:, 3] = 2.0 * x[:, 1]
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        return np.column_stack([np.ones(n), x]), rng

    @pytest.mark.parametrize("collinear", [False, True])
    def test_matches_lstsq(self, collinear):
        rcond = bsde._RCOND
        a, rng = self.design(500, collinear)
        targets = 30.0 + a[:, 1:] @ [1.0, -2.0, 0.5, 0.3] + rng.standard_normal((500, 3)).T
        targets = targets.T
        ls = bsde._LeastSquares(a, rcond)
        coef, _, rank, sv = np.linalg.lstsq(a, targets, rcond=rcond)
        used = sv[sv > sv[0] * rcond]
        preds, coef_ls = ls.fit(targets)
        ref = a @ coef
        assert np.max(np.abs(preds - ref)) <= 1e-10 * np.max(np.abs(ref))
        assert np.max(np.abs(a @ coef_ls - ref)) <= 1e-10 * np.max(np.abs(ref))
        assert ls.deficient == (rank < a.shape[1]) == collinear
        assert ls.cond == pytest.approx(sv[0] / used[-1], rel=1e-8)
        # one target at a time gives the same fit as the stacked targets
        alone, _ = ls.fit(targets[:, 0])
        assert np.max(np.abs(alone - preds[:, 0])) <= 1e-12 * np.max(np.abs(ref))
        # the coefficients-only path forms no predictions and gives the same bits
        assert np.array_equal(ls.coefficients(targets), coef_ls)

    @staticmethod
    def conditioned_design(cond, n=40000, p=11):
        """Standardized design, intercept first, of condition number ``cond``.

        Unit-spread columns sharing one direction: the correlation
        matrix has eigenvalues alpha^2 (p - 2 times) and alpha^2 + p - 1
        over 1 + alpha^2, so with the intercept cond = sqrt(1 + (p - 1) / alpha^2).
        """
        rng = np.random.default_rng(7)
        z = rng.standard_normal((n, p))
        q, _ = np.linalg.qr(z - z.mean(axis=0))
        x = math.sqrt(p - 1) / cond * q[:, :-1] + q[:, -1:]
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        # contiguous feature rows, as the solver builds them
        rows = np.vstack([np.ones(n), x.T])
        return rows.T, rng

    @pytest.mark.parametrize("cond, route", [
        (1e2, "cholesky_qr2"), (1e5, "cholesky_qr2"), (5e6, "cholesky_qr2"),
        (2e7, "svd"), (1e9, "svd"), ("collinear", "svd"),
    ])
    def test_routes_match_lstsq(self, cond, route):
        rcond = bsde._RCOND
        if cond == "collinear":
            a, rng = self.conditioned_design(1e2)
            a[:, -1] = a[:, 1] + 2.0 * a[:, 2]
            a[:, -1] = (a[:, -1] - a[:, -1].mean()) / a[:, -1].std()
        else:
            a, rng = self.conditioned_design(cond)
            assert route == ("cholesky_qr2" if cond < bsde._CHOLESKY_COND_LIMIT else "svd")
        n, p = a.shape
        targets = 30.0 + (a[:, 1:] @ rng.standard_normal(p - 1))[:, None] + rng.standard_normal((n, 3))
        ls = bsde._LeastSquares(a, rcond)
        coef, _, rank, sv = np.linalg.lstsq(a, targets, rcond=rcond)
        used = sv[sv > sv[0] * rcond]
        preds, coef_ls = ls.fit(targets)
        ref = a @ coef
        tol = 10 * np.finfo(float).eps * (sv[0] / used[-1]) * np.max(np.abs(ref))
        assert ls.route == route
        assert ls.cond == pytest.approx(sv[0] / used[-1], rel=1e-6)
        assert np.max(np.abs(preds - ref)) <= tol
        assert np.max(np.abs(a @ coef_ls - ref)) <= tol
        assert ls.deficient == (rank < p) == (cond == "collinear")

    def test_duplicated_column_takes_svd(self):
        # its Gram matrix is exactly singular
        a, _ = self.conditioned_design(1e2)
        a[:, 5] = a[:, 4]
        ls = bsde._LeastSquares(a, bsde._RCOND)
        assert ls.route == "svd" and ls.deficient

    def test_user_rcond_truncates(self):
        # a design the Cholesky route could take keeps the SVD's truncation
        a, _ = self.conditioned_design(1e5)
        ls = bsde._LeastSquares(a, 1e-4)
        assert ls.route == "svd" and ls.deficient and ls.cond < 1e4

    def test_r2_treats_rounding_spread_as_none(self):
        rng = np.random.default_rng(5)
        noise = rng.standard_normal(1000)
        level = np.full(1000, 3e4)
        # spread at 1e-10 on 3e4 is rounding noise: nothing to explain
        assert bsde._r2(level + 1e-10 * noise, level) == 1.0
        assert bsde._r2(np.zeros(1000), np.zeros(1000)) == 1.0
        # a real spread keeps the usual definition
        target = level + noise
        assert bsde._r2(target, level + 0.5 * noise) == pytest.approx(
            1.0 - np.sum((0.5 * noise) ** 2) / np.sum((target - target.mean()) ** 2), rel=1e-12)


def test_black_scholes_call_reference_values():
    assert bsde.black_scholes_call(100, 100, 0, 0.2, 1) == 7.965567455405804
    assert bsde.black_scholes_call(100, 100, 0.05, 0.2, 1) == 10.450583572185565


class TestOracle:
    def test_constant_payoff_recovers_level(self, bns_setup):
        _, bundle, surface = bns_setup
        est, se = bsde.mc_value_at_zero(surface, bundle, bsde.ConstantPayoff(30000.0))
        assert abs(est - 30000.0) <= 3 * se

    def test_zero_payoff(self, bns_setup):
        _, bundle, surface = bns_setup
        est, se = bsde.mc_value_at_zero(surface, bundle, bsde.ConstantPayoff(0.0))
        assert est == 0.0 and se == 0.0

    def test_flat_call_against_closed_form(self, flat_setup):
        _, bundle, surface = flat_setup
        est, se = bsde.mc_value_at_zero(surface, bundle, bsde.DiscountedCall(100.0))
        target = bsde.black_scholes_call(100.0, 100.0, 0.0, 0.2, 1.0)
        assert abs(est - target) <= 3 * se

    def test_chunked_equals_whole(self, ou, cpe):
        model = market.BNS(0.5, 0.02)
        grid = market.GridConfig(0.5, 0.01)
        surface = opp.solve_opportunity_ipde(model, ou, cpe, 0.5)
        whole = market.simulate_paths(model, ou, [cpe], [100.0], grid, 60, 44)
        pay = bsde.DiscountedCall(100.0)
        est1, se1 = bsde.mc_value_at_zero(surface, whole, pay)
        chunks = market.iter_path_chunks(model, ou, [cpe], [100.0], grid, 60, 44, 20)
        est2, se2 = bsde.mc_value_at_zero(surface, chunks, pay)
        assert est1 == pytest.approx(est2, rel=1e-12)
        assert se1 == pytest.approx(se2, rel=1e-12)


@pytest.mark.parametrize("case", ["flat", "bns"])
def test_solve_does_not_depend_on_checkpoint_spacing(case, flat_setup, bns_setup, ou, cpe):
    # the backward walk replays the states from checkpoints every m steps:
    # the solution is the same, bit for bit, for every m
    model, _, surface = flat_setup if case == "flat" else bns_setup
    spec = levy.TableMeasure(()) if case == "flat" else cpe
    grid = market.GridConfig(1.0, 0.02)
    sols = []
    for every in (1, 7, 8, 50):  # 8 = ceil(sqrt(50)), the default
        bundle = market.simulate_paths(model, ou, [spec], [100.0], grid, 400, 13)
        bundle._every = every
        sols.append(bsde.solve_backward(bundle, surface, bsde.DiscountedCall(100.0)))
    ref = sols[0]
    for sol in sols[1:]:
        assert sol.value_at_zero == ref.value_at_zero and sol.se_at_zero == ref.se_at_zero
        for name in ("r2", "cond", "mean_value", "mean_loading", "mean_jump_term"):
            assert np.array_equal(getattr(sol, name), getattr(ref, name)), name
        assert sol.diagnostics["factorization"] == ref.diagnostics["factorization"]
        assert np.array_equal(sol.table.loadings_at_zero, ref.table.loadings_at_zero)
        for fit, ref_fit in zip(sol.table.steps[1:], ref.table.steps[1:]):
            for field in dataclasses.fields(bsde.StepFit):
                assert np.array_equal(getattr(fit, field.name), getattr(ref_fit, field.name)), field.name
