import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mvhedge import _kernels as kernels
from mvhedge import bsde, hedge, levy, market, ngou, opportunity as opp


def bs_call_price(s, k, r, sig, t_end):
    d1 = (math.log(s / k) + (r + 0.5 * sig * sig) * t_end) / (sig * math.sqrt(t_end))
    d2 = d1 - sig * math.sqrt(t_end)
    cdf = lambda x: 0.5 * (1 + math.erf(x / math.sqrt(2)))
    return s * cdf(d1) - k * math.exp(-r * t_end) * cdf(d2)


def bs_delta(s, k, sig, t_end):
    d1 = (math.log(s / k) + 0.5 * sig * sig * t_end) / (sig * math.sqrt(t_end))
    return 0.5 * (1 + math.erf(d1 / math.sqrt(2)))


@pytest.fixture(scope="module")
def ou():
    return ngou.OUParams([1.0], [10.0])


class TestClosedForms:
    def test_zero_gap(self):
        assert hedge.closed_forms(5.0, 5.0, 0.3) == (0.0, 0.0, 0.0)

    def test_flat_preset_endpoint(self):
        # time-value of the opportunity at the long-horizon preset
        var, herr, gap = hedge.closed_forms(30000.0, 10000.0, math.exp(-16.0))
        assert herr == pytest.approx(45.01406988770365, rel=1e-10)
        assert gap == pytest.approx(5.065666789703367e-06, rel=1e-9)

    def test_shorter_horizon_values(self):
        var, herr, gap = hedge.closed_forms(30000.0, 10000.0, math.exp(-4.0))
        assert var == pytest.approx(7462944.145509618, rel=1e-10)
        assert herr == pytest.approx(7326255.555493671, rel=1e-10)
        assert gap == pytest.approx(136688.59001594703, rel=1e-9)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            hedge.closed_forms(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            hedge.closed_forms(1.0, 0.0, 0.0)

    @given(
        p0=st.floats(1e-9, 1 - 1e-9),
        p_level=st.floats(-1e6, 1e6),
        v=st.floats(-1e6, 1e6),
    )
    @settings(max_examples=200, deadline=None)
    def test_identity_and_positivity(self, p0, p_level, v):
        assume(p_level == v or abs(p_level - v) > 1e-100)  # below that the product underflows
        var, herr, gap = hedge.closed_forms(p_level, v, p0)
        assert abs(var - herr - gap) <= 1e-12 * max(var, 1.0)
        assert gap == pytest.approx(p0**2 / (1 - p0) * (p_level - v) ** 2, rel=1e-12)
        if p_level != v:
            assert gap > 0.0

    def test_monotone_decay_in_horizon(self):
        # flat-coefficient gap decreases strictly to zero as T grows
        sharpe2 = 4e-4
        horizons = np.linspace(2000.0, 40000.0, 20)
        gaps = [hedge.closed_forms(3e4, 1e4, math.exp(-sharpe2 * t))[2] for t in horizons]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-5


class TestStrategyPieces:
    def test_pure_hedge_scalar_reduction(self):
        m = market.ConstantBS(0.1, 0.2)
        xi = hedge.pure_hedge(m, np.array([[50.0]]), np.array([[10.0]]), np.array([[4.0]]))
        assert xi[0, 0] == pytest.approx(4.0 / (50.0 * 0.2), rel=1e-14)

    def test_pure_hedge_two_assets(self):
        # the discounted-price-weighted position sigma' (D xi) recovers the loadings
        model = TwoAssetConstant([0.1, 0.05], [[0.2, 0.0], [0.1, 0.3]])
        d_prices = np.array([[50.0, 80.0], [120.0, 20.0]])
        vbar = np.array([[4.0, -1.0], [0.5, 2.0]])
        xi = hedge.pure_hedge(model, d_prices, np.full((2, 1), 10.0), vbar)
        assert (d_prices * xi) @ model.sigma == pytest.approx(vbar, rel=1e-13)

    def test_adjustment_two_assets(self):
        # sigma sigma' diag(D) a = B
        model = TwoAssetConstant([0.1, 0.05], [[0.3, 0.0], [0.25, 0.12]])
        d_prices = np.array([[50.0, 80.0]])
        a = market.adjustment(model, d_prices, np.array([[10.0]]))
        cov = model.sigma @ model.sigma.T
        assert cov @ (d_prices * a)[0] == pytest.approx(model.b, rel=1e-13)

    def test_pure_hedge_zero_loadings(self):
        m = market.BNS(0.5, 0.02)
        xi = hedge.pure_hedge(m, np.array([[50.0]]), np.array([[10.0]]), np.zeros((1, 1)))
        assert xi[0, 0] == 0.0

    def test_gains_step_hand_value(self):
        got = hedge.gains_step(np.array([0.0]), np.array([[1.0]]), np.array([[2e-6]]),
                               1e4, np.array([3e4]), np.array([[1.0]]))
        assert got[0] == pytest.approx(1.04, rel=1e-12)

    def test_gains_step_zero_increment(self):
        got = hedge.gains_step(np.array([0.7]), np.array([[1.0]]), np.array([[2e-6]]),
                               1e4, np.array([3e4]), np.array([[0.0]]))
        assert got[0] == 0.7

    def test_gains_step_no_feedback(self):
        got = hedge.gains_step(np.array([0.5]), np.array([[2.0]]), np.array([[0.0]]),
                               1e4, np.array([3e4]), np.array([[3.0]]))
        assert got[0] == pytest.approx(0.5 + 6.0, rel=1e-14)

    def test_position_hand_value(self):
        phi = hedge.strategy_position(np.array([[0.5]]), np.array([[2e-6]]), 1e4,
                                      np.array([0.0]), np.array([3e4]))
        assert phi[0, 0] == pytest.approx(0.54, rel=1e-12)

    def test_position_zero_gap(self):
        phi = hedge.strategy_position(np.array([[0.5]]), np.array([[2e-6]]), 1e4,
                                      np.array([0.0]), np.array([1e4]))
        assert phi[0, 0] == 0.5

    def test_position_zero_adjustment(self):
        phi = hedge.strategy_position(np.array([[0.5]]), np.array([[0.0]]), 1e4,
                                      np.array([123.0]), np.array([3e4]))
        assert phi[0, 0] == 0.5


class TwoAssetConstant(market.CoefficientModel):
    """Two correlated assets with flat drift and volatility; the factor is ignored."""

    d, h, rate = 2, 1, 0.0

    def __init__(self, drift, sigma):
        self.b = np.asarray(drift, dtype=float)
        self.sigma = np.asarray(sigma, dtype=float)
        self.constant_sharpe = float(self.b @ np.linalg.solve(self.sigma @ self.sigma.T, self.b))

    def drift(self, y):
        return np.broadcast_to(self.b, np.shape(y)[:-1] + (2,))

    def vol(self, y):
        return np.broadcast_to(self.sigma, np.shape(y)[:-1] + (2, 2))


@pytest.fixture(scope="module")
def bns_world(ou):
    model = market.BNS(0.5, 0.02)
    cpe = levy.CompoundPoissonExp(10.0, 8.0, 1.0)
    grid = market.GridConfig(1.0, 0.01)
    bundle = market.simulate_paths(model, ou, [cpe], [100.0], grid, 6000, 19)
    surface = opp.solve_opportunity_ipde(model, ou, cpe, 1.0)
    return model, cpe, grid, bundle, surface


class TestRunHedge:
    def test_constant_claim_matches_herr(self, bns_world):
        _, _, _, bundle, surface = bns_world
        pay = bsde.ConstantPayoff(30000.0)
        sol = bsde.solve_backward(bundle, surface, pay)
        rep = hedge.run_hedge(bundle, surface, sol, pay, 10000.0)
        herr = rep.comparators["hedging_error"]
        assert abs(rep.mse - herr) <= max(4 * rep.se_mse, 0.02 * herr)

    def test_closed_form_value_route_matches(self, bns_world):
        _, _, _, bundle, surface = bns_world
        pay = bsde.ConstantPayoff(30000.0)
        rep = hedge.run_hedge(bundle, surface, None, pay, 10000.0,
                              hedge.HedgeConfig(use_closed_form_value=True))
        herr = rep.comparators["hedging_error"]
        assert abs(rep.mse - herr) <= max(4 * rep.se_mse, 0.02 * herr)

    def test_payoff_equal_endowment_is_free(self, bns_world):
        _, _, _, bundle, surface = bns_world
        pay = bsde.ConstantPayoff(10000.0)
        rep = hedge.run_hedge(bundle, surface, None, pay, 10000.0,
                              hedge.HedgeConfig(use_closed_form_value=True, record_paths=4))
        assert rep.mse == 0.0
        assert np.max(np.abs(rep.recorded["position"])) == 0.0

    def test_self_financing_bookkeeping(self, bns_world):
        _, _, _, bundle, surface = bns_world
        pay = bsde.ConstantPayoff(30000.0)
        rep = hedge.run_hedge(bundle, surface, None, pay, 10000.0,
                              hedge.HedgeConfig(use_closed_form_value=True, record_paths=8))
        rec = rep.recorded
        gains = np.sum(rec["position"][:, :, 0] * np.diff(rec["discounted"][:, :, 0], axis=1), axis=1)
        assert np.max(np.abs(rec["wealth"][:, -1] - 10000.0 - gains)) < 1e-6 * 1e4

    def test_recorded_wealth_matches_sweep(self, bns_world, ou, monkeypatch):
        model, cpe, grid, _, surface = bns_world
        bundle = market.simulate_paths(model, ou, [cpe], [100.0], grid, 300, 31)
        pay = bsde.DiscountedCall(100.0)
        sol = bsde.solve_backward(bundle, surface, pay)
        swept = []
        sweep = kernels.hedge_sweep
        monkeypatch.setattr(kernels, "hedge_sweep", lambda *args: swept.append(sweep(*args)) or swept[-1])
        rep = hedge.run_hedge(bundle, surface, sol, pay, 8.0, hedge.HedgeConfig(record_paths=8))
        assert np.array_equal(rep.recorded["wealth"][:, -1], 8.0 + swept[0][:8])

    def test_step_slices_contiguous(self, bns_world, ou, monkeypatch):
        model, cpe, grid, _, surface = bns_world
        bundle = market.simulate_paths(model, ou, [cpe], [100.0], grid, 300, 31)
        pay = bsde.DiscountedCall(100.0)
        sol = bsde.solve_backward(bundle, surface, pay)
        swept = []
        sweep = kernels.hedge_sweep
        monkeypatch.setattr(kernels, "hedge_sweep", lambda *args: swept.append(args) or sweep(*args))
        hedge.run_hedge(bundle, surface, sol, pay, 8.0)
        d_path, value, xi, adj, _ = swept[0]
        for k in (0, 1, bundle.n_steps - 1):
            for arr in (d_path, value, xi, adj):
                assert arr[:, k].flags.c_contiguous
        for cfg in (hedge.HedgeConfig(), hedge.HedgeConfig(use_closed_form_value=True)):
            value, vbar = hedge._value_arrays(bundle, sol, bsde.ConstantPayoff(1.0), cfg)
            assert value[:, 1].flags.c_contiguous and vbar[:, 1].flags.c_contiguous

    def test_chunked_stream(self, bns_world, ou):
        model, cpe, grid, _, surface = bns_world
        pay = bsde.ConstantPayoff(30000.0)
        whole = market.simulate_paths(model, ou, [cpe], [100.0], grid, 400, 77)
        rep1 = hedge.run_hedge(whole, surface, None, pay, 10000.0,
                               hedge.HedgeConfig(use_closed_form_value=True))
        chunks = market.iter_path_chunks(model, ou, [cpe], [100.0], grid, 400, 77, 100)
        rep2 = hedge.run_hedge(chunks, surface, None, pay, 10000.0,
                               hedge.HedgeConfig(use_closed_form_value=True))
        assert rep1.mse == pytest.approx(rep2.mse, rel=1e-12)
        assert rep2.n_paths == 400

    def test_report_exports(self, tmp_path, bns_world):
        _, _, _, bundle, surface = bns_world
        pay = bsde.ConstantPayoff(30000.0)
        rep = hedge.run_hedge(bundle, surface, None, pay, 10000.0,
                              hedge.HedgeConfig(use_closed_form_value=True))
        rep.export_csv(tmp_path / "rep.csv")
        text = rep.summary()
        assert "mean squared error" in text
        assert (tmp_path / "rep.csv").read_text().startswith("quantity,value")


def path_major(bundle):
    """The same bundle with every per-step array copied path by path."""
    arrays = [np.ascontiguousarray(a) for a in (bundle.y, bundle.s, bundle.dw, bundle.sharpe_int,
                                                 bundle.mpr_dw, bundle.factor_int)]
    return market.PathBundle(bundle.model, bundle.ou, bundle.specs, bundle.s0, bundle.grid, *arrays,
                             bundle.jumps, bundle.master_seed, bundle.path_offset)


@pytest.mark.parametrize("case", ["bns_constant", "flat_call"])
def test_results_do_not_depend_on_layout(case, bns_world, ou):
    # step-major storage is a layout choice only: a path-major copy of
    # the bundle gives the same density, backward solution and hedge
    if case == "bns_constant":
        _, _, _, bundle, surface = bns_world
        pay, endowment = bsde.ConstantPayoff(30000.0), 10000.0
    else:
        model = market.ConstantBS(0.1, 0.2, rate=0.0)
        spec = levy.TableMeasure(())
        bundle = market.simulate_paths(model, ou, [spec], [100.0], market.GridConfig(1.0, 0.01), 2000, 41)
        surface = opp.make_surface(model, ou, [spec], 1.0)
        pay, endowment = bsde.DiscountedCall(100.0), 8.0
    other = path_major(bundle)
    assert other.y[0].flags.c_contiguous and not other.y[:, 1].flags.c_contiguous
    for name in ("y", "y_left", "s", "discounted", "dw", "sharpe_int", "mpr_dw", "factor_int"):
        assert np.array_equal(getattr(bundle, name), getattr(other, name)), name
    assert np.array_equal(opp.density_terminal(surface, bundle), opp.density_terminal(surface, other))
    sols = [bsde.solve_backward(b, surface, pay) for b in (bundle, other)]
    for name in ("value", "dw_loadings"):
        a, b = (getattr(sol, name) for sol in sols)
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(a)), name
    reps = [hedge.run_hedge(b, surface, sol, pay, endowment) for b, sol in zip((bundle, other), sols)]
    assert reps[1].mse == pytest.approx(reps[0].mse, rel=1e-13)


def test_two_asset_constant_claim_matches_herr(ou):
    # two assets through the simulation engine, the matrix covariance
    # solve and the sweep;
    # the closed form is P0 (p - v)^2 with P0 = exp(-theta' Sigma^-1 theta T)
    # correlated enough that an adjustment ignoring the off-diagonal
    # covariance raises the MSE by about 15 %, twice the band
    model = TwoAssetConstant([0.1, 0.05], [[0.3, 0.0], [0.25, 0.12]])
    spec = levy.TableMeasure(())
    grid = market.GridConfig(1.0, 0.01)
    bundle = market.simulate_paths(model, ou, [spec], [100.0, 50.0], grid, 6000, 37)
    surface = opp.make_surface(model, ou, [spec], 1.0)
    pay = bsde.ConstantPayoff(30000.0)
    rep = hedge.run_hedge(bundle, surface, None, pay, 10000.0,
                          hedge.HedgeConfig(use_closed_form_value=True, record_paths=8))
    herr = math.exp(-model.constant_sharpe) * 2e4**2
    assert rep.comparators["hedging_error"] == pytest.approx(herr, rel=1e-12)
    assert abs(rep.mse - herr) <= max(4 * rep.se_mse, 0.02 * herr)
    # self-financing: gains are the positions summed against both price moves
    rec = rep.recorded
    gains = np.sum(rec["position"] * np.diff(rec["discounted"], axis=1), axis=(1, 2))
    assert np.max(np.abs(rec["wealth"][:, -1] - 10000.0 - gains)) < 1e-6 * 1e4


class TestCompleteMarket:
    def test_delta_matches_closed_form(self, ou):
        model = market.ConstantBS(0.1, 0.2, rate=0.0)
        spec = levy.TableMeasure(())
        grid = market.GridConfig(1.0, 0.01)
        bundle = market.simulate_paths(model, ou, [spec], [100.0], grid, 8000, 23)
        surface = opp.make_surface(model, ou, [spec], 1.0)
        sol = bsde.solve_backward(bundle, surface, bsde.DiscountedCall(100.0))
        xi0 = hedge.pure_hedge(model, np.array([[100.0]]), np.array([[10.0]]),
                               sol.dw_loadings[:1, 0])[0, 0]
        target = bs_delta(100.0, 100.0, 0.2, 1.0)
        se = sol.se_at_zero / (100.0 * 0.2)  # loading noise mapped to the position
        assert abs(xi0 - target) <= max(3 * se, 0.05)

    def test_replication_error_small(self, ou):
        # desk-scale version of the perfect-replication limit
        model = market.ConstantBS(0.1, 0.2, rate=0.0)
        spec = levy.TableMeasure(())
        grid = market.GridConfig(1.0, 0.005)
        bundle = market.simulate_paths(model, ou, [spec], [100.0], grid, 8000, 29)
        surface = opp.make_surface(model, ou, [spec], 1.0)
        pay = bsde.DiscountedCall(100.0)
        sol = bsde.solve_backward(bundle, surface, pay)
        price = bs_call_price(100.0, 100.0, 0.0, 0.2, 1.0)
        rep = hedge.run_hedge(bundle, surface, sol, pay, price)
        assert rep.mse < 0.05 * price**2
