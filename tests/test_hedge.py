import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mvhedge import _kernels as kernels
from mvhedge import bsde, hedge, levy, market, ngou, opportunity as opp, validate

from conftest import TwoAssetConstant, discounted, left_limits, no_whole_paths


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


def hand_sweep(prices, steps, v):
    """``hedge_sweep`` on one path of one asset with undiscounted
    ``prices`` at nodes 0..K and, per step, a (value, pure hedge,
    adjustment) triple; every path is recorded."""
    nodes = ((None, None, np.array([[p]])) for p in prices)

    def strategy(k, d_k, y, y_left):
        value, xi, adj = steps[k]
        return np.array([value]), np.array([[xi]]), np.array([[adj]])

    return kernels.hedge_sweep(nodes, np.ones(len(prices)), strategy, v, 1)


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
        # gap 1e4 - 3e4 = -2e4, so the position is 1 + 2e4 * 2e-6 = 1.04
        gains, rec = hand_sweep([100.0, 101.0], [(3e4, 1.0, 2e-6)], 1e4)
        assert gains[0] == pytest.approx(1.04, rel=1e-12)
        assert rec["position"][0, 0, 0] == pytest.approx(1.04, rel=1e-12)

    def test_gains_step_zero_increment(self):
        # step 0 gains 0.7 with no adjustment; step 1's price stands still
        gains, _ = hand_sweep([100.0, 101.0, 101.0], [(3e4, 0.7, 0.0), (3e4, 1.0, 2e-6)], 1e4)
        assert gains[0] == 0.7

    def test_gains_step_no_feedback(self):
        # without adjustment the positions are the pure hedges, 0.5 then 2
        gains, rec = hand_sweep([100.0, 101.0, 104.0], [(3e4, 0.5, 0.0), (3e4, 2.0, 0.0)], 1e4)
        assert gains[0] == pytest.approx(0.5 + 6.0, rel=1e-14)
        assert rec["position"][0, :, 0].tolist() == [0.5, 2.0]

    def test_position_hand_value(self):
        phi = kernels.strategy_position(np.array([[0.5]]), np.array([[2e-6]]), 1e4,
                                      np.array([0.0]), np.array([3e4]))
        assert phi[0, 0] == pytest.approx(0.54, rel=1e-12)

    def test_position_zero_gap(self):
        phi = kernels.strategy_position(np.array([[0.5]]), np.array([[2e-6]]), 1e4,
                                      np.array([0.0]), np.array([1e4]))
        assert phi[0, 0] == 0.5

    def test_position_zero_adjustment(self):
        phi = kernels.strategy_position(np.array([[0.5]]), np.array([[0.0]]), 1e4,
                                      np.array([123.0]), np.array([3e4]))
        assert phi[0, 0] == 0.5


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
        assert rep.closed_form_agreement()[0]

    def test_closed_form_value_route_matches(self, bns_world):
        _, _, _, bundle, surface = bns_world
        pay = bsde.ConstantPayoff(30000.0)
        rep = hedge.run_hedge(bundle, surface, None, pay, 10000.0)
        assert rep.closed_form_agreement()[0]

    def test_solved_table_hedges_as_the_payoff(self, bns_world):
        # the solve of a constant claim returns the claim's own value and
        # zero loadings, so the two value sources hedge bit for bit alike
        _, _, _, bundle, surface = bns_world
        pay = bsde.ConstantPayoff(30000.0)
        sol = bsde.solve_backward(bundle, surface, pay)
        via_table = hedge.run_hedge(bundle, surface, sol, pay, 10000.0)
        via_payoff = hedge.run_hedge(bundle, surface, None, pay, 10000.0)
        for name in ("mse", "se_mse", "mean_shortfall"):
            assert getattr(via_table, name) == getattr(via_payoff, name), name

    def test_payoff_equal_endowment_is_free(self, bns_world):
        _, _, _, bundle, surface = bns_world
        check = validate.zero_gap_flat_position(bundle, surface, 10000.0, 4)
        assert check.ok, check.detail

    def test_self_financing_bookkeeping(self, bns_world):
        _, _, _, bundle, surface = bns_world
        rep = hedge.run_hedge(bundle, surface, None, bsde.ConstantPayoff(30000.0), 10000.0,
                              record_paths=8)
        check = validate.self_financing(rep, 10000.0)
        assert check.ok, check.detail

    def test_recorded_wealth_matches_sweep(self, bns_world, ou, monkeypatch):
        model, cpe, grid, _, surface = bns_world
        bundle = market.simulate_paths(model, ou, [cpe], [100.0], grid, 300, 31)
        pay = bsde.DiscountedCall(100.0)
        sol = bsde.solve_backward(bundle, surface, pay)
        swept = []
        sweep = kernels.hedge_sweep
        monkeypatch.setattr(kernels, "hedge_sweep", lambda *args: swept.append(sweep(*args)) or swept[-1])
        rep = hedge.run_hedge(bundle, surface, sol, pay, 8.0, record_paths=8)
        gains, _ = swept[0]
        assert np.array_equal(rep.recorded["wealth"][:, -1], 8.0 + gains[:8])

    def test_gains_are_positions_against_price_moves(self, bns_world, ou):
        # with every path recorded, the terminal gains are the recorded
        # positions summed against the discounted price moves in step
        # order, bit for bit: the sweep advances the gains by the very
        # positions it records
        model, cpe, grid, _, surface = bns_world
        bundle = market.simulate_paths(model, ou, [cpe], [100.0], grid, 300, 31)
        pay = bsde.DiscountedCall(100.0)
        sol = bsde.solve_backward(bundle, surface, pay)
        rec = hedge.run_hedge(bundle, surface, sol, pay, 8.0, record_paths=bundle.n_paths).recorded
        disc, position = rec["discounted"], rec["position"]
        gains = np.zeros(bundle.n_paths)
        for k in range(bundle.n_steps):
            gains = gains + np.sum(position[:, k] * (disc[:, k + 1] - disc[:, k]), axis=-1)
        assert np.array_equal(rec["gains"][:, -1], gains)

    def test_step_slices_contiguous(self, bns_world, ou, monkeypatch):
        # the sweep reads the bundle's forward walk: at every node the
        # factor, its left limit and the prices as contiguous (n, ...)
        # arrays, and no whole-path array is derived
        model, cpe, grid, _, surface = bns_world
        bundle = market.simulate_paths(model, ou, [cpe], [100.0], grid, 300, 31)
        pay = bsde.DiscountedCall(100.0)
        sol = bsde.solve_backward(bundle, surface, pay)
        seen = []
        sweep = kernels.hedge_sweep

        def watched(nodes, *args):
            def each():
                for node in nodes:
                    seen.append([(a.shape[0], a.flags.c_contiguous) for a in node])
                    yield node
            return sweep(each(), *args)

        monkeypatch.setattr(kernels, "hedge_sweep", watched)
        hedge.run_hedge(bundle, surface, sol, pay, 8.0)
        assert seen == [[(bundle.n_paths, True)] * 3] * (bundle.n_steps + 1)
        assert bundle._whole is None

    @pytest.mark.parametrize("case", ["fitted_call", "constant_no_solution", "two_chunks"])
    def test_one_pass_matches_separate_passes(self, case, bns_world, ou):
        # the one-pass sweep against the hedge built as separate per-step
        # arrays, a gains loop and a recording loop: bit for bit
        model, cpe, grid, _, surface = bns_world
        if case == "constant_no_solution":
            pay, sol, endowment = bsde.ConstantPayoff(30000.0), None, 10000.0
        else:
            pay, endowment = bsde.DiscountedCall(100.0), 8.0
            sol = bsde.solve_backward(market.simulate_paths(model, ou, [cpe], [100.0], grid, 300, 31),
                                      surface, pay)
        chunk = 100 if case == "two_chunks" else 200

        def chunks():
            return market.iter_path_chunks(model, ou, [cpe], [100.0], grid, 200, 32, chunk)

        rep = hedge.run_hedge(chunks(), surface, sol, pay, endowment, record_paths=5)
        shortfalls, recorded = separate_pass_hedge(chunks(), sol, pay, endowment, 5)
        total = sum(float(sf.sum()) for sf in shortfalls)
        sq_sum = sum(float((sf**2).sum()) for sf in shortfalls)
        assert rep.mean_shortfall == total / 200 and rep.mse == sq_sum / 200
        assert rep.recorded.keys() == recorded.keys()
        for name, arr in recorded.items():
            assert np.array_equal(rep.recorded[name], arr), name

    def test_payoff_without_value_needs_a_solution(self, bns_world):
        _, _, _, _, surface = bns_world
        untouched = (pytest.fail("simulated a chunk") for _ in range(1))
        with pytest.raises(levy.ConfigurationError, match="own value"):
            hedge.run_hedge(untouched, surface, None, bsde.DiscountedCall(100.0), 10000.0)

    def test_chunked_stream(self, bns_world, ou):
        model, cpe, grid, _, surface = bns_world
        pay = bsde.ConstantPayoff(30000.0)
        whole = market.simulate_paths(model, ou, [cpe], [100.0], grid, 400, 77)
        rep1 = hedge.run_hedge(whole, surface, None, pay, 10000.0)
        chunks = market.iter_path_chunks(model, ou, [cpe], [100.0], grid, 400, 77, 100)
        rep2 = hedge.run_hedge(chunks, surface, None, pay, 10000.0)
        assert rep1.mse == pytest.approx(rep2.mse, rel=1e-12)
        assert rep2.n_paths == 400

    def test_discounted_never_built(self, bns_world, ou):
        # the sweep discounts one step at a time and derives no whole
        # price array; only the recorded paths get a discounted copy
        model, cpe, grid, _, surface = bns_world
        pay = bsde.DiscountedCall(100.0)
        sol = bsde.solve_backward(market.simulate_paths(model, ou, [cpe], [100.0], grid, 300, 31),
                                  surface, pay)
        chunks = market.iter_path_chunks(model, ou, [cpe], [100.0], grid, 300, 77, 100)
        with no_whole_paths():
            rep = hedge.run_hedge(chunks, surface, sol, pay, 8.0, record_paths=4)
        assert rep.recorded["discounted"].shape == (4, grid.n_steps + 1, 1)

    def test_report_exports(self, tmp_path, bns_world):
        _, _, _, bundle, surface = bns_world
        pay = bsde.ConstantPayoff(30000.0)
        rep = hedge.run_hedge(bundle, surface, None, pay, 10000.0)
        rep.export_csv(tmp_path / "rep.csv")
        text = rep.summary()
        assert "mean squared error" in text
        assert (tmp_path / "rep.csv").read_text().startswith("quantity,value")


def separate_pass_hedge(chunks, solution, payoff, v, n_record):
    """Per-chunk shortfalls and the leading chunk's recorded paths, built
    as separate passes: per-step value, loading, adjustment and pure-hedge
    arrays, a gains loop over them, then a recording loop."""
    shortfalls, recorded = [], {}
    for bundle in chunks:
        n, nk, d = bundle.n_paths, bundle.n_steps, bundle.model.d
        disc, y_left = discounted(bundle), left_limits(bundle)
        value, vbar = np.empty((n, nk)), np.empty((n, nk, d))
        for k in range(nk):
            if solution is None:
                value[:, k], vbar[:, k] = payoff.p, 0.0
            elif k == 0:
                value[:, k], vbar[:, k] = solution.value_at_zero, solution.table.loadings_at_zero
            else:
                value[:, k], vbar[:, k] = solution.table.value_and_loadings(k, disc[:, k], bundle.y[:, k])
        adj = np.stack([market.adjustment(bundle.model, disc[:, k], y_left[:, k]) for k in range(nk)], 1)
        xi = np.stack([hedge.pure_hedge(bundle.model, disc[:, k], y_left[:, k], vbar[:, k])
                       for k in range(nk)], 1)
        gains = np.zeros(n)
        for k in range(nk):
            phi = kernels.strategy_position(xi[:, k], adj[:, k], v, gains, value[:, k])
            gains = gains + np.sum(phi * (disc[:, k + 1] - disc[:, k]), axis=-1)
        shortfalls.append(v + gains - payoff(bundle))
        if not recorded:
            m = min(n_record, n)
            rec_gains = np.zeros((m, nk + 1))
            position = np.zeros((m, nk, d))
            for k in range(nk):
                position[:, k] = kernels.strategy_position(xi[:m, k], adj[:m, k], v, rec_gains[:, k],
                                                         value[:m, k])
                rec_gains[:, k + 1] = rec_gains[:, k] + np.sum(position[:, k] * (disc[:m, k + 1] - disc[:m, k]),
                                                               axis=-1)
            recorded = {"gains": rec_gains, "position": position, "wealth": v + rec_gains,
                        "discounted": disc[:m]}
    return shortfalls, recorded


def test_price_loop_runs_only_for_price_readers(bns_world, ou, monkeypatch):
    # the density and a constant claim's oracle never run the price step;
    # the solver replays each step's prices twice (the pass that saves the
    # checkpoints, then the segments from them), the hedge once per chunk,
    # and nothing derives a whole price array
    model, cpe, grid, _, surface = bns_world
    calls = []
    step = kernels.log_price_step
    monkeypatch.setattr(kernels, "log_price_step", lambda *args: calls.append(1) or step(*args))
    with no_whole_paths():
        pay = bsde.ConstantPayoff(30000.0)
        bundle = market.simulate_paths(model, ou, [cpe], [100.0], grid, 300, 31)
        opp.density_terminal(surface, bundle)
        bsde.mc_value_at_zero(surface, market.iter_path_chunks(model, ou, [cpe], [100.0], grid, 600, 5, 300),
                              pay)
        assert not calls
        nk, segments = grid.n_steps, math.ceil(grid.n_steps / bundle._every)
        sol = bsde.solve_backward(bundle, surface, bsde.DiscountedCall(100.0))
        assert len(calls) == 2 * nk - segments
        hedge.run_hedge(bundle, surface, sol, bsde.DiscountedCall(100.0), 8.0)
        assert len(calls) == 3 * nk - segments
        hedge.run_hedge(market.iter_path_chunks(model, ou, [cpe], [100.0], grid, 600, 5, 300),
                        surface, None, pay, 10000.0)
        assert len(calls) == 5 * nk - segments


@pytest.mark.parametrize("stage, bound", [("oracle", 3.2), ("hedge", 3.2)])
def test_stream_releases_each_chunk(stage, bound, bns_world, ou):
    # the previous chunk is released before the generator simulates the
    # next one, and the hedge keeps no per-step arrays; holding either
    # adds about one chunk (1.47 of the (n, K) float arrays the bound
    # counts), whole prices one array.  Measured: oracle 2.86, hedge 2.88
    model, cpe, grid, _, surface = bns_world
    pay = bsde.ConstantPayoff(30000.0)
    run = {
        "oracle": lambda chunks: bsde.mc_value_at_zero(surface, chunks, pay),
        "hedge": lambda chunks: hedge.run_hedge(chunks, surface, None, pay, 10000.0),
    }[stage]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run(market.iter_path_chunks(model, ou, [cpe], [100.0], grid, 6000, 5, 2000))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < bound * 2000 * grid.n_steps * 8


def path_major(bundle):
    """The same bundle with its stored per-step array, the increments,
    copied path by path.

    Its walks and its derived factor and prices read the path-major
    increments.
    """
    arrays = [np.ascontiguousarray(a) for a in (bundle.dw, bundle.y_end, bundle.sharpe_int,
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
    assert other.dw[0].flags.c_contiguous and not other.dw[:, 1].flags.c_contiguous
    for name in ("y", "s", "dw", "y_end", "terminal_prices", "sharpe_int", "mpr_dw", "factor_int"):
        assert np.array_equal(getattr(bundle, name), getattr(other, name)), name
    for node, other_node in zip(bundle.walk(), other.walk()):
        assert all(np.array_equal(a, b) for a, b in zip(node, other_node))
    assert np.array_equal(opp.density_terminal(surface, bundle), opp.density_terminal(surface, other))
    sols = [bsde.solve_backward(b, surface, pay) for b in (bundle, other)]
    # the tables at the fit states, with the time-zero constants at k = 0
    disc = discounted(bundle)
    tables = [[sol.table.value_and_loadings(k, disc[:, k], bundle.y[:, k]) for k in range(bundle.n_steps)]
              for sol in sols]
    for i, name in enumerate(("value", "loadings")):
        a, b = (np.stack([pair[i] for pair in table]) for table in tables)
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(a)), name
    for name in ("mean_value", "mean_loading"):
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
                          record_paths=8)
    herr = math.exp(-model.constant_sharpe) * 2e4**2
    assert rep.comparators["hedging_error"] == pytest.approx(herr, rel=1e-12)
    assert rep.closed_form_agreement()[0]
    # self-financing: gains are the positions summed against both price moves
    check = validate.self_financing(rep, 10000.0)
    assert check.ok, check.detail


class TestCompleteMarket:
    def test_delta_matches_closed_form(self, ou):
        model = market.ConstantBS(0.1, 0.2, rate=0.0)
        spec = levy.TableMeasure(())
        grid = market.GridConfig(1.0, 0.01)
        bundle = market.simulate_paths(model, ou, [spec], [100.0], grid, 8000, 23)
        surface = opp.make_surface(model, ou, [spec], 1.0)
        sol = bsde.solve_backward(bundle, surface, bsde.DiscountedCall(100.0))
        xi0 = hedge.pure_hedge(model, np.array([[100.0]]), np.array([[10.0]]),
                               sol.table.loadings_at_zero[None, :])[0, 0]
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
        price = bsde.black_scholes_call(100.0, 100.0, 0.0, 0.2, 1.0)
        rep = hedge.run_hedge(bundle, surface, sol, pay, price)
        assert rep.mse < 0.05 * price**2
