import math

import numpy as np
import pytest

from mvhedge import levy, market, ngou

from conftest import empty_jump_path


def assert_step_slices_contiguous(bundle):
    # per-step arrays are stored step-major behind their (n, K, ...) shapes
    for name in ("y", "s", "dw", "sharpe_int", "mpr_dw", "factor_int", "discounted"):
        arr = getattr(bundle, name)
        assert all(arr[:, k].flags.c_contiguous for k in range(arr.shape[1])), name


class TestCoefficientAlgebra:
    def test_sharpe_squared_flat(self):
        m = market.ConstantBS(2.0, 100.0, rate=0.0)
        assert market.sharpe_squared(m, np.array([[10.0]]))[0] == pytest.approx(4e-4, rel=1e-14)

    def test_sharpe_squared_bns(self):
        m = market.BNS(0.5, 0.02, rate=0.0)
        assert market.sharpe_squared(m, np.array([[10.0]]))[0] == pytest.approx(0.049, rel=1e-14)

    def test_zero_excess_drift(self):
        m = market.ConstantBS(0.03, 0.2, rate=0.03)
        assert market.sharpe_squared(m, np.array([[5.0]]))[0] == 0.0
        assert market.excess_drift(m, np.array([[5.0]]))[0, 0] == 0.0

    def test_adjustment_scalar(self):
        m = market.ConstantBS(2.0, 100.0, rate=0.0)
        a = market.adjustment(m, np.array([[100.0]]), np.array([[10.0]]))
        assert a[0, 0] == pytest.approx(2e-6, rel=1e-14)

    def test_adjustment_relation_to_sharpe(self, bns_model):
        # a' diag(D) B = squared market price of risk, any state
        y = np.array([[7.3]])
        d_prices = np.array([[123.4]])
        a = market.adjustment(bns_model, d_prices, y)
        b = market.excess_drift(bns_model, y)
        assert (a * d_prices * b).sum() == pytest.approx(
            market.sharpe_squared(bns_model, y)[0], rel=1e-12
        )

    def test_market_price_of_risk_scalar(self, bns_model):
        got = market.market_price_of_risk(bns_model, np.array([[10.0]]))[0, 0]
        assert got == pytest.approx(0.7 / math.sqrt(10.0), rel=1e-14)

    @pytest.mark.parametrize("model", [market.BNS(0.5, 0.02, rate=0.03), market.ConstantBS(0.1, 0.2, rate=0.03)],
                             ids=["bns", "constant"])
    def test_closed_forms_match_definition(self, model):
        # the models' closed forms against the generic B'(sigma sigma')^{-1} B route
        y = np.geomspace(1e-3, 1e3, 61)[:, None]
        for name in ("sharpe_squared", "market_price_of_risk"):
            got = getattr(model, name)(y)
            ref = getattr(market.CoefficientModel, name)(model, y)
            assert got.shape == ref.shape, name
            np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0, err_msg=name)

    def test_bns_rejects_nonpositive_factor(self):
        m = market.BNS(0.5, 0.02)
        for y in (0.0, -1.0):
            with pytest.raises(np.linalg.LinAlgError):
                m.sharpe_squared([[y]])
            with pytest.raises(np.linalg.LinAlgError):
                m.market_price_of_risk([[y]])

    def test_singular_covariance_reports_condition(self):
        m = market.TabulatedModel([1.0, 2.0], [0.1, 0.1], [1e-200, 1e-200])
        with pytest.raises(np.linalg.LinAlgError):
            market.sharpe_squared(m, np.array([[1.5]]))


class TestConditionReport:
    def test_flat_model_passes(self):
        rep = market.check_conditions(market.ConstantBS(2.0, 100.0), np.linspace(1, 30, 20)[:, None])
        assert rep.ok
        assert rep.max_cov_condition == pytest.approx(1.0)

    def test_bns_margins(self, bns_model):
        rep = market.check_conditions(bns_model, np.linspace(4, 30, 30)[:, None])
        assert rep.ok
        row = next(r for r in rep.rows if r.name == "inverse covariance bound")
        assert row.implied_constant == pytest.approx(1.0, rel=1e-9)

    def test_degenerate_vol_flagged(self):
        m = market.TabulatedModel([1.0, 2.0], [0.1, 0.1], [1e-300, 1e-300])
        rep = market.check_conditions(m, np.array([[1.5]]))
        assert not rep.ok


class TestSimulation:
    def test_deterministic_increment(self, ou_unit, no_jumps):
        # zero Brownian increment leaves only the drift correction term
        m = market.ConstantBS(2.0, 100.0, rate=0.0)
        grid = market.GridConfig(0.01, 0.01)
        b = market.simulate_paths(m, ou_unit, [no_jumps], [1.0], grid, 3, 1,
                                  jump_paths=[empty_jump_path(0.01)] * 3)
        expect = np.exp((2.0 - 0.5 * 100.0**2) * 0.01 + 100.0 * b.dw[:, 0, 0])
        assert b.s[:, 1, 0] == pytest.approx(expect, rel=1e-13)

    def test_lognormal_mean(self, ou_unit, no_jumps):
        m = market.ConstantBS(0.1, 0.2, rate=0.0)
        grid = market.GridConfig(1.0, 0.01)
        b = market.simulate_paths(m, ou_unit, [no_jumps], [100.0], grid, 20000, 2)
        st = b.s[:, -1, 0]
        se = st.std(ddof=1) / math.sqrt(st.size)
        assert abs(st.mean() - 100.0 * math.exp(0.1)) <= 4 * se

    def test_frozen_factor_matches_flat_model(self):
        # factor pinned at 10 by a negligible reversion speed and no jumps
        ou = ngou.OUParams([1e-12], [10.0])
        spec = [levy.TableMeasure(())]
        grid = market.GridConfig(1.0, 0.01)
        b1 = market.simulate_paths(market.BNS(0.5, 0.02), ou, spec, [100.0], grid, 100, 9)
        b2 = market.simulate_paths(market.ConstantBS(0.7, math.sqrt(10.0)), ou, spec, [100.0], grid, 100, 9)
        assert np.max(np.abs(b1.s - b2.s) / b2.s) < 1e-9

    def test_discount_identity(self, bns_model, ou_unit, cpe_spec):
        grid = market.GridConfig(1.0, 0.02)
        b = market.simulate_paths(bns_model, ou_unit, [cpe_spec], [100.0], grid, 50, 3)
        expect = np.exp(-bns_model.rate * b.times)[None, :, None] * b.s
        assert np.array_equal(b.discounted, expect)
        assert (b.s > 0).all()

    def test_bundle_balance_identity(self, bns_model, ou_unit, cpe_spec):
        grid = market.GridConfig(2.0, 0.01)
        b = market.simulate_paths(bns_model, ou_unit, [cpe_spec], [100.0], grid, 300, 4)
        lam_int = b.factor_int.sum(axis=1)[:, 0]
        l_tot = np.array([b.jumps.path(i).totals()[0] for i in range(b.n_paths)])
        resid = lam_int - (10.0 + l_tot - b.y[:, -1, 0])
        assert np.max(np.abs(resid)) <= 1e-12 * 20.0

    def test_chunking_invariance(self, bns_model, ou_unit, cpe_spec):
        grid = market.GridConfig(0.5, 0.01)
        whole = market.simulate_paths(bns_model, ou_unit, [cpe_spec], [100.0], grid, 64, 8)
        parts = list(market.iter_path_chunks(bns_model, ou_unit, [cpe_spec], [100.0], grid, 64, 8, 16))
        glued = np.concatenate([p.s for p in parts], axis=0)
        assert np.array_equal(whole.s, glued)

    def test_normals_follow_per_path_streams(self, bns_model, ou_unit, cpe_spec):
        # normals are drawn in blocks of paths; each path still reads its
        # own stream, right after its jumps
        grid = market.GridConfig(0.1, 0.01)
        n = market.DRAW_BLOCK + 3
        b = market.simulate_paths(bns_model, ou_unit, [cpe_spec], [100.0], grid, n, 8, path_offset=5)
        for i in (0, market.DRAW_BLOCK - 1, market.DRAW_BLOCK, n - 1):
            rng = levy.rng_for_path(8, 5 + i)
            levy.sample_jump_path([cpe_spec], grid.horizon, rng)
            ref = rng.standard_normal((grid.n_steps, 1)) * math.sqrt(grid.step)
            assert np.array_equal(b.dw[i], ref)

    def test_factor_path_roundtrip(self, bns_model, ou_unit, cpe_spec):
        grid = market.GridConfig(1.0, 0.05)
        b = market.simulate_paths(bns_model, ou_unit, [cpe_spec], [100.0], grid, 4, 12)
        fp = b.factor_path(2)
        # factor values at bundle grid times agree with the exact path
        idx = np.searchsorted(fp.times, b.times)
        assert fp.values[idx, 0] == pytest.approx(b.y[2, :, 0], rel=1e-12)

    def test_y_left_at_node_jump(self, bns_model, ou_unit, cpe_spec):
        jp = levy.JumpPath(np.array([0.5]), np.array([0]), np.array([2.0]), 1.0, 1)
        grid = market.GridConfig(1.0, 0.1)
        b = market.simulate_paths(bns_model, ou_unit, [cpe_spec], [100.0], grid, 2, 1,
                                  jump_paths=[jp, jp])
        k = 5  # t = 0.5 is a grid node
        assert b.y[0, k, 0] - b.y_left[0, k, 0] == pytest.approx(2.0, rel=1e-14)
        # the left limits are a copy that keeps the step-major layout
        assert not np.shares_memory(b.y_left, b.y)
        assert all(b.y_left[:, j].flags.c_contiguous for j in range(b.n_steps + 1))

    def test_dimension_mismatch_raises(self, bns_model, cpe_spec):
        ou2 = ngou.OUParams([1.0, 1.0], [10.0, 10.0])
        with pytest.raises(levy.ConfigurationError):
            market.simulate_paths(bns_model, ou2, [cpe_spec, cpe_spec], [100.0],
                                  market.GridConfig(1.0, 0.1), 4, 1)

    def test_constant_model_matches_closed_form(self, ou_unit, no_jumps):
        # flat coefficients: log S_k = log s0 + (alpha - beta^2/2) t_k + beta W_k,
        # and the accumulators are theta^2 dt and theta dW with theta = (alpha - r)/beta
        alpha, beta, rate = 0.1, 0.2, 0.03
        m = market.ConstantBS(alpha, beta, rate=rate)
        grid = market.GridConfig(1.0, 0.01)
        b = market.simulate_paths(m, ou_unit, [no_jumps], [100.0], grid, 200, 5)
        w = np.concatenate([np.zeros((200, 1)), np.cumsum(b.dw[:, :, 0], axis=1)], axis=1)
        log_s = math.log(100.0) + (alpha - 0.5 * beta**2) * b.times[None, :] + beta * w
        np.testing.assert_allclose(np.log(b.s[:, :, 0]), log_s, rtol=1e-12, atol=0)
        theta = (alpha - rate) / beta
        np.testing.assert_allclose(b.sharpe_int, np.full((200, grid.n_steps), theta**2 * grid.step),
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(b.mpr_dw, theta * b.dw[:, :, 0], rtol=1e-12, atol=0)
        assert_step_slices_contiguous(b)

    def test_bns_sharpe_integral_matches_closed_form(self, ou_unit, cpe_spec):
        # jumps on grid nodes only, so inside every step the factor decays
        # as y_k exp(-lam s) and the quadrature has an exact integral
        alpha, beta, rate = 0.5, 0.02, 0.03
        grid = market.GridConfig(1.0, 0.05)
        jp = levy.JumpPath(np.array([0.25, 0.6]), np.array([0, 0]), np.array([1.5, 3.0]), 1.0, 1)
        b = market.simulate_paths(market.BNS(alpha, beta, rate=rate), ou_unit, [cpe_spec], [100.0],
                                  grid, 3, 2, jump_paths=[jp] * 3)
        assert np.all(np.diff(b.y[:, :, 0], axis=1)[:, [4, 11]] > 1.0)
        a, lam, dt = alpha - rate, 1.0, grid.step
        y = b.y[:, :-1, 0]
        exact = (a**2 * math.expm1(lam * dt) / (lam * y) + 2 * a * beta * dt
                 - beta**2 * y * math.expm1(-lam * dt) / lam)
        np.testing.assert_allclose(b.sharpe_int, exact, rtol=1e-12, atol=0)
        assert_step_slices_contiguous(b)

    def test_engine_propagates_singular_covariance(self, ou_unit, no_jumps):
        m = market.TabulatedModel([1.0, 2.0], [0.1, 0.1], [1e-200, 1e-200])
        with pytest.raises(np.linalg.LinAlgError):
            market.simulate_paths(m, ou_unit, [no_jumps], [100.0], market.GridConfig(0.1, 0.01), 4, 1)

    def test_two_factor_general_engine(self, cpe_spec):
        ou2 = ngou.OUParams([1.0, 0.5], [10.0, 6.0])

        class TwoFactor(market.CoefficientModel):
            d, h, rate = 1, 2, 0.0

            def drift(self, y):
                y = np.asarray(y)
                return (0.1 + 0.01 * y.sum(-1))[..., None]

            def vol(self, y):
                y = np.asarray(y)
                return np.sqrt(y.sum(-1))[..., None, None]

        grid = market.GridConfig(0.5, 0.01)
        b = market.simulate_paths(TwoFactor(), ou2, [cpe_spec, levy.TableMeasure(((1.0, 1.0),))],
                                  [50.0], grid, 40, 6)
        assert b.y.shape == (40, 51, 2)
        assert (b.s > 0).all()
        assert_step_slices_contiguous(b)
        lam_int = b.factor_int.sum(axis=1)
        l_tot = np.array([b.jumps.path(i).totals() for i in range(b.n_paths)])
        resid = lam_int - (np.array([10.0, 6.0]) + l_tot - b.y[:, -1])
        assert np.max(np.abs(resid)) < 1e-11


def test_dump_paths_csv(tmp_path, bns_model, ou_unit, cpe_spec):
    grid = market.GridConfig(0.2, 0.1)
    b = market.simulate_paths(bns_model, ou_unit, [cpe_spec], [100.0], grid, 3, 1)
    out = tmp_path / "paths.csv"
    market.dump_paths_csv(b, out, max_paths=2)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "path,t,Y_1,S_1,D_1"
    assert len(lines) == 1 + 2 * (b.n_steps + 1)
