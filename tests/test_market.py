import math
import tracemalloc

import numpy as np
import pytest

from mvhedge import _kernels as kernels
from mvhedge import levy, market, ngou, opportunity, validate

from conftest import TwoAssetConstant, empty_jump_path, event_path, walk_density


class TwoFactor(market.CoefficientModel):
    d, h, rate = 1, 2, 0.0

    def drift(self, y):
        y = np.asarray(y)
        return (0.1 + 0.01 * y.sum(-1))[..., None]

    def vol(self, y):
        y = np.asarray(y)
        return np.sqrt(y.sum(-1))[..., None, None]


def step_terms(bundle):
    """Per-step terms (n, K) of ``sharpe_int`` and ``mpr_dw``, from a density
    walk (the surface does not enter them)."""
    return walk_density(opportunity.ConstantSharpeSurface(0.0, bundle.times[-1]), bundle)[2:]


def assert_step_slices_contiguous(bundle):
    # per-step arrays are stored step-major behind their (n, K, ...) shapes;
    # the quadratures and the factor integral are stored as one total per path
    for name in ("y", "s", "dw"):
        arr = getattr(bundle, name)
        assert all(arr[:, k].flags.c_contiguous for k in range(arr.shape[1])), name
    assert bundle.sharpe_int.shape == bundle.mpr_dw.shape == (bundle.n_paths,)
    assert bundle.factor_int.shape == (bundle.n_paths, bundle.ou.dim)


class TestCoefficientAlgebra:
    def test_sharpe_squared_flat(self):
        m = market.ConstantBS(2.0, 100.0, rate=0.0)
        assert m.sharpe_squared(np.array([[10.0]]))[0] == pytest.approx(4e-4, rel=1e-14)

    def test_sharpe_squared_bns(self):
        m = market.BNS(0.5, 0.02, rate=0.0)
        assert m.sharpe_squared(np.array([[10.0]]))[0] == pytest.approx(0.049, rel=1e-14)

    def test_zero_excess_drift(self):
        m = market.ConstantBS(0.03, 0.2, rate=0.03)
        assert m.sharpe_squared(np.array([[5.0]]))[0] == 0.0
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
            bns_model.sharpe_squared(y)[0], rel=1e-12
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
            m.sharpe_squared(np.array([[1.5]]))


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
        check = validate.price_moment_lognormal(b)
        assert check.ok, check.detail

    def test_frozen_factor_matches_flat_model(self):
        check = validate.frozen_factor_equivalence(market.GridConfig(1.0, 0.01), 100, 9)
        assert check.ok, check.detail

    def test_discount_identity(self, bns_model, ou_unit, cpe_spec):
        grid = market.GridConfig(1.0, 0.02)
        b = market.simulate_paths(bns_model, ou_unit, [cpe_spec], [100.0], grid, 50, 3)
        check = validate.discount_identity(b)
        assert check.ok, check.detail
        assert (b.s > 0).all()

    def test_bundle_balance_identity(self, bns_model, ou_unit, cpe_spec):
        grid = market.GridConfig(2.0, 0.01)
        b = market.simulate_paths(bns_model, ou_unit, [cpe_spec], [100.0], grid, 300, 4)
        check = validate.factor_balance(b)
        assert check.ok, check.detail

    def test_chunking_invariance(self, bns_model, ou_unit, cpe_spec):
        # chunks that start and end inside blocks, whole blocks, and one
        # chunk for all paths give the same bundle, bit for bit; and so
        # does a bundle that starts inside a block
        grid = market.GridConfig(0.05, 0.01)
        args = (bns_model, ou_unit, [cpe_spec], [100.0], grid)
        whole = [market.simulate_paths(*args, 10_000, 8)]
        for chunk_size in (256, 300, 1000, 10_000):
            assert_same_bundle(list(market.iter_path_chunks(*args, 10_000, 8, chunk_size)), whole)
        inside = market.simulate_paths(*args, 700, 8, path_offset=300)
        assert_same_bundle([inside], list(market.iter_path_chunks(*args, 700, 8, 100, path_offset=300)))
        assert np.array_equal(inside.dw, whole[0].dw[300:1000])
        assert np.array_equal(inside.terminal_prices, whole[0].terminal_prices[300:1000])

    @pytest.mark.parametrize("case", ["flat", "bns"])
    def test_bundle_holds_no_prices_until_read(self, case, ou_unit, no_jumps, cpe_spec):
        # a bundle keeps only the increments step by step (1 per-step
        # array), and the terminal factor, the two density quadratures and
        # the factor integral per path; the factor, prices, the per-step
        # quadratures and the per-step factor integral would add one array
        # each.  The jump record scales with the events, not the steps,
        # and is not counted
        model, spec = {"flat": (market.ConstantBS(0.1, 0.2), no_jumps),
                       "bns": (market.BNS(0.5, 0.02), cpe_spec)}[case]
        grid = market.GridConfig(1.0, 0.01)
        market.simulate_paths(model, ou_unit, [spec], [100.0], grid, 10, 3)  # one-time caches
        tracemalloc.start()
        try:
            b = market.simulate_paths(model, ou_unit, [spec], [100.0], grid, 2000, 3)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        j = b.jumps
        events = sum(a.nbytes for a in (j.times, j.components, j.sizes, j.paths, j.bounds, j.grid_times))
        assert (held - events) / (b.n_paths * b.n_steps * 8) <= 1.1

    def test_prices_are_derived_once(self, bns_model, ou_unit, cpe_spec):
        b = market.simulate_paths(bns_model, ou_unit, [cpe_spec], [100.0], market.GridConfig(0.5, 0.01),
                                  20, 3)
        assert b.s is b.s and b.y is b.y and b.terminal_prices is b.terminal_prices

    def test_whole_paths_come_from_one_engine_run(self, bns_model, ou_unit, cpe_spec, monkeypatch):
        # the benchmark's tracer times the engine, so every price step of
        # the whole paths runs inside the one engine run that derives them
        b = market.simulate_paths(bns_model, ou_unit, [cpe_spec], [100.0], market.GridConfig(0.5, 0.01),
                                  20, 3)
        runs, inside = [], []
        run, step = kernels.simulate_d1h1, kernels.log_price_step

        def counted_run(*args, **kwargs):
            runs.append("open")
            result = run(*args, **kwargs)
            runs[-1] = "closed"
            return result

        monkeypatch.setattr(kernels, "simulate_d1h1", counted_run)
        monkeypatch.setattr(kernels, "log_price_step",
                            lambda *a: inside.append(runs[-1:] == ["open"]) or step(*a))
        b.s, b.y
        assert runs == ["closed"]
        assert len(inside) == b.n_steps and all(inside)

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
        nodes = list(b.walk())
        y, y_left, _ = nodes[k]
        assert y[0, 0] - y_left[0, 0] == pytest.approx(2.0, rel=1e-14)
        # the left limit is a copy there, and the factor itself at every other node
        assert not np.shares_memory(y_left, y)
        assert all(left is y_j for j, (y_j, left, _) in enumerate(nodes) if j != k)

    def test_dimension_mismatch_raises(self, bns_model, cpe_spec):
        ou2 = ngou.OUParams([1.0, 1.0], [10.0, 10.0])
        with pytest.raises(levy.ConfigurationError):
            market.simulate_paths(bns_model, ou2, [cpe_spec, cpe_spec], [100.0],
                                  market.GridConfig(1.0, 0.1), 4, 1)

    def test_constant_model_matches_closed_form(self, ou_unit, no_jumps):
        # flat coefficients: log S_k = log s0 + (alpha - beta^2/2) t_k + beta W_k,
        # and the quadratures' per-step terms are theta^2 dt and theta dW with
        # theta = (alpha - r)/beta
        alpha, beta, rate = 0.1, 0.2, 0.03
        m = market.ConstantBS(alpha, beta, rate=rate)
        grid = market.GridConfig(1.0, 0.01)
        b = market.simulate_paths(m, ou_unit, [no_jumps], [100.0], grid, 200, 5)
        w = np.concatenate([np.zeros((200, 1)), np.cumsum(b.dw[:, :, 0], axis=1)], axis=1)
        log_s = math.log(100.0) + (alpha - 0.5 * beta**2) * b.times[None, :] + beta * w
        np.testing.assert_allclose(np.log(b.s[:, :, 0]), log_s, rtol=1e-12, atol=0)
        theta = (alpha - rate) / beta
        sharpe_steps, mpr_steps = step_terms(b)
        np.testing.assert_allclose(sharpe_steps, np.full((200, grid.n_steps), theta**2 * grid.step),
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(mpr_steps, theta * b.dw[:, :, 0], rtol=1e-12, atol=0)
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
        np.testing.assert_allclose(step_terms(b)[0], exact, rtol=1e-12, atol=0)
        assert_step_slices_contiguous(b)

    def test_engine_propagates_singular_covariance(self, ou_unit, no_jumps):
        m = market.TabulatedModel([1.0, 2.0], [0.1, 0.1], [1e-200, 1e-200])
        with pytest.raises(np.linalg.LinAlgError):
            market.simulate_paths(m, ou_unit, [no_jumps], [100.0], market.GridConfig(0.1, 0.01), 4, 1)

    def test_two_factor_general_engine(self, cpe_spec):
        ou2 = ngou.OUParams([1.0, 0.5], [10.0, 6.0])
        grid = market.GridConfig(0.5, 0.01)
        b = market.simulate_paths(TwoFactor(), ou2, [cpe_spec, levy.TableMeasure(((1.0, 1.0),))],
                                  [50.0], grid, 40, 6)
        assert b.y.shape == (40, 51, 2)
        assert (b.s > 0).all()
        assert_step_slices_contiguous(b)
        check = validate.factor_balance(b)
        assert check.ok, check.detail


def quadrature_world(case):
    """(model, OU parameters, specs) of each engine route the quadrature tests cover."""
    ou = ngou.OUParams([1.0], [10.0])
    cpe = levy.CompoundPoissonExp(10.0, 8.0, 1.0)
    return {
        "bns": (market.BNS(0.5, 0.02, rate=0.03), ou, [cpe]),
        "constant": (market.ConstantBS(0.1, 0.2, rate=0.03), ou, [levy.TableMeasure(())]),
        "two_factor": (TwoFactor(), ngou.OUParams([1.0, 0.5], [10.0, 6.0]),
                       [cpe, levy.TableMeasure(((1.0, 1.0),))]),
        "tabulated": (market.TabulatedModel([2.0, 10.0, 30.0], [0.05, 0.1, 0.2], [0.15, 0.25, 0.4],
                                            rate=0.03), ou, [cpe]),
    }[case]


@pytest.mark.parametrize("seed", [71, 5])
@pytest.mark.parametrize("case", ["bns", "constant", "two_factor", "tabulated"])
class TestStepQuadratures:
    # the bundle stores the density's quadratures as path totals; the
    # density walk re-runs the engine's step function for the per-step terms
    grid = market.GridConfig(0.5, 0.01)

    def test_totals_are_in_order_sums_of_the_rerun(self, case, seed):
        model, ou, specs = quadrature_world(case)
        b = market.simulate_paths(model, ou, specs, [100.0], self.grid, 2000, seed)
        sharpe_steps, mpr_steps = step_terms(b)
        assert sharpe_steps.shape == mpr_steps.shape == (b.n_paths, b.n_steps)
        qv, m = np.zeros(b.n_paths), np.zeros(b.n_paths)
        for k in range(b.n_steps):
            qv += sharpe_steps[:, k]
            m += mpr_steps[:, k]
        assert np.array_equal(b.sharpe_int, qv) and np.array_equal(b.mpr_dw, m)
        # the engine's recording run ends where the simulation did
        assert np.array_equal(b.y[:, -1], b.y_end)
        if case != "constant":
            assert b.jumps.times.size > 0

    def test_totals_do_not_depend_on_chunking(self, case, seed):
        model, ou, specs = quadrature_world(case)
        whole = market.simulate_paths(model, ou, specs, [100.0], self.grid, 2000, seed)
        parts = list(market.iter_path_chunks(model, ou, specs, [100.0], self.grid, 2000, seed, 1000))
        assert len(parts) == 2
        for name in ("sharpe_int", "mpr_dw", "factor_int"):
            glued = np.concatenate([getattr(p, name) for p in parts])
            assert np.array_equal(getattr(whole, name), glued), name


def bundle_events(bundles):
    """(path index, time, component, size) of every event of consecutive
    chunks, in step order and, within a step, in path order."""
    fields = [np.concatenate(a) for a in zip(*(
        (b.jumps.paths + b.path_offset, b.jumps.times, b.jumps.components, b.jumps.sizes,
         np.repeat(np.arange(b.n_steps), np.diff(b.jumps.bounds))) for b in bundles))]
    order = np.argsort(fields.pop(), kind="stable")
    return [a[order] for a in fields]


def assert_same_bundle(parts, whole):
    """Consecutive chunks ``parts`` hold, bit for bit, the paths of the chunks ``whole``."""
    for name in ("dw", "y_end", "sharpe_int", "mpr_dw", "factor_int", "terminal_prices"):
        glued = [np.concatenate([getattr(b, name) for b in bundles]) for bundles in (parts, whole)]
        assert np.array_equal(*glued), name
    for a, b in zip(bundle_events(parts), bundle_events(whole)):
        assert np.array_equal(a, b)


def walk_bundle(case):
    """A fresh 50-step bundle of each case the walks cover."""
    ou = ngou.OUParams([1.0], [10.0])
    grid = market.GridConfig(1.0, 0.02)
    if case == "bns_node_jump":
        # sampled jumps, and on path 0 one more event exactly on node 25
        cpe = levy.CompoundPoissonExp(10.0, 8.0, 1.0)
        events = levy.sample_jump_path([cpe], grid.horizon, 40, 3)
        paths = [event_path(events, i) for i in range(40)]
        p = paths[0]
        at = np.searchsorted(p.times, grid.times[25])
        paths[0] = levy.JumpPath(np.insert(p.times, at, grid.times[25]), np.insert(p.components, at, 0),
                                 np.insert(p.sizes, at, 2.0), grid.horizon, 1)
        return market.simulate_paths(market.BNS(0.5, 0.02, rate=0.03), ou, [cpe], [100.0], grid, 40, 7,
                                     jump_paths=paths)
    if case == "constant":
        return market.simulate_paths(market.ConstantBS(0.1, 0.2, rate=0.03), ou, [levy.TableMeasure(())],
                                     [100.0], grid, 40, 7)
    model = TwoAssetConstant([0.1, 0.05], [[0.3, 0.0], [0.25, 0.12]])
    return market.simulate_paths(model, ou, [levy.TableMeasure(())], [100.0, 50.0], grid, 40, 7)


@pytest.mark.parametrize("every", [1, 7, 8, 50])  # 8 = ceil(sqrt(50)), the default
@pytest.mark.parametrize("case", ["bns_node_jump", "constant", "two_asset"])
def test_walks_replay_the_engine_bitwise(case, every):
    # both walks give, node by node, whatever the checkpoint spacing: the
    # engine's recorded factor and the prices of a log_price_step loop
    # run here on it, bit for bit; and on a few paths, the node-jump path
    # among them, the factor and its left limits of the exact path
    # (ngou.evolve) to 1e-12
    b = walk_bundle(case)
    assert b._every == 8
    b._every = every
    backward = list(b.walk_backward())[::-1]
    forward = list(b.walk())
    ref = walk_bundle(case)
    ls = kernels.log_price_start(ref.s0, ref.n_paths)
    prices = [np.exp(ls)]
    for k in range(ref.n_steps):
        ls = kernels.log_price_step(ref.model, ls, ref.y[:, k], ref.dw[:, k], ref.grid.step)
        prices.append(np.exp(ls))
    prices = np.stack(prices, axis=1)
    assert np.array_equal(ref.y[:, -1], b.y_end)
    assert np.array_equal(prices[:, -1], b.terminal_prices)
    for nodes in (forward, backward):
        assert len(nodes) == b.n_steps + 1
        y, y_left, s = (np.stack(a, axis=1) for a in zip(*nodes))
        assert np.array_equal(y, ref.y) and np.array_equal(s, prices)
        for i in (0, 1, b.n_paths - 1):
            fp = b.factor_path(i)
            at = np.searchsorted(fp.times, b.times)
            np.testing.assert_allclose(y[i], fp.values[at], rtol=1e-12, atol=0)
            np.testing.assert_allclose(y_left[i], fp.left_values[at], rtol=1e-12, atol=0)
        if case == "bns_node_jump":
            assert y[0, 25, 0] - y_left[0, 25, 0] == pytest.approx(2.0, rel=1e-14)
            assert np.array_equal(np.flatnonzero(np.any(y != y_left, axis=(0, 2))), [25])


def test_dump_paths_csv(tmp_path, bns_model, ou_unit, cpe_spec):
    grid = market.GridConfig(0.2, 0.1)
    b = market.simulate_paths(bns_model, ou_unit, [cpe_spec], [100.0], grid, 3, 1)
    out = tmp_path / "paths.csv"
    market.dump_paths_csv(b, out, max_paths=2)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "path,t,Y_1,S_1,D_1"
    assert len(lines) == 1 + 2 * (b.n_steps + 1)
    # path 1 at node 2, against the whole paths (the rate is zero: D = S)
    row = [float(v) for v in lines[1 + (b.n_steps + 1) + 2].split(",")]
    assert row[:2] == [1.0, pytest.approx(b.times[2], rel=1e-11)]
    assert row[2:] == pytest.approx([b.y[1, 2, 0], b.s[1, 2, 0], b.s[1, 2, 0]], rel=1e-11)


def unchecked_events(paths, h, horizon=1.0):
    """The JumpEvents of ``paths``, (times, components, sizes) each, built
    without validation, as the sampler returns them."""
    offsets = np.concatenate(([0], np.cumsum([len(t) for t, _, _ in paths])))
    return levy.JumpEvents(offsets, *(np.concatenate([np.array(p[f], dtype=dtype) for p in paths])
                                      for f, dtype in enumerate((float, np.int64, float))), horizon, h)


# A valid two-component path: equal times across components are allowed.
GOOD = ([0.2, 0.5, 0.5, 0.9], [0, 1, 0, 1], [1.0, 2.0, 0.5, 1.5])
# Each breaks GOOD in its second component only.
BROKEN = [
    ("event times must lie in", ([0.2, 0.5, 0.5, 1.2], [0, 1, 0, 1], [1.0, 2.0, 0.5, 1.5])),
    ("event times must lie in", ([0.2, 0.0, 0.5, 0.9], [0, 1, 0, 1], [1.0, 2.0, 0.5, 1.5])),
    ("jump sizes must be positive", ([0.2, 0.5, 0.5, 0.9], [0, 1, 0, 1], [1.0, 2.0, 0.5, 0.0])),
    ("strictly increasing per component", ([0.2, 0.5, 0.6, 0.4], [0, 1, 0, 1], [1.0, 2.0, 0.5, 1.5])),
    ("components must lie in", ([0.2, 0.5, 0.5, 0.9], [0, 1, 0, 2], [1.0, 2.0, 0.5, 1.5])),
]
BROKEN_IDS = ["after_horizon", "at_zero", "zero_size", "not_increasing", "component_range"]


class TestEventChecks:
    """The JumpPath invariants, checked per path and once per packed chunk."""

    grid = market.GridConfig(1.0, 0.1)

    @pytest.mark.parametrize("message, events", BROKEN, ids=BROKEN_IDS)
    def test_jump_path_rejects(self, message, events):
        t, c, s = events
        with pytest.raises(ValueError, match=message):
            levy.JumpPath(np.array(t), np.array(c), np.array(s), 1.0, 2)

    @pytest.mark.parametrize("message, events", BROKEN, ids=BROKEN_IDS)
    def test_packed_chunk_rejects_a_later_path(self, message, events):
        parts = [unchecked_events([GOOD, ([], [], [])], 2), unchecked_events([GOOD, events], 2)]
        with pytest.raises(ValueError, match=message):
            market.JumpRecord.pack(parts, self.grid)

    def test_paths_are_checked_apart(self):
        # one component: a later path may start before the previous one ends,
        # but a repeated time inside one path is rejected
        chunk = unchecked_events([([0.3, 0.8], [0, 0], [1.0, 1.0]), ([0.1], [0], [1.0]), GOOD], 2)
        record = market.JumpRecord.pack([chunk], self.grid)
        assert [len(record.path(i)) for i in range(3)] == [2, 1, 4]
        single = unchecked_events([([0.3, 0.8], [0, 0], [1.0, 1.0]), ([0.1, 0.1], [0, 0], [1.0, 1.0])], 1)
        with pytest.raises(ValueError, match="strictly increasing"):
            market.JumpRecord.pack([single], self.grid)

    def test_probe_checks_inner_paths(self, bns_model, ou_unit, cpe_spec, monkeypatch):
        from mvhedge import opportunity as opp

        sample = opp.sample_jump_path

        def sample_then_break(specs, span, n, seed):
            # the last inner path's events go back in time
            events = sample(specs, span, n, seed)
            paths = [tuple(a[i:j] for a in (events.times, events.components, events.sizes))
                     for i, j in zip(events.offsets[:-2], events.offsets[1:-1])]
            return unchecked_events(paths + [([0.1, 0.05], [0, 0], [1.0, 1.0])], 1, span)

        monkeypatch.setattr(opp, "sample_jump_path", sample_then_break)
        with pytest.raises(ValueError, match="strictly increasing"):
            opp.estimate_opportunity_mc(bns_model, ou_unit, [cpe_spec], 0.0, [10.0], 1.0, 100, 3)

    def test_empty_chunk_keeps_component_count(self):
        record = market.JumpRecord.pack([unchecked_events([([], [], [])] * 3, 2)], self.grid)
        assert record.n_paths == 3 and record.n_components == 2 and record.times.size == 0
        assert not record.bounds.any() and record.totals().shape == (3, 2)


@pytest.mark.parametrize("n_steps, n_events", [(40, 5000), (1000, 50_000), (70_000, 3000)])
def test_step_order_matches_int64_stable_sort(n_steps, n_events):
    # the step index is sorted in the narrowest unsigned dtype; the
    # record's order and bounds must be those of the int64 stable argsort.
    # Each path holds one event, so an event's owner is its index
    rng = np.random.default_rng(4)
    step = rng.integers(0, n_steps, n_events)
    step[:3] = n_steps - 1
    grid = market.GridConfig(1.0, 1.0 / n_steps)
    assert grid.n_steps == n_steps
    times = grid.times[step] + 0.5 / n_steps
    chunk = levy.JumpEvents(np.arange(n_events + 1), times, np.zeros(n_events, dtype=np.int64),
                            np.ones(n_events), grid.horizon, 1)
    record = market.JumpRecord.pack([chunk], grid)
    order = np.argsort(step, kind="stable")
    assert np.array_equal(record.paths, order)
    assert np.array_equal(record.times, times[order])
    assert np.array_equal(record.bounds, np.searchsorted(step[order], np.arange(n_steps + 1)))
    at, size, rate, after = record.step(n_steps - 1, np.array([2.0]))
    assert np.array_equal(at[:3], [0, 1, 2])
    assert np.array_equal(at, order[record.bounds[-2]:]) and (size == 1.0).all() and (rate == 2.0).all()
    assert np.allclose(after, 0.5 / n_steps)


BLOCK_CASES = {
    "cpe": [levy.CompoundPoissonExp(10.0, 8.0, 1.0)],
    "table_atoms": [levy.TableMeasure(((0.5, 3.0), (2.0, 4.0)), 0.7)],
    "cpe_and_table": [levy.CompoundPoissonExp(6.0, 4.0, 1.5), levy.TableMeasure(((0.5, 3.0), (2.0, 4.0)), 0.7)],
    "no_atoms": [levy.TableMeasure(())],
    "zero_atom": [levy.TableMeasure(((0.5, 0.0),))],
    "master_above_2_64": [levy.CompoundPoissonExp(10.0, 8.0, 1.0)],
    "injected": [levy.CompoundPoissonExp(10.0, 8.0, 1.0)],
}


def reference_block(specs, grid, master, block):
    """Each path's (times, components, sizes) and the (n_steps, DRAW_BLOCK)
    increments of one block, drawn by hand from its stream in the order the
    simulation documents: per source (a compound Poisson spec, or one atom
    of a table), every path's count; then per source its times; then per
    compound Poisson source its sizes; then the normals, step-major.  Empty
    ``specs`` stand for injected jumps: the block draws its normals only."""
    n = market.DRAW_BLOCK
    rng = np.random.default_rng(np.random.SeedSequence((master, block)))
    sources = []
    for i, spec in enumerate(specs):
        if isinstance(spec, levy.CompoundPoissonExp):
            sources.append((i, spec.time_scale * spec.event_rate, spec))
        else:
            sources += [(i, spec.time_scale * nu, z) for z, nu in spec.atoms]
    counts = [rng.poisson(rate * grid.horizon, size=n) for _, rate, _ in sources]
    times = [rng.uniform(0.0, grid.horizon, size=c.sum()) for c in counts]
    sizes = [rng.exponential(1.0 / size.jump_rate, size=c.sum()) if isinstance(size, levy.CompoundPoissonExp)
             else np.full(c.sum(), size) for c, (_, _, size) in zip(counts, sources)]
    paths = []
    for p in range(n):
        t, c, s = [], [], []
        for (comp, _, _), cnt, tt, ss in zip(sources, counts, times, sizes):
            at = slice(cnt[:p].sum(), cnt[:p + 1].sum())
            t += list(tt[at])
            c += [comp] * cnt[p]
            s += list(ss[at])
        order = np.lexsort((c, t))
        paths.append(tuple(np.array(a)[order] for a in (t, c, s)))
    return paths, rng.standard_normal((grid.n_steps, n)) * math.sqrt(grid.step)


@pytest.mark.parametrize("case", list(BLOCK_CASES))
def test_block_streams_pinned(case, monkeypatch):
    # the paths of block b read (jumps, normals) from SeedSequence((master, b)),
    # whatever rows of the block a chunk keeps: here a chunk that starts
    # inside block 1 and ends inside block 2
    specs = BLOCK_CASES[case]
    n, offset = market.DRAW_BLOCK + 20, 2 * market.DRAW_BLOCK - 30
    injected = [levy.JumpPath([0.25], [0], [1.5], 0.5, 1)] * n if case == "injected" else None
    master = 2**64 + 9 if case == "master_above_2_64" else 71
    model, ou = (TwoFactor(), ngou.OUParams([1.0, 0.5], [10.0, 6.0])) if len(specs) == 2 else \
        (market.BNS(0.5, 0.02), ngou.OUParams([1.0], [10.0]))
    calls = []
    sample = market.sample_jump_path
    monkeypatch.setattr(market, "sample_jump_path", lambda *a: calls.append(a) or sample(*a))
    grid = market.GridConfig(0.5, 0.05)
    b = market.simulate_paths(model, ou, specs, [100.0], grid, n, master, injected, offset)
    assert len(calls) == (0 if injected else 2)
    refs = [reference_block([] if injected else specs, grid, master, block) for block in (1, 2)]
    events = [p for paths, _ in refs for p in paths][market.DRAW_BLOCK - 30:][:n]
    normals = np.concatenate([dw for _, dw in refs], axis=1)[:, market.DRAW_BLOCK - 30:][:, :n]
    assert np.array_equal(b.dw[:, :, 0], normals.T)
    if injected:
        events = [(p.times, p.components, p.sizes) for p in injected]
    for i, (times, comps, sizes) in enumerate(events):
        p = b.jumps.path(i)
        assert np.array_equal(p.times, times) and np.array_equal(p.components, comps)
        assert np.array_equal(p.sizes, sizes)
    # a spec set without intensity draws no events
    assert (b.jumps.times.size > 0) == (bool(injected) or any(s.total_intensity > 0 for s in specs))


class SingularTwoAsset(market.CoefficientModel):
    """Two assets driven by one Brownian motion: the covariance is singular."""

    d, h, rate = 2, 1, 0.0

    def drift(self, y):
        return np.broadcast_to([0.1, 0.05], np.shape(y)[:-1] + (2,))

    def vol(self, y):
        return np.broadcast_to([[0.5, 0.0], [0.5, 0.0]], np.shape(y)[:-1] + (2, 2))


@pytest.mark.parametrize("build, error, message", [
    (lambda: market.ConstantBS(0.1, 0.0), levy.ConfigurationError, "volatility must be positive"),
    (lambda: market.TabulatedModel([2.0, 1.0], [0.1, 0.1], [0.2, 0.2]), levy.ConfigurationError,
     "y_nodes must be strictly increasing"),
    (lambda: market.TabulatedModel([1.0, 2.0], [0.1, 0.1], [0.2, 0.0]), levy.ConfigurationError,
     "tabulated volatilities must be positive"),
    (lambda: market.GridConfig(1.0, 0.0), levy.ConfigurationError, "horizon and step must be positive"),
    (lambda: market.simulate_paths(market.BNS(0.5, 0.02), ngou.OUParams([1.0], [10.0]),
                                   [levy.TableMeasure(())], [-100.0], market.GridConfig(1.0, 0.1), 4, 1),
     levy.ConfigurationError, "initial prices must be positive, one per asset"),
    (lambda: SingularTwoAsset().sharpe_squared(np.ones((3, 1))), np.linalg.LinAlgError,
     r"singular volatility covariance \(condition number"),
], ids=["flat_volatility", "tabulated_nodes", "tabulated_volatility", "grid_step", "initial_prices",
        "singular_two_asset_covariance"])
def test_input_guards(build, error, message):
    with pytest.raises(error, match=message):
        build()
