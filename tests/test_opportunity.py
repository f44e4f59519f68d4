import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from mvhedge import _kernels as kernels
from mvhedge import levy, market, ngou, opportunity as opp


class TwoFactorBNS(market.CoefficientModel):
    """Two uncorrelated BNS assets, asset i driven by factor i."""

    d, h, rate = 2, 2, 0.0

    def __init__(self, alpha, beta):
        self.alpha = np.asarray(alpha, dtype=float)
        self.beta = np.asarray(beta, dtype=float)

    def drift(self, y):
        return self.alpha + self.beta * np.asarray(y)

    def vol(self, y):
        y = np.asarray(y)
        return np.sqrt(y)[..., :, None] * np.eye(2)


def bns_segment_integral(alpha, beta, lam, y, s):
    """Exact integral of (alpha + beta Y)^2 / Y while Y decays from y for a time s."""
    return (alpha**2 * math.expm1(lam * s) / (lam * y) + 2 * alpha * beta * s
            - beta**2 * y * math.expm1(-lam * s) / lam)


def exact_bns_exponent(alpha, beta, lam, y0, horizon, times, comps, sizes):
    """Sum of the exact segment integrals over every factor of one path."""
    y = np.array(y0, dtype=float)
    t = 0.0
    total = 0.0
    for t_next, c, z in list(zip(times, comps, sizes)) + [(horizon, None, 0.0)]:
        s = t_next - t
        total += sum(bns_segment_integral(alpha[i], beta[i], lam[i], y[i], s) for i in range(y.size))
        y = y * np.exp(-np.asarray(lam) * s)
        if c is not None:
            y[c] += z
        t = t_next
    return total


def per_path_exponent(sharpe2, lam, y0, horizon, path):
    """Reference: one path at a time, one inter-jump segment at a time."""
    y = np.array(y0, dtype=float)
    t = 0.0
    acc = 0.0
    for idx, t_next in enumerate(list(path.times) + [horizon]):
        seg = t_next - t
        nodes = y[None, :] * np.exp(-lam[None, :] * kernels.SEG_NODES[:, None] * seg)
        acc += float(kernels.SEG_WEIGHTS @ sharpe2(nodes)) * seg
        y = y * np.exp(-lam * seg)
        if idx < len(path.times):
            y[path.components[idx]] += path.sizes[idx]
        t = t_next
    return acc


@pytest.fixture(scope="module")
def bns():
    return market.BNS(0.5, 0.02, rate=0.0)


@pytest.fixture(scope="module")
def ou():
    return ngou.OUParams([1.0], [10.0])


@pytest.fixture(scope="module")
def cpe():
    return levy.CompoundPoissonExp(10.0, 8.0, 1.0)


@pytest.fixture(scope="module")
def bns_surface(bns, ou, cpe):
    return opp.solve_opportunity_ipde(bns, ou, cpe, 1.0)


class TestMonteCarloEstimator:
    def test_flat_coefficients_machine_precision(self, ou):
        # constant squared market price of risk integrates exactly
        m = market.ConstantBS(2.0, 100.0, rate=0.0)
        est, se = opp.estimate_opportunity_mc(m, ou, [levy.TableMeasure(())], 0.0, [10.0],
                                              40000.0, n_inner=200, seed=1)
        assert est == pytest.approx(math.exp(-16.0), rel=1e-12)
        assert se < 1e-18

    def test_zero_premium_gives_one(self, ou, cpe):
        m = market.ConstantBS(0.05, 0.3, rate=0.05)
        est, _ = opp.estimate_opportunity_mc(m, ou, [cpe], 0.2, [10.0], 1.0, n_inner=300, seed=2)
        assert est == pytest.approx(1.0, abs=1e-14)

    def test_terminal_time(self, bns, ou, cpe):
        est, se = opp.estimate_opportunity_mc(bns, ou, [cpe], 1.0, [10.0], 1.0, n_inner=100, seed=3)
        assert est == 1.0 and se == 0.0

    def test_too_few_inner_samples_rejected(self, bns, ou, cpe):
        with pytest.raises(levy.ConfigurationError):
            opp.estimate_opportunity_mc(bns, ou, [cpe], 0.0, [10.0], 1.0, n_inner=50, seed=1)

    @pytest.mark.parametrize("two_factor", [False, True])
    def test_exponent_matches_per_path_loop(self, bns, cpe, two_factor):
        if two_factor:
            model, lam, y0 = TwoFactorBNS([0.5, 0.3], [0.02, 0.05]), np.array([1.0, 0.5]), [10.0, 5.0]
            specs = [cpe, levy.TableMeasure(((1.0, 2.0),))]
        else:
            model, lam, y0, specs = bns, np.array([1.0]), [10.0], [cpe]
        paths = [levy.sample_jump_path(specs, 1.0, (4, i)) for i in range(300)]
        offsets = np.concatenate([[0], np.cumsum([len(p) for p in paths])])
        got = kernels.opportunity_mc_exponent(
            partial(market.sharpe_squared, model), lam, y0, 1.0, offsets,
            np.concatenate([p.times for p in paths]), np.concatenate([p.components for p in paths]),
            np.concatenate([p.sizes for p in paths]))
        ref = [per_path_exponent(partial(market.sharpe_squared, model), lam, y0, 1.0, p) for p in paths]
        assert got == pytest.approx(ref, rel=1e-12)


class TestMcExponentClosedForm:
    """The quadrature exponent against the exact BNS segment integrals."""

    def test_one_factor_paths(self, bns):
        # no jumps; a jump at the start time; three jumps, two close together
        paths = [([], []), ([0.0, 0.55], [2.0, 1.0]), ([0.2, 0.21, 0.9], [0.5, 3.0, 0.1])]
        offsets = np.concatenate([[0], np.cumsum([len(t) for t, _ in paths])])
        times = np.concatenate([t for t, _ in paths])
        sizes = np.concatenate([z for _, z in paths])
        got = kernels.opportunity_mc_exponent(
            partial(market.sharpe_squared, bns), [1.0], [10.0], 1.0, offsets, times,
            np.zeros(times.size, dtype=np.int64), sizes)
        for p, (t, z) in enumerate(paths):
            exact = exact_bns_exponent([0.5], [0.02], [1.0], [10.0], 1.0, t, [0] * len(t), z)
            assert got[p] == pytest.approx(exact, rel=1e-6)

    def test_two_factor_path(self):
        model = TwoFactorBNS([0.5, 0.3], [0.02, 0.05])
        times, comps, sizes = [0.1, 0.4, 0.4, 0.8], [1, 0, 1, 0], [2.0, 1.5, 0.5, 0.7]
        got = kernels.opportunity_mc_exponent(
            partial(market.sharpe_squared, model), [1.0, 0.5], [10.0, 5.0], 1.0,
            np.array([0, 4]), np.array(times), np.array(comps), np.array(sizes))
        exact = exact_bns_exponent([0.5, 0.3], [0.02, 0.05], [1.0, 0.5], [10.0, 5.0], 1.0,
                                   times, comps, sizes)
        assert got[0] == pytest.approx(exact, rel=1e-6)


class TestIpdeSurface:
    def test_flat_mesh_closed_form(self, ou, cpe):
        m = market.ConstantBS(0.1, 0.2, rate=0.0)
        mesh = opp.MeshConfig(n_y=60, n_time_slices=65, n_time_steps=512)
        surf = opp.solve_opportunity_ipde(m, ou, cpe, 1.0, mesh, force_mesh=True)
        ys = np.linspace(4.0, 15.0, 9)
        for t in surf.t_slices[[0, 13, 44]]:
            target = math.exp(-m.constant_sharpe * (1.0 - t))
            assert np.max(np.abs(surf.value_at_states(t, ys) - target)) < 1e-8

    def test_zero_premium_identically_one(self, ou, cpe):
        m = market.ConstantBS(0.05, 0.3, rate=0.05)
        surf = opp.solve_opportunity_ipde(m, ou, cpe, 1.0, force_mesh=True)
        assert np.max(np.abs(surf.table - 1.0)) < 1e-13

    def test_bounds_and_terminal(self, bns_surface):
        assert bns_surface.table.min() > 0.0
        assert bns_surface.table.max() <= 1.0 + 1e-12
        assert np.max(np.abs(bns_surface.table[-1] - 1.0)) == 0.0

    def test_monotone_in_horizon(self, bns, ou, cpe, bns_surface):
        longer = opp.solve_opportunity_ipde(bns, ou, cpe, 2.0)
        ys = np.linspace(5.0, 18.0, 9)
        assert np.all(longer.value_at_states(0.0, ys) <= bns_surface.value_at_states(0.0, ys) + 1e-9)

    def test_cross_validation_against_mc(self, bns, ou, cpe, bns_surface):
        # reachable-wedge probes; tolerance couples the MC error and a mesh budget
        for i, (t, yv) in enumerate([(0.0, 10.0), (0.3, 8.0), (0.6, 11.0), (0.8, 16.0)]):
            est, se = opp.estimate_opportunity_mc(bns, ou, [cpe], t, [yv], 1.0, 2000, (5, i))
            assert abs(bns_surface.value(t, yv) - est) <= 4 * se + 1e-4

    def test_state_and_path_lookups_agree(self, bns_surface):
        # states below the floor, inside the mesh and above its top
        lo, hi = bns_surface.y_nodes[0], bns_surface.y_nodes[-1]
        ys = np.array([1e-3, 0.5 * lo, lo, 0.5 * (lo + hi), 0.9 * hi, hi, 1.5 * hi, 4.0 * hi])
        for t in (0.0, 0.37, 1.0):
            before = (bns_surface.n_below_floor, bns_surface.n_above_top)
            by_state = bns_surface.value_at_states(t, ys)
            mid = (bns_surface.n_below_floor, bns_surface.n_above_top)
            along = bns_surface.value_along([t], ys[:, None])[:, 0]
            after = (bns_surface.n_below_floor, bns_surface.n_above_top)
            assert np.array_equal(by_state, along)
            assert np.subtract(mid, before).tolist() == np.subtract(after, mid).tolist() == [2, 2]
            # the backward solver's call: every column of a state matrix at one time
            states = ys[:, None] * np.array([1.0, 0.3, 1.7, 5.0])
            before = (bns_surface.n_below_floor, bns_surface.n_above_top)
            per_column = np.column_stack([bns_surface.value_at_states(t, col) for col in states.T])
            mid = (bns_surface.n_below_floor, bns_surface.n_above_top)
            batched = bns_surface.value_along(np.full(states.shape[1], t), states)
            after = (bns_surface.n_below_floor, bns_surface.n_above_top)
            assert np.array_equal(per_column, batched)
            assert np.subtract(mid, before).tolist() == np.subtract(after, mid).tolist()
            assert min(np.subtract(mid, before)) > 0

    def test_bilinear_steps_matches_pointwise_reference(self):
        # a non-square table, so a transposed flat index would show
        rng = np.random.default_rng(2)
        table = rng.random((5, 7))
        t_idx, wt = np.array([0, 3, 2]), np.array([0.0, 0.25, 0.9])
        eta = rng.uniform(-0.5, 7.0, size=(4, 3))  # clamps on both sides
        out = kernels.bilinear_steps(table, t_idx, wt, eta, 0.0, 1.0)
        for r in range(4):
            for c in range(3):
                x = min(max(eta[r, c], 0.0), 6 - 1e-12)
                i, j, w = t_idx[c], int(x), wt[c]
                wy = x - j
                lo = table[i, j] * (1.0 - wy) + table[i, j + 1] * wy
                hi = table[i + 1, j] * (1.0 - wy) + table[i + 1, j + 1] * wy
                assert out[r, c] == lo * (1.0 - w) + hi * w

    def test_extrapolation_above_top_flagged(self, bns_surface):
        before = bns_surface.n_above_top
        val = bns_surface.value(0.5, bns_surface.y_nodes[-1] * 3.0)
        assert bns_surface.n_above_top == before + 1
        assert 0.0 < val <= 1.0 + 1e-9

    def test_mesh_must_cover_jump_range(self, bns, ou, cpe):
        with pytest.raises(ValueError, match="jump range"):
            opp.solve_opportunity_ipde(bns, ou, cpe, 1.0, opp.MeshConfig(y_top=10.5))

    def test_explicit_reaction_step_error(self, bns, ou, cpe):
        mesh = opp.MeshConfig(reaction_theta=0.0, n_time_slices=3, n_time_steps=2)
        with pytest.raises(ValueError, match="stability"):
            opp.solve_opportunity_ipde(bns, ou, cpe, 40.0, mesh)

    def test_export_csv(self, tmp_path, bns_surface):
        out = tmp_path / "surf.csv"
        bns_surface.export_csv(out)
        header = out.read_text().splitlines()[0]
        assert header == "t,y,P"


class TestStochasticExponential:
    def test_zero_path(self):
        assert np.array_equal(opp.stochastic_exponential(np.zeros(5), np.zeros(5)), np.ones(5))

    def test_finite_variation(self):
        t = np.linspace(0, 2, 9)
        got = opp.stochastic_exponential(0.7 * t, np.zeros_like(t))
        assert got == pytest.approx(np.exp(0.7 * t), rel=1e-14)

    def test_exponential_martingale_mean(self):
        rng = np.random.default_rng(6)
        theta = 0.4
        w_t = rng.standard_normal(100000)
        vals = opp.stochastic_exponential(-theta * w_t, theta**2 * np.ones_like(w_t))
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - 1.0) <= 4 * se


class TestDensityPath:
    def test_normalized_at_zero(self, bns, ou, cpe, bns_surface):
        grid = market.GridConfig(1.0, 0.01)
        b = market.simulate_paths(bns, ou, [cpe], [100.0], grid, 200, 7)
        dp = opp.density_path(bns_surface, b)
        assert np.max(np.abs(dp.density[:, 0] - 1.0)) < 1e-12
        assert dp.density.min() > 0.0

    def test_flat_model_matches_explicit_density(self, ou):
        # the opportunity factor cancels against the drift part, leaving
        # the exponential martingale of the market price of risk
        m = market.ConstantBS(0.1, 0.2, rate=0.0)
        grid = market.GridConfig(1.0, 0.01)
        b = market.simulate_paths(m, ou, [levy.TableMeasure(())], [100.0], grid, 500, 8)
        surf = opp.make_surface(m, ou, [levy.TableMeasure(())], 1.0)
        dp = opp.density_path(surf, b)
        theta = 0.5
        w_acc = np.concatenate([np.zeros((500, 1)), np.cumsum(b.dw[:, :, 0], axis=1)], axis=1)
        ref = np.exp(-theta * w_acc - 0.5 * theta**2 * b.times[None, :])
        assert np.max(np.abs(dp.density - ref) / ref) < 1e-6

    def test_density_mean_one(self, bns, ou, cpe, bns_surface):
        grid = market.GridConfig(1.0, 0.01)
        b = market.simulate_paths(bns, ou, [cpe], [100.0], grid, 20000, 9)
        zt = opp.density_terminal(bns_surface, b)
        se = zt.std(ddof=1) / math.sqrt(zt.size)
        assert abs(zt.mean() - 1.0) <= 4 * se + 0.004

    def test_running_sums_match_cumsum(self, bns, ou, cpe):
        # the per-step loop adds in the same order as a cumulative sum along each path
        grid = market.GridConfig(1.0, 0.02)
        b = market.simulate_paths(bns, ou, [cpe], [100.0], grid, 100, 10)
        a_dot_d, qv = opp._adjusted_gain_parts(b)
        r = np.cumsum(np.ascontiguousarray(b.sharpe_int), axis=1)
        m = np.cumsum(np.ascontiguousarray(b.mpr_dw), axis=1)
        assert np.all(qv[:, 0] == 0.0) and np.all(a_dot_d[:, 0] == 0.0)
        assert np.array_equal(qv[:, 1:], r)
        assert np.array_equal(a_dot_d[:, 1:], r + m)

    def test_density_terminal_matches_path_variant(self, bns, ou, cpe, bns_surface):
        grid = market.GridConfig(1.0, 0.02)
        b = market.simulate_paths(bns, ou, [cpe], [100.0], grid, 100, 10)
        assert b.jumps.times.size > 0
        dp = opp.density_path(bns_surface, b)
        zt = opp.density_terminal(bns_surface, b)
        assert np.array_equal(zt, dp.terminal)

    def test_density_terminal_keeps_no_running_sum_paths(self, bns, ou, cpe, bns_surface):
        # only per-path running sums: the peak stays below two (n, K+1) arrays
        grid = market.GridConfig(1.0, 0.01)
        b = market.simulate_paths(bns, ou, [cpe], [100.0], grid, 2000, 11)
        tracemalloc.start()
        try:
            opp.density_terminal(bns_surface, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * b.n_paths * (b.n_steps + 1) * 8

    def test_jumps_only_at_jump_times(self, bns, ou, cpe, bns_surface):
        jp = levy.JumpPath(np.array([0.5]), np.array([0]), np.array([2.0]), 1.0, 1)
        grid = market.GridConfig(1.0, 0.1)
        b = market.simulate_paths(bns, ou, [cpe], [100.0], grid, 3, 1, jump_paths=[jp] * 3)
        dp = opp.density_path(bns_surface, b)
        ratio = dp.density_left / dp.density
        assert np.allclose(np.delete(ratio, 5, axis=1), 1.0, atol=1e-13)
        assert np.all(np.abs(ratio[:, 5] - 1.0) > 1e-6)

    def test_horizon_mismatch_raises(self, bns, ou, cpe, bns_surface):
        grid = market.GridConfig(0.5, 0.01)
        b = market.simulate_paths(bns, ou, [cpe], [100.0], grid, 10, 2)
        with pytest.raises(levy.ConfigurationError):
            opp.density_path(bns_surface, b)


class TestMcSurface:
    def test_cache_and_determinism(self, bns, ou, cpe):
        s1 = opp.McSurface(bns, ou, [cpe], 1.0, n_inner=300, master_seed=5)
        s2 = opp.McSurface(bns, ou, [cpe], 1.0, n_inner=300, master_seed=5)
        assert s1.value(0.2, [9.0]) == s2.value(0.2, [9.0])
        assert s1.value(0.2, [9.0]) == s1.value(0.2, [9.0])

    def test_two_factor_support(self, cpe):
        ou2 = ngou.OUParams([1.0, 0.5], [10.0, 5.0])

        class TwoFactor(market.CoefficientModel):
            d, h, rate = 1, 2, 0.0

            def drift(self, y):
                return (0.2 + 0.01 * np.asarray(y).sum(-1))[..., None]

            def vol(self, y):
                return np.sqrt(np.asarray(y).sum(-1))[..., None, None]

        surf = opp.make_surface(TwoFactor(), ou2, [cpe, levy.TableMeasure(((1.0, 0.5),))], 1.0,
                                n_inner=200, master_seed=3)
        val = surf.value(0.0, [10.0, 5.0])
        assert 0.0 < val <= 1.0


def test_surface_decomposition_along_path(bns, ou, cpe, bns_surface):
    # diagnostic identity: between jumps the relative increment of
    # P(t, Y(t)) drifts at rho - lam * integral(F d nu); at a jump it
    # moves by F exactly
    jp = levy.JumpPath(np.array([0.42]), np.array([0]), np.array([1.5]), 1.0, 1)
    grid = ngou.merge_grid(np.linspace(0.0, 1.0, 501), jp.times)
    fp = ngou.evolve(ou, jp, grid)
    z, w = levy.jump_quadrature(cpe)
    vals = np.array([bns_surface.value(t, fp.values[k]) for k, t in enumerate(grid)])
    acc_lhs = 0.0
    acc_rhs = 0.0
    for k in range(len(grid) - 1):
        if grid[k + 1] in jp.times:
            continue
        dt = grid[k + 1] - grid[k]
        acc_lhs += vals[k + 1] / vals[k] - 1.0
        y_k = fp.values[k]
        rho = float(market.sharpe_squared(bns, y_k[None, :])[0])
        shifted = np.array([bns_surface.value(grid[k], y_k + zz) for zz in z])
        f_int = float(((shifted / vals[k] - 1.0) * w).sum()) * cpe.time_scale
        acc_rhs += (rho - f_int) * dt
    assert acc_lhs == pytest.approx(acc_rhs, rel=0.02)
    k_jump = int(np.searchsorted(grid, 0.42))
    jump_ratio = bns_surface.value(0.42, fp.values[k_jump]) / bns_surface.value(0.42, fp.left_values[k_jump]) - 1.0
    y_left = fp.left_values[k_jump]
    f_direct = bns_surface.value(0.42, y_left + 1.5) / bns_surface.value(0.42, y_left) - 1.0
    assert jump_ratio == pytest.approx(f_direct, rel=1e-9)
    assert jump_ratio > 0  # the surface increases with the factor here


def test_practical_floor_respects_hard_bound(ou, cpe):
    hard = 10.0 * math.exp(-1.0)
    got = opp.practical_floor(ou, [cpe], 1.0)
    assert got == pytest.approx(hard)
    long_floor = opp.practical_floor(ou, [cpe], 50.0)
    assert long_floor > 10.0 * math.exp(-50.0)
