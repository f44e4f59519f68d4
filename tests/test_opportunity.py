import math
import tracemalloc

import numpy as np
import pytest

from mvhedge import _kernels as kernels
from mvhedge import bsde, hedge, levy, market, ngou, opportunity as opp, validate

from conftest import walk_density


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
            model.sharpe_squared, lam, y0, 1.0, offsets,
            np.concatenate([p.times for p in paths]), np.concatenate([p.components for p in paths]),
            np.concatenate([p.sizes for p in paths]))
        ref = [per_path_exponent(model.sharpe_squared, lam, y0, 1.0, p) for p in paths]
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
            bns.sharpe_squared, [1.0], [10.0], 1.0, offsets, times,
            np.zeros(times.size, dtype=np.int64), sizes)
        for p, (t, z) in enumerate(paths):
            exact = exact_bns_exponent([0.5], [0.02], [1.0], [10.0], 1.0, t, [0] * len(t), z)
            assert got[p] == pytest.approx(exact, rel=1e-6)

    def test_two_factor_path(self):
        model = TwoFactorBNS([0.5, 0.3], [0.02, 0.05])
        times, comps, sizes = [0.1, 0.4, 0.4, 0.8], [1, 0, 1, 0], [2.0, 1.5, 0.5, 0.7]
        got = kernels.opportunity_mc_exponent(
            model.sharpe_squared, [1.0, 0.5], [10.0, 5.0], 1.0,
            np.array([0, 4]), np.array(times), np.array(comps), np.array(sizes))
        exact = exact_bns_exponent([0.5, 0.3], [0.02, 0.05], [1.0, 0.5], [10.0, 5.0], 1.0,
                                   times, comps, sizes)
        assert got[0] == pytest.approx(exact, rel=1e-6)


class TestIpdeSurface:
    def test_flat_mesh_closed_form(self, ou, cpe):
        m = market.ConstantBS(0.1, 0.2, rate=0.0)
        mesh = opp.MeshConfig(n_y=60, n_time_slices=65, n_time_steps=512)
        surf = opp.solve_opportunity_ipde(m, ou, cpe, 1.0, mesh)
        check = validate.flat_grid_closed_form(surf, m, [0, 13, 44], np.linspace(4.0, 15.0, 9))
        assert check.ok, check.detail

    def test_zero_premium_identically_one(self, ou, cpe):
        m = market.ConstantBS(0.05, 0.3, rate=0.05)
        surf = opp.solve_opportunity_ipde(m, ou, cpe, 1.0)
        assert np.max(np.abs(surf.table - 1.0)) < 1e-13

    def test_no_jumps_matches_deterministic_factor(self, bns, ou):
        # without jumps the factor decays deterministically from its
        # state, so P is the exponential of one exact segment integral
        surf = opp.solve_opportunity_ipde(bns, ou, levy.TableMeasure(()), 1.0)
        for t in (0.0, 0.3, 0.6, 0.9):
            y = 10.0 * math.exp(-t)
            exact = math.exp(-bns_segment_integral(0.5, 0.02, 1.0, y, 1.0 - t))
            assert surf.value(t, y) == pytest.approx(exact, abs=1e-4)

    def test_autonomous_in_time(self, bns, ou, cpe):
        # The coefficients do not depend on t, so on one mesh the solve over
        # 2T passes, after its first N steps, exactly the state a solve over T
        # ends in: P_2T(T, y) = P_T(0, y) bitwise.  `figure 3` reads its whole
        # curve off one solve through this.  A reaction that depends on the
        # calendar time t = horizon - step * dt breaks it; one that depends
        # only on the steps taken from the horizon does not.
        n = 128
        fixed = dict(y_floor=0.5, y_top=40.0)
        long = opp.solve_opportunity_ipde(
            bns, ou, cpe, 2.0, opp.MeshConfig(n_time_slices=3, n_time_steps=2 * n, **fixed))
        short = opp.solve_opportunity_ipde(
            bns, ou, cpe, 1.0, opp.MeshConfig(n_time_slices=2, n_time_steps=n, **fixed))
        assert np.array_equal(long.table[1], short.table[0])

    def test_bounds_and_terminal(self, bns_surface):
        assert bns_surface.table.min() > 0.0
        assert bns_surface.table.max() <= 1.0 + 1e-12
        assert np.max(np.abs(bns_surface.table[-1] - 1.0)) == 0.0

    def test_monotone_in_horizon(self, bns, ou, cpe, bns_surface):
        longer = opp.solve_opportunity_ipde(bns, ou, cpe, 2.0)
        check = validate.surface_decreases_with_horizon(bns_surface, longer, np.linspace(5.0, 18.0, 9))
        assert check.ok, check.detail

    def test_cross_validation_against_mc(self, bns, ou, cpe, bns_surface):
        # reachable-wedge probes; tolerance couples the MC error and a mesh budget
        probes = [(0.0, 10.0), (0.3, 8.0), (0.6, 11.0), (0.8, 16.0)]
        assert validate.surface_against_mc(bns_surface, bns, ou, [cpe], probes, (5,)).ok

    def test_value_at_states_matches_pointwise_reference(self, bns_surface):
        # states below the floor, inside the mesh and above its top, read
        # against the bilinear formula in (t, log y), the floor value and
        # the log-linear continuation from the two top nodes, bitwise
        s = bns_surface
        lo, hi = s.y_nodes[0], s.y_nodes[-1]
        ys = np.array([1e-3, 0.5 * lo, lo, 0.5 * (lo + hi), 0.9 * hi, hi, 1.5 * hi, 4.0 * hi])
        etas = np.log(ys)
        dt, deta, ny = s.t_slices[1] - s.t_slices[0], s.eta[1] - s.eta[0], s.y_nodes.size
        for t in (0.0, 0.37, 1.0):
            before = (s.n_below_floor, s.n_above_top)
            got = s.value_at_states(t, ys)
            assert np.subtract((s.n_below_floor, s.n_above_top), before).tolist() == [2, 2]
            x = min(max((t - s.t_slices[0]) / dt, 0.0), s.t_slices.size - 1 - 1e-12)
            i = int(x)
            w = x - i
            for eta, val in zip(etas, got):
                if eta < s.eta[0]:
                    assert val == s.table[i, 0] * (1.0 - w) + s.table[i + 1, 0] * w
                elif eta > s.eta[-1]:
                    top0, top1 = ((1 - w) * s.table[i, c] + w * s.table[i + 1, c] for c in (-2, -1))
                    slope = (np.log(top1) - np.log(top0)) / deta
                    assert val == top1 * np.exp(slope * (eta - s.eta[-1]))
                else:
                    xe = min((eta - s.eta[0]) * (1.0 / deta), ny - 1 - 1e-12)
                    j = int(xe)
                    wy = xe - j
                    lo_t = s.table[i, j] * (1.0 - wy) + s.table[i, j + 1] * wy
                    hi_t = s.table[i + 1, j] * (1.0 - wy) + s.table[i + 1, j + 1] * wy
                    assert val == lo_t * (1.0 - w) + hi_t * w

    def test_bilinear_steps_matches_pointwise_reference(self):
        # a non-square table, so a transposed flat index would show
        rng = np.random.default_rng(2)
        table = rng.random((5, 7))
        eta = rng.uniform(-0.5, 7.0, size=6)  # clamps on both sides
        eta[:2] = -0.5, 7.0
        out = kernels.bilinear_steps(table, eta, 0.0, 1.0)
        assert out.shape == (6, 5)
        for r in range(6):
            x = min(max(eta[r], 0.0), 6 - 1e-12)
            j = int(x)
            wy = x - j
            for i in range(5):
                assert out[r, i] == table[i, j] * (1.0 - wy) + table[i, j + 1] * wy

    def test_extrapolation_above_top_flagged(self, bns_surface):
        before = bns_surface.n_above_top
        val = bns_surface.value(0.5, bns_surface.y_nodes[-1] * 3.0)
        assert bns_surface.n_above_top == before + 1
        assert 0.0 < val <= 1.0 + 1e-9

    def test_mesh_must_cover_jump_range(self, bns, ou, cpe):
        with pytest.raises(ValueError, match="jump range"):
            opp.solve_opportunity_ipde(bns, ou, cpe, 1.0, opp.MeshConfig(y_top=10.5))

    def test_explicit_terms_step_error(self, bns, ou, cpe):
        # two steps over T = 40 break the transport and jump bounds first
        mesh = opp.MeshConfig(n_time_slices=3, n_time_steps=2)
        with pytest.raises(ValueError, match="explicit terms"):
            opp.solve_opportunity_ipde(bns, ou, cpe, 40.0, mesh)

    def test_explicit_reaction_step_error(self, bns, ou, cpe):
        # a low floor puts nodes where the reaction rate (alpha + beta y)^2 / y
        # is large; a user-set step count within the transport and jump
        # limits is beyond what keeps the explicit half of the reaction positive
        mesh = opp.MeshConfig(y_floor=1e-3, n_time_steps=3584)
        with pytest.raises(ValueError, match="positivity bound of the explicit reaction"):
            opp.solve_opportunity_ipde(bns, ou, cpe, 40.0, mesh)

    def test_reaction_bound_sets_step_count(self, bns, ou, cpe):
        # left unset, the step count takes the reaction's positivity bound
        # next to the transport and jump limits
        surf = opp.solve_opportunity_ipde(bns, ou, cpe, 40.0, opp.MeshConfig(y_floor=1e-3))
        assert np.all(surf.table > 0.0) and np.all(surf.table <= 1.0)

    def test_export_csv(self, tmp_path, bns_surface):
        out = tmp_path / "surf.csv"
        bns_surface.export_csv(out)
        header = out.read_text().splitlines()[0]
        assert header == "t,y,P"


class TestJumpChannels:
    """C1 = sum w z F, C2 = sum w z^2 F and C3 = sum w F^2/(1 + F), tabulated per solve."""

    @staticmethod
    def contraction(surface, t, y, z, w):
        # the per-state reference: F_q from value_at_states at [y, y + z_q]
        p = np.column_stack([surface.value_at_states(t, y + zq) for zq in np.concatenate([[0.0], z])])
        f = p[:, 1:] / p[:, :1] - 1.0
        return np.column_stack([f @ (w * z), f @ (w * z**2), (f**2 / (1.0 + f)) @ w])

    def test_nodes_equal_contraction(self, bns_surface, cpe):
        z, w = levy.jump_quadrature(cpe)
        times = np.linspace(0.0, 1.0, 101)
        before = (bns_surface.n_below_floor, bns_surface.n_above_top)
        channels = bns_surface.jump_channels(times, z, w)
        # shifted nodes reach above the top, yet the tables count nothing
        assert (bns_surface.n_below_floor, bns_surface.n_above_top) == before
        for k in (0, 37, 99):
            ref = self.contraction(bns_surface, times[k], bns_surface.y_nodes, z, w)
            got = channels(k, bns_surface.y_nodes)
            assert np.all(np.max(np.abs(got - ref), axis=0) <= 1e-12 * np.max(np.abs(ref), axis=0))
            assert np.all(ref[:, 2] > 0.0)

    def test_between_nodes_within_interpolation_bound(self, bns_surface, cpe):
        # at the log-midpoints of the mesh cells the bilinear channels are
        # at most 6.3e-4 of each channel's largest magnitude from the
        # per-state contraction (measured at every tenth step of this grid)
        z, w = levy.jump_quadrature(cpe)
        times = np.linspace(0.0, 1.0, 101)
        channels = bns_surface.jump_channels(times, z, w)
        mid = np.exp(0.5 * (bns_surface.eta[1:] + bns_surface.eta[:-1]))
        for k in range(0, 100, 10):
            ref = self.contraction(bns_surface, times[k], mid, z, w)
            err = np.max(np.abs(channels(k, mid) - ref), axis=0)
            assert np.all(err <= 1e-3 * np.max(np.abs(ref), axis=0))

    def test_off_the_mesh_holds_edge_values_and_counts(self, bns_surface, cpe):
        lo, hi = bns_surface.y_nodes[0], bns_surface.y_nodes[-1]
        channels = bns_surface.jump_channels(np.linspace(0.0, 1.0, 11), *levy.jump_quadrature(cpe))
        edges = channels(4, np.array([lo, hi]))
        before = (bns_surface.n_below_floor, bns_surface.n_above_top)
        out = channels(4, np.array([1e-3, 0.5 * lo, 1.5 * hi, 4.0 * hi, 0.5 * (lo + hi)]))
        assert np.subtract((bns_surface.n_below_floor, bns_surface.n_above_top), before).tolist() == [2, 2]
        assert np.max(np.abs(out[:4] - edges[[0, 0, 1, 1]])) <= 1e-12 * np.max(np.abs(edges))

    def test_flat_surface_has_zero_channels(self, cpe):
        z, w = levy.jump_quadrature(cpe)
        surface = opp.ConstantSharpeSurface(0.25, 1.0)
        y = np.array([0.5, 10.0, 40.0])
        assert np.array_equal(surface.jump_channels(np.linspace(0.0, 1.0, 11), z, w)(3, y), np.zeros((3, 3)))
        assert np.array_equal(self.contraction(surface, 0.3, y, z, w), np.zeros((3, 3)))


class TestStochasticExponential:
    def test_zero_path(self):
        assert np.array_equal(opp.stochastic_exponential(np.zeros(5), np.zeros(5)), np.ones(5))

    def test_finite_variation(self):
        t = np.linspace(0, 2, 9)
        got = opp.stochastic_exponential(0.7 * t, np.zeros_like(t))
        assert got == pytest.approx(np.exp(0.7 * t), rel=1e-14)

    def test_exponential_martingale_mean(self):
        check = validate.stochastic_exponential_martingale(0.4, 100000, 6)
        assert check.ok, check.detail


class TestDensityPath:
    def test_normalized_at_zero(self, bns, ou, cpe, bns_surface):
        grid = market.GridConfig(1.0, 0.01)
        b = market.simulate_paths(bns, ou, [cpe], [100.0], grid, 200, 7)
        density, density_left, *_ = walk_density(bns_surface, b)
        assert np.max(np.abs(density[:, 0] - 1.0)) < 1e-12
        assert density.min() > 0.0 and np.array_equal(density_left, density)

    def test_flat_model_matches_explicit_density(self, ou):
        # the opportunity factor cancels against the drift part, leaving
        # the exponential martingale of the market price of risk
        m = market.ConstantBS(0.1, 0.2, rate=0.0)
        grid = market.GridConfig(1.0, 0.01)
        b = market.simulate_paths(m, ou, [levy.TableMeasure(())], [100.0], grid, 500, 8)
        surf = opp.make_surface(m, ou, [levy.TableMeasure(())], 1.0)
        assert validate.flat_density_pathwise(surf, b).ok

    def test_density_mean_one(self, bns, ou, cpe, bns_surface):
        grid = market.GridConfig(1.0, 0.01)
        b = market.simulate_paths(bns, ou, [cpe], [100.0], grid, 20000, 9)
        assert validate.density_mean_one(bns_surface, [b], slack=0.004).ok

    def test_density_walk_runs_no_engine(self, bns, ou, cpe, bns_surface, monkeypatch):
        # the walk replays the factor and the quadratures step by step, and
        # its values do not depend on whether the whole factor was read first
        grid = market.GridConfig(1.0, 0.02)
        b, ref = (market.simulate_paths(bns, ou, [cpe], [100.0], grid, 100, 10) for _ in range(2))
        ref.y
        monkeypatch.setattr(kernels, "simulate_d1h1", lambda *a, **kw: pytest.fail("ran the engine"))
        for got, want in zip(opp.density_walk(bns_surface, b), opp.density_walk(bns_surface, ref)):
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_running_sums_match_cumsum(self, bns, ou, cpe, bns_surface):
        # the walk adds the per-step terms in the order of a cumulative sum
        # along each path, and reads the surface at the engine's factor
        grid = market.GridConfig(1.0, 0.02)
        b = market.simulate_paths(bns, ou, [cpe], [100.0], grid, 100, 10)
        density, _, sharpe_steps, mpr_steps = walk_density(bns_surface, b)
        r, m = (np.cumsum(a, axis=1) for a in (sharpe_steps, mpr_steps))
        opportunity = np.column_stack([bns_surface.value_at_states(t, b.y[:, k]) for k, t in enumerate(b.times)])
        expect = opportunity[:, 1:] * opp.stochastic_exponential(-(r + m), r) / opportunity[0, 0]
        assert np.array_equal(density[:, 1:], expect)

    def test_density_terminal_matches_path_variant(self, bns, ou, cpe, bns_surface):
        # the walk's last node is the terminal density, bitwise, on a grid
        # surface and on the closed form
        grid = market.GridConfig(1.0, 0.02)
        flat = market.ConstantBS(0.1, 0.2)
        flat_surface = opp.make_surface(flat, ou, [cpe], 1.0)
        assert isinstance(flat_surface, opp.ConstantSharpeSurface)
        for model, surface in ((bns, bns_surface), (flat, flat_surface)):
            b = market.simulate_paths(model, ou, [cpe], [100.0], grid, 100, 10)
            assert b.jumps.times.size > 0
            *_, (last, _) = opp.density_walk(surface, b)
            assert np.array_equal(opp.density_terminal(surface, b), last)

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

    def test_density_walk_keeps_one_node(self, bns, ou, cpe, bns_surface):
        # the walk keeps per-path state only: a whole walk peaks below one
        # (n, K+1) array, where whole density paths would take several
        grid = market.GridConfig(1.0, 0.01)
        b = market.simulate_paths(bns, ou, [cpe], [100.0], grid, 2000, 11)
        tracemalloc.start()
        try:
            for _ in opp.density_walk(bns_surface, b):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < b.n_paths * (b.n_steps + 1) * 8

    def test_jumps_only_at_jump_times(self, bns, ou, cpe, bns_surface):
        grid = market.GridConfig(1.0, 0.1)
        check = validate.density_jumps_only_at_jump_times(bns_surface, bns, ou, [cpe], grid, 3, 1)
        assert check.ok, check.detail

    def test_horizon_mismatch_raises(self, bns, ou, cpe, bns_surface):
        grid = market.GridConfig(0.5, 0.01)
        b = market.simulate_paths(bns, ou, [cpe], [100.0], grid, 10, 2)
        with pytest.raises(levy.ConfigurationError):
            next(opp.density_walk(bns_surface, b))


@pytest.mark.parametrize("entry", ["density_walk", "density_terminal", "mc_value_at_zero", "solve_backward",
                                   "run_hedge"])
def test_surface_for_another_horizon_is_refused(entry, bns, ou, cpe, bns_surface):
    # a T = 1 surface on a T = 0.5 bundle; the hedge checks every chunk,
    # so a matching first chunk does not let the second through
    pay = bsde.ConstantPayoff(30000.0)
    b = market.simulate_paths(bns, ou, [cpe], [100.0], market.GridConfig(0.5, 0.01), 100, 2)
    run = {
        "density_walk": lambda: next(opp.density_walk(bns_surface, b)),
        "density_terminal": lambda: opp.density_terminal(bns_surface, b),
        "mc_value_at_zero": lambda: bsde.mc_value_at_zero(bns_surface, b, pay),
        "solve_backward": lambda: bsde.solve_backward(b, bns_surface, pay),
        "run_hedge": lambda: hedge.run_hedge(
            [market.simulate_paths(bns, ou, [cpe], [100.0], market.GridConfig(1.0, 0.02), 100, 2), b],
            bns_surface, None, pay, 10000.0),
    }[entry]
    with pytest.raises(levy.ConfigurationError, match="surface horizon does not match the bundle grid"):
        run()


def test_two_factor_estimate_is_product_of_grid_solves(cpe):
    # independent factors and a separable squared market price of risk:
    # P(t, y) = P_1(t, y_1) * P_2(t, y_2), each factor a one-factor BNS
    alpha, beta, lam, y0 = [0.5, 0.3], [0.02, 0.05], [1.0, 0.5], [10.0, 5.0]
    specs = [cpe, levy.TableMeasure(((1.0, 0.5),))]
    ou2 = ngou.OUParams(lam, y0)
    factors = [opp.solve_opportunity_ipde(market.BNS(alpha[i], beta[i]), ngou.OUParams([lam[i]], [y0[i]]),
                                          specs[i], 1.0) for i in range(2)]
    # states inside both reachable wedges, where the grid solves are accurate
    for i, (t, ys) in enumerate([(0.0, [10.0, 5.0]), (0.4, [8.0, 6.0])]):
        est, se = opp.estimate_opportunity_mc(TwoFactorBNS(alpha, beta), ou2, specs, t, ys, 1.0, 2000, (7, i))
        product = factors[0].value(t, ys[0]) * factors[1].value(t, ys[1])
        assert abs(est - product) <= 4 * se + 1e-4


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
        rho = float(bns.sharpe_squared(y_k[None, :])[0])
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


@pytest.mark.parametrize("case, message", [
    ("negative_sharpe", "squared market price of risk must be nonnegative"),
    ("two_factors", "grid solve supports one factor only"),
    ("floor_above_top", "mesh floor must lie below the mesh top"),
    ("time_steps", "n_time_steps must be a multiple of n_time_slices - 1"),
    ("probe_after_horizon", "t must not exceed the horizon"),
])
def test_input_guards(case, message, bns, ou, cpe):
    with pytest.raises(levy.ConfigurationError, match=message):
        if case == "negative_sharpe":
            opp.ConstantSharpeSurface(-0.1, 1.0)
        elif case == "two_factors":
            opp.solve_opportunity_ipde(TwoFactorBNS([0.5, 0.3], [0.02, 0.05]),
                                       ngou.OUParams([1.0, 0.5], [10.0, 5.0]), cpe, 1.0)
        elif case == "floor_above_top":
            opp.solve_opportunity_ipde(bns, ou, cpe, 1.0, opp.MeshConfig(y_floor=2000.0, y_top=1000.0))
        elif case == "time_steps":
            opp.solve_opportunity_ipde(bns, ou, cpe, 1.0, opp.MeshConfig(n_y=60, n_time_slices=65,
                                                                         n_time_steps=100))
        else:
            opp.estimate_opportunity_mc(bns, ou, [cpe], 1.5, [10.0], 1.0)
