import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvhedge import levy, ngou

from conftest import empty_jump_path


def single_jump_path(t, size, horizon):
    return levy.JumpPath(np.array([t]), np.array([0]), np.array([size]), horizon, 1)


class TestEvolve:
    def test_pure_decay(self, ou_unit):
        fp = ngou.evolve(ou_unit, empty_jump_path(1.0), np.linspace(0, 1, 11))
        assert fp.values[-1, 0] == pytest.approx(10.0 * np.exp(-1.0), rel=1e-14)

    def test_single_jump_value(self, ou_unit):
        jp = single_jump_path(0.5, 2.0, 1.0)
        grid = ngou.merge_grid(np.linspace(0, 1, 101), jp.times)
        fp = ngou.evolve(ou_unit, jp, grid)
        # hand evaluation of the explicit solution
        expect = 10.0 * np.exp(-1.0) + 2.0 * np.exp(-0.5)
        assert fp.values[-1, 0] == pytest.approx(expect, rel=1e-13)
        assert fp.values[-1, 0] == pytest.approx(4.891855731139691, rel=1e-12)

    def test_left_limit_at_jump(self, ou_unit):
        jp = single_jump_path(0.5, 2.0, 1.0)
        grid = ngou.merge_grid(np.linspace(0, 1, 11), jp.times)
        fp = ngou.evolve(ou_unit, jp, grid)
        k = int(np.searchsorted(grid, 0.5))
        assert fp.left_values[k, 0] == pytest.approx(10.0 * np.exp(-0.5), rel=1e-14)
        assert fp.values[k, 0] - fp.left_values[k, 0] == pytest.approx(2.0, rel=1e-14)

    def test_left_limits_match_off_jumps(self, ou_unit, cpe_spec):
        jp = levy.sample_jump_path([cpe_spec], 1.0, 5)
        grid = ngou.merge_grid(np.linspace(0, 1, 51), jp.times)
        fp = ngou.evolve(ou_unit, jp, grid)
        at_jump = np.isin(grid, jp.times)
        assert np.array_equal(fp.values[~at_jump], fp.left_values[~at_jump])

    def test_floor_invariant(self, ou_unit, cpe_spec):
        jp = levy.sample_jump_path([cpe_spec], 2.0, 17)
        grid = ngou.merge_grid(np.linspace(0, 2, 201), jp.times)
        fp = ngou.evolve(ou_unit, jp, grid)
        floor = 10.0 * np.exp(-grid)
        assert (fp.values[:, 0] - floor).min() >= -1e-12

    def test_missing_jump_time_raises(self, ou_unit):
        jp = single_jump_path(0.5001, 2.0, 1.0)
        with pytest.raises(ValueError, match="jump time"):
            ngou.evolve(ou_unit, jp, np.linspace(0, 1, 11))

    def test_two_components(self):
        params = ngou.OUParams([1.0, 2.0], [10.0, 4.0])
        jp = levy.JumpPath(np.array([0.25, 0.5]), np.array([1, 0]), np.array([1.0, 2.0]), 1.0, 2)
        grid = ngou.merge_grid(np.linspace(0, 1, 41), jp.times)
        fp = ngou.evolve(params, jp, grid)
        expect0 = 10.0 * np.exp(-1.0) + 2.0 * np.exp(-0.5)
        expect1 = 4.0 * np.exp(-2.0) + 1.0 * np.exp(-2.0 * 0.75)
        assert fp.values[-1] == pytest.approx([expect0, expect1], rel=1e-13)


class TestIntegratedFactor:
    def test_pure_decay_integral(self, ou_unit):
        fp = ngou.evolve(ou_unit, empty_jump_path(1.0), np.linspace(0, 1, 11))
        got = ngou.integrated_factor(fp, 0.0, 1.0)[0]
        assert got == pytest.approx(10.0 * (1 - np.exp(-1.0)), rel=1e-14)

    def test_single_jump_integral(self, ou_unit):
        jp = single_jump_path(0.5, 2.0, 1.0)
        grid = ngou.merge_grid(np.linspace(0, 1, 101), jp.times)
        fp = ngou.evolve(ou_unit, jp, grid)
        got = ngou.integrated_factor(fp, 0.0, 1.0)[0]
        # piecewise closed form computed by hand
        expect = 10.0 * (1 - np.exp(-1.0)) + 2.0 * (1 - np.exp(-0.5))
        assert got == pytest.approx(expect, rel=1e-13)
        assert got == pytest.approx(7.108144268860309, rel=1e-12)

    def test_partial_window(self, ou_unit):
        jp = single_jump_path(0.5, 2.0, 1.0)
        grid = ngou.merge_grid(np.linspace(0, 1, 101), jp.times)
        fp = ngou.evolve(ou_unit, jp, grid)
        total = ngou.integrated_factor(fp, 0.0, 1.0)
        split = ngou.integrated_factor(fp, 0.0, 0.37) + ngou.integrated_factor(fp, 0.37, 1.0)
        assert split == pytest.approx(total, rel=1e-12)
        assert np.array_equal(ngou.integrated_factor(fp, 0.37, 0.37), [0.0])

    def test_balance_identity_sampled_paths(self, ou_unit, cpe_spec):
        # lam * integral of Y over [0, T] equals y0 + L(lam T) - Y(T) exactly
        for seed in range(25):
            jp = levy.sample_jump_path([cpe_spec], 2.0, (21, seed))
            grid = ngou.merge_grid(np.linspace(0, 2, 201), jp.times)
            fp = ngou.evolve(ou_unit, jp, grid)
            lhs = 1.0 * ngou.integrated_factor(fp, 0.0, 2.0)[0]
            rhs = 10.0 + jp.totals()[0] - fp.values[-1, 0]
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    @given(
        lam=st.floats(0.2, 4.0),
        y0=st.floats(0.5, 30.0),
        jumps=st.lists(st.tuples(st.floats(0.01, 1.99), st.floats(0.01, 5.0)), max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_balance_identity_property(self, lam, y0, jumps):
        times = sorted(set(t for t, _ in jumps))
        sizes = [dict(jumps)[t] for t in times]
        jp = levy.JumpPath(np.array(times), np.zeros(len(times), dtype=np.int64),
                           np.array(sizes), 2.0, 1)
        params = ngou.OUParams([lam], [y0])
        grid = ngou.merge_grid(np.linspace(0, 2, 40), jp.times)
        fp = ngou.evolve(params, jp, grid)
        lhs = lam * ngou.integrated_factor(fp, 0.0, 2.0)[0]
        rhs = y0 + jp.totals()[0] - fp.values[-1, 0]
        assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), 1.0)


def test_params_validation():
    with pytest.raises(levy.ConfigurationError):
        ngou.OUParams([0.0], [1.0])
    with pytest.raises(levy.ConfigurationError):
        ngou.OUParams([1.0], [-1.0])
    with pytest.raises(levy.ConfigurationError):
        ngou.OUParams([1.0, 2.0], [1.0])
