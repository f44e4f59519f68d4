import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvhedge import levy, validate

from conftest import event_path


class TestSpecs:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(levy.ConfigurationError):
            levy.CompoundPoissonExp(-1.0, 8.0)
        with pytest.raises(levy.ConfigurationError):
            levy.CompoundPoissonExp(10.0, 0.0)
        with pytest.raises(levy.ConfigurationError):
            levy.TableMeasure(((0.0, 1.0),))
        with pytest.raises(levy.ConfigurationError):
            levy.TableMeasure(((1.0, -2.0),))

    def test_moment_condition_at_critical_order(self):
        spec = levy.CompoundPoissonExp(10.0, 8.0)
        for order in (8.0, 9.5):
            check = validate.moment_condition_rejects(spec, order)
            assert check.ok, check.detail
        check = validate.moment_condition_rejects(spec, 7.9)
        assert not check.ok and check.detail == "no error raised"

    def test_empty_table_is_valid_no_jump_spec(self):
        spec = levy.TableMeasure(())
        assert spec.total_intensity == 0.0
        assert levy.exp_moment_rate(spec, 50.0) == 0.0


class TestExpMomentRate:
    def test_zero_order(self):
        assert levy.exp_moment_rate(levy.CompoundPoissonExp(10.0, 8.0), 0.0) == 0.0

    def test_exponential_closed_form(self):
        # oracle: mu*mu1*integral (e^z - 1) e^(-mu1 z) dz = mu*c/(mu1-c)
        got = levy.exp_moment_rate(levy.CompoundPoissonExp(10.0, 8.0), 1.0)
        assert got == pytest.approx(10.0 / 7.0, rel=1e-14)

    def test_exponential_vs_quadrature(self):
        check = validate.moment_rate_quadrature(levy.CompoundPoissonExp(10.0, 8.0), 1.3, 400, 20.0)
        assert check.ok, check.detail

    def test_table_direct_sum(self):
        got = levy.exp_moment_rate(levy.TableMeasure(((1.0, 2.0),)), 1.0)
        assert got == pytest.approx(2.0 * (math.e - 1.0), rel=1e-14)

    @given(c=st.floats(0.0, 7.0), mu=st.floats(0.1, 50.0), mu1=st.floats(7.5, 40.0))
    @settings(max_examples=60, deadline=None)
    def test_rate_nonnegative_and_increasing(self, c, mu, mu1):
        spec = levy.CompoundPoissonExp(mu, mu1)
        lo = levy.exp_moment_rate(spec, c)
        hi = levy.exp_moment_rate(spec, min(c + 0.25, mu1 * 0.99))
        assert lo >= 0.0
        assert hi >= lo


class TestSampling:
    def test_zero_horizon_empty(self):
        events = levy.sample_jump_path([levy.CompoundPoissonExp(10.0, 8.0)], 0.0, 3, 0)
        assert len(events) == 0 and np.array_equal(events.offsets, [0, 0, 0, 0])

    def test_reproducible_bit_identical(self):
        spec = [levy.CompoundPoissonExp(10.0, 8.0), levy.TableMeasure(((0.5, 3.0), (2.0, 1.0)))]
        check = validate.jump_sampling_reproducible(spec, 3.0, 64, 12345)
        assert check.ok, check.detail

    def test_event_count_statistics(self):
        check = validate.event_count_statistics([levy.CompoundPoissonExp(10.0, 8.0, 1.0)], 200.0, 10000, 9)
        assert check.ok, check.detail

    def test_table_mass_statistics(self):
        # oracle: total mass mean = lam*nu*z*T = 2*1*5 = 10
        spec = [levy.TableMeasure(((1.0, 2.0),), 1.0)]
        n_seeds = 600
        masses = levy.sample_jump_path(spec, 5.0, n_seeds, 11).totals()[:, 0]
        band = 3.0 * math.sqrt(10.0 / n_seeds)  # variance lam*nu*z^2*T
        assert abs(masses.mean() - 10.0) <= band

    def test_exponential_moment_monte_carlo(self):
        check = validate.exponential_moment(levy.CompoundPoissonExp(10.0, 8.0, 1.0), 2.0, 100000, (13,))
        assert check.ok, check.detail


def test_jump_quadrature_integrates_levy_measure():
    spec = levy.CompoundPoissonExp(10.0, 8.0)
    z, w = levy.jump_quadrature(spec, 1e-10, 32)
    # total mass and first moment against closed forms
    assert w.sum() == pytest.approx(10.0, rel=1e-8)
    assert (w @ z) == pytest.approx(10.0 / 8.0, rel=1e-8)
    zt, wt = levy.jump_quadrature(levy.TableMeasure(((1.0, 2.0), (0.25, 4.0))))
    assert wt.sum() == pytest.approx(6.0)
    assert (wt @ zt) == pytest.approx(2.0 + 1.0)


@pytest.mark.parametrize("specs", [
    [levy.CompoundPoissonExp(10.0, 8.0, 1.0)],
    [levy.CompoundPoissonExp(6.0, 4.0, 1.5), levy.TableMeasure(((0.5, 3.0), (2.0, 4.0)), 0.7)],
], ids=["cpe", "cpe_and_table"])
def test_sampler_postconditions(specs):
    # the sampler does not check its draws; they must pass the checks,
    # path by path and as one packed chunk, in (time, component) order
    from mvhedge import market

    h = len(specs)
    events = levy.sample_jump_path(specs, 2.0, 2000, 17)
    assert (events.times.dtype, events.components.dtype, events.sizes.dtype) == (float, np.int64, float)
    assert events.n_paths == 2000 and events.offsets[-1] == len(events)
    for i in range(events.n_paths):
        jp = event_path(events, i)
        assert np.array_equal(np.lexsort((jp.components, jp.times)), np.arange(len(jp)))
    record = market.JumpRecord.pack([events], market.GridConfig(2.0, 0.1))
    assert np.bincount(record.components, minlength=h).min() > 1000


def test_sampler_law():
    # 20k paths of one block stream: the event count's mean and variance
    # against Poisson(rate), the jump size's mean against 1/mu1, each
    # within 4 standard errors
    spec = levy.CompoundPoissonExp(10.0, 8.0, 1.5)
    horizon, n = 2.0, 20_000
    events = levy.sample_jump_path([spec], horizon, n, 23)
    counts = np.diff(events.offsets)
    rate = spec.event_rate * spec.time_scale * horizon
    # a Poisson count has variance rate and fourth central moment rate + 3 rate^2
    assert abs(counts.mean() - rate) <= 4 * math.sqrt(rate / n)
    assert abs(counts.var(ddof=1) - rate) <= 4 * math.sqrt((rate + 2 * rate**2) / n)
    sizes = events.sizes
    assert abs(sizes.mean() - 1 / spec.jump_rate) <= 4 * sizes.std(ddof=1) / math.sqrt(sizes.size)


@pytest.mark.parametrize("build, message", [
    (lambda: levy.CompoundPoissonExp(10.0, 8.0, 0.0), "time_scale must be positive"),
    (lambda: levy.TableMeasure(((1.0, 1.0),), -1.0), "time_scale must be positive"),
    (lambda: levy.sample_jump_path([levy.CompoundPoissonExp(10.0, 8.0)], -0.5, 1, 1), "horizon must be nonnegative"),
], ids=["exp_time_scale", "table_time_scale", "negative_horizon"])
def test_input_guards(build, message):
    with pytest.raises(levy.ConfigurationError, match=message):
        build()
