import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvhedge import levy, validate


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
        jp = levy.sample_jump_path([levy.CompoundPoissonExp(10.0, 8.0)], 0.0, 0)
        assert len(jp) == 0

    def test_reproducible_bit_identical(self):
        spec = [levy.CompoundPoissonExp(10.0, 8.0), levy.TableMeasure(((0.5, 3.0), (2.0, 1.0)))]
        check = validate.jump_sampling_reproducible(spec, 3.0, 12345)
        assert check.ok, check.detail

    def test_event_count_statistics(self):
        check = validate.event_count_statistics([levy.CompoundPoissonExp(10.0, 8.0, 1.0)], 200.0, 10000, 9)
        assert check.ok, check.detail

    def test_table_mass_statistics(self):
        # oracle: total mass mean = lam*nu*z*T = 2*1*5 = 10
        spec = [levy.TableMeasure(((1.0, 2.0),), 1.0)]
        n_seeds = 600
        masses = np.fromiter(
            (levy.sample_jump_path(spec, 5.0, (11, i)).totals()[0] for i in range(n_seeds)), dtype=float
        )
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
    # the sampler skips the per-path checks; its draws must pass them,
    # path by path and as one packed chunk, in (time, component) order
    from mvhedge import market

    h = len(specs)
    paths = [levy.sample_jump_path(specs, 2.0, levy.rng_for_path(17, i)) for i in range(2000)]
    for jp in paths:
        assert (jp.times.dtype, jp.components.dtype, jp.sizes.dtype) == (float, np.int64, float)
        assert np.array_equal(np.lexsort((jp.components, jp.times)), np.arange(len(jp)))
        levy.JumpPath(jp.times, jp.components, jp.sizes, jp.horizon, h)
    rj = market._pack_jumps(paths, market.GridConfig(2.0, 0.1), len(paths), h)
    assert np.bincount(rj.components, minlength=h).min() > 1000


# path indices on both sides of 2**32 and up to 2**64
SEED_INTS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                      st.integers(2**32 - 4, 2**32 + 4), st.sampled_from([0, 2**64 - 1]))


def seed_sequence_rng(master, index):
    return np.random.default_rng(np.random.SeedSequence((master, index)))


@settings(max_examples=60, deadline=None)
@given(master=SEED_INTS, first=SEED_INTS, count=st.integers(1, 6))
def test_path_streams_match_seed_sequence(master, first, count):
    # a block's derived PCG64 states are numpy's own SeedSequence streams
    first = min(first, 2**64 - count)
    rng = np.random.Generator(np.random.PCG64())
    for i, state in enumerate(levy.path_states(master, first, count)):
        ref = seed_sequence_rng(master, first + i)
        assert state == ref.bit_generator.state
        rng.bit_generator.state = state
        assert np.array_equal(rng.standard_normal(64), ref.standard_normal(64))
    fresh = levy.rng_for_path(master, first)
    assert np.array_equal(fresh.standard_normal(64), seed_sequence_rng(master, first).standard_normal(64))


def test_streams_beyond_64_bits_take_seed_sequence():
    # seeds past two 32-bit words change numpy's entropy layout: no fast hash
    master, first = 2**64 + 5, 2**32 - 2
    states = levy.path_states(master, first, 4)
    assert states == [seed_sequence_rng(master, first + i).bit_generator.state for i in range(4)]
    assert levy.path_states(7, 2**64 - 1, 2)[0] == seed_sequence_rng(7, 2**64 - 1).bit_generator.state
    with pytest.raises(ValueError):
        levy.path_states(-1, 0, 2)


@pytest.mark.parametrize("build, message", [
    (lambda: levy.CompoundPoissonExp(10.0, 8.0, 0.0), "time_scale must be positive"),
    (lambda: levy.TableMeasure(((1.0, 1.0),), -1.0), "time_scale must be positive"),
    (lambda: levy.sample_jump_path([levy.CompoundPoissonExp(10.0, 8.0)], -0.5, 1), "horizon must be nonnegative"),
], ids=["exp_time_scale", "table_time_scale", "negative_horizon"])
def test_input_guards(build, message):
    with pytest.raises(levy.ConfigurationError, match=message):
        build()
