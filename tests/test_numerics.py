import logging
import math

import numpy as np
import pytest

from hypothesis import given
from hypothesis import strategies as st
from scipy.special import logsumexp

from mgctm.errors import DegenerateInputError, EstimationError
from mgctm.numerics import (
    DirichletStats,
    digamma,
    dirichlet_mle,
    dirichlet_objective,
    log_gamma,
    log_normalize,
    log_normalize_with_norm,
    scale0,
    sum_in_order,
)


class TestDigamma:
    def test_value_at_one_is_negative_euler_gamma(self):
        assert math.isclose(digamma(1.0), -np.euler_gamma, rel_tol=0, abs_tol=1e-12)

    def test_half_integer_value(self):
        # psi(1/2) = -euler_gamma - 2 ln 2
        expected = -np.euler_gamma - 2.0 * math.log(2.0)
        assert math.isclose(digamma(0.5), expected, rel_tol=0, abs_tol=1e-12)

    @given(st.floats(min_value=0.1, max_value=100.0))
    def test_recurrence(self, x):
        assert math.isclose(
            digamma(x + 1.0), digamma(x) + 1.0 / x, rel_tol=1e-10, abs_tol=1e-10
        )

    def test_array_input_preserves_shape(self):
        out = digamma(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert out.shape == (2, 2)
        assert math.isclose(out[0, 1], 1.0 - np.euler_gamma, abs_tol=1e-12)

    def test_scalar_input_returns_float(self):
        assert isinstance(digamma(2.0), float)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(ValueError, match="domain"):
            digamma(bad)

    def test_nonpositive_array_entry_rejected(self):
        with pytest.raises(ValueError, match="domain"):
            digamma(np.array([1.0, 0.0]))


class TestLogGamma:
    def test_known_values(self):
        assert log_gamma(1.0) == 0.0
        assert math.isclose(log_gamma(5.0), math.log(24.0), abs_tol=1e-12)
        assert math.isclose(log_gamma(0.5), 0.5 * math.log(math.pi), abs_tol=1e-12)

    @given(st.floats(min_value=0.1, max_value=50.0))
    def test_recurrence(self, x):
        assert math.isclose(
            log_gamma(x + 1.0),
            log_gamma(x) + math.log(x),
            rel_tol=1e-10,
            abs_tol=1e-10,
        )

    def test_scalar_input_returns_float(self):
        assert isinstance(log_gamma(3.5), float)

    @pytest.mark.parametrize("bad", [0.0, -2.0])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(ValueError, match="domain"):
            log_gamma(bad)


class TestLogNormalize:
    def test_two_point_example(self):
        out = log_normalize(np.log(np.array([1.0, 3.0])))
        np.testing.assert_allclose(out, [0.25, 0.75], rtol=0, atol=1e-15)

    def test_sums_to_one(self):
        out = log_normalize(np.array([-1000.0, -1000.5, -999.0]))
        assert math.isclose(out.sum(), 1.0, abs_tol=1e-12)
        assert (out > 0).all()

    def test_minus_inf_maps_to_exact_zero(self):
        out = log_normalize(np.array([0.0, -np.inf, 1.0]))
        assert out[1] == 0.0
        assert math.isclose(out.sum(), 1.0, abs_tol=1e-12)

    def test_rows_normalized_independently(self):
        rows = np.array([[0.0, 0.0], [math.log(1.0), math.log(3.0)]])
        out = log_normalize(rows, axis=-1)
        np.testing.assert_allclose(out, [[0.5, 0.5], [0.25, 0.75]], atol=1e-15)

    def test_axis_zero(self):
        cols = np.array([[math.log(1.0)], [math.log(3.0)]])
        out = log_normalize(cols, axis=0)
        np.testing.assert_allclose(out[:, 0], [0.25, 0.75], atol=1e-15)

    def test_all_minus_inf_rejected(self):
        with pytest.raises(DegenerateInputError):
            log_normalize(np.array([-np.inf, -np.inf]))

    def test_nan_slice_rejected(self):
        with pytest.raises(DegenerateInputError):
            log_normalize(np.array([np.nan, np.nan]))

    def test_shift_invariance_exact_for_representable_shift(self):
        # Integer-valued logs plus a power-of-two shift keep every
        # intermediate exactly representable, so the outputs match bitwise.
        logs = np.array([-3.0, 0.0, 2.0, 5.0])
        shifted = log_normalize(logs + 512.0)
        np.testing.assert_array_equal(log_normalize(logs), shifted)

    @given(
        st.lists(
            st.floats(min_value=-50.0, max_value=50.0), min_size=2, max_size=6
        ),
        st.floats(min_value=-200.0, max_value=200.0),
    )
    def test_shift_invariance_general(self, logs, shift):
        logs = np.asarray(logs)
        base = log_normalize(logs)
        moved = log_normalize(logs + shift)
        np.testing.assert_allclose(base, moved, rtol=0, atol=1e-12)
        assert math.isclose(base.sum(), 1.0, abs_tol=1e-12)


    @pytest.mark.parametrize("axis", [0, -1])
    def test_with_norm_matches_log_normalize_and_logsumexp(self, axis):
        logs = np.random.default_rng(0).normal(0.0, 30.0, (5, 7))
        logs[1, 2] = -np.inf
        p, log_norm = log_normalize_with_norm(logs, axis=axis)
        np.testing.assert_array_equal(p, log_normalize(logs, axis=axis))
        np.testing.assert_allclose(log_norm, logsumexp(logs, axis=axis), rtol=1e-14)

    def test_with_norm_all_minus_inf_rejected(self):
        with pytest.raises(DegenerateInputError):
            log_normalize_with_norm(np.array([-np.inf, -np.inf]))


def short_axis_arrays(seed):
    # contiguous and strided arrays, last axis 1..12 long, with magnitudes
    # far apart (so the order of the sum shows), signed zeros, inf and nan
    rng = np.random.default_rng(seed)
    for k in range(1, 13):
        for lead in [(), (7,), (40, 3)]:
            shape = lead + (k,)
            x = rng.normal(size=shape) * 10.0 ** rng.integers(-17, 2, size=shape)
            special = rng.random(shape)
            x[special < 0.05] = -0.0
            x[(special >= 0.05) & (special < 0.08)] = 0.0
            if k > 2:
                x[..., 1][special[..., 1] < 0.02] = np.inf
                x[..., 2][special[..., 2] < 0.02] = np.nan
            yield x
            yield np.ascontiguousarray(np.swapaxes(x, 0, -1)).swapaxes(0, -1)


class TestShortAxisReductions:
    def test_log_normalize_on_short_axis_matches_reduction(self):
        rng = np.random.default_rng(5)
        for k in range(1, 12):
            logs = rng.normal(size=(30, 4, k)) * 50.0
            m = logs.max(axis=-1, keepdims=True)
            p = np.exp(logs - m)
            want = p / p.sum(axis=-1, keepdims=True)
            np.testing.assert_array_equal(log_normalize(logs), want)

    @pytest.mark.parametrize("rows", [50, 1])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_leading_axis_sums_in_index_order(self, axis, rows):
        # the E-step normalizes along the leading topic axes, where the
        # normalizer adds its terms one after another, at any length and
        # also when the trailing axis holds one document or row
        rng = np.random.default_rng(7)
        for k in range(1, 13):
            logs = rng.normal(size=(3, k, rows) if axis else (k, rows)) * 50.0
            p, norm = log_normalize_with_norm(logs, axis=axis)
            m = logs.max(axis=axis)
            e = np.exp(logs - np.expand_dims(m, axis))
            total = 0.0
            for i in range(k):
                total = total + np.take(e, i, axis=axis)
            np.testing.assert_array_equal(p, e / np.expand_dims(total, axis))
            np.testing.assert_array_equal(norm, m + np.log(total))


@pytest.mark.parametrize("shape, axis", [((12, 1), 0), ((2, 12, 1), 1), ((12, 3, 1), 0), ((4, 12), 1)])
def test_sum_in_order_has_the_bits_of_a_sum_with_two_trailing_entries(shape, axis):
    # with a second trailing entry NumPy adds a leading axis in index
    # order; on a last axis sum_in_order is NumPy's own sum
    rng = np.random.default_rng(19)
    for _ in range(50):
        x = rng.normal(size=shape[:-1] + (2,)) * 10.0 ** rng.integers(-8, 8, shape[:-1] + (2,))
        x[rng.random(x.shape) < 0.2] = -0.0
        x[..., 1] = x[..., 0]
        one = x[..., :1] if shape[-1] == 1 else x
        want = x.sum(axis=axis)[..., :1] if shape[-1] == 1 else x.sum(axis=axis)
        for keepdims in (False, True):
            got = sum_in_order(one, axis, keepdims=keepdims)
            expected = np.expand_dims(want, axis) if keepdims else want
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


def short_operand(x, rng):
    # an array of x's shape without its last axis, with signed zeros,
    # infinities and NaNs of both signs
    m = np.asarray(rng.normal(size=x.shape[:-1]) * 10.0 ** rng.integers(-3, 3, x.shape[:-1]))
    special = rng.random(m.shape)
    for lo, value in enumerate([-0.0, 0.0, np.inf, -np.inf, np.nan, -np.nan]):
        m[(special >= lo * 0.04) & (special < (lo + 1) * 0.04)] = value
    return m


def with_signed_nans(x, rng):
    x = x.copy()
    x[rng.random(x.shape) < 0.03] = -np.nan
    return x


class TestShortAxisElementwise:
    """scale0 against a masked product, bit for bit, on axes of 1-12
    entries with signed zeros, infinities and NaNs."""

    def cases(self):
        for seed in range(3):
            rng = np.random.default_rng([61, seed])
            for x in short_axis_arrays(seed):
                yield with_signed_nans(x, rng), short_operand(x, rng)

    @staticmethod
    def same_bits(got, want):
        got, want = np.asarray(got), np.asarray(want)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), got.shape

    def test_scale0_has_masked_product_bits(self):
        # c = 0 against x = -inf gives 0; c is a scale, so >= 0 or NaN; c
        # broadcasts over x's last axis, over its first, or has x's shape
        for x, m in self.cases():
            c = np.array(np.abs(m))
            c[np.isinf(c)] = 0.0
            x = x.copy()
            x[..., 0] = np.where(c == 0, -np.inf, x[..., 0])
            for c_b, x_b in (
                (c[..., None], x),
                (c, np.moveaxis(x, -1, 0).copy()),
                (np.broadcast_to(c[..., None], x.shape).copy(), x),
            ):
                got = scale0(c_b, x_b)
                with np.errstate(invalid="ignore"):
                    want = c_b * np.where(c_b > 0, x_b, 0.0)
                self.same_bits(got, want)
            assert (scale0(c[..., None], x)[..., 0][c == 0] == 0).all()

    def test_covers_every_short_length(self):
        lengths = {x.shape[-1] for x, _ in self.cases()}
        assert set(range(1, 10)) <= lengths


class TestDirichletStats:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            DirichletStats(mean_log=np.array([-1.0, np.inf]), num_obs=3.0)

    def test_holds_values(self):
        stats = DirichletStats(mean_log=np.array([-1.0, -0.5]), num_obs=4.0)
        assert stats.num_obs == 4.0
        np.testing.assert_array_equal(stats.mean_log, [-1.0, -0.5])


class TestDirichletObjective:
    def test_frozen_value(self):
        stats = DirichletStats(mean_log=np.array([-1.0, -0.5]), num_obs=4.0)
        # 4 * (log G(5) - log G(2) - log G(3) + 1*(-1.0) + 2*(-0.5))
        expected = 4.0 * (math.log(12.0) - 2.0)
        got = dirichlet_objective(np.array([2.0, 3.0]), stats)
        assert math.isclose(got, expected, rel_tol=0, abs_tol=1e-10)

    def test_scales_with_num_obs(self):
        alpha = np.array([1.5, 2.5, 0.7])
        mean_log = np.log(np.random.default_rng(3).dirichlet(alpha))
        one = dirichlet_objective(alpha, DirichletStats(mean_log, 1.0))
        five = dirichlet_objective(alpha, DirichletStats(mean_log, 5.0))
        assert math.isclose(five, 5.0 * one, rel_tol=1e-12)


def _stats_for_symmetric(a, dim, num_obs=10.0):
    mean_log = np.full(dim, digamma(a) - digamma(dim * a))
    return DirichletStats(mean_log=mean_log, num_obs=num_obs)


class TestDirichletMle:
    def test_exact_symmetric_fixed_point(self):
        # Statistics equal to the exact expectations of Dirichlet(a,...,a)
        # must return (a,...,a).
        for a in (0.3, 0.7, 2.0, 9.0):
            stats = _stats_for_symmetric(a, 3)
            est = dirichlet_mle(stats, init=np.ones(3))
            np.testing.assert_allclose(est, np.full(3, a), rtol=1e-7)

    def test_asymmetric_exact_expectations(self):
        target = np.array([0.8, 2.0, 5.0])
        mean_log = digamma(target) - digamma(target.sum())
        est = dirichlet_mle(
            DirichletStats(mean_log=mean_log, num_obs=25.0), init=np.ones(3)
        )
        np.testing.assert_allclose(est, target, rtol=1e-6)

    def test_sample_recovery(self):
        rng = np.random.default_rng(11)
        target = np.array([2.0, 5.0])
        samples = rng.dirichlet(target, size=50000)
        stats = DirichletStats(
            mean_log=np.log(samples).mean(axis=0), num_obs=float(len(samples))
        )
        est = dirichlet_mle(stats, init=np.ones(2))
        np.testing.assert_allclose(est, target, rtol=0.08)

    @given(st.integers(min_value=0, max_value=200))
    def test_objective_never_below_init(self, seed):
        rng = np.random.default_rng([29, seed])
        dim = int(rng.integers(2, 5))
        truth = rng.uniform(0.3, 6.0, dim)
        samples = rng.dirichlet(truth, size=int(rng.integers(5, 40)))
        stats = DirichletStats(
            mean_log=np.log(samples).mean(axis=0), num_obs=float(len(samples))
        )
        init = rng.uniform(0.2, 3.0, dim)
        est = dirichlet_mle(stats, init=init)
        assert (est > 0).all()
        assert dirichlet_objective(est, stats) >= dirichlet_objective(
            init, stats
        ) - 1e-9

    def test_cap_engages_on_degenerate_statistics(self):
        # mean_log at the concentration limit log(1/K) pushes the
        # estimate up without bound; it must stop at the cap, not hang.
        stats = DirichletStats(mean_log=np.full(2, math.log(0.5)), num_obs=10.0)
        est = dirichlet_mle(stats, init=np.ones(2))
        assert np.isfinite(est).all()
        assert (est <= 1e6).all()
        assert (est >= 1e5).all()

    def test_floor_keeps_estimate_positive(self):
        stats = DirichletStats(mean_log=np.array([-500.0, -700.0]), num_obs=4.0)
        est = dirichlet_mle(stats, init=np.ones(2))
        assert (est >= 1e-8).all()
        assert np.isfinite(est).all()

    def test_iteration_cap_warns_and_returns_last_iterate(self, caplog):
        target = np.array([0.8, 2.0, 5.0])
        mean_log = digamma(target) - digamma(target.sum())
        stats = DirichletStats(mean_log=mean_log, num_obs=25.0)
        with caplog.at_level(logging.WARNING, logger="mgctm.numerics"):
            est = dirichlet_mle(stats, init=np.ones(3), max_iters=1)
        assert any("hit max_iters=1" in rec.message for rec in caplog.records)
        assert np.isfinite(est).all() and (est > 0).all()
        assert dirichlet_objective(est, stats) > dirichlet_objective(np.ones(3), stats)

    def test_non_finite_start_objective_raises(self):
        stats = DirichletStats(mean_log=np.array([-1.0, -1.0]), num_obs=np.inf)
        with pytest.raises(EstimationError, match="non-finite objective") as err:
            dirichlet_mle(stats, init=np.array([2.0, 3.0]))
        np.testing.assert_array_equal(err.value.last_iterate, [2.0, 3.0])

    def test_nonpositive_num_obs_rejected(self):
        stats = DirichletStats(mean_log=np.array([-1.0, -1.0]), num_obs=0.0)
        with pytest.raises(ValueError):
            dirichlet_mle(stats, init=np.ones(2))

    def test_nonpositive_init_rejected(self):
        stats = DirichletStats(mean_log=np.array([-1.0, -1.0]), num_obs=2.0)
        with pytest.raises(ValueError):
            dirichlet_mle(stats, init=np.array([1.0, 0.0]))

    def test_infinite_init_clipped_to_cap(self):
        # inf is strictly positive, so it is clipped rather than rejected
        stats = DirichletStats(mean_log=np.array([-1.0, -1.0]), num_obs=2.0)
        fitted = dirichlet_mle(stats, init=np.array([np.inf, 1.0]))
        assert np.all(np.isfinite(fitted))
        assert np.all(fitted > 0)
