"""Procedural seed models and synthetic shape generation."""

from __future__ import annotations

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdmorder import (
    OrderOutOfRange,
    load_pdm,
    make_seed_pdm_procedural,
    noise_variance,
    parse_spectrum,
    sample_shapes,
    save_pdm,
)
from pdmorder import simgen
from pdmorder.simgen import _draw_coeffs


def _similarity_fields(mean: np.ndarray) -> np.ndarray:
    """Orthonormal translation / scale / rotation directions at a mean shape."""
    n = mean.size
    tx = np.zeros(n)
    tx[0::2] = 1.0
    ty = np.zeros(n)
    ty[1::2] = 1.0
    scale = mean.copy()
    rot = np.empty(n)
    rot[0::2] = -mean[1::2]
    rot[1::2] = mean[0::2]
    q, _ = np.linalg.qr(np.column_stack([tx, ty, scale, rot]))
    return q


class TestSpectra:
    def test_geometric_ratio_span(self):
        lam = parse_spectrum("geometric:0.7", 10)
        assert lam[0] / lam[9] == pytest.approx(0.7 ** -9, rel=1e-12)

    def test_geometric_default_top(self):
        assert parse_spectrum("geometric:0.5", 3)[0] == 0.01

    def test_geometric_validation(self):
        with pytest.raises(ValueError):
            parse_spectrum("geometric:0.0", 3)
        with pytest.raises(ValueError):
            parse_spectrum("geometric:1.5", 3)
        with pytest.raises(ValueError):
            parse_spectrum("geometric:0.5:0.0", 3)

    def test_parse_geometric(self):
        np.testing.assert_allclose(
            parse_spectrum("geometric:0.5:2.0", 3), [2.0, 1.0, 0.5]
        )
        np.testing.assert_array_equal(
            parse_spectrum("geometric:0.7", 10), 0.01 * 0.7 ** np.arange(10, dtype=float)
        )

    def test_parse_list(self):
        np.testing.assert_array_equal(parse_spectrum("list:4,2,1", 3), [4.0, 2.0, 1.0])

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_spectrum("list:4,2", 3)
        with pytest.raises(ValueError):
            parse_spectrum("list:1,2,4", 3)
        with pytest.raises(ValueError):
            parse_spectrum("list:4,2,-1", 3)
        with pytest.raises(ValueError):
            parse_spectrum("harmonic:0.5", 3)
        with pytest.raises(ValueError):
            parse_spectrum("geometric:0.5:1.0:9", 3)

    def test_geometric_underflow_is_refused(self):
        # 0.01 * 1e-200**2 underflows to 0.0: the list form's zero check
        # covers the geometric form too.
        with pytest.raises(ValueError, match="strictly positive"):
            parse_spectrum("geometric:1e-200", 3)

    @given(
        ratio=st.one_of(st.floats(min_value=0.0, max_value=1.0, exclude_min=True), st.floats()),
        top=st.one_of(
            st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), st.floats()
        ),
        order=st.integers(min_value=1, max_value=40),
    )
    @example(ratio=0.0, top=0.01, order=1)
    @example(ratio=-1.0, top=0.01, order=1)
    @example(ratio=1.5, top=0.01, order=3)
    @example(ratio=math.nan, top=0.01, order=3)
    @example(ratio=0.5, top=math.nan, order=3)
    @example(ratio=0.5, top=math.inf, order=3)
    @example(ratio=1e-200, top=math.inf, order=3)
    @example(ratio=0.5, top=0.0, order=3)
    @example(ratio=0.5, top=-1.0, order=3)
    def test_geometric_parse_is_valid_or_refused(self, ratio, top, order):
        spec = f"geometric:{ratio!r}:{top!r}"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if not (0.0 < ratio <= 1.0 and 0.0 < top < math.inf):
                with pytest.raises(ValueError):
                    parse_spectrum(spec, order)
                return
            try:
                values = parse_spectrum(spec, order)
            except ValueError:
                return
        assert values.shape == (order,)
        assert np.all(np.isfinite(values)) and np.all(values > 0)
        assert np.all(np.diff(values) <= 0)


class TestProceduralSeed:
    def test_basis_orthonormal(self):
        seed = make_seed_pdm_procedural(40, 10, "geometric:0.7", rng_seed=11)
        basis = seed.basis
        gram = basis.T @ basis
        assert np.max(np.abs(gram - np.eye(10))) < 1e-10

    def test_basis_orthogonal_to_similarity_fields(self):
        seed = make_seed_pdm_procedural(40, 10, "geometric:0.7", rng_seed=11)
        fields = _similarity_fields(seed.mean)
        overlap = fields.T @ seed.basis
        assert np.max(np.abs(overlap)) < 1e-10

    def test_mean_centered_unit_size(self):
        seed = make_seed_pdm_procedural(24, 5, "geometric:0.7", rng_seed=3)
        mean = seed.mean
        assert abs(mean[0::2].sum()) < 1e-12
        assert abs(mean[1::2].sum()) < 1e-12
        assert np.linalg.norm(mean) == pytest.approx(1.0)

    def test_deterministic(self):
        a = make_seed_pdm_procedural(20, 6, "geometric:0.8", rng_seed=5)
        b = make_seed_pdm_procedural(20, 6, "geometric:0.8", rng_seed=5)
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.basis, b.basis)
        c = make_seed_pdm_procedural(20, 6, "geometric:0.8", rng_seed=6)
        assert not np.array_equal(a.basis, c.basis)

    def test_order_cap(self):
        # Four directions are reserved for the similarity fields.
        make_seed_pdm_procedural(4, 4, "geometric:0.7", rng_seed=0)
        with pytest.raises(OrderOutOfRange):
            make_seed_pdm_procedural(4, 5, "geometric:0.7", rng_seed=0)

    def test_explicit_spectrum_sequence(self):
        seed = make_seed_pdm_procedural(10, 3, "list:4,2,1", rng_seed=1)
        np.testing.assert_array_equal(seed.lambdas, [4.0, 2.0, 1.0])

    def test_too_few_landmarks(self):
        with pytest.raises(ValueError):
            make_seed_pdm_procedural(3, 1, "geometric:0.7", rng_seed=0)

    def test_wrap_existing_model(self, tmp_path):
        # A stored model is a generator like the one it was saved from: the
        # 17-digit store round-trips it, so the draws match bit for bit.
        seed = make_seed_pdm_procedural(10, 3, "geometric:0.7", rng_seed=2)
        save_pdm(seed, tmp_path / "model.pdm")
        loaded = load_pdm(tmp_path / "model.pdm")
        assert np.array_equal(
            sample_shapes(loaded, 6, 20.0, 3).as_matrix(),
            sample_shapes(seed, 6, 20.0, 3).as_matrix(),
        )


class TestNoiseVariance:
    def test_uniform_keying(self):
        lam = np.array([4.0, 2.0, 1.0])
        # Uniform draws on (-w, w) realize a third of the box variance, so
        # the weakest mode's data eigenvalue is lambda/3.
        assert noise_variance(lam, 10.0) == pytest.approx((1.0 / 3.0) / 10.0)
        assert noise_variance(lam, 0.0) == pytest.approx(1.0 / 3.0)

    def test_beta_step_is_factor_ten(self):
        lam = np.array([1.0])
        assert noise_variance(lam, 5.0) / noise_variance(lam, 15.0) == pytest.approx(10.0)

    def test_gaussian_keying_matches_empirical_truncation(self):
        # Independent oracle: realize the truncated draw scheme directly and
        # compare its variance against the closed-form factor.
        rng = np.random.default_rng(0)
        draws = rng.normal(0.0, 1.0, 2_000_000)
        bad = np.abs(draws) > 1.0
        while np.any(bad):
            draws[bad] = rng.normal(0.0, 1.0, int(bad.sum()))
            bad = np.abs(draws) > 1.0
        factor = float(np.var(draws))
        assert noise_variance(np.array([1.0]), 0.0, "gaussian") == pytest.approx(
            factor, rel=0.01
        )

    def test_unknown_distribution(self):
        with pytest.raises(ValueError):
            noise_variance(np.array([1.0]), 0.0, "laplace")

    def test_underflow_is_noiseless_like_inf(self):
        # 10^(3100/10) is past the float range; the variance is 0, as at inf.
        lam = np.array([4.0, 2.0, 1.0])
        assert noise_variance(lam, 3100.0) == noise_variance(lam, math.inf) == 0.0

    @pytest.mark.parametrize("beta_db", [math.nan, -math.inf, -4000.0])
    def test_variance_that_is_not_finite_is_refused(self, beta_db):
        with pytest.raises(ValueError, match="noise variance"):
            noise_variance(np.array([4.0, 2.0, 1.0]), beta_db)

    @given(
        beta_db=st.floats(allow_nan=False),
        smallest=st.floats(1e-300, 1e300),
        b_dist=st.sampled_from(["uniform", "gaussian"]),
    )
    @example(beta_db=math.inf, smallest=1.0, b_dist="uniform")
    @example(beta_db=-math.inf, smallest=1.0, b_dist="uniform")
    @example(beta_db=3100.0, smallest=1.0, b_dist="uniform")
    @example(beta_db=-4000.0, smallest=1.0, b_dist="uniform")
    @example(beta_db=-100.0, smallest=1e300, b_dist="gaussian")
    @example(beta_db=3000.0, smallest=1e-300, b_dist="uniform")
    def test_finite_and_non_negative_or_refused(self, beta_db, smallest, b_dist):
        # Wherever the plain formula factor * lambda / 10^(beta_db / 10) is
        # finite (a power past the float range counting as inf), the result
        # is that value bit for bit; elsewhere it is refused.  Never a
        # warning or another error.
        lam = np.array([1e300, smallest])
        factor = noise_variance(np.array([1.0]), 0.0, b_dist)
        try:
            power = 10.0 ** (beta_db / 10.0)
        except OverflowError:
            power = math.inf
        with np.errstate(all="ignore"):
            plain = float(factor * lam[-1] / power)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if 0.0 <= plain < math.inf:
                assert noise_variance(lam, beta_db, b_dist) == plain
            else:
                with pytest.raises(ValueError):
                    noise_variance(lam, beta_db, b_dist)


class TestSampling:
    @pytest.fixture
    def no_draw(self, monkeypatch):
        def refuse(*args):
            pytest.fail("a coefficient was drawn before the arguments were checked")

        monkeypatch.setattr(simgen, "_draw_coeffs", refuse)

    def _seed(self):
        return make_seed_pdm_procedural(40, 10, "geometric:0.7", rng_seed=11)

    def test_bit_identical_regeneration(self):
        seed = self._seed()
        a = sample_shapes(seed, 30, 10.0, 42)
        b = sample_shapes(seed, 30, 10.0, 42)
        np.testing.assert_array_equal(a.as_matrix(), b.as_matrix())
        assert a.aligned

    def test_seed_changes_data(self):
        seed = self._seed()
        a = sample_shapes(seed, 10, 10.0, 1)
        b = sample_shapes(seed, 10, 10.0, 2)
        assert not np.array_equal(a.as_matrix(), b.as_matrix())

    def test_per_sample_streams_give_prefix_property(self):
        # Sample counts only extend the set; a shorter run is a prefix of a
        # longer one before re-alignment mixes the samples together.
        seed = self._seed()
        small = sample_shapes(seed, 6, 10.0, 9, realign=False)
        large = sample_shapes(seed, 10, 10.0, 9, realign=False)
        np.testing.assert_array_equal(large.as_matrix()[:, :6], small.as_matrix())

    def test_noiseless_untransformed_lies_in_model_span(self):
        model = self._seed()
        ss = sample_shapes(
            model, 12, math.inf, 13,
            rotation=0.0, log_scale=0.0, translation=0.0, realign=False,
        )
        assert noise_variance(model.lambdas, math.inf) == 0.0
        dev = ss.as_matrix() - model.mean[:, None]
        coeffs = model.basis.T @ dev
        resid = dev - model.basis @ coeffs
        assert np.max(np.abs(resid)) < 1e-10
        # The recovered coefficients are the first draws of each sample's stream.
        drawn = np.column_stack([
            _draw_coeffs(np.random.default_rng((13, sample)), np.sqrt(model.lambdas), "uniform")
            for sample in range(12)
        ])
        np.testing.assert_allclose(coeffs, drawn, rtol=0, atol=1e-12)

    def test_truth_bookkeeping(self):
        # Untransformed and not realigned, each sample is the mean plus its
        # in-box coefficients and the noise at noise_variance, drawn in that
        # order from the sample's own stream.
        seed = self._seed()
        limits = np.sqrt(seed.lambdas)
        sigma = math.sqrt(noise_variance(seed.lambdas, 5.0))
        expected = np.empty((80, 25))
        for sample in range(25):
            rng = np.random.default_rng((14, sample))
            b = _draw_coeffs(rng, limits, "uniform")
            assert b.shape == (10,) and np.all(np.abs(b) <= limits)
            expected[:, sample] = seed.mean + seed.basis @ b + sigma * rng.standard_normal(80)
        actual = sample_shapes(
            seed, 25, 5.0, 14, rotation=0.0, log_scale=0.0, translation=0.0, realign=False
        )
        np.testing.assert_array_equal(actual.as_matrix(), expected)

    def test_gaussian_draws_stay_in_box(self):
        # The coefficients of sample_shapes(model, 50, beta_db, 15,
        # b_dist="gaussian"), drawn from the same per-sample streams.
        limits = np.sqrt(self._seed().lambdas)
        coeffs = np.column_stack([
            _draw_coeffs(np.random.default_rng((15, sample)), limits, "gaussian")
            for sample in range(50)
        ])
        assert np.all(np.abs(coeffs) <= limits[:, None])
        # Truncation must actually bite somewhere at this draw count.
        assert np.max(np.abs(coeffs) / limits[:, None]) > 0.9

    def test_noise_power_scales_with_beta(self):
        # Independent data route: project generated samples onto the
        # complement of the true modes and compare residual powers across a
        # 10 dB step.
        model = self._seed()

        def resid_power(beta: float, rng_seed: int) -> float:
            ss = sample_shapes(
                model, 2000, beta, rng_seed,
                rotation=0.0, log_scale=0.0, translation=0.0, realign=False,
            )
            dev = ss.as_matrix() - model.mean[:, None]
            resid = dev - model.basis @ (model.basis.T @ dev)
            return float(np.mean(resid * resid))

        ratio = resid_power(5.0, 16) / resid_power(15.0, 17)
        assert ratio == pytest.approx(10.0, rel=0.05)

    def test_spectral_gap_at_large_sample(self):
        seed = self._seed()
        ss = sample_shapes(
            seed, 1000, 20.0, 71,
            rotation=0.0, log_scale=0.0, translation=0.0, realign=False,
        )
        mat = ss.as_matrix()
        centered = mat - mat.mean(axis=1, keepdims=True)
        vals = np.sort(np.linalg.eigvalsh(centered @ centered.T / 1000))[::-1]
        assert vals[9] / vals[10] >= 10.0

    def test_realignment_colors_the_noise(self):
        # Both branches project out the true modes; the aligned branch then
        # shows the Procrustes fingerprint: per-sample similarity components
        # of the noise are absorbed by the alignment, draining the residual
        # energy along the similarity fields and raising the off-diagonal
        # correlation level.
        model = self._seed()
        fields = _similarity_fields(model.mean)

        def stats(realign: bool) -> tuple[float, float]:
            ss = sample_shapes(
                model, 500, 5.0, 70,
                rotation=0.0, log_scale=0.0, translation=0.0, realign=realign,
            )
            mat = ss.as_matrix()
            centered = mat - mat.mean(axis=1, keepdims=True)
            resid = centered - model.basis @ (model.basis.T @ centered)
            rcov = resid @ resid.T / mat.shape[1]
            std = np.sqrt(np.diag(rcov))
            corr = rcov / np.outer(std, std)
            mask = ~np.eye(corr.shape[0], dtype=bool)
            mean_corr = float(np.mean(np.abs(corr[mask])))
            sim_energy = float(np.sum((fields.T @ resid) ** 2) / np.sum(resid * resid))
            return mean_corr, sim_energy

        aligned_corr, aligned_energy = stats(True)
        white_corr, white_energy = stats(False)
        # White noise spreads evenly: 4 similarity directions out of the 70
        # that survive the signal projection.
        assert white_energy > 0.04
        assert aligned_energy < 0.015
        assert aligned_corr > white_corr + 0.001

    def test_config_validation(self, no_draw):
        seed = self._seed()
        with pytest.raises(ValueError, match="at least 2 samples"):
            sample_shapes(seed, 1, 10.0, 0)
        with pytest.raises(ValueError, match="nan puts the noise variance"):
            sample_shapes(seed, 10, math.nan, 0)
        with pytest.raises(ValueError, match="-inf"):
            sample_shapes(seed, 10, -math.inf, 0)
        with pytest.raises(ValueError, match="unknown coefficient distribution 'cauchy'"):
            sample_shapes(seed, 10, 10.0, 0, b_dist="cauchy")

    @pytest.mark.parametrize("width", [math.nan, math.inf, -math.inf, -1.0, 1e308])
    @pytest.mark.parametrize("name", ["rotation", "log_scale", "translation"])
    def test_pose_half_width_refused_before_any_draw(self, no_draw, name, width):
        # numpy would fail inside the first sample instead: an OverflowError
        # for a range that is NaN or not finite (1e308 - -1e308 included),
        # "high - low < 0" for a negative one.
        with pytest.raises(ValueError, match=f"{name} half-width must be >= 0 with a finite span"):
            sample_shapes(self._seed(), 10, 10.0, 0, **{name: width})

    _POSE_SEED = make_seed_pdm_procedural(8, 3, "geometric:0.7", rng_seed=19)
    _SPREAD = math.log(simgen.POSE_SPREAD_MAX)

    @given(
        rotation=st.one_of(st.floats(), st.floats(0.0, 10.0)),
        log_scale=st.one_of(st.floats(), st.floats(0.0, 10.0)),
        translation=st.one_of(st.floats(), st.floats(0.0, 2e6)),
        realign=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rotation=-0.0, log_scale=-0.0, translation=-0.0, realign=False, seed=0)
    @example(rotation=1.0, log_scale=1000.0, translation=0.5, realign=True, seed=0)
    @example(rotation=1.0, log_scale=300.0, translation=0.5, realign=True, seed=0)
    @example(rotation=1.0, log_scale=0.2, translation=1e200, realign=True, seed=0)
    @example(rotation=1e300, log_scale=_SPREAD / 2 * (1 - 1e-12), translation=0.0,
             realign=True, seed=1)
    @example(rotation=3.0, log_scale=0.0, translation=(2.0**20 - 1) / 2 * (1 - 1e-12),
             realign=True, seed=2)
    @settings(max_examples=150, deadline=None)
    def test_any_pose_gives_a_set_or_is_refused_before_any_draw(
        self, rotation, log_scale, translation, realign, seed
    ):
        # Over the whole float range: the generator returns a finite set (an
        # aligned one when it realigns) or refuses the pose with a ValueError
        # before it draws anything, and it refuses exactly the poses whose
        # spread exp(2 * log_scale) * (1 + 2 * translation) passes the cap.
        with mock.patch.object(simgen, "_draw_coeffs", wraps=_draw_coeffs) as draws:
            try:
                shapes = sample_shapes(
                    self._POSE_SEED, 6, 20.0, seed, rotation=rotation, log_scale=log_scale,
                    translation=translation, realign=realign,
                )
            except ValueError:
                assert draws.call_count == 0
                refused = True
            else:
                assert shapes.n_shapes == 6 and shapes.aligned == realign
                assert np.all(np.isfinite(shapes.as_matrix()))
                refused = False
        widths = (rotation, log_scale, translation)
        if all(0.0 <= 2.0 * w < math.inf for w in widths):
            assert refused == (2.0 * log_scale + math.log1p(2.0 * translation) > self._SPREAD)

    def test_transformed_samples_move(self):
        seed = self._seed()
        posed = sample_shapes(seed, 8, 20.0, 18, realign=False)
        flat = sample_shapes(
            seed, 8, 20.0, 18, rotation=0.0, log_scale=0.0, translation=0.0, realign=False
        )
        # Same coefficients and noise, different poses.
        assert not posed.aligned
        assert np.max(np.abs(posed.as_matrix() - flat.as_matrix())) > 0.1
