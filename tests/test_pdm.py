"""Eigenmodel fitting, truncation, the coefficient box, and projection."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmorder import (
    DimensionMismatch,
    NotAligned,
    OrderOutOfRange,
    ParseError,
    PdmModel,
    ShapeSet,
    SingularSystem,
    ZeroVariance,
    clamp_to_box,
    fit_pdm,
    load_pdm,
    project_constrained,
    save_pdm,
    truncate,
)
from pdmorder.order_select import select_order_variance
from pdmorder import pdm as pdm_module
from pdmorder.pdm import (
    RANK_REL_TOL,
    _failures,
    _fit,
    _fix_signs,
    _modes,
    _orthonormal,
    _project_stacked,
    _rank,
    _safe_ratio,
)


def _aligned_random_set(rng: np.random.Generator, n: int, m: int) -> ShapeSet:
    """Random shape set whose mean centroid sits at the origin."""
    mat = rng.standard_normal((n, m))
    # Center each shape so every centroid (and hence the mean) is zero.
    for col in range(m):
        z = mat[0::2, col].mean()
        w = mat[1::2, col].mean()
        mat[0::2, col] -= z
        mat[1::2, col] -= w
    return ShapeSet(mat, aligned=True)


def _biased_cov(mat: np.ndarray) -> np.ndarray:
    centered = mat - mat.mean(axis=1, keepdims=True)
    return centered @ centered.T / mat.shape[1]


def _random_truncated(rng: np.random.Generator, n: int = 8, t: int = 3) -> PdmModel:
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lambdas = np.sort(rng.uniform(0.5, 4.0, t))[::-1]
    return PdmModel(mean=np.zeros(n), basis=q[:, :t], lambdas=lambdas, n_train=0)


class TestFitPdm:
    def test_requires_alignment(self):
        rng = np.random.default_rng(0)
        ss = ShapeSet(rng.standard_normal((6, 5)))
        with pytest.raises(NotAligned):
            fit_pdm(ss)

    def test_identical_shapes_zero_spectrum(self):
        # No mode carries variance, so there is no model to keep.
        mat = np.tile(np.array([1.0, -1.0, -1.0, 1.0])[:, None], (1, 4))
        with pytest.raises(ZeroVariance):
            fit_pdm(ShapeSet(mat, aligned=True))

    def test_hand_computed_two_coordinate_spectrum(self):
        # Three samples whose first coordinate takes 1, -1, 0 and all other
        # coordinates stay 0.  Biased variance of (1, -1, 0) is 2/3, so the
        # spectrum is (2/3, 0, 0, 0) and the model keeps the one mode e_1.
        mat = np.zeros((4, 3))
        mat[0] = [1.0, -1.0, 0.0]
        model = fit_pdm(ShapeSet(mat, aligned=True))
        assert model.order == 1
        np.testing.assert_allclose(model.lambdas, [2.0 / 3.0], rtol=1e-14)
        np.testing.assert_allclose(model.basis[:, 0], [1.0, 0.0, 0.0, 0.0], atol=1e-14)

    def test_mean_matches_column_mean(self):
        rng = np.random.default_rng(1)
        ss = _aligned_random_set(rng, 8, 12)
        model = fit_pdm(ss)
        np.testing.assert_allclose(model.mean, ss.as_matrix().mean(axis=1), atol=1e-14)
        assert model.n_train == 12

    def test_spectrum_sums_to_trace(self):
        rng = np.random.default_rng(2)
        ss = _aligned_random_set(rng, 10, 30)
        model = fit_pdm(ss)
        trace = float(np.trace(_biased_cov(ss.as_matrix())))
        assert np.sum(model.lambdas) == pytest.approx(trace, rel=1e-8)

    def test_covariance_reconstruction(self):
        rng = np.random.default_rng(3)
        ss = _aligned_random_set(rng, 10, 25)
        model = fit_pdm(ss)
        expected = _biased_cov(ss.as_matrix())
        rebuilt = (model.basis * model.lambdas) @ model.basis.T
        assert np.max(np.abs(rebuilt - expected)) < 1e-8

    def test_eigvec_orthonormality(self):
        rng = np.random.default_rng(4)
        model = fit_pdm(_aligned_random_set(rng, 12, 40))
        # Centred shapes span at most N - 2 = 10 directions.
        assert model.order == 10
        gram = model.basis.T @ model.basis
        assert np.max(np.abs(gram - np.eye(model.order))) < 1e-10

    def test_sign_convention(self):
        rng = np.random.default_rng(5)
        model = fit_pdm(_aligned_random_set(rng, 8, 20))
        for col in model.basis.T:
            assert col[np.argmax(np.abs(col))] > 0

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        ss = _aligned_random_set(rng, 8, 20)
        a = fit_pdm(ss)
        b = fit_pdm(ss)
        np.testing.assert_array_equal(a.basis, b.basis)
        np.testing.assert_array_equal(a.lambdas, b.lambdas)


def _eigh_oracle(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descending spectrum and eigenvectors of the biased covariance C C^T / M."""
    centered = mat - mat.mean(axis=1, keepdims=True)
    vals, vecs = np.linalg.eigh(centered @ centered.T / mat.shape[1])
    return np.clip(vals[::-1], 0.0, None), vecs[:, ::-1]


class TestModes:
    @pytest.mark.parametrize("m", [5, 30])
    def test_fit_keeps_the_complete_basis_behind_the_model(self, m):
        # M < N and M > N: the complete basis is (N, N) either way, and its
        # leading columns are fit_pdm's modes bit for bit.
        ss = _aligned_random_set(np.random.default_rng(25), 12, m)
        model, complete = _fit(ss)
        alone = fit_pdm(ss)
        np.testing.assert_array_equal(model.basis, alone.basis)
        np.testing.assert_array_equal(model.lambdas, alone.lambdas)
        np.testing.assert_array_equal(complete[:, : model.order], alone.basis)
        assert complete.shape == (12, 12)
        assert _orthonormal(complete[None])[0]

    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 12),
        m=st.integers(2, 40),
        r=st.integers(1, 24),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_eigh_oracle(self, seed, k, m, r):
        # Rank-r data around an offset mean, with M below and above N, and
        # every centroid moved to the origin; the centred data then has rank
        # min(r, N - 2, M - 1).
        n = 2 * k
        rng = np.random.default_rng(seed)
        mat = rng.standard_normal((n, r)) @ rng.standard_normal((r, m))
        mat += rng.standard_normal((n, 1))
        mat[0::2] -= mat[0::2].mean(axis=0)
        mat[1::2] -= mat[1::2].mean(axis=0)
        shape_set = ShapeSet(mat, aligned=True)
        mean, basis, lambdas = _modes(shape_set)
        want, vecs = _eigh_oracle(mat)
        assert basis.shape == (n, n) and lambdas.shape == (n,)
        np.testing.assert_array_equal(mean, mat.mean(axis=1))
        np.testing.assert_allclose(lambdas, want, rtol=0, atol=1e-12 * want[0])
        assert np.max(np.abs(basis.T @ basis - np.eye(n))) < 1e-13

        rank = min(r, n - 2, m - 1)
        model = fit_pdm(shape_set)
        assert model.order == _rank(model.lambdas) == rank
        assert np.all(model.lambdas > RANK_REL_TOL * model.lambdas[0])
        np.testing.assert_array_equal(model.basis, _fix_signs(basis[:, :rank]))
        np.testing.assert_array_equal(model.lambdas, lambdas[:rank])
        if want[rank - 1] > 1e-4 * want[0]:
            # A separated spectrum fixes the span of the kept modes.
            got = model.basis @ model.basis.T
            oracle = vecs[:, :rank] @ vecs[:, :rank].T
            assert np.max(np.abs(got - oracle)) < 1e-10

    @pytest.mark.parametrize("m", [3, 12])
    def test_no_variance_raises_zero_variance(self, m):
        # M below and above N = 8; every column is the same shape.
        mat = np.tile(np.array([2.0, 3.0, -1.0, -4.0, 0.5, 1.0, -1.5, 0.0])[:, None], (1, m))
        shape_set = ShapeSet(mat, aligned=True)
        np.testing.assert_array_equal(_modes(shape_set)[2], 0.0)
        with pytest.raises(ZeroVariance):
            fit_pdm(shape_set)

    def test_rounded_mean_leaves_no_variance(self):
        # Seven copies of one centred 3-landmark shape whose column mean
        # rounds: the centred data is rounding noise (lambda_0 near 1e-32
        # without the floor), so there is no model and no variance pick.
        shape = np.array([0.1, 0.7, -0.3, -0.2, 0.2, -0.5])
        shape[0::2] -= shape[0::2].mean()
        shape[1::2] -= shape[1::2].mean()
        mat = np.tile(shape[:, None], (1, 7))
        assert np.any(mat - mat.mean(axis=1, keepdims=True))
        shape_set = ShapeSet(mat, aligned=True)
        np.testing.assert_array_equal(_modes(shape_set)[2], 0.0)
        with pytest.raises(ZeroVariance):
            fit_pdm(shape_set)
        with pytest.raises(ZeroVariance):
            select_order_variance(shape_set)

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 40), m=st.integers(2, 300),
           scale=st.floats(-5.0, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_copies_of_one_shape_leave_no_variance(self, seed, k, m, scale):
        # Any centred shape at any size, repeated: whatever the mean rounds
        # to, the spectrum is zero.
        shape = np.random.default_rng(seed).standard_normal(2 * k) * 10.0**scale
        shape[0::2] -= shape[0::2].mean()
        shape[1::2] -= shape[1::2].mean()
        shape_set = ShapeSet(np.tile(shape[:, None], (1, m)), aligned=True)
        np.testing.assert_array_equal(_modes(shape_set)[2], 0.0)


class TestTruncate:
    def _model(self) -> PdmModel:
        rng = np.random.default_rng(7)
        return fit_pdm(_aligned_random_set(rng, 8, 6))

    def test_keeps_leading_modes(self):
        model = self._model()
        t = 2
        trunc = truncate(model, t)
        np.testing.assert_array_equal(trunc.basis, model.basis[:, :t])
        np.testing.assert_array_equal(trunc.lambdas, model.lambdas[:t])
        assert trunc.order == t
        np.testing.assert_array_equal(trunc.mean, model.mean)
        assert trunc.n_train == model.n_train == 6

    def test_full_rank(self):
        model = self._model()
        rank = model.order
        assert _rank(model.lambdas) == rank
        # 6 samples with their mean removed span at most 5 directions, and
        # alignment removes more, so rank < N here.
        assert 0 < rank < model.n_coords
        trunc = truncate(model, rank)
        assert trunc.order == rank

    def test_order_zero_rejected(self):
        with pytest.raises(OrderOutOfRange):
            truncate(self._model(), 0)

    def test_order_beyond_rank_rejected(self):
        model = self._model()
        with pytest.raises(OrderOutOfRange):
            truncate(model, model.order + 1)

    def test_truncated_model_cuts_again(self):
        # Any model is cut to 1..order modes, a truncated one too.
        trunc = truncate(self._model(), 3)
        again = truncate(trunc, 2)
        np.testing.assert_array_equal(again.basis, trunc.basis[:, :2])
        assert truncate(trunc, 3).order == 3
        with pytest.raises(OrderOutOfRange):
            truncate(trunc, 4)

    def test_rank_ignores_negligible_eigenvalues(self):
        n = 4
        vals = np.array([1.0, 1e-13, 1e-14, 1e-15])
        model = PdmModel(mean=np.zeros(n), basis=np.eye(n), lambdas=vals, n_train=5)
        assert _rank(model.lambdas) == 1


class TestPdmModelChecks:
    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_coordinate_count_even_and_at_least_four(self, n):
        with pytest.raises(DimensionMismatch):
            PdmModel(mean=np.zeros(n), basis=np.eye(n), lambdas=np.ones(n), n_train=0)

    def test_arrays_must_agree(self):
        with pytest.raises(DimensionMismatch):
            PdmModel(mean=np.zeros(6), basis=np.eye(4), lambdas=np.ones(4), n_train=0)
        with pytest.raises(DimensionMismatch):
            PdmModel(mean=np.zeros(6), basis=np.eye(6)[:, :3], lambdas=np.ones(2), n_train=0)

    def test_order_within_one_to_n(self):
        with pytest.raises(OrderOutOfRange):
            PdmModel(mean=np.zeros(4), basis=np.zeros((4, 0)), lambdas=np.zeros(0), n_train=0)
        with pytest.raises(OrderOutOfRange):
            PdmModel(mean=np.zeros(4), basis=np.zeros((4, 5)), lambdas=np.ones(5), n_train=0)

    def test_zero_eigenvalue_rejected(self):
        # A model keeps only modes with variance, at every order up to N.
        vals = np.array([2.0, 1.0, 0.5, 0.0])
        for t in (3, 4):
            PdmModel(mean=np.zeros(4), basis=np.eye(4)[:, :t], lambdas=vals[:t] + 0.1, n_train=3)
            with pytest.raises(ValueError, match="refit"):
                PdmModel(mean=np.zeros(4), basis=np.eye(4)[:, :t], lambdas=vals[4 - t:], n_train=3)

    def test_eigenvalues_descending_and_non_negative(self):
        for vals in ([1.0, 2.0, 0.0, 0.0], [1.0, 0.5, 0.0, -1e-3]):
            with pytest.raises(ValueError):
                PdmModel(mean=np.zeros(4), basis=np.eye(4), lambdas=vals, n_train=3)

    def test_n_train_not_negative(self):
        with pytest.raises(ValueError):
            PdmModel(mean=np.zeros(4), basis=np.eye(4), lambdas=np.ones(4), n_train=-1)


class TestClampToBox:
    def test_inside_unchanged(self):
        b = np.array([0.5, -0.3])
        lam = np.array([1.0, 1.0])
        np.testing.assert_array_equal(clamp_to_box(b, lam), b)

    def test_single_sided_overshoot(self):
        lam = np.array([4.0, 1.0])
        b = np.array([2.0 * math.sqrt(lam[0]), 0.0])
        np.testing.assert_allclose(clamp_to_box(b, lam), [math.sqrt(lam[0]), 0.0])

    def test_worked_scaling_example(self):
        # b = (3*sqrt(4), sqrt(1)) = (6, 1): only the first coefficient is
        # clipped.  A uniform scale by min(1, 2/6, 1/1) = 1/3 would also
        # shrink the second, in-box one to 1/3.
        lam = np.array([4.0, 1.0])
        b = np.array([6.0, 1.0])
        np.testing.assert_array_equal(clamp_to_box(b, lam), [2.0, 1.0])

    def test_zero_vector(self):
        lam = np.array([4.0, 1.0])
        np.testing.assert_array_equal(clamp_to_box(np.zeros(2), lam), np.zeros(2))

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            clamp_to_box(np.zeros(3), np.ones(2))

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    def test_negative_or_nan_eigenvalue_rejected(self, bad):
        with pytest.raises(ValueError):
            clamp_to_box(np.ones(2), np.array([1.0, bad]))

    @pytest.mark.parametrize(
        "shape, lam_shape", [((), ()), ((2, 2), (2, 2)), ((2, 2, 2), (2,))],
        ids=["scalar", "matrix", "cube"],
    )
    def test_non_vector_rejected(self, shape, lam_shape):
        with pytest.raises(DimensionMismatch):
            clamp_to_box(np.ones(shape), np.ones(lam_shape))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_membership_direction_idempotence(self, seed):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(1, 7))
        lam = rng.uniform(0.1, 5.0, t)
        lam = np.sort(lam)[::-1]
        b = rng.normal(0.0, 3.0 * np.sqrt(lam))
        out = clamp_to_box(b, lam)
        assert np.all(np.abs(out) <= np.sqrt(lam))
        # Each coefficient keeps its sign and only shrinks: out_i = s_i * b_i
        # with 0 <= s_i <= 1.  The vector's direction is not kept.
        assert np.all(out * b >= 0.0) and np.all(np.abs(out) <= np.abs(b))
        np.testing.assert_array_equal(clamp_to_box(out, lam), out)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        t=st.integers(min_value=1, max_value=6),
        m=st.one_of(st.none(), st.integers(min_value=1, max_value=5)),
    )
    @settings(max_examples=80, deadline=None)
    def test_clip_is_the_one_box_rule(self, seed, t, m):
        rng = np.random.default_rng(seed)
        pdm = _random_truncated(rng, n=8, t=t)
        shape = (t,) if m is None else (t, m)
        limits = np.sqrt(pdm.lambdas).reshape((t,) + (1,) * (len(shape) - 1))
        B = rng.normal(0.0, 2.0, shape) * limits
        out = clamp_to_box(B, pdm.lambdas)
        np.testing.assert_array_equal(out, np.clip(B, -limits, limits))
        assert np.all(np.abs(out) <= limits)
        np.testing.assert_array_equal(clamp_to_box(out, pdm.lambdas), out)
        inside = np.abs(B) <= limits
        np.testing.assert_array_equal(out[inside], B[inside])
        # The projection applies the same rule: with unit noise and an
        # orthonormal basis it recovers B, then clips it.
        Y = pdm.basis @ B.reshape(t, -1)
        projected = project_constrained(pdm, Y, np.ones(pdm.n_coords))
        np.testing.assert_allclose(projected.reshape(shape), out, rtol=0, atol=1e-10)


class TestProjectConstrained:
    def test_identity_sigma_recovers_inside_coeffs(self):
        rng = np.random.default_rng(8)
        pdm = _random_truncated(rng)
        B = rng.uniform(-0.5, 0.5, (pdm.order, 4)) * np.sqrt(pdm.lambdas)[:, None]
        Y = pdm.basis @ B
        out = project_constrained(pdm, Y, np.ones(pdm.n_coords))
        assert np.max(np.abs(out - B)) < 1e-10

    def test_identity_sigma_composes_with_clamp(self):
        rng = np.random.default_rng(9)
        pdm = _random_truncated(rng)
        b = 3.0 * np.sqrt(pdm.lambdas) * np.array([1.0, -1.0, 1.0])
        Y = (pdm.basis @ b)[:, None]
        out = project_constrained(pdm, Y, np.ones(pdm.n_coords))
        np.testing.assert_allclose(out[:, 0], clamp_to_box(b, pdm.lambdas), atol=1e-10)

    def test_scaling_path_oracle(self):
        # Independent route: solve the weighted least squares by lstsq on the
        # rescaled system, then walk s over [0, 1] in 1e-6 steps, keeping only
        # steps whose scaled point is still inside the box, and score each by
        # direct residual evaluation.  The projection must match the best
        # feasible point on that path.
        rng = np.random.default_rng(10)
        pdm = _random_truncated(rng, n=8, t=3)
        sigma = rng.uniform(0.2, 2.0, 8)
        y = rng.normal(0.0, 2.0, 8)

        w = 1.0 / np.sqrt(sigma)
        b_u, *_ = np.linalg.lstsq(pdm.basis * w[:, None], y * w, rcond=None)

        grid = np.arange(0.0, 1.0 + 1e-6, 1e-6)
        points = grid[None, :] * b_u[:, None]
        feasible = np.all(np.abs(points) <= np.sqrt(pdm.lambdas)[:, None], axis=0)
        assert np.any(feasible)
        best = math.inf
        best_b = None
        for chunk in np.array_split(np.flatnonzero(feasible), 8):
            res = y[:, None] - pdm.basis @ points[:, chunk]
            scores = np.sum(res * res / sigma[:, None], axis=0)
            k = int(np.argmin(scores))
            if scores[k] < best:
                best = float(scores[k])
                best_b = points[:, chunk[k]]

        out = project_constrained(pdm, y[:, None], sigma)[:, 0]
        res = y - pdm.basis @ out
        got = float(np.sum(res * res / sigma))
        assert got <= best + 1e-9
        np.testing.assert_allclose(out, best_b, atol=2e-6)

    def test_sigma_scale_invariance(self):
        rng = np.random.default_rng(11)
        pdm = _random_truncated(rng)
        Y = rng.standard_normal((pdm.n_coords, 5))
        sigma = rng.uniform(0.5, 1.5, pdm.n_coords)
        base = project_constrained(pdm, Y, sigma)
        for c in (0.1, 10.0):
            scaled = project_constrained(pdm, Y, c * sigma)
            assert np.max(np.abs(scaled - base)) < 1e-12

    def test_objective_no_worse_than_zero(self):
        rng = np.random.default_rng(12)
        pdm = _random_truncated(rng)
        sigma = rng.uniform(0.2, 2.0, pdm.n_coords)
        Y = rng.standard_normal((pdm.n_coords, 6))
        B = project_constrained(pdm, Y, sigma)
        res = Y - pdm.basis @ B
        at_b = np.sum(res * res / sigma[:, None], axis=0)
        at_zero = np.sum(Y * Y / sigma[:, None], axis=0)
        assert np.all(at_b <= at_zero + 1e-9)

    def test_objective_beats_feasible_scaled_points(self):
        rng = np.random.default_rng(13)
        pdm = _random_truncated(rng)
        sigma = rng.uniform(0.2, 2.0, pdm.n_coords)
        y = 5.0 * rng.standard_normal(pdm.n_coords)
        weighted = pdm.basis / sigma[:, None]
        b_u = np.linalg.solve(pdm.basis.T @ weighted, weighted.T @ y)
        b_hat = project_constrained(pdm, y[:, None], sigma)[:, 0]
        res = y - pdm.basis @ b_hat
        at_hat = float(np.sum(res * res / sigma))
        limits = np.sqrt(pdm.lambdas)
        for s in (0.0, 0.25, 0.5, 0.75, 1.0):
            candidate = s * b_u
            if np.any(np.abs(candidate) > limits):
                continue  # outside the box, not a legal competitor
            res = y - pdm.basis @ candidate
            assert at_hat <= float(np.sum(res * res / sigma)) + 1e-9

    def test_clip_mode_clamps_coordinatewise(self):
        rng = np.random.default_rng(14)
        pdm = _random_truncated(rng)
        b = np.array([10.0, 0.1, -10.0]) * np.sqrt(pdm.lambdas)
        Y = (pdm.basis @ b)[:, None]
        out = project_constrained(pdm, Y, np.ones(pdm.n_coords))[:, 0]
        limits = np.sqrt(pdm.lambdas)
        np.testing.assert_allclose(out, [limits[0], b[1], -limits[2]], atol=1e-10)

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(3, 8), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_property_clips_the_weighted_solution(
        self, seed: int, k: int, data: st.DataObject
    ) -> None:
        # Independent route: lstsq on the W^1/2-rescaled system, then np.clip.
        n = 2 * k
        t = data.draw(st.integers(2, n - 2), label="t")
        m = data.draw(st.integers(1, 5), label="m")
        rng = np.random.default_rng(seed)
        pdm = _random_truncated(rng, n, t)
        sigma = rng.uniform(0.2, 2.0, n)
        limits = np.sqrt(pdm.lambdas)
        B = rng.uniform(-3.0, 3.0, (t, m)) * limits[:, None]
        # Column 0 overshoots its first coefficient and keeps its second inside.
        B[:2, 0] = [3.0, 0.2] * limits[:2]
        Y = pdm.basis @ B + 0.01 * limits.min() * rng.standard_normal((n, m))

        w = 1.0 / np.sqrt(sigma)
        b_u, *_ = np.linalg.lstsq(pdm.basis * w[:, None], Y * w[:, None], rcond=None)
        outside = np.abs(b_u) > limits[:, None]
        assert np.any(outside.any(axis=0) & ~outside.all(axis=0))
        want = np.clip(b_u, -limits[:, None], limits[:, None])
        out = project_constrained(pdm, Y, sigma)
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-12 * np.abs(Y).max())

    def test_singular_system_on_collapsed_sigma(self):
        rng = np.random.default_rng(16)
        pdm = _random_truncated(rng)
        # Subnormal variances overflow the weights to infinity.
        sigma = np.full(pdm.n_coords, 1e-320)
        with pytest.raises(SingularSystem):
            project_constrained(pdm, np.zeros((pdm.n_coords, 1)), sigma)

    def test_singular_system_on_degenerate_basis(self):
        rng = np.random.default_rng(16)
        n = 8
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        basis = np.column_stack([q[:, 0], q[:, 0]])
        pdm = PdmModel(
            mean=np.zeros(n), basis=basis, lambdas=np.array([2.0, 1.0]), n_train=0
        )
        with pytest.raises(SingularSystem):
            project_constrained(pdm, np.zeros((n, 1)), np.ones(n))

    def test_nonpositive_sigma_rejected(self):
        rng = np.random.default_rng(17)
        pdm = _random_truncated(rng)
        sigma = np.ones(pdm.n_coords)
        sigma[3] = 0.0
        with pytest.raises(ValueError):
            project_constrained(pdm, np.zeros((pdm.n_coords, 2)), sigma)


def _padded_forms(u: np.ndarray, orders: list[int], lo: int, top: int, Y: np.ndarray):
    """The direct and dual arguments of _project_stacked for one row per order.

    Row k keeps the leading orders[k] columns of the complete basis u,
    zero-padded to top, and its complement is u's columns lo..N-1 past its
    order, zero at the kept ones, as _fit_orders builds them.
    """
    n = u.shape[0]
    orders = np.array(orders)
    kept = np.arange(top) < orders[:, None]
    basis = u[None, :, :top] * kept[:, None, :]
    past = np.arange(lo, n) >= orders[:, None]
    columns = u[None, :, lo:] * past[:, None, :]
    dual = (
        columns, (~past).astype(float),
        np.matmul(basis.transpose(0, 2, 1), Y), np.matmul(columns.transpose(0, 2, 1), Y),
    )
    return basis, (~kept).astype(float), dual


class TestProjectStackedForms:
    """The dual form projects through the complement of the modes; the
    probe runs only where Cholesky can fail."""

    @given(
        n=st.integers(8, 40),
        m=st.integers(1, 12),
        log_ratio=st.floats(0.0, 6.0),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_dual_coefficients_match_direct(self, n, m, log_ratio, seed, data):
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lo = data.draw(st.integers(n // 2 + 1, n))
        top = data.draw(st.integers(lo, n))
        orders = data.draw(st.lists(st.integers(lo, top), min_size=1, max_size=4))
        sigma = 10.0 ** rng.uniform(0.0, log_ratio, (len(orders), n))
        sigma[:, rng.permutation(n)[:2]] = [1.0, 10.0**log_ratio]
        Y = np.broadcast_to(rng.standard_normal((n, m)), (len(orders), n, m))
        basis, pad, dual = _padded_forms(u, orders, lo, top, Y)
        # Infinite boxes: the coefficients before clipping.
        lambdas = np.full((len(orders), top), np.inf)
        direct, none = _project_stacked(basis, lambdas, Y, sigma, pad)
        got, also_none = _project_stacked(basis, lambdas, Y, sigma, pad, dual=dual)
        assert none == also_none == {}
        for k, t in enumerate(orders):
            assert not np.any(got[k, t:])
            scale = np.linalg.norm(direct[k])
            assert np.linalg.norm(got[k] - direct[k]) <= 1e-10 * scale

    @given(
        n=st.integers(2, 80),
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-250.0, 250.0),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_cholesky_succeeds_at_the_bound(self, n, seed, log_scale, data):
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        assert _orthonormal(u[None])[0]
        t = data.draw(st.integers(1, n))
        lo = data.draw(st.integers(0, t))
        # The direct form pads its modes at the end, the dual form its
        # complement at the front, as _fit_orders lays them out.
        top = data.draw(st.integers(t, n))
        direct = np.zeros((n, top))
        direct[:, :t] = u[:, :t]
        dual = np.zeros((n, n - lo))
        dual[:, t - lo:] = u[:, t:]
        for padded, pad, weight in (
            (direct, np.arange(t, top), lambda s: 1.0 / s),
            (dual, np.arange(t - lo), lambda s: s),
        ):
            ratio = _safe_ratio(padded.shape[1], n)
            sigma = 10.0**log_scale * ratio ** rng.uniform(0.0, 1.0, n)
            sigma[rng.permutation(n)[:2]] = 10.0**log_scale * np.array([1.0, ratio])
            gram = padded.T @ (padded * weight(sigma)[:, None])
            gram[pad, pad] += 1.0
            np.linalg.cholesky(gram)
            assert _failures(gram[None], sigma[None], np.array([True])) == {}

    def test_the_bound_falls_with_the_size(self):
        assert _safe_ratio(80, 80) == pytest.approx(6.95e11, rel=1e-3)
        assert _safe_ratio(24, 24) == pytest.approx(7.51e12, rel=1e-3)
        assert _safe_ratio(8, 80) > _safe_ratio(80, 80) > _safe_ratio(3000, 3000) > 1e8

    def test_a_singular_row_beyond_the_bound_still_fails(self, monkeypatch):
        # Two exactly orthonormal Hadamard modes, weighted by 1 and 2^70:
        # every entry of their normal matrix rounds to +-2^68, so it is
        # exactly singular, with sigma spanning 2^70, beyond every bound.
        h2 = np.array([[1.0, 1.0], [1.0, -1.0]])
        u = np.kron(h2, h2) / 2.0
        n = u.shape[0]
        sigma = np.array([1.0, 2.0**-70, 1.0, 1.0])
        assert _orthonormal(u[None])[0]
        assert sigma.max() / sigma.min() > _safe_ratio(2, n)
        calls = []
        cholesky = np.linalg.cholesky

        def counted(a):
            calls.append(len(a) if a.ndim == 3 else 1)
            return cholesky(a)

        monkeypatch.setattr(pdm_module.np.linalg, "cholesky", counted)
        # Row 0 is within the bound and is never factored; row 1 is factored
        # and fails, and row 0 keeps its coefficients.
        basis = np.stack([u[:, :2], u[:, :2]])
        Y = np.ones((2, n, 3))
        stack_sigma = np.stack([np.ones(n), sigma])
        coeffs, failed = _project_stacked(
            basis, np.full((2, 2), np.inf), Y, stack_sigma, np.zeros((2, 2)),
            trusted=np.array([True, True]),
        )
        assert list(failed) == [1]
        assert str(failed[1]) == "weighted normal matrix is numerically singular"
        assert calls == [1, 1]
        np.testing.assert_array_equal(coeffs[1], 0.0)
        np.testing.assert_allclose(coeffs[0], u[:, :2].T @ Y[0], rtol=0, atol=1e-14)

    def test_a_dual_row_that_is_not_finite_fails_with_zero_coefficients(self):
        rng = np.random.default_rng(26)
        u, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        Y = np.broadcast_to(rng.standard_normal((8, 3)), (2, 8, 3))
        basis, pad, dual = _padded_forms(u, [6, 7], 6, 7, Y)
        sigma = np.ones((2, 8))
        sigma[0, 2] = np.inf
        coeffs, failed = _project_stacked(
            basis, np.full((2, 7), np.inf), Y, sigma, pad, trusted=np.ones(2, bool), dual=dual
        )
        assert list(failed) == [0]
        assert str(failed[0]) == "weighted normal matrix is not finite"
        np.testing.assert_array_equal(coeffs[0], 0.0)
        np.testing.assert_allclose(coeffs[1, :7], u[:, :7].T @ Y[1], rtol=0, atol=1e-13)

    def test_an_untrusted_row_is_always_probed(self, monkeypatch):
        rng = np.random.default_rng(23)
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(
            pdm_module.np.linalg, "cholesky", lambda a: calls.append(len(a)) or cholesky(a)
        )
        args = (q[None, :, :3], np.ones((1, 3)), np.ones((1, 8, 2)), np.ones((1, 8)),
                np.zeros((1, 3)))
        for trusted, probed in ((None, [1]), (np.array([False]), [1]), (np.array([True]), [])):
            calls.clear()
            assert _project_stacked(*args, trusted=trusted)[1] == {}
            assert calls == probed

    def test_rows_of_a_basis_that_is_not_orthonormal_are_not_trusted(self):
        rng = np.random.default_rng(24)
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        bases = np.stack([q, q, q])
        bases[1, :, 3] = bases[1, :, 0]
        bases[2, 0, 0] += 1e-12
        assert _orthonormal(bases).tolist() == [True, False, False]
        assert not _orthonormal(np.full((1, 8, 2), np.nan))[0]


class TestReconstruct:
    """basis @ B rebuilds the deformation that a projection found."""

    def test_full_basis_round_trip(self):
        rng = np.random.default_rng(19)
        n = 8
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        # Boxes far wider than the data, so nothing is clipped.
        pdm = PdmModel(
            mean=np.zeros(n), basis=q, lambdas=np.full(n, 100.0), n_train=0
        )
        Y = rng.standard_normal((n, 5))
        back = pdm.basis @ project_constrained(pdm, Y, np.ones(n))
        assert np.max(np.abs(back - Y)) < 1e-10

    def test_unclamped_projection_residual_orthogonal(self):
        rng = np.random.default_rng(22)
        pdm = _random_truncated(rng)
        # Tiny data keeps the unconstrained solution inside the box, so the
        # result is a plain orthogonal projection.
        Y = 1e-3 * rng.standard_normal((pdm.n_coords, 4))
        B = project_constrained(pdm, Y, np.ones(pdm.n_coords))
        residual = Y - pdm.basis @ B
        assert np.max(np.abs(pdm.basis.T @ residual)) < 1e-9


class TestSerialization:
    def _nasty_model(self) -> PdmModel:
        rng = np.random.default_rng(23)
        ss = _aligned_random_set(rng, 8, 10)
        fitted = fit_pdm(ss)
        # Inject values that need all 17 significant digits.
        vals = fitted.lambdas.copy()
        vals[0] = math.pi
        vals[1] = 1.0 / 3.0
        return PdmModel(
            mean=fitted.mean, basis=fitted.basis, lambdas=np.sort(vals)[::-1],
            n_train=fitted.n_train,
        )

    def test_fitted_model_round_trip(self, tmp_path):
        model = self._nasty_model()
        p = tmp_path / "model.pdm"
        save_pdm(model, p)
        back = load_pdm(p)
        # 10 centred shapes of 4 landmarks span N - 2 = 6 directions.
        assert back.order == model.order == 6
        np.testing.assert_array_equal(back.mean, model.mean)
        np.testing.assert_array_equal(back.lambdas, model.lambdas)
        np.testing.assert_array_equal(back.basis, model.basis)
        assert back.n_train == model.n_train

    def test_truncated_round_trip(self, tmp_path):
        model = self._nasty_model()
        trunc = truncate(model, 3)
        p = tmp_path / "model.pdm"
        save_pdm(trunc, p)
        back = load_pdm(p)
        assert back.order == 3
        np.testing.assert_array_equal(back.mean, trunc.mean)
        np.testing.assert_array_equal(back.basis, trunc.basis)
        np.testing.assert_array_equal(back.lambdas, trunc.lambdas)
        assert back.n_train == trunc.n_train == 10

    def test_save_full_model_at_order(self, tmp_path):
        model = self._nasty_model()
        p = tmp_path / "model.pdm"
        save_pdm(truncate(model, 2), p)
        back = load_pdm(p)
        assert back.order == 2
        np.testing.assert_array_equal(back.basis, model.basis[:, :2])
        np.testing.assert_array_equal(back.lambdas, model.lambdas[:2])

    def test_save_order_out_of_range(self, tmp_path):
        model = self._nasty_model()
        with pytest.raises(OrderOutOfRange):
            save_pdm(truncate(model, model.n_coords + 1), tmp_path / "m.pdm")

    def test_save_order_above_rank(self, tmp_path):
        # A fitted model holds exactly its positive modes, so every order
        # past its positive rank, N included, is refused unwritten.
        model = self._nasty_model()
        rank = _rank(model.lambdas)
        assert rank == model.order < model.n_coords
        for order in (rank + 1, model.n_coords):
            with pytest.raises(OrderOutOfRange):
                save_pdm(truncate(model, order), tmp_path / "m.pdm")
            assert not (tmp_path / "m.pdm").exists()
        save_pdm(truncate(model, rank), tmp_path / "m.pdm")
        back = load_pdm(tmp_path / "m.pdm")
        assert back.order == rank
        np.testing.assert_array_equal(back.lambdas, model.lambdas)

    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 6),
        m=st.integers(2, 12),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_resave_is_byte_identical(self, tmp_path_factory, seed, k, m, data):
        # Every order a store can hold survives a load and a save byte for
        # byte, M1 included.
        model = fit_pdm(_aligned_random_set(np.random.default_rng(seed), 2 * k, m))
        order = data.draw(st.integers(1, model.order), label="order")
        folder = tmp_path_factory.mktemp("resave")
        save_pdm(truncate(model, order), folder / "a.pdm")
        back = load_pdm(folder / "a.pdm")
        assert (back.order, back.n_train) == (order, m)
        save_pdm(back, folder / "b.pdm")
        assert (folder / "b.pdm").read_bytes() == (folder / "a.pdm").read_bytes()

    def test_save_refuses_a_basis_that_is_not_orthonormal(self, tmp_path):
        # PdmModel trusts its basis; save_pdm checks it before opening the file.
        model = PdmModel(np.zeros(8), 2 * np.eye(8)[:, :2], np.array([2.0, 1.0]), 5)
        with pytest.raises(ValueError, match=r"not orthonormal \(max \|P\^T P - I\| = 3 > 1e-08\)"):
            save_pdm(model, tmp_path / "m.pdm")
        assert not (tmp_path / "m.pdm").exists()

    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 8),
        tilt=st.sampled_from([0.0, 1e-12, 1e-9, 4e-9, 1e-8, 3e-8, 1e-6, 1e-2, 1.0]),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_whatever_save_writes_load_reads(self, tmp_path_factory, seed, k, tilt, data):
        # A basis near orthonormal, off by up to tilt: save_pdm either refuses
        # it and writes nothing, or writes a file that load_pdm reads back to
        # the same model and that a second save reproduces byte for byte.
        rng = np.random.default_rng(seed)
        t = data.draw(st.integers(1, 2 * k), label="t")
        q, _ = np.linalg.qr(rng.standard_normal((2 * k, t)))
        basis = q + tilt * rng.uniform(-1.0, 1.0, q.shape)
        lambdas = np.sort(rng.uniform(0.1, 10.0, t))[::-1]
        model = PdmModel(rng.standard_normal(2 * k), basis, lambdas, int(rng.integers(0, 50)))
        order = data.draw(st.integers(1, t), label="order")
        folder = tmp_path_factory.mktemp("property")
        try:
            save_pdm(truncate(model, order), folder / "a.pdm")
        except ValueError:
            assert not (folder / "a.pdm").exists()
            assert np.max(np.abs(basis[:, :order].T @ basis[:, :order] - np.eye(order))) > 1e-8
            return
        back = load_pdm(folder / "a.pdm")
        np.testing.assert_array_equal(back.basis, model.basis[:, :order])
        np.testing.assert_array_equal(back.lambdas, model.lambdas[:order])
        np.testing.assert_array_equal(back.mean, model.mean)
        assert back.n_train == model.n_train
        save_pdm(back, folder / "b.pdm")
        assert (folder / "b.pdm").read_bytes() == (folder / "a.pdm").read_bytes()

    def test_truncated_rejects_foreign_order(self, tmp_path):
        # A truncated model stores fewer of its modes, never more.
        trunc = truncate(self._nasty_model(), 3)
        with pytest.raises(OrderOutOfRange):
            save_pdm(truncate(trunc, 4), tmp_path / "m.pdm")
        assert not (tmp_path / "m.pdm").exists()
        save_pdm(truncate(trunc, 2), tmp_path / "m.pdm")
        assert load_pdm(tmp_path / "m.pdm").order == 2

    def test_load_rejects_malformed(self, tmp_path):
        p = tmp_path / "bad.pdm"
        p.write_text("not,a,model\n")
        with pytest.raises(ParseError):
            load_pdm(p)

    def test_load_rejects_truncated_file(self, tmp_path):
        model = self._nasty_model()
        p = tmp_path / "model.pdm"
        save_pdm(model, p)
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines[:-1]))
        with pytest.raises(ParseError):
            load_pdm(p)


def _store_of_rows(path, first: str, second: str):
    """A store of 4 landmarks and 2 modes with the given eigenvector rows."""
    path.write_text(f"8,2,5\n0,0,0,0,0,0,0,0\n2,1\n{first}\n{second}\n")
    return path


class TestLoadFailsLoudly:
    @pytest.mark.parametrize(
        "first, second",
        [
            ("1,0,0,0,0,0,0,0", "1,0,0,0,0,0,0,0"),
            ("1,0,0,0,0,0,0,0", "0,0,0,0,0,0,0,0"),
            ("30,0,0,0,0,0,0,0", "0,1,0,0,0,0,0,0"),
        ],
        ids=["identical-rows", "zero-row", "row-of-norm-30"],
    )
    def test_basis_that_is_not_orthonormal(self, tmp_path, first, second):
        # Each file passes every other check and made a generator before.
        with pytest.raises(ParseError, match="bad.pdm: eigenvector rows are not orthonormal"):
            load_pdm(_store_of_rows(tmp_path / "bad.pdm", first, second))

    @pytest.mark.parametrize("tilt, accepted", [(1e-9, True), (1e-7, False)])
    def test_orthonormality_tolerance(self, tmp_path, tilt, accepted):
        # Rows (1, tilt, 0...) and (0, 1, 0...) are off by tilt in P^T P.
        # The two tilts straddle ORTHONORMAL_TOL (1e-8).
        path = _store_of_rows(tmp_path / "m.pdm", f"1,{tilt!r},0,0,0,0,0,0", "0,1,0,0,0,0,0,0")
        if accepted:
            assert load_pdm(path).order == 2
        else:
            with pytest.raises(ParseError, match="not orthonormal"):
                load_pdm(path)

    @pytest.mark.parametrize("n, t, m1", [(4, -1, 3), (4, 0, 3), (4, 5, 3), (4, 2, -1)])
    def test_header_out_of_range(self, tmp_path, n, t, m1):
        # Every row count matches the header, so only the range check can fail.
        rows = [f"{n},{t},{m1}", ",".join(["0"] * n)]
        if t > 0:
            rows.append(",".join(str(2.0 ** -k) for k in range(t)))
            rows += [",".join(["0.5"] * n)] * t
        p = tmp_path / "bad.pdm"
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(ParseError):
            load_pdm(p)

    @pytest.mark.parametrize("row, value", [(1, "nan"), (2, "inf"), (3, "-inf"), (4, "nan")])
    def test_non_finite_numbers(self, tmp_path, row, value):
        rows = ["4,2,3", "0,0,0,0", "2,1", "1,0,0,0", "0,1,0,0"]
        fields = rows[row].split(",")
        fields[0] = value
        rows[row] = ",".join(fields)
        p = tmp_path / "bad.pdm"
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(ParseError):
            load_pdm(p)

    @pytest.mark.parametrize("n", [2, 9])
    def test_coordinate_count_odd_or_below_four(self, tmp_path, n):
        # Rows agree with the header, so only the model's own check fails.
        rows = [f"{n},1,3", ",".join(["0"] * n), "1", ",".join(["0.5"] * n)]
        p = tmp_path / "bad.pdm"
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(ParseError, match="bad.pdm"):
            load_pdm(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_pdm(tmp_path / "absent.pdm")

    def test_unsorted_full_model(self, tmp_path):
        p = tmp_path / "bad.pdm"
        p.write_text("2,2,3\n0,0\n1,2\n1,0\n0,1\n")
        with pytest.raises(ParseError):
            load_pdm(p)
