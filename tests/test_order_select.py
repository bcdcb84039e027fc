"""Data splitting, alternating ML regression, scoring, and order selection."""

from __future__ import annotations

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmorder import (
    PdmModel,
    RegressionFit,
    ShapeSet,
    SingularSystem,
    SplitData,
    TooFewSamples,
    ZeroVariance,
    aic_score,
    alternating_ml,
    fit_pdm,
    make_seed_pdm_procedural,
    mean_shape,
    order_select,
    sample_shapes,
    select_order_proposed,
    select_order_variance,
    split_data,
    truncate,
)
from pdmorder.order_select import _variance_order
from pdmorder.pdm import _fit


def _aligned_random_set(rng: np.random.Generator, n: int, m: int) -> ShapeSet:
    mat = rng.standard_normal((n, m))
    for col in range(m):
        mat[0::2, col] -= mat[0::2, col].mean()
        mat[1::2, col] -= mat[1::2, col].mean()
    return ShapeSet(mat, aligned=True)


def _centered_truncated(
    rng: np.random.Generator, n: int, t: int, lambdas: np.ndarray
) -> PdmModel:
    """Partial model whose modes never move a shape's centroid."""
    tx = np.zeros(n)
    tx[0::2] = 1.0
    ty = np.zeros(n)
    ty[1::2] = 1.0
    raw = rng.standard_normal((n, t))
    for shift in (tx, ty):
        u = shift / np.linalg.norm(shift)
        raw -= u[:, None] * (u @ raw)
    q, _ = np.linalg.qr(raw)
    return PdmModel(mean=np.zeros(n), basis=q, lambdas=lambdas, n_train=0)


def _singular_projection_at(failing_order: int):
    """The stacked projection, except that every model of the given order fails."""
    project_stacked = order_select._project_stacked

    def project(basis, lambdas, Y, sigma, pad, **form):
        coeffs, failed = project_stacked(basis, lambdas, Y, sigma, pad, **form)
        orders = basis.shape[2] - pad.sum(axis=1)
        for row in np.flatnonzero(orders == failing_order).tolist():
            failed[row] = SingularSystem("weighted normal matrix is numerically singular")
        return coeffs, failed

    return project


class TestSplitData:
    def test_even_split(self):
        rng = np.random.default_rng(0)
        split = split_data(_aligned_random_set(rng, 8, 10))
        assert split.m1 == 5
        assert split.m2 == 5

    def test_odd_split_favors_training(self):
        rng = np.random.default_rng(1)
        split = split_data(_aligned_random_set(rng, 8, 11))
        assert split.m1 == 6
        assert split.m2 == 5

    def test_no_seed_preserves_order(self):
        rng = np.random.default_rng(2)
        ss = _aligned_random_set(rng, 6, 8)
        split = split_data(ss)
        np.testing.assert_array_equal(split.x1.as_matrix(), ss.as_matrix()[:, :4])
        mu = mean_shape(split.x1)
        np.testing.assert_array_equal(split.y, ss.as_matrix()[:, 4:] - mu[:, None])

    def test_shuffled_is_deterministic_per_seed(self):
        rng = np.random.default_rng(3)
        ss = _aligned_random_set(rng, 6, 100)
        a = split_data(ss, seed=7)
        b = split_data(ss, seed=7)
        np.testing.assert_array_equal(a.x1.as_matrix(), b.x1.as_matrix())
        np.testing.assert_array_equal(a.y, b.y)
        c = split_data(ss, seed=8)
        assert not np.array_equal(a.x1.as_matrix(), c.x1.as_matrix())

    def test_y_is_heldout_minus_training_mean(self):
        rng = np.random.default_rng(4)
        ss = _aligned_random_set(rng, 6, 9)
        split = split_data(ss)
        mu = mean_shape(split.x1)
        np.testing.assert_array_equal(split.y, ss.as_matrix()[:, split.m1 :] - mu[:, None])
        assert split.m2 == split.y.shape[1] == 4

    def test_split_keeps_only_the_training_set_and_the_heldout_matrix(self):
        assert [f.name for f in dataclasses.fields(SplitData)] == ["x1", "y"]

    def test_too_few_samples(self):
        rng = np.random.default_rng(6)
        with pytest.raises(TooFewSamples):
            split_data(_aligned_random_set(rng, 6, 3))

    @given(m=st.integers(4, 60), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_seeded_split_partitions_the_set(self, m, seed):
        ss = _aligned_random_set(np.random.default_rng(m), 6, m)
        mat = ss.as_matrix()
        split = split_data(ss, seed=seed)
        assert split.m1 == (m + 1) // 2
        assert split.m2 == m - split.m1
        # The columns are distinct draws, so each one names its source shape:
        # a training column as it is, a held-out one minus the training mean.
        mu = mean_shape(split.x1)
        centred = mat - mu[:, None]
        sources = [int(np.flatnonzero((mat == col[:, None]).all(axis=0))[0])
                   for col in split.x1.as_matrix().T]
        sources += [int(np.flatnonzero((centred == col[:, None]).all(axis=0))[0])
                    for col in split.y.T]
        assert sorted(sources) == list(range(m))
        again = split_data(ss, seed=seed)
        np.testing.assert_array_equal(again.x1.as_matrix(), split.x1.as_matrix())
        np.testing.assert_array_equal(again.y, split.y)
        unseeded = split_data(ss)
        np.testing.assert_array_equal(unseeded.x1.as_matrix(), mat[:, : split.m1])
        np.testing.assert_array_equal(
            unseeded.y, mat[:, split.m1 :] - mean_shape(unseeded.x1)[:, None]
        )


class TestAlternatingMl:
    def test_perfect_fit_converges_immediately(self):
        rng = np.random.default_rng(8)
        pdm = _centered_truncated(rng, 10, 3, np.array([4.0, 2.0, 1.0]))
        B = rng.uniform(-0.9, 0.9, (3, 6)) * np.sqrt(pdm.lambdas)[:, None]
        Y = pdm.basis @ B
        fit = alternating_ml(Y, pdm)
        assert fit.converged
        assert fit.iterations <= 2
        assert np.max(np.abs(fit.residuals)) < 1e-10
        floor = 1e-12 * float(np.mean(Y * Y))
        np.testing.assert_allclose(fit.sigma_diag, floor)

    def test_pure_noise_keeps_coefficients_small(self):
        # A flat-magnitude mode keeps the weight feedback from singling out
        # one coordinate, so the alternation settles at the benign point
        # where the noise estimates track the data row variances.
        n, m2 = 20, 60
        p = np.tile([1.0, 1.0, -1.0, -1.0], n // 4) / math.sqrt(n)
        pdm = PdmModel(
            mean=np.zeros(n), basis=p[:, None], lambdas=np.array([100.0]), n_train=0
        )
        rng = np.random.default_rng(0)
        Y = rng.standard_normal((n, m2))
        fit = alternating_ml(Y, pdm)
        assert np.max(np.abs(fit.coeffs)) < 0.5 * math.sqrt(pdm.lambdas[0])
        row_var = np.mean(Y * Y, axis=1)
        np.testing.assert_allclose(fit.sigma_diag, row_var, rtol=0.2)

    def test_single_sweep_budget_flags_nonconvergence(self):
        rng = np.random.default_rng(12)
        pdm = _centered_truncated(rng, 8, 2, np.array([1.0, 0.5]))
        Y = rng.standard_normal((8, 6))
        fit = alternating_ml(Y, pdm, max_iter=1)
        assert not fit.converged
        assert fit.iterations == 1
        assert len(fit.objective_trace) == 1

    def test_fit_invariants(self):
        rng = np.random.default_rng(13)
        pdm = _centered_truncated(rng, 10, 3, np.array([3.0, 1.0, 0.4]))
        Y = rng.normal(0.0, 2.0, (10, 12))
        floor = 1e-6
        fit = alternating_ml(Y, pdm, sigma_floor=floor)
        limits = np.sqrt(pdm.lambdas)[:, None]
        assert np.all(np.abs(fit.coeffs) <= limits * (1 + 1e-12))
        assert np.all(fit.sigma_diag >= floor)
        recomputed = Y - pdm.basis @ fit.coeffs
        assert np.max(np.abs(fit.residuals - recomputed)) < 1e-12

    def test_objective_trace_monotone_on_many_instances(self):
        # One seeded instance per trial; every trace must descend (tiny
        # absolute slack for roundoff).
        for trial in range(100):
            rng = np.random.default_rng(1000 + trial)
            n = int(rng.integers(6, 15))
            if n % 2:
                n += 1
            t = int(rng.integers(1, 5))
            m2 = int(rng.integers(4, 21))
            lambdas = np.sort(rng.uniform(0.2, 4.0, t))[::-1]
            pdm = _centered_truncated(rng, n, t, lambdas)
            Y = rng.normal(0.0, rng.uniform(0.5, 3.0), (n, m2))
            fit = alternating_ml(Y, pdm)
            trace = np.array(fit.objective_trace)
            assert np.all(np.diff(trace) <= 1e-9), f"trial {trial} rose"

    def test_rejects_single_sample(self):
        rng = np.random.default_rng(14)
        pdm = _centered_truncated(rng, 8, 2, np.array([1.0, 0.5]))
        with pytest.raises(TooFewSamples):
            alternating_ml(np.zeros((8, 1)), pdm)

    @pytest.mark.parametrize(
        "bad",
        [{"tol": math.nan}, {"tol": -1.0}, {"sigma_floor": math.nan}, {"max_iter": 0}],
        ids=["tol-nan", "tol-negative", "sigma-floor-nan", "max-iter-0"],
    )
    def test_bad_arguments_raise_value_error(self, bad):
        # An argument error, not a sweep budget run out or a SingularSystem.
        rng = np.random.default_rng(15)
        pdm = _centered_truncated(rng, 8, 2, np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            alternating_ml(rng.standard_normal((8, 6)), pdm, **bad)


class TestFitOrdersKernelExit:
    # Columns of a 16 x 16 Hadamard matrix scaled to unit length: every Gram
    # entry is exact, so a repeated column makes the weighted normal matrix
    # exactly singular on the first sweep.
    H2 = np.array([[1.0, 1.0], [1.0, -1.0]])
    HADAMARD = np.kron(np.kron(H2, H2), np.kron(H2, H2)) / 4.0
    LAMBDAS = np.array([3.0, 2.0, 1.5, 1.0, 0.7, 0.5])

    def _block(self, fifth_mode: int) -> PdmModel:
        basis = self.HADAMARD[:, [1, 2, 3, 4, fifth_mode, 6]]
        return PdmModel(mean=np.zeros(16), basis=basis, lambdas=self.LAMBDAS, n_train=0)

    def _fit_orders(self, Y: np.ndarray, fifth_mode: int) -> list:
        """The kernel on one stacked row per order 1..6 of the block, in row order."""
        model = self._block(fifth_mode)
        stream = order_select._fit_orders(
            Y.T[None], model.basis[None], self.LAMBDAS[None], np.array([1e-12]),
            [(0, t) for t in range(1, 7)], 1e-8, 100,
        )
        fits = dict(stream)
        return [fits[row] for row in range(6)]

    def test_only_orders_holding_both_copies_fail(self):
        Y = np.random.default_rng(19).normal(0.0, 0.5, (16, 10))
        clean = self._fit_orders(Y, 5)
        # The fifth mode repeats the third, so orders 5 and 6 hold both copies.
        broken = self._fit_orders(Y, 3)
        assert all(isinstance(fit, RegressionFit) for fit in clean)
        for fit in broken[4:]:
            assert isinstance(fit, SingularSystem)
            assert str(fit) == "weighted normal matrix is numerically singular"
        for alone, fit in zip(clean[:4], broken[:4]):
            assert isinstance(fit, RegressionFit)
            assert fit.iterations == alone.iterations > 1
            assert fit.converged == alone.converged
            assert fit.objective_trace == alone.objective_trace
            for name in ("coeffs", "sigma_diag", "residuals"):
                np.testing.assert_array_equal(getattr(fit, name), getattr(alone, name))

    def test_standalone_fit_raises(self):
        with pytest.raises(SingularSystem):
            alternating_ml(np.ones((16, 4)), self._block(3))


class TestFitOrdersStream:
    """The kernel streams a pool of rows through a stack of any size (STACK_ROWS).

    Every row's fit must be bit-identical whatever the stack size, the
    admission order or the other rows of the pool, a failing row included,
    in the direct form and in the dual form alike.
    """

    HADAMARD = TestFitOrdersKernelExit.HADAMARD

    @given(
        n_sets=st.integers(1, 4),
        m2=st.integers(2, 9),
        top=st.integers(2, 6),
        seed=st.integers(0, 2**32 - 1),
        max_iter=st.integers(1, 40),
        dual=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_fits_do_not_depend_on_capacity_or_admission_order(
        self, n_sets, m2, top, seed, max_iter, dual, data
    ):
        rng = np.random.default_rng(seed)
        Y = rng.normal(0.0, 1.0, (n_sets + 1, m2, 16)) * rng.uniform(0.1, 2.0, (n_sets + 1, 1, 16))
        floors = 10.0 ** rng.uniform(-12.0, -1.0, n_sets + 1)
        if dual:
            # Complete bases of permuted Hadamard columns, orthonormal to the
            # last bit, and orders lo..top with 16 - lo < top: the dual form.
            # The last set's data hold a NaN, so its row fails on the second
            # sweep, when its sigma is no longer finite.
            top += 10
            lo = 17 - top
            bases = np.stack([self.HADAMARD[:, rng.permutation(16)] for _ in range(n_sets + 1)])
            Y[n_sets, 0, rng.integers(16)] = np.nan
            max_iter = max(max_iter, 2)
            drawn = st.tuples(st.integers(0, n_sets - 1), st.integers(lo, top - 1))
        else:
            # Hadamard columns keep every Gram entry of the first sweep exact,
            # so the last set, whose column top - 1 repeats its column 0, is
            # exactly singular at its order top and regular below it.
            bases = np.stack([
                self.HADAMARD[:, rng.choice(16, top, replace=False)] for _ in range(n_sets + 1)
            ])
            bases[n_sets, :, top - 1] = bases[n_sets, :, 0]
            drawn = st.tuples(st.integers(0, n_sets), st.integers(1, top - 1))
        lambdas = np.sort(rng.uniform(0.05, 3.0, (n_sets + 1, top)), axis=1)[:, ::-1].copy()
        rows = data.draw(st.lists(drawn, min_size=1, max_size=14))
        rows.insert(data.draw(st.integers(0, len(rows))), (n_sets, top))
        forms = set()
        project_stacked = order_select._project_stacked

        def spy(*args, **form):
            forms.add(form["dual"] is not None)
            return project_stacked(*args, **form)

        def stream(pool, stack_rows):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(order_select, "STACK_ROWS", stack_rows)
                patch.setattr(order_select, "_project_stacked", spy)
                fits = dict(order_select._fit_orders(
                    Y, bases, lambdas, floors, pool, 1e-8, max_iter
                ))
            assert sorted(fits) == list(range(len(pool)))
            return [pickle.dumps(fits[row]) for row in range(len(pool))]

        alone = stream(rows, 1)
        singular = rows.index((n_sets, top))
        assert isinstance(pickle.loads(alone[singular]), SingularSystem)
        assert sum(isinstance(pickle.loads(fit), SingularSystem) for fit in alone) == 1
        for stack_rows in (2, 5, len(rows)):
            assert stream(rows, stack_rows) == alone
        order = data.draw(st.permutations(range(len(rows))))
        shuffled = stream([rows[i] for i in order], data.draw(st.sampled_from([2, 5])))
        assert [shuffled[order.index(row)] for row in range(len(rows))] == alone
        assert forms == {dual}

    def test_complete_basis_fits_match_the_direct_form(self):
        # The block of orders 17..19 of a 12-landmark set (N = 24, M2 = 20)
        # projects through its complement when given the complete basis.
        seed = make_seed_pdm_procedural(12, 3, "geometric:0.7", rng_seed=61)
        split = split_data(sample_shapes(seed, 40, 20.0, 62))
        model, complete = _fit(split.x1)
        assert model.order >= 19 and order_select._dual(24, 17, 19)
        floor = np.array([order_select.SIGMA_FLOOR_REL * float(np.sum(model.lambdas)) / 24])
        rows = [(0, t) for t in (17, 18, 19)]
        forms = []
        project_stacked = order_select._project_stacked

        def spy(*args, **form):
            forms.append(form["dual"] is not None)
            return project_stacked(*args, **form)

        def fits(basis):
            forms.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(order_select, "_project_stacked", spy)
                got = dict(order_select._fit_orders(
                    split.y.T[None], basis[None], model.lambdas[None, :19], floor, rows, 1e-8, 100
                ))
            return [got[row] for row in range(len(rows))], set(forms)

        dual, dual_forms = fits(complete)
        direct, direct_forms = fits(complete[:, :19])
        assert (dual_forms, direct_forms) == ({True}, {False})
        for a, b in zip(dual, direct):
            assert (a.iterations, a.converged) == (b.iterations, b.converged)
            assert a.iterations > 1
            np.testing.assert_allclose(a.objective_trace, b.objective_trace, rtol=1e-12)
            np.testing.assert_allclose(a.coeffs, b.coeffs, rtol=1e-9, atol=1e-12)


class TestAicScore:
    def _fit(self, sigma, residuals) -> RegressionFit:
        sigma = np.asarray(sigma, dtype=float)
        residuals = np.asarray(residuals, dtype=float)
        return RegressionFit(
            coeffs=np.zeros((1, residuals.shape[1])),
            sigma_diag=sigma,
            residuals=residuals,
            objective_trace=(0.0,),
            converged=True,
        )

    def test_zero_order_unit_noise_scores_zero(self):
        fit = self._fit(np.ones(4), np.zeros((4, 3)))
        assert aic_score(fit, 0) == 0.0

    def test_penalty_is_linear_in_order(self):
        rng = np.random.default_rng(15)
        fit = self._fit(rng.uniform(0.5, 2.0, 4), rng.standard_normal((4, 3)))
        assert aic_score(fit, 3) - aic_score(fit, 2) == pytest.approx(2 * 3)

    def test_hand_computed_value(self):
        # sigma^2 = (1, 1, 2, 4), per-row squared residual sums (1, 2, 2, 8),
        # t = 2, M2 = 3: the score is 3*(3*log 2 + 4) + 6.
        residuals = np.array(
            [
                [1.0, 0.0, 0.0],
                [math.sqrt(2.0), 0.0, 0.0],
                [0.0, math.sqrt(2.0), 0.0],
                [2.0, 2.0, 0.0],
            ]
        )
        fit = self._fit([1.0, 1.0, 2.0, 4.0], residuals)
        expected = 3.0 * (3.0 * math.log(2.0) + 4.0) + 6.0
        assert aic_score(fit, 2) == pytest.approx(expected, rel=1e-12)


class TestSelectOrderProposed:
    def _noiseless_rank3(self) -> ShapeSet:
        rng = np.random.default_rng(16)
        lambdas = np.array([4.0, 2.0, 1.0])
        pdm = _centered_truncated(rng, 12, 3, lambdas)
        B = rng.uniform(-1.0, 1.0, (3, 16)) * np.sqrt(lambdas)[:, None]
        return ShapeSet(pdm.basis @ B, aligned=True)

    def test_noiseless_rank3_selects_three(self):
        result = select_order_proposed(self._noiseless_rank3())
        assert result.t_star == 3
        assert set(result.scores) == {1, 2, 3}

    def test_scores_match_independent_recomputation(self):
        result = select_order_proposed(self._noiseless_rank3())
        ss = self._noiseless_rank3()
        split = split_data(ss)
        for order, fit in result.per_order_fits.items():
            total = 0.0
            for i in range(fit.sigma_diag.size):
                total += split.m2 * math.log(fit.sigma_diag[i])
                for m in range(split.m2):
                    total += fit.residuals[i, m] ** 2 / fit.sigma_diag[i]
            total += 2.0 * split.m2 * order
            assert result.scores[order] == pytest.approx(total, rel=1e-12)
        best = min(result.scores.values())
        smallest_argmin = min(t for t, s in result.scores.items() if s == best)
        assert result.t_star == smallest_argmin

    def test_argmin_prefers_smaller_order_generally(self):
        for seed in range(6):
            rng = np.random.default_rng(200 + seed)
            ss = _aligned_random_set(rng, 10, 12)
            result = select_order_proposed(ss)
            best = min(result.scores.values())
            assert result.t_star == min(
                t for t, s in result.scores.items() if s == best
            )

    @pytest.mark.parametrize("failing_order", [1, 2])
    def test_programming_errors_propagate(self, monkeypatch, failing_order):
        # A bug is raised whether it hits the first order of a block or a
        # later one, and is never retried order by order.
        fit_orders = order_select._fit_orders

        def broken(Y, basis, lambdas, floors, rows, *args):
            for row, fit in fit_orders(Y, basis, lambdas, floors, rows, *args):
                if rows[row][1] == failing_order:
                    raise TypeError("not a numerical failure")
                yield row, fit

        monkeypatch.setattr(order_select, "_fit_orders", broken)
        with pytest.raises(TypeError):
            select_order_proposed(self._noiseless_rank3())

    @pytest.mark.parametrize("failing_order", [1, 2])
    def test_numerical_failure_becomes_a_note(self, monkeypatch, failing_order):
        monkeypatch.setattr(
            order_select, "_project_stacked", _singular_projection_at(failing_order)
        )
        result = select_order_proposed(self._noiseless_rank3())
        assert set(result.scores) == {1, 2, 3} - {failing_order}
        assert failing_order not in result.per_order_fits
        assert result.t_star == 3
        assert result.diagnostics[failing_order] == (
            "fit failed: weighted normal matrix is numerically singular",
        )

    def test_singular_order_inside_a_block_is_the_only_one_noted(self, monkeypatch):
        # The projection breaks down at order 5 alone: order 5 leaves the
        # block of orders 1..8 without a score, and the other orders of the
        # block sweep on to exactly the fits of the clean run.
        seed = make_seed_pdm_procedural(20, 6, "geometric:0.7", rng_seed=41)
        ss = sample_shapes(seed, 30, 5.0, 42)
        clean = select_order_proposed(ss)
        assert max(clean.scores) > order_select.ORDER_BLOCK
        monkeypatch.setattr(order_select, "_project_stacked", _singular_projection_at(5))
        result = select_order_proposed(ss)
        failed = {
            t for t, notes in result.diagnostics.items() if any("fit failed" in n for n in notes)
        }
        assert failed == {5}
        assert set(result.scores) == set(clean.scores) - {5}
        for order, score in result.scores.items():
            assert score == clean.scores[order]
            assert result.per_order_fits[order].iterations == clean.per_order_fits[order].iterations
            assert result.per_order_fits[order].converged == clean.per_order_fits[order].converged

    @pytest.mark.parametrize("n_samples, t_max", [(30, None), (60, 11), (14, None)])
    def test_block_fits_match_standalone_fits(self, n_samples, t_max):
        seed = make_seed_pdm_procedural(20, 6, "geometric:0.7", rng_seed=43)
        ss = sample_shapes(seed, n_samples, 5.0, 44)
        result = select_order_proposed(ss, t_max=t_max)
        split = split_data(ss)
        model = fit_pdm(split.x1)
        floor = order_select.SIGMA_FLOOR_REL * float(np.sum(model.lambdas)) / model.n_coords
        t_hi = max(result.scores)
        assert t_hi % order_select.ORDER_BLOCK != 0
        assert set(result.scores) == set(range(1, t_hi + 1))
        scores = {}
        for order in range(1, t_hi + 1):
            alone = alternating_ml(split.y, truncate(model, order), sigma_floor=floor)
            scores[order] = aic_score(alone, order)
            fit = result.per_order_fits[order]
            assert fit.coeffs.shape == (order, split.m2)
            assert fit.iterations == alone.iterations
            assert fit.converged == alone.converged
            assert result.scores[order] == pytest.approx(scores[order], rel=1e-9)
            np.testing.assert_allclose(fit.coeffs, alone.coeffs, rtol=1e-7, atol=1e-12)
        assert result.t_star == min(scores, key=lambda t: (scores[t], t))

    def test_t_max_caps_search(self):
        result = select_order_proposed(self._noiseless_rank3(), t_max=2)
        assert set(result.scores) == {1, 2}
        assert result.t_star == 2

    def test_underdetermined_orders_flagged(self):
        rng = np.random.default_rng(18)
        # M = 9 gives M2 = 4 while the training half supports 4 modes, so
        # the top order runs with as many modes as samples.
        ss = _aligned_random_set(rng, 12, 9)
        result = select_order_proposed(ss)
        assert max(result.scores) == 4
        assert "underdetermined: M2 <= order" in result.diagnostics[4]

    @pytest.mark.parametrize("tol", [math.nan, -1.0], ids=["nan", "negative"])
    def test_bad_tol_raises_value_error(self, tol):
        with pytest.raises(ValueError, match="tol"):
            select_order_proposed(self._noiseless_rank3(), tol=tol)

    def test_zero_variance_training_half(self):
        mat = np.tile(np.array([1.0, -1.0, -1.0, 1.0])[:, None], (1, 8))
        ss = ShapeSet(mat, aligned=True)
        with pytest.raises(ZeroVariance):
            select_order_proposed(ss)

    def test_scale_equivariance_of_selection(self):
        seed = make_seed_pdm_procedural(20, 5, "geometric:0.7", rng_seed=31)
        ss = sample_shapes(seed, 40, 20.0, 32)
        mat = ss.as_matrix()
        stars = []
        for c in (0.1, 1.0, 10.0):
            scaled = ShapeSet(c * mat, aligned=True)
            stars.append(select_order_proposed(scaled).t_star)
        assert stars == [5, 5, 5]

    def test_clean_instance_recovers_true_order(self):
        seed = make_seed_pdm_procedural(40, 10, "geometric:0.7", rng_seed=11)
        ss = sample_shapes(seed, 200, 20.0, 5001)
        assert select_order_proposed(ss).t_star == 10

    def test_noisy_small_sample_underestimates(self):
        # At beta 5 dB and only 20 samples the criterion runs out of evidence
        # for the weakest modes and lands below the true order of 10.
        seed = make_seed_pdm_procedural(40, 10, "geometric:0.7", rng_seed=11)
        ss = sample_shapes(seed, 20, 5.0, 5003)
        assert select_order_proposed(ss).t_star == 7


def _same_result(got, alone) -> None:
    """Bit-for-bit equality of two selections (or the same error)."""
    if isinstance(alone, Exception):
        assert type(got) is type(alone) and str(got) == str(alone)
        return
    assert got.t_star == alone.t_star
    assert got.scores == alone.scores
    assert got.diagnostics == alone.diagnostics
    assert got.per_order_fits.keys() == alone.per_order_fits.keys()
    for order, fit in got.per_order_fits.items():
        other = alone.per_order_fits[order]
        assert (fit.iterations, fit.converged) == (other.iterations, other.converged)
        assert fit.objective_trace == other.objective_trace
        for name in ("coeffs", "sigma_diag", "residuals"):
            np.testing.assert_array_equal(getattr(fit, name), getattr(other, name))


def _alone(shape_set: ShapeSet, **kwargs):
    try:
        return select_order_proposed(shape_set, **kwargs)
    except (TooFewSamples, ZeroVariance) as exc:
        return exc


class TestSelectMany:
    """_select_many stacks the blocks of many sets; each set's result must be
    the one select_order_proposed gives it alone, bit for bit."""

    SEED = make_seed_pdm_procedural(12, 4, "geometric:0.7", rng_seed=51)

    def _set(self, kind: str, count: int, seed: int) -> ShapeSet:
        if kind == "too-small":  # three shapes cannot be split
            return sample_shapes(self.SEED, 3, 10.0, seed)
        shapes = sample_shapes(self.SEED, count, 10.0, seed)
        if kind == "flat-training-half":  # the first half trains and has no variance
            mat = shapes.as_matrix().copy()
            mat[:, : (count + 1) // 2] = mat[:, :1]
            return ShapeSet(mat, aligned=True)
        return shapes

    @given(
        specs=st.lists(
            st.tuples(
                st.sampled_from(["sampled"] * 4 + ["too-small", "flat-training-half"]),
                st.integers(4, 34),
                st.integers(0, 2**32 - 1),
            ),
            min_size=1,
            max_size=6,
        ),
        t_max=st.sampled_from([None, 3, 9]),
        split_seed=st.sampled_from([None, 5]),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_set_matches_its_own_selection(self, specs, t_max, split_seed):
        # Mixed sizes give rows of different t_hi and different (lo, top)
        # blocks; a failing set keeps its own error and changes no neighbour.
        sets = [self._set(*spec) for spec in specs]
        results = order_select._select_many(sets, t_max=t_max, split_seed=split_seed)
        assert len(results) == len(sets)
        for got, shape_set in zip(results, sets):
            _same_result(got, _alone(shape_set, t_max=t_max, split_seed=split_seed))

    def test_errors_stay_in_their_slots(self):
        sets = [
            self._set("sampled", 30, 1), self._set("too-small", 3, 2),
            self._set("flat-training-half", 12, 3), self._set("sampled", 9, 4),
        ]
        results = order_select._select_many(sets)
        assert isinstance(results[1], TooFewSamples)
        assert isinstance(results[2], ZeroVariance)
        for i in (0, 3):
            _same_result(results[i], select_order_proposed(sets[i]))

    @pytest.mark.parametrize("failing_order", [1, 5, 9])
    def test_singular_order_is_noted_in_every_set_alone(self, monkeypatch, failing_order):
        sets = [self._set("sampled", count, count) for count in (34, 20, 12, 7)]
        monkeypatch.setattr(
            order_select, "_project_stacked", _singular_projection_at(failing_order)
        )
        results = order_select._select_many(sets)
        for got, shape_set in zip(results, sets):
            _same_result(got, _alone(shape_set))
            noted = {t for t, notes in got.diagnostics.items() if "fit failed" in notes[0]}
            t_hi = max(got.scores | {t: 0.0 for t in noted})
            assert noted == ({failing_order} if failing_order <= t_hi else set())


class TestSelectOrderVariance:
    def _share(self, lambdas, fraction: float = 0.95) -> int:
        # The rule on a spectrum; select_order_variance hands it the whole
        # spectrum of a fit.  Zero eigenvalues change no cumulative share.
        vals = np.asarray(lambdas, dtype=float)
        return _variance_order(np.concatenate([vals, np.zeros(3)]), fraction)

    def test_short_of_threshold_needs_next_mode(self):
        assert self._share([9.0, 1.0], 0.95) == 2

    def test_exact_threshold_counts(self):
        assert self._share([19.0, 1.0], 0.95) == 1

    def test_cumulative_walk(self):
        assert self._share([5.0, 3.0, 1.0, 1.0], 0.8) == 2

    def test_default_fraction(self):
        ss = _aligned_random_set(np.random.default_rng(1), 12, 20)
        assert select_order_variance(ss) == select_order_variance(ss, 0.95)

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            self._share([0.0, 0.0])
        mat = np.tile(np.array([1.0, -1.0, -1.0, 1.0])[:, None], (1, 4))
        with pytest.raises(ZeroVariance):
            select_order_variance(ShapeSet(mat, aligned=True))

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=12).filter(
            lambda values: sum(values) > 0
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_fraction_below_one_keeps_every_mode_above_rounding(self, values):
        # The cumulative share ends at exactly 1.0, so a fraction one ulp
        # below 1 may leave out modes at rounding level but no larger one.
        lambdas = np.array(sorted(values, reverse=True))
        rounding = 4 * len(values) * np.finfo(float).eps * np.sum(lambdas)
        last_above = int(np.flatnonzero(lambdas > rounding)[-1]) + 1
        assert self._share(lambdas, np.nextafter(1.0, 0.0)) >= last_above

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 8), m=st.integers(2, 24))
    @settings(max_examples=60, deadline=None)
    def test_share_of_the_whole_spectrum(self, seed, k, m):
        # The rule reads the set's whole spectrum, the modes below the rank
        # cut included: it agrees with the share of the covariance's eigh.
        ss = _aligned_random_set(np.random.default_rng(seed), 2 * k, m)
        x = ss.as_matrix()
        centered = x - x.mean(axis=1, keepdims=True)
        spectrum = np.clip(np.linalg.eigvalsh(centered @ centered.T / m)[::-1], 0.0, None)
        share = np.cumsum(spectrum) / np.sum(spectrum)
        for fraction in (0.5, 0.8, 0.95):
            # Skip fractions within rounding of a cumulative share.
            if np.min(np.abs(share - fraction)) > 1e-9:
                assert select_order_variance(ss, fraction) == int(np.argmax(share >= fraction)) + 1

    def test_fraction_bounds(self):
        ss = _aligned_random_set(np.random.default_rng(0), 8, 6)
        with pytest.raises(ValueError):
            select_order_variance(ss, 0.0)
        with pytest.raises(ValueError):
            select_order_variance(ss, 1.0)
