"""Tests for the evaluation harnesses: Monte Carlo runs, subsample sweeps,
and the leave-one-out hidden-landmark error curve.

The LMMSE checks are anchored by independently coded oracles: the ridge
conditional mean solved in exact rational arithmetic, a plain nested-loop
rewrite of the leave-one-out bookkeeping on top of it, and the kernel's
earlier weight-tensor formula solved by np.linalg.solve.
"""

from __future__ import annotations

import concurrent.futures
import math
import multiprocessing
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdmorder import (
    NotAligned,
    ShapeSet,
    generalized_procrustes,
    lmmse_curve,
    make_seed_pdm_procedural,
    monte_carlo_order,
    order_sweep,
    sample_shapes,
    select_order_proposed,
    select_order_variance,
    truncate,
)
from pdmorder import evaluation
from pdmorder.errors import DegenerateShape, SingularSystem, TooFewSamples, ZeroVariance
from pdmorder.evaluation import CellStats, TrialSummary, _FoldBuffers, _predict_landmarks
from pdmorder.order_select import _select_many
from pdmorder.pdm import RANK_REL_TOL, PdmModel, _modes

RIDGE_REL = 1e-10


def _seed_model():
    return make_seed_pdm_procedural(40, 10, "geometric:0.7", rng_seed=11)


def _aligned_random_set(rng: np.random.Generator, k: int, m: int) -> ShapeSet:
    """Random aligned-flagged set: per-shape centroids forced to the origin."""
    mat = rng.normal(size=(2 * k, m))
    for c in range(m):
        mat[0::2, c] -= mat[0::2, c].mean()
        mat[1::2, c] -= mat[1::2, c].mean()
    return ShapeSet(mat, aligned=True)


def _full_rank_model(rng: np.random.Generator, k: int) -> PdmModel:
    n = 2 * k
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = np.sort(rng.uniform(0.5, 4.0, size=n))[::-1]
    return PdmModel(mean=np.zeros(n), basis=q, lambdas=lam, n_train=0)


def _predict(basis: np.ndarray, lambdas: np.ndarray, y: np.ndarray, t_cap: int) -> np.ndarray:
    """_predict_landmarks at orders 1..t_cap on buffers of its own."""
    return _predict_landmarks(basis, lambdas, y, _FoldBuffers(basis.shape[0], t_cap))


def _exact_solve(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """Gauss-Jordan elimination in exact rational arithmetic."""
    n = len(b)
    rows = [row + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [x - factor * p for x, p in zip(rows[r], rows[col])]
    return [rows[r][n] / rows[r][r] for r in range(n)]


def _exact_ridge(
    basis: np.ndarray, lambdas: np.ndarray, y_avail: np.ndarray, landmark: int
) -> np.ndarray:
    """Ridge conditional mean R_ia (R_aa + rho I)^-1 y_a, solved exactly.

    The float model and observation are converted to fractions without
    rounding, so the only rounding is the final conversion back to float.
    """
    n = basis.shape[0]
    vecs = [[Fraction(v) for v in row] for row in basis.tolist()]
    lam = [Fraction(v) for v in lambdas.tolist()]
    cov = [
        [sum(w * vi * vj for w, vi, vj in zip(lam, vecs[i], vecs[j])) for j in range(n)]
        for i in range(n)
    ]
    miss = [2 * landmark, 2 * landmark + 1]
    avail = [i for i in range(n) if i not in miss]
    rho = Fraction(RIDGE_REL) * sum(cov[i][i] for i in avail) / (n - 2)
    r_aa = [[cov[i][j] + (rho if i == j else 0) for j in avail] for i in avail]
    solved = _exact_solve(r_aa, [Fraction(v) for v in y_avail.tolist()])
    return np.array([float(sum(cov[i][j] * z for j, z in zip(avail, solved))) for i in miss])


def _weight_tensor_oracle(
    basis: np.ndarray, lambdas: np.ndarray, y: np.ndarray, t_cap: int
) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's precision-form estimates from a full (K, t_cap, N) weight tensor.

    Every column gets its weight u_tj = rho_t / (lambda_j + rho_t) inside
    the order and 1 beyond it, and each 2 x 2 system goes to np.linalg.solve.
    Returns the (K, t_cap, 2) estimates and the (K, t_cap, 2, 2) systems.
    """
    n = basis.shape[0]
    k = n // 2
    hidden = basis.reshape(k, 2, n)
    visible = 1.0 - np.repeat(np.eye(k), 2, axis=1)
    c = (visible * y) @ basis
    mass = np.cumsum(lambdas[:t_cap] * (visible @ basis[:, :t_cap] ** 2), axis=1)
    rho = np.where(mass > 0.0, RIDGE_REL * mass / (n - 2), 1.0)[:, :, None]
    within = np.arange(n) < np.arange(1, t_cap + 1)[:, None]
    u = np.where(within, rho / (lambdas + rho), 1.0)
    outer = (hidden[:, :, None, :] * hidden[:, None, :, :]).reshape(k, 4, n)
    systems = (u @ outer.transpose(0, 2, 1)).reshape(k, t_cap, 2, 2)
    rhs = u @ (c[:, None, :] * hidden).transpose(0, 2, 1)
    return -np.linalg.solve(systems, rhs[..., None])[..., 0], systems


def _curve_oracle(mat: np.ndarray, t_cap: int) -> dict[int, float]:
    """Nested-loop leave-one-out error, rebuilt from the definition."""
    n, m = mat.shape
    k = n // 2
    sums = {t: 0.0 for t in range(1, t_cap + 1)}
    for fold in range(m):
        kept = np.delete(mat, fold, axis=1)
        mu = kept.mean(axis=1)
        centered = kept - mu[:, None]
        cov_full = centered @ centered.T / kept.shape[1]
        w, v = np.linalg.eigh(cov_full)
        order = np.argsort(w)[::-1]
        w, v = w[order], v[:, order]
        y = mat[:, fold] - mu
        for t in range(1, t_cap + 1):
            for lm in range(k):
                miss = [2 * lm, 2 * lm + 1]
                avail = [i for i in range(n) if i not in miss]
                pred = _exact_ridge(v[:, :t], w[:t], y[avail], lm)
                sums[t] += float(np.sum((pred - y[miss]) ** 2))
    return {t: sums[t] / (m * k) for t in sums}


class TestCellStats:
    def test_from_picks_hand_computed(self) -> None:
        cell = CellStats((3, 3, 4))
        assert cell.hist == {3: 2, 4: 1}
        assert cell.mean_t == pytest.approx(10.0 / 3.0, rel=1e-12)
        # population variance, not the sample estimate
        assert cell.var_t == pytest.approx(2.0 / 9.0, rel=1e-12)

    def test_hist_matches_mean(self) -> None:
        picks = [2, 5, 5, 7, 2, 2]
        cell = CellStats(tuple(picks))
        total = sum(cell.hist.values())
        assert total == len(picks)
        mean_from_hist = sum(t * c for t, c in cell.hist.items()) / total
        assert cell.mean_t == pytest.approx(mean_from_hist, rel=1e-12)

    def test_empty_picks_give_empty_cell(self) -> None:
        cell = CellStats(())
        assert cell.hist == {}
        assert math.isnan(cell.mean_t)
        assert math.isnan(cell.var_t)


class TestTrialSummary:
    def test_hist_total_must_match_trials(self) -> None:
        cell = CellStats((4,))
        with pytest.raises(ValueError):
            TrialSummary(cells={("proposed", 10): cell}, trials=2)

    def test_failures_relax_the_total_check(self) -> None:
        cell = CellStats((4,))
        summary = TrialSummary(
            cells={("proposed", 10): cell}, trials=2,
            failure_classes={"ZeroVariance": 1},
        )
        assert summary.failures == 1

    def test_failures_must_match_missing_picks(self) -> None:
        cell = CellStats((4,))
        with pytest.raises(ValueError, match="missing picks"):
            TrialSummary(
                cells={("proposed", 10): cell}, trials=2,
                failure_classes={"ZeroVariance": 5},
            )

    def test_failures_count_across_cells(self) -> None:
        cells = {
            ("proposed", 10): CellStats((4,)),
            ("proposed", 20): CellStats((4, 5)),
            ("variance", 10): CellStats((3, 3)),
            ("variance", 20): CellStats((6,)),
        }
        classes = {"TooFewSamples": 1}
        assert TrialSummary(cells=cells, trials=2, failure_classes=classes).failures == 1
        cells[("variance", 20)] = CellStats((6, 6))
        with pytest.raises(ValueError, match="missing picks"):
            TrialSummary(cells=cells, trials=2, failure_classes=classes)


class TestMonteCarloArguments:
    """monte_carlo_order refuses a bad argument before any job: no set is
    drawn and no worker process starts, even at threads=2."""

    @pytest.fixture(autouse=True)
    def no_jobs(self, monkeypatch: pytest.MonkeyPatch) -> None:
        def refuse(*args, **kwargs):
            raise AssertionError("a job started before the arguments were checked")

        monkeypatch.setattr(evaluation, "sample_shapes", refuse)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)

    @staticmethod
    def _run(**changes) -> None:
        args = dict(seed_pdm=_seed_model(), beta_db=20.0, sample_counts=(10, 12), trials=2,
                    rng_seed=1, threads=2)
        monte_carlo_order(**{**args, **changes})

    def test_rejects_zero_trials(self) -> None:
        with pytest.raises(ValueError, match="trial"):
            self._run(trials=0)

    def test_rejects_empty_sample_counts(self) -> None:
        with pytest.raises(ValueError, match="sample count"):
            self._run(sample_counts=())

    def test_rejects_unknown_method(self) -> None:
        with pytest.raises(ValueError, match="guesswork"):
            self._run(methods=("proposed", "guesswork"))

    def test_rejects_unknown_distribution(self) -> None:
        with pytest.raises(ValueError, match="bogus"):
            self._run(b_dist="bogus")

    @pytest.mark.parametrize("beta_db", [math.nan, -math.inf, -4000.0])
    def test_rejects_a_noise_variance_that_is_not_finite(self, beta_db: float) -> None:
        with pytest.raises(ValueError, match="noise variance"):
            self._run(beta_db=beta_db)

    @pytest.mark.parametrize("threads", [0, -1])
    def test_rejects_fewer_than_one_worker(self, threads: int) -> None:
        with pytest.raises(ValueError, match=f"threads must be at least 1, got {threads}"):
            self._run(threads=threads)

    def test_rejects_a_negative_seed(self) -> None:
        with pytest.raises(ValueError, match="rng_seed must be a non-negative integer, got -1"):
            self._run(rng_seed=-1)

    def test_rejects_a_sample_count_below_two(self) -> None:
        with pytest.raises(TooFewSamples, match="sample count 1 is below 2 shapes"):
            self._run(sample_counts=(10, 1))

    @pytest.mark.parametrize("methods", [("proposed", "variance"), ("proposed",)])
    @pytest.mark.parametrize("fraction", [2.0, 1.0, 0.0, -0.5, math.nan])
    def test_rejects_a_variance_fraction_outside_zero_one(
        self, fraction: float, methods: tuple[str, ...]
    ) -> None:
        # Refused even when no method reads it.
        with pytest.raises(ValueError, match="fraction must lie strictly between 0 and 1"):
            self._run(variance_fraction=fraction, methods=methods)


class TestMonteCarloOrder:
    def test_single_trial_single_bin(self) -> None:
        cfg = dict(
            seed_pdm=_seed_model(), beta_db=20.0, sample_counts=(30,), trials=1,
            rng_seed=401,
        )
        summary = monte_carlo_order(**cfg)
        assert summary.failures == 0
        for cell in summary.cells.values():
            assert sum(cell.hist.values()) == 1
            assert len(cell.hist) == 1
            assert cell.var_t == 0.0

    def test_reproducible_across_runs(self) -> None:
        cfg = dict(
            seed_pdm=_seed_model(), beta_db=10.0, sample_counts=(20, 30), trials=3,
            rng_seed=402,
        )
        first = monte_carlo_order(**cfg)
        second = monte_carlo_order(**cfg)
        assert first.cells.keys() == second.cells.keys()
        for key in first.cells:
            assert first.cells[key].hist == second.cells[key].hist
            assert first.cells[key].mean_t == second.cells[key].mean_t

    def test_threads_do_not_change_results(self) -> None:
        cfg = dict(
            seed_pdm=_seed_model(), beta_db=10.0, sample_counts=(24,), trials=4,
            rng_seed=403,
        )
        serial = monte_carlo_order(**cfg, threads=1)
        parallel = monte_carlo_order(**cfg, threads=4)
        for key in serial.cells:
            assert serial.cells[key].hist == parallel.cells[key].hist

    def test_cell_keys_cover_methods_and_counts(self) -> None:
        cfg = dict(
            seed_pdm=_seed_model(), beta_db=20.0, sample_counts=(20, 40), trials=1,
            rng_seed=404,
        )
        summary = monte_carlo_order(**cfg)
        assert set(summary.cells) == {
            ("proposed", 20), ("proposed", 40),
            ("variance", 20), ("variance", 40),
        }

    def test_high_snr_large_sample_recovers_truth(self) -> None:
        # 10 modes at 20 dB with 100 samples: every trial picks exactly 10.
        cfg = dict(
            seed_pdm=_seed_model(), beta_db=20.0, sample_counts=(100,), trials=10,
            rng_seed=400,
        )
        summary = monte_carlo_order(**cfg, threads=4)
        cell = summary.cells[("proposed", 100)]
        assert summary.failures == 0
        assert cell.mean_t == 10.0
        assert cell.var_t == 0.0
        assert cell.hist == {10: 10}

    def test_count_below_two_raises(self) -> None:
        cfg = dict(
            seed_pdm=_seed_model(), beta_db=20.0, sample_counts=(1,), trials=1,
            rng_seed=405,
        )
        with pytest.raises(TooFewSamples):
            monte_carlo_order(**cfg)

    def test_noisy_regime_stays_near_truth(self) -> None:
        # 5 dB with 40 samples: slight underestimation, mean close to 9.
        cfg = dict(
            seed_pdm=_seed_model(), beta_db=5.0, sample_counts=(40,), trials=20,
            rng_seed=410,
        )
        summary = monte_carlo_order(**cfg, threads=4)
        cell = summary.cells[("proposed", 40)]
        assert summary.failures == 0
        assert 8.0 <= cell.mean_t <= 10.0


class TestWorkerPool:
    def test_runtime_error_in_a_job_propagates(self, monkeypatch) -> None:
        # The fork carries the patch into the workers.  A programming error is
        # raised in the caller, not counted as a failed trial, and the pool
        # leaves no worker behind.
        def broken(shape_set, fraction):
            raise RuntimeError("broken selector")

        monkeypatch.setattr(evaluation, "select_order_variance", broken)
        cfg = dict(
            seed_pdm=_seed_model(), beta_db=10.0, sample_counts=(12, 16), trials=2,
            rng_seed=406, methods=("variance",),
        )
        with pytest.raises(RuntimeError, match="broken selector"):
            monte_carlo_order(**cfg, threads=2)
        assert multiprocessing.active_children() == []

    def test_worker_pids_are_capped_children(self, base_set: ShapeSet, monkeypatch) -> None:
        # Each job reports the process it ran in.  threads=8 with 3 jobs may
        # start at most min(8, 3, CPUs) workers, none of them this process.
        monkeypatch.setattr(evaluation, "select_order_variance", lambda s, fraction: os.getpid())
        summary = order_sweep(base_set, sample_counts=(8, 10, 12), trials=1, rng_seed=1,
                              methods=("variance",), threads=8)
        pids = {pid for cell in summary.cells.values() for pid in cell.hist}
        cpus = len(os.sched_getaffinity(0))
        assert 1 <= len(pids) <= min(8, 3, cpus)
        if cpus > 1:
            assert os.getpid() not in pids
        assert multiprocessing.active_children() == []

    def test_workers_run_one_blas_thread(self, base_set: ShapeSet, monkeypatch) -> None:
        # Each worker reports its OpenBLAS thread count in place of a pick.
        import ctypes

        from numpy.linalg import _umath_linalg

        blas = ctypes.CDLL(_umath_linalg.__file__)
        getter = next((getattr(blas, name) for name in (
            "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_", "openblas_get_num_threads",
        ) if hasattr(blas, name)), None)
        if getter is None or len(os.sched_getaffinity(0)) < 2:
            pytest.skip("needs OpenBLAS and two CPUs")
        getter.argtypes, getter.restype = [], ctypes.c_int
        monkeypatch.setattr(evaluation, "select_order_variance", lambda s, fraction: getter())
        summary = order_sweep(base_set, sample_counts=(8, 10, 12), trials=2, rng_seed=1,
                              methods=("variance",), threads=2)
        assert {t for cell in summary.cells.values() for t in cell.hist} == {1}

    def test_no_worker_outlives_the_call(self) -> None:
        cfg = dict(
            seed_pdm=_seed_model(), beta_db=10.0, sample_counts=(3, 12), trials=2,
            rng_seed=407,
        )
        serial = monte_carlo_order(**cfg, threads=1)
        pooled = monte_carlo_order(**cfg, threads=2)
        assert multiprocessing.active_children() == []
        # Count 3 fails in every trial: the failures come back from the workers too,
        # with their class.
        assert serial.failures == pooled.failures == 2
        assert serial.failure_classes == pooled.failure_classes == {"TooFewSamples": 2}
        for key, cell in serial.cells.items():
            assert pooled.cells[key].hist == cell.hist


class TestTrialChunks:
    """A job holds several trials of one count; each trial fails on its own."""

    CFG = dict(beta_db=10.0, sample_counts=(10, 16), trials=6, rng_seed=408)

    def _flaky_draw(self, monkeypatch, count: int, trial: int, error: Exception) -> None:
        bad = evaluation._trial_seed(self.CFG["rng_seed"], count, trial)
        draw = evaluation.sample_shapes

        def flaky(model, n, beta_db, seed, **kwargs):
            if seed == bad:
                raise error
            return draw(model, n, beta_db, seed, **kwargs)

        monkeypatch.setattr(evaluation, "sample_shapes", flaky)

    def test_chunks_hold_several_trials(self) -> None:
        assert evaluation.TRIAL_STACK_SHAPES // 16 >= self.CFG["trials"]
        # Largest count first, so the slowest jobs do not finish last.
        assert evaluation._jobs((10, 16), self.CFG["trials"], 1) == [(16, 0, 6), (10, 0, 6)]

    def test_jobs_hold_a_workers_share_of_a_count(self) -> None:
        # A job holds max(1, min(TRIAL_STACK_SHAPES // M, ceil(trials / workers)))
        # trials: one job of 8 serially, one of 4 per worker, and at most
        # TRIAL_STACK_SHAPES shapes, down to one trial.
        assert evaluation._jobs((20,), 8, 1) == [(20, 0, 8)]
        assert evaluation._jobs((20,), 8, 2) == [(20, 0, 4), (20, 4, 4)]
        assert evaluation._jobs((20,), 7, 2) == [(20, 0, 4), (20, 4, 3)]
        big = evaluation.TRIAL_STACK_SHAPES + 1
        assert evaluation._jobs((big,), 3, 1) == [(big, 0, 1), (big, 1, 1), (big, 2, 1)]
        per_job = evaluation.TRIAL_STACK_SHAPES // 10
        assert evaluation._jobs((10,), per_job + 1, 1) == [(10, 0, per_job), (10, per_job, 1)]

    def test_eight_trials_of_200_at_two_workers_form_two_jobs_of_four(self, monkeypatch) -> None:
        # The jobs are cut for min(threads, usable CPUs) workers: two here.
        monkeypatch.setattr(evaluation.os, "sched_getaffinity", lambda pid: {0, 1})
        made = []
        jobs = evaluation._jobs
        monkeypatch.setattr(evaluation, "_jobs", lambda *args: made.append(jobs(*args)) or made[-1])
        cfg = dict(seed_pdm=make_seed_pdm_procedural(8, 3, "geometric:0.7", rng_seed=12),
                   beta_db=20.0, sample_counts=(200,), trials=8, rng_seed=409)
        pooled = monte_carlo_order(**cfg, threads=2)
        assert made == [[(200, 0, 4), (200, 4, 4)]]
        serial = monte_carlo_order(**cfg, threads=1)
        assert made[1] == [(200, 0, 4), (200, 4, 4)]
        assert pooled.sweeps == serial.sweeps > 0
        for key, cell in serial.cells.items():
            assert pooled.cells[key].hist == cell.hist

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_failed_draw_fails_its_trial_alone(self, monkeypatch, threads) -> None:
        # Trial 2 of count 10 cannot be drawn.  It alone fails, under its
        # class, and the other trials of its job pick what they pick with one
        # trial per job.
        self._flaky_draw(monkeypatch, 10, 2, DegenerateShape("shape 0 has no spatial extent"))
        chunked = monte_carlo_order(_seed_model(), **self.CFG, threads=threads)
        monkeypatch.setattr(evaluation, "TRIAL_STACK_SHAPES", 1)
        alone = monte_carlo_order(_seed_model(), **self.CFG)
        assert chunked.failures == alone.failures == 1
        assert chunked.failure_classes == alone.failure_classes == {"DegenerateShape": 1}
        assert sum(chunked.cells[("proposed", 10)].hist.values()) == 5
        for key, cell in alone.cells.items():
            assert chunked.cells[key].hist == cell.hist

    def test_a_failed_selection_fails_its_trial_alone(self, monkeypatch) -> None:
        # The variance rule refuses the fourth 10-shape set of its job: that
        # trial fails under that class, and the proposed picks of the others
        # stay as they are.
        clean = monte_carlo_order(_seed_model(), **self.CFG)
        calls = []

        def picky(shape_set, fraction):
            calls.append(shape_set.n_shapes)
            if calls.count(10) == 4 and calls[-1] == 10:
                raise ZeroVariance("the shapes carry no variance")
            return select_order_variance(shape_set, fraction=fraction)

        monkeypatch.setattr(evaluation, "select_order_variance", picky)
        summary = monte_carlo_order(_seed_model(), **self.CFG)
        assert summary.failure_classes == {"ZeroVariance": 1}
        proposed = summary.cells[("proposed", 10)].hist
        assert sum(proposed.values()) == 5
        assert all(proposed.get(t, 0) <= n for t, n in clean.cells[("proposed", 10)].hist.items())
        assert summary.cells[("proposed", 16)].hist == clean.cells[("proposed", 16)].hist


@pytest.fixture(scope="module")
def base_set() -> ShapeSet:
    return sample_shapes(_seed_model(), 24, 20.0, 402)


class TestOrderSweep:

    def test_prefix_mode_matches_direct_selection(self, base_set: ShapeSet) -> None:
        summary = order_sweep(
            base_set, sample_counts=(12, 18), trials=1, rng_seed=7, mode="prefix"
        )
        for count in (12, 18):
            subset = base_set.subset(list(range(count)))
            want_p = select_order_proposed(subset).t_star
            want_v = select_order_variance(subset)
            assert summary.cells[("proposed", count)].hist == {want_p: 1}
            assert summary.cells[("variance", count)].hist == {want_v: 1}

    def test_prefix_mode_selects_once_per_count(self, base_set: ShapeSet, monkeypatch) -> None:
        # Every prefix trial draws the same subset: one selection per count
        # is counted `trials` times, and a count that fails fails every trial.
        calls = []

        def counting(shape_sets, **kwargs):
            calls.extend(shape_set.n_shapes for shape_set in shape_sets)
            return _select_many(shape_sets, **kwargs)

        monkeypatch.setattr(evaluation, "_select_many", counting)
        summary = order_sweep(
            base_set, sample_counts=(3, 12, 18), trials=4, rng_seed=7, mode="prefix",
            methods=("proposed",),
        )
        assert sorted(calls) == [3, 12, 18]
        assert summary.trials == 4
        assert summary.failures == 4
        assert summary.cells[("proposed", 3)].hist == {}
        for count in (12, 18):
            want = select_order_proposed(base_set.subset(list(range(count)))).t_star
            cell = summary.cells[("proposed", count)]
            assert cell.hist == {want: 4}
            assert (cell.mean_t, cell.var_t) == (want, 0.0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(trials=0), "at least one trial"),
            (dict(sample_counts=()), "at least one sample count"),
            (dict(methods=("bogus",)), "unknown selection method"),
            (dict(variance_fraction=2.0), "fraction must lie strictly between 0 and 1"),
            (dict(variance_fraction=0.0), "fraction must lie strictly between 0 and 1"),
            (dict(variance_fraction=math.nan), "fraction must lie strictly between 0 and 1"),
            (dict(variance_fraction=1.5, methods=("proposed",)),
             "fraction must lie strictly between 0 and 1"),
        ],
        ids=["zero-trials", "empty-sample-counts", "unknown-method", "fraction-2",
             "fraction-0", "fraction-nan", "fraction-unread"],
    )
    def test_refuses_what_monte_carlo_refuses(
        self, base_set: ShapeSet, monkeypatch: pytest.MonkeyPatch, kwargs: dict, message: str
    ) -> None:
        def refuse(*args, **kwargs):
            raise AssertionError("a trial ran before the arguments were checked")

        monkeypatch.setattr(evaluation, "_tabulate", refuse)
        call = dict(sample_counts=(12,), trials=1, rng_seed=5) | kwargs
        with pytest.raises(ValueError, match=message):
            order_sweep(base_set, **call)

    @pytest.mark.parametrize("mode", ["random", "prefix"])
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(threads=0), "threads must be at least 1, got 0"),
            (dict(threads=-1), "threads must be at least 1, got -1"),
            (dict(rng_seed=-1), "rng_seed must be a non-negative integer, got -1"),
        ],
        ids=["zero-threads", "negative-threads", "negative-seed"],
    )
    def test_refuses_a_bad_worker_count_or_seed_before_any_draw(
        self, base_set: ShapeSet, monkeypatch: pytest.MonkeyPatch, mode: str, kwargs: dict,
        message: str,
    ) -> None:
        def refuse(*args, **kwargs):
            raise AssertionError("a trial ran before the arguments were checked")

        monkeypatch.setattr(evaluation, "_tabulate", refuse)
        call = dict(sample_counts=(12,), trials=2, rng_seed=5, mode=mode) | kwargs
        with pytest.raises(ValueError, match=message):
            order_sweep(base_set, **call)

    def test_full_count_draws_the_whole_set(self, base_set: ShapeSet) -> None:
        # Sampling M of M without replacement can only return the full set.
        m = base_set.n_shapes
        summary = order_sweep(
            base_set, sample_counts=(m,), trials=1, rng_seed=99, mode="random"
        )
        want = select_order_proposed(base_set).t_star
        assert summary.cells[("proposed", m)].hist == {want: 1}

    def test_random_mode_deterministic(self, base_set: ShapeSet) -> None:
        first = order_sweep(base_set, sample_counts=(12,), trials=3, rng_seed=5)
        second = order_sweep(base_set, sample_counts=(12,), trials=3, rng_seed=5)
        for key in first.cells:
            assert first.cells[key].hist == second.cells[key].hist

    def test_count_above_population_raises(self, base_set: ShapeSet) -> None:
        with pytest.raises(TooFewSamples):
            order_sweep(base_set, sample_counts=(base_set.n_shapes + 1,), trials=1,
                        rng_seed=1)

    def test_unknown_mode_raises(self, base_set: ShapeSet) -> None:
        with pytest.raises(ValueError):
            order_sweep(base_set, sample_counts=(12,), trials=1, rng_seed=1,
                        mode="bootstrap")

    @pytest.mark.parametrize("count", [1, 0])
    def test_count_below_two_raises(self, base_set: ShapeSet, count: int) -> None:
        with pytest.raises(TooFewSamples):
            order_sweep(base_set, sample_counts=(12, count), trials=1, rng_seed=1)

    def test_threads_do_not_change_results(self, base_set: ShapeSet) -> None:
        serial = order_sweep(base_set, sample_counts=(8, 12), trials=3, rng_seed=6)
        parallel = order_sweep(base_set, sample_counts=(8, 12), trials=3, rng_seed=6,
                               threads=3)
        assert serial.cells.keys() == parallel.cells.keys()
        for key in serial.cells:
            assert serial.cells[key].hist == parallel.cells[key].hist


# Every entry point that takes a selector cap refuses one below 1 as an
# argument error, before any fold or trial runs a selection.
_T_MAX_CALLS = {
    "select_order_proposed": lambda ss, cap: select_order_proposed(ss, t_max=cap),
    "lmmse_curve-t_max": lambda ss, cap: lmmse_curve(ss, t_max=cap),
    "lmmse_curve-selector_t_max": lambda ss, cap: lmmse_curve(ss, selector_t_max=cap),
    "order_sweep": lambda ss, cap: order_sweep(ss, (20,), 2, 1, t_max=cap),
    "monte_carlo_order": lambda ss, cap: monte_carlo_order(
        _seed_model(), beta_db=20.0, sample_counts=(20,), trials=2, rng_seed=1, t_max=cap
    ),
}


@pytest.mark.parametrize("cap", [0, -2])
@pytest.mark.parametrize("entry", sorted(_T_MAX_CALLS))
def test_t_max_below_one_is_an_argument_error(
    base_set: ShapeSet, monkeypatch: pytest.MonkeyPatch, entry: str, cap: int
) -> None:
    def no_selection(*args, **kwargs):
        raise AssertionError("a selection ran before the cap was checked")

    monkeypatch.setattr(evaluation, "select_order_proposed", no_selection)
    with pytest.raises(ValueError, match="t_max"):
        _T_MAX_CALLS[entry](base_set, cap)


class TestLmmseEstimateLandmark:
    """The per-fold kernel of lmmse_curve, read at one landmark and order.

    _predict(basis, lambdas, y, t)[landmark, -1] is the estimate
    from the leading t modes: modes past t get weight 1 whatever their
    eigenvalue, and the hidden pair of y is never read.
    """

    def test_matches_conditional_mean_oracle(self) -> None:
        # The widest order a hidden landmark allows, t = N - 2, on samples
        # off the model span.  These five land within 1e-13 of the exact
        # ridge conditional mean; 200 random draws came within 6.7e-12.
        rng = np.random.default_rng(3)
        full = _full_rank_model(rng, k=5)
        model = truncate(full, 8)
        for landmark in range(5):
            y = rng.normal(size=10)
            avail = [i for i in range(10) if i not in (2 * landmark, 2 * landmark + 1)]
            want = _exact_ridge(model.basis, model.lambdas, y[avail], landmark)
            got = _predict(full.basis, full.lambdas, y, 8)[landmark, -1]
            np.testing.assert_allclose(got, want, rtol=1e-11)

    def test_in_span_sample_recovered_exactly(self) -> None:
        # A sample inside the model span determines its hidden landmark.
        rng = np.random.default_rng(5)
        full = _full_rank_model(rng, k=6)
        t = 3
        model = truncate(full, t)
        b = rng.normal(size=t) * np.sqrt(model.lambdas)
        y_full = model.basis @ b
        for landmark in (0, 3, 5):
            miss = [2 * landmark, 2 * landmark + 1]
            est = _predict(full.basis, full.lambdas, y_full, t)[landmark, -1]
            np.testing.assert_allclose(est, y_full[miss], atol=1e-8)

    def test_rank_deficient_model_matches_exact_solve(self) -> None:
        rng = np.random.default_rng(10)
        full = _full_rank_model(rng, k=4)
        model = truncate(full, 3)
        y = rng.normal(size=8)
        for landmark in range(4):
            avail = [i for i in range(8) if i not in (2 * landmark, 2 * landmark + 1)]
            want = _exact_ridge(model.basis, model.lambdas, y[avail], landmark)
            got = _predict(full.basis, full.lambdas, y, 3)[landmark, -1]
            np.testing.assert_allclose(got, want, rtol=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(3, 6), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_property_in_span_recovery_and_oracle(
        self, seed: int, k: int, data: st.DataObject
    ) -> None:
        # At every order up to N - 2 a sample in the model span determines
        # its hidden landmark; at t = N - 2 the estimate must also be the
        # exact ridge conditional mean.
        n = 2 * k
        t = data.draw(st.integers(1, n - 2), label="t")
        landmark = data.draw(st.integers(0, k - 1), label="landmark")
        rng = np.random.default_rng(seed)
        full = _full_rank_model(rng, k)
        model = truncate(full, t)
        y = model.basis @ (rng.normal(size=t) * np.sqrt(model.lambdas))
        miss = [2 * landmark, 2 * landmark + 1]
        avail = [i for i in range(n) if i not in miss]
        # The ridge bias and the rounding both grow with cond(R_aa) = cond(A_a)**2.
        cond = np.linalg.cond(np.delete(model.basis * np.sqrt(model.lambdas), miss, axis=0))
        got = _predict(full.basis, full.lambdas, y, t)[landmark, -1]
        np.testing.assert_allclose(got, y[miss], atol=1e-9 * cond**2 * np.abs(y).max())
        if t == n - 2:
            want = _exact_ridge(model.basis, model.lambdas, y[avail], landmark)
            np.testing.assert_allclose(got, want, atol=1e-15 * cond**2 * np.abs(want).max())

    def test_mode_on_the_hidden_landmark_alone_predicts_zero(self) -> None:
        # The visible rows carry no variance, so they say nothing about it.
        lambdas = np.zeros(8)
        lambdas[0] = 2.0
        est = _predict(np.eye(8), lambdas, np.arange(8.0), 1)[0, -1]
        assert np.array_equal(est, np.zeros(2))

    def test_zero_observation_gives_zero_estimate(self) -> None:
        rng = np.random.default_rng(6)
        full = _full_rank_model(rng, k=4)
        est = _predict(full.basis, full.lambdas, np.zeros(8), 6)[2, -1]
        assert np.array_equal(est, np.zeros(2))


def _model_of_kind(rng: np.random.Generator, k: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """A full orthonormal basis and descending eigenvalues of one kind.

    "full" has every eigenvalue positive, "zeros" ends in 1..N-2 zero ones,
    and "single" puts one mode, at a random rank, on one coordinate alone.
    """
    n = 2 * k
    lambdas = np.sort(rng.uniform(0.5, 4.0, size=n))[::-1]
    if kind == "zeros":
        lambdas[n - rng.integers(1, n - 1):] = 0.0
    if kind != "single":
        return np.linalg.qr(rng.normal(size=(n, n)))[0], lambdas
    axis = np.zeros(n)
    axis[rng.integers(0, n)] = 1.0
    rest = rng.normal(size=(n, n - 1))
    rest -= np.outer(axis, axis @ rest)
    basis = np.insert(np.linalg.qr(rest)[0], rng.integers(0, n), axis, axis=1)
    return basis, lambdas


class TestPredictLandmarksMatchesWeightTensor:
    """The tail-sum kernel against the weight-tensor formula it replaced."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(3, 8),
        kind=st.sampled_from(["full", "zeros", "single"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_property_every_order_matches(self, seed: int, k: int, kind: str) -> None:
        # Both formulas round the 2 x 2 entries, and the solve scales that by
        # cond(A_t): 1e-12 relative while cond <= 100, growing with it
        # beyond.  At t near N - 2 random bases reach cond 1e10, where both
        # miss the exact rational answer by ~3e-7; 9000 draws stayed within
        # 3 eps cond of each other.
        rng = np.random.default_rng(seed)
        basis, lambdas = _model_of_kind(rng, k, kind)
        y = rng.normal(size=2 * k)
        got = _predict(basis, lambdas, y, 2 * k - 2)
        want, systems = _weight_tensor_oracle(basis, lambdas, y, 2 * k - 2)
        bound = 1e-14 * np.maximum(np.linalg.cond(systems), 100.0) * np.abs(want).max()
        assert np.all(np.abs(got - want).max(axis=-1) <= bound)

    def test_workload_sized_fold_matches_within_1e_12(self) -> None:
        # A fold as lmmse_curve fits it: 30 shapes, N = 80, orders 1..27.
        shape_set = sample_shapes(_seed_model(), 30, 10.0, 4)
        x = shape_set.as_matrix()
        mean, basis, lambdas = _modes(shape_set.subset(range(1, 30)))
        y = x[:, 0] - mean
        got = _predict(basis, lambdas, y, 27)
        want, _ = _weight_tensor_oracle(basis, lambdas, y, 27)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_basis_raises_singular_system(self, bad: float) -> None:
        basis, lambdas = _model_of_kind(np.random.default_rng(8), 4, "full")
        basis[3, 5] = bad
        with pytest.raises(SingularSystem):
            _predict(basis, lambdas, np.ones(8), 6)

    def test_singular_system_raises_instead_of_inf(self) -> None:
        # A zero basis leaves every 2 x 2 system zero: det = 0.
        with pytest.raises(SingularSystem):
            _predict(np.zeros((8, 8)), np.ones(8), np.ones(8), 3)


class TestFoldBuffers:
    """One set of buffers serves every fold of a curve and carries nothing between them."""

    def test_a_failed_fold_leaves_nothing_for_the_next(self) -> None:
        # Fold B, with a NaN in its basis, fills the buffers with NaN before
        # it raises; fold A run after it must not see any of that.
        shape_set = sample_shapes(_seed_model(), 30, 10.0, 4)
        mean, basis, lambdas = _modes(shape_set.subset(range(1, 30)))
        y = shape_set.as_matrix()[:, 0] - mean
        bad = basis.copy()
        bad[7, 3] = np.nan
        shared = _FoldBuffers(80, 27)
        reused = [_predict_landmarks(basis, lambdas, y, shared)]
        with pytest.raises(SingularSystem):
            _predict_landmarks(bad, lambdas, y, shared)
        reused.append(_predict_landmarks(basis, lambdas, y, shared))
        fresh = [_predict(basis, lambdas, y, 27)]
        with pytest.raises(SingularSystem):
            _predict(bad, lambdas, y, 27)
        fresh.append(_predict(basis, lambdas, y, 27))
        assert all(np.array_equal(reused[0], other) for other in reused[1:] + fresh)

    def test_curve_matches_fresh_buffers_per_fold(self) -> None:
        # The workload-sized set: 30 shapes, N = 80, orders 1..27.
        shape_set = sample_shapes(_seed_model(), 30, 10.0, 4)
        x = shape_set.as_matrix()
        n, m = x.shape
        sums = np.zeros(27)
        for fold in range(m):
            mean, basis, lambdas = _modes(shape_set.subset(np.delete(np.arange(m), fold)))
            y = x[:, fold] - mean
            predicted = _predict(basis, lambdas, y, 27)
            sums += np.sum((predicted - y.reshape(n // 2, 1, 2)) ** 2, axis=(0, 2))
        assert lmmse_curve(shape_set).errors == {t: sums[t - 1] / (m * n // 2) for t in range(1, 28)}


class TestLmmseCurve:
    def test_svd_folds_match_the_eigh_curve(self) -> None:
        # A workload-sized set (N = 80, M = 30).  The oracle fits every fold
        # by eigh of the 80 x 80 covariance, as before the SVD fit, and runs
        # the same kernel on that basis.
        shape_set = sample_shapes(_seed_model(), 30, 10.0, 7)
        x = shape_set.as_matrix()
        n, m = x.shape
        folds = []
        for fold in range(m):
            kept = np.delete(x, fold, axis=1)
            mean = kept.mean(axis=1)
            centered = kept - mean[:, None]
            vals, vecs = np.linalg.eigh(centered @ centered.T / (m - 1))
            folds.append((mean, vecs[:, ::-1], np.clip(vals[::-1], 0.0, None)))
        rank = min(int(np.sum(lam > RANK_REL_TOL * lam[0])) for _, _, lam in folds)
        t_cap = min(n - 4, m - 2, rank - 1)
        sums = np.zeros(t_cap)
        for fold, (mean, basis, lambdas) in enumerate(folds):
            y = x[:, fold] - mean
            predicted = _predict(basis, lambdas, y, t_cap)
            sums += np.sum((predicted - y.reshape(n // 2, 1, 2)) ** 2, axis=(0, 2))
        oracle = {t: sums[t - 1] / (m * n // 2) for t in range(1, t_cap + 1)}

        result = lmmse_curve(shape_set)
        assert sorted(result.errors) == sorted(oracle)
        for t in oracle:
            assert result.errors[t] == pytest.approx(oracle[t], rel=1e-12, abs=0)
        assert result.argmin_t == min(oracle, key=lambda t: (oracle[t], t))

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(3, 4), m=st.integers(4, 6))
    @example(seed=12, k=3, m=5)
    @settings(max_examples=25, deadline=None)
    def test_matches_nested_loop_oracle(self, seed: int, k: int, m: int) -> None:
        shape_set = _aligned_random_set(np.random.default_rng(seed), k, m)
        result = lmmse_curve(shape_set)
        oracle = _curve_oracle(shape_set.as_matrix(), max(result.errors))
        assert sorted(result.errors) == sorted(oracle)
        for t in oracle:
            assert result.errors[t] == pytest.approx(oracle[t], rel=1e-12)

    def test_identical_shapes_have_zero_error(self) -> None:
        mat = np.tile(
            np.array([1.0, -1.0, -1.0, 1.0, 0.5, 0.5, -0.5, -0.5])[:, None], (1, 4)
        )
        for c in range(4):
            mat[0::2, c] -= mat[0::2, c].mean()
            mat[1::2, c] -= mat[1::2, c].mean()
        result = lmmse_curve(ShapeSet(mat, aligned=True))
        assert all(e == 0.0 for e in result.errors.values())
        # ties resolve to the smallest order, and no order can be selected
        assert result.argmin_t == min(result.errors)
        assert result.selected_orders == {}

    def test_curve_dips_at_the_true_order(self) -> None:
        seed = make_seed_pdm_procedural(20, 5, "geometric:0.7", rng_seed=31)
        shape_set = sample_shapes(seed, 20, 20.0, 90)
        result = lmmse_curve(shape_set)
        t_lo, t_hi = min(result.errors), max(result.errors)
        assert result.argmin_t == 5
        assert result.errors[t_lo] > result.errors[5]
        assert result.errors[t_hi] > result.errors[5]
        assert result.selected_orders == {"proposed": 5, "variance": 5}

    def test_t_max_caps_the_table(self) -> None:
        rng = np.random.default_rng(13)
        shape_set = _aligned_random_set(rng, k=8, m=12)
        result = lmmse_curve(shape_set, t_max=3)
        assert sorted(result.errors) == [1, 2, 3]

    def test_unaligned_input_is_refused(self) -> None:
        # Like fit_pdm and select_order_proposed, the curve runs no hidden
        # Procrustes of its own: the caller aligns (the CLI always does).
        seed = make_seed_pdm_procedural(20, 5, "geometric:0.7", rng_seed=31)
        raw = sample_shapes(seed, 12, 10.0, 91, realign=False)
        assert not raw.aligned
        with pytest.raises(NotAligned):
            lmmse_curve(raw)
        assert lmmse_curve(generalized_procrustes(raw)).errors

    def test_too_few_samples_raises(self) -> None:
        rng = np.random.default_rng(14)
        shape_set = _aligned_random_set(rng, k=4, m=2)
        with pytest.raises(TooFewSamples):
            lmmse_curve(shape_set)
