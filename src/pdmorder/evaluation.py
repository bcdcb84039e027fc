"""Monte Carlo and leave-one-out evaluation harnesses.

monte_carlo_order regenerates fresh synthetic sets and tabulates what each
selector picks; order_sweep does the same over subsets of one fixed set;
lmmse_curve scores every candidate order by how well the truncated model
predicts a left-out landmark of a left-out sample from the remaining ones.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NotAligned, PdmOrderError, SingularSystem, TooFewSamples, ZeroVariance
from .order_select import select_order_proposed, select_order_variance
from .pdm import PdmModel, _modes, _rank
from .shapes import ShapeSet
from .simgen import SimConfig, noise_variance, sample_shapes

RIDGE_REL = 1e-10


@dataclass(frozen=True)
class CellStats:
    """Histogram of selected orders for one (method, sample count) cell."""

    mean_t: float
    var_t: float
    hist: dict[int, int]

    @staticmethod
    def from_picks(picks: list[int]) -> "CellStats":
        if not picks:
            # Every trial in the cell failed; keep the cell but mark it empty.
            return CellStats(mean_t=float("nan"), var_t=float("nan"), hist={})
        values = np.array(picks, dtype=float)
        return CellStats(
            mean_t=float(values.mean()),
            var_t=float(values.var()),
            hist=dict(sorted(Counter(picks).items())),
        )


@dataclass(frozen=True, eq=False)
class TrialSummary:
    """Selected-order statistics per (method, sample count).

    failures counts trials that aborted with a propagated error; their
    picks are missing from the histograms.
    """

    cells: dict[tuple[str, int], CellStats]
    trials: int
    failures: int = 0

    def __post_init__(self) -> None:
        # A failed trial drops every method's pick, so each method misses
        # exactly `failures` picks across its cells, and no cell overflows.
        missing: dict[str, list[int]] = {}
        for (method, _), cell in self.cells.items():
            missing.setdefault(method, []).append(self.trials - sum(cell.hist.values()))
        if any(min(absent) < 0 or sum(absent) != self.failures for absent in missing.values()):
            raise ValueError(f"missing picks {missing} do not match {self.failures} failures")


def _check_trials(
    sample_counts: tuple[int, ...], trials: int, methods: tuple[str, ...], t_max: int | None
) -> None:
    """Refuse no trials, no sample counts, an unknown method or a t_max below 1."""
    if trials < 1:
        raise ValueError("at least one trial is required")
    if not sample_counts:
        raise ValueError("at least one sample count is required")
    for method in methods:
        if method not in ("proposed", "variance"):
            raise ValueError(f"unknown selection method {method!r}")
    if t_max is not None and t_max < 1:
        raise ValueError("t_max must be at least 1")


def _trial_seed(master: int, count: int, trial: int) -> int:
    return int(np.random.SeedSequence((master, count, trial)).generate_state(1, np.uint64)[0])


def _tabulate(
    draw: Callable[[int, int], ShapeSet],
    sample_counts: tuple[int, ...],
    trials: int,
    methods: tuple[str, ...],
    t_max: int | None,
    fraction: float,
    threads: int,
) -> TrialSummary:
    """Run every method on draw(count, trial) for every job and tabulate the picks.

    draw derives its randomness from (count, trial) alone, so the result does
    not depend on job order or on the number of worker processes.  A
    PdmOrderError in a job counts as one failure that drops every method's
    pick; sample counts below 2 are rejected up front, so every counted
    failure comes from the data.  Any other error propagates.

    With threads above 1 the jobs run in min(threads, jobs, usable CPUs)
    forked worker processes, which needs Linux.  The fork hands each worker
    the job function with draw and its data, so only (count, trial) and the
    picks cross the pipe; the largest sample counts go first, so the
    slowest jobs do not finish last.  Each worker runs its BLAS on one
    thread (see _adopt), and the pool joins them all before returning.
    """
    if min(sample_counts) < 2:
        raise TooFewSamples(f"sample count {min(sample_counts)} is below 2 shapes")
    counts = tuple(dict.fromkeys(sample_counts))

    def _one(job: tuple[int, int]) -> dict[str, int] | None:
        try:
            shape_set = draw(*job)
            return {
                method: select_order_proposed(shape_set, t_max=t_max).t_star
                if method == "proposed"
                else select_order_variance(shape_set, fraction=fraction)
                for method in methods
            }
        except PdmOrderError:
            return None

    jobs = [(count, trial) for count in counts for trial in range(trials)]
    workers = min(threads, len(jobs))
    if workers > 1:  # os.sched_getaffinity is Linux-only; a serial run never asks
        workers = min(workers, len(os.sched_getaffinity(0)))
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        largest_first = sorted(jobs, key=lambda job: -job[0])
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(
            workers, mp_context=fork, initializer=_adopt, initargs=(_one,)
        ) as pool:
            done = dict(zip(largest_first, pool.map(_run_adopted, largest_first)))
        outcomes = [done[job] for job in jobs]
    else:
        outcomes = [_one(job) for job in jobs]
    cells = {
        (method, count): CellStats.from_picks(
            [picked[method] for (c, _), picked in zip(jobs, outcomes) if c == count and picked]
        )
        for count in counts
        for method in methods
    }
    return TrialSummary(cells=cells, trials=trials, failures=outcomes.count(None))


# The job function of a forked worker, set once by the pool's initializer.
_adopted: Callable[[tuple[int, int]], dict[str, int] | None] | None = None
# OpenBLAS's thread-count setter under the names that numpy's builds export.
_BLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_", "openblas_set_num_threads",
)


def _adopt(one: Callable[[tuple[int, int]], dict[str, int] | None]) -> None:
    """Keep a worker's job function and pin its BLAS to one thread.

    The workers already fill the CPUs, so a BLAS thread pool in each would
    oversubscribe them: with OpenBLAS at its default 2 threads on 2 CPUs, 2
    workers that kept them took 7.4 s for 20 trials of 200 shapes, one
    process 4.8 s.  A BLAS without a known setter is left as it is.
    """
    global _adopted
    _adopted = one
    import ctypes

    from numpy.linalg import _umath_linalg

    blas = ctypes.CDLL(_umath_linalg.__file__)
    setter = next((getattr(blas, name) for name in _BLAS_SETTERS if hasattr(blas, name)), None)
    if setter is not None:
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)


def _run_adopted(job: tuple[int, int]) -> dict[str, int] | None:
    return _adopted(job)


def monte_carlo_order(
    seed_pdm: PdmModel,
    beta_db: float,
    sample_counts: tuple[int, ...],
    trials: int,
    rng_seed: int,
    methods: tuple[str, ...] = ("proposed", "variance"),
    variance_fraction: float = 0.95,
    t_max: int | None = None,
    b_dist: str = "uniform",
    threads: int = 1,
) -> TrialSummary:
    """Tabulate the orders picked on fresh synthetic sets drawn from seed_pdm.

    Args:
        seed_pdm: generator model, procedural or loaded from disk.  Every
            mode it keeps is a true mode, so its order is the answer each
            trial should recover.
        beta_db, b_dist: noise level and coefficient draw (see SimConfig).
        sample_counts: shapes per set, each at least 2.
        trials: sets per sample count.
        rng_seed: master seed.  Each (sample count, trial) derives its own
            generation seed, so results depend neither on job order nor on
            the number of worker processes.
        methods: selectors, all run on the same sets.
        variance_fraction, t_max: selector options.
        threads: worker processes across trials (see _tabulate); 1 runs
            them in this process.

    Every argument is checked, and refused with a ValueError (TooFewSamples
    for a sample count below 2), before the first set is drawn or the first
    worker starts; that includes a beta_db whose noise variance is not finite.
    """
    _check_trials(sample_counts, trials, methods, t_max)
    noise_variance(seed_pdm.lambdas, beta_db, b_dist)  # refuses b_dist and beta_db

    def _draw(count: int, trial: int) -> ShapeSet:
        seed = _trial_seed(rng_seed, count, trial)
        return sample_shapes(seed_pdm, SimConfig(count, beta_db, seed, b_dist=b_dist))

    return _tabulate(_draw, sample_counts, trials, methods, t_max, variance_fraction, threads)


def order_sweep(
    shape_set: ShapeSet,
    sample_counts: tuple[int, ...],
    trials: int,
    rng_seed: int,
    methods: tuple[str, ...] = ("proposed", "variance"),
    mode: str = "random",
    t_max: int | None = None,
    variance_fraction: float = 0.95,
    threads: int = 1,
) -> TrialSummary:
    """Tabulate selected orders over subsets of one fixed set.

    Args:
        shape_set: aligned input set.
        sample_counts: subset sizes, each from 2 up to the set size.
        trials: independent random subsets per size.  Every prefix trial
            draws the same subset, so prefix mode selects once per size and
            counts that pick `trials` times.
        rng_seed: master seed for the subset draws.
        methods: selectors to run on every subset.
        mode: "random" draws subsets without replacement; "prefix" takes
            the first samples in input order.
        t_max, variance_fraction: selector options.
        threads: worker processes across trials (see _tabulate); 1 runs
            them in this process.
    """
    _check_trials(sample_counts, trials, methods, t_max)
    m = shape_set.n_shapes
    if max(sample_counts) > m:
        raise TooFewSamples(f"subset size {max(sample_counts)} exceeds the {m} available shapes")
    if mode not in ("random", "prefix"):
        raise ValueError(f"unknown sweep mode {mode!r}")

    def _draw(count: int, trial: int) -> ShapeSet:
        if mode == "prefix":
            return shape_set.subset(range(count))
        rng = np.random.default_rng(_trial_seed(rng_seed, count, trial))
        return shape_set.subset(np.sort(rng.choice(m, size=count, replace=False)))

    if mode == "random":
        return _tabulate(_draw, sample_counts, trials, methods, t_max, variance_fraction, threads)
    once = _tabulate(_draw, sample_counts, 1, methods, t_max, variance_fraction, threads)
    cells = {
        key: CellStats(cell.mean_t, cell.var_t, {t: trials * n for t, n in cell.hist.items()})
        for key, cell in once.cells.items()
    }
    return TrialSummary(cells=cells, trials=trials, failures=trials * once.failures)


def _predict_landmarks(
    basis: np.ndarray, lambdas: np.ndarray, y: np.ndarray, t_cap: int
) -> np.ndarray:
    """Predict every landmark of y from the others at every order 1..t_cap.

    basis is a full (N, N) orthonormal basis P with eigenvalues lambdas
    (a zero one acts as a mode outside the model), y a mean-removed (N,)
    sample, and t_cap at most N - 2.  With p_j the hidden landmark's two rows
    of column j, c_j = p_aj^T y_a its visible projection and
    rho_t = RIDGE_REL * sum_{j<=t} lambda_j |p_aj|^2 / (N - 2)
    (1 where that sum is 0, so visible rows without variance predict zero),
    the estimate at order t is x_t = -A_t^-1 b_t with

        A_t = sum_{j<=t} u_tj p_j p_j^T + T_t,   T_t = sum_{j>t} p_j p_j^T,
        b_t = sum_{j<=t} u_tj c_j p_j + s_t,     s_t = sum_{j>t} c_j p_j,
        u_tj = rho_t / (lambda_j + rho_t).

    That is the conditional mean R_ia (R_aa + rho_t I)^-1 y_a under
    R_t + rho_t I in precision form.  Past order t every weight is 1, so one
    reverse cumulative sum over the columns gives the tails T_t and s_t of
    every order, and only the lower-triangular (K, t_cap, t_cap) weights u
    are formed.  A_t is a sum of PSD terms, so it does not cancel when a mode
    sits on one landmark.  The hidden rows of P are orthonormal, so
    T_t <= A_t <= I and cond(A_t) <= 1 / lambda_min(T_t): small while the
    tail holds many columns, as at the orders lmmse_curve uses, while the two
    columns left at t = N - 2 reached cond 1e10 on random bases.  Each 2 x 2
    system is solved by its closed-form inverse, [[d, -b], [-b, a]] / det
    with det = ad - b^2.
    Returns (K, t_cap, 2).

    Raises:
        SingularSystem: a determinant is not finite and positive, or an
            estimate is not finite (a non-finite input ends here too), so
            no inf or NaN is returned.
    """
    n = basis.shape[0]
    k = n // 2
    hidden = basis.reshape(k, 2, n)
    x0, x1 = hidden[:, 0], hidden[:, 1]
    # Exact zeros on each hidden pair: c and mass sum the visible rows, no cancelling.
    visible = 1.0 - np.repeat(np.eye(k), 2, axis=1)
    with np.errstate(all="ignore"):  # a non-finite or singular system is refused below
        c = (visible * y) @ basis
        mass = np.cumsum(lambdas[:t_cap] * (visible @ basis[:, :t_cap] ** 2), axis=1)
        rho = np.where(mass > 0.0, RIDGE_REL * mass / (n - 2), 1.0)[:, :, None]
        u = np.tril(rho / (lambdas[:t_cap] + rho))
        # Per landmark and column: a, b, d of p_j p_j^T and the two rows of c_j p_j.
        terms = np.stack([x0 * x0, x0 * x1, x1 * x1, c * x0, c * x1], axis=1)
        # tails[..., t - 1] sums the columns past order t.
        tails = np.cumsum(terms[:, :, :0:-1], axis=2)[:, :, ::-1]
        sums = u @ terms[:, :, :t_cap].transpose(0, 2, 1) + tails[:, :, :t_cap].transpose(0, 2, 1)
        a, b, d, r0, r1 = np.moveaxis(sums, 2, 0)
        det = a * d - b * b
        estimate = np.stack([b * r1 - d * r0, b * r0 - a * r1], axis=-1) / det[..., None]
    if not (np.all(det > 0.0) and np.all(np.isfinite(det)) and np.all(np.isfinite(estimate))):
        raise SingularSystem("a 2 x 2 landmark system is numerically singular")
    return estimate


@dataclass(frozen=True, eq=False)
class LmmseResult:
    """Leave-one-out landmark prediction error per candidate order."""

    errors: dict[int, float]
    argmin_t: int
    selected_orders: dict[str, int]

    def __post_init__(self) -> None:
        if self.argmin_t not in self.errors:
            raise ValueError("argmin_t must index into the error table")


def lmmse_curve(
    shape_set: ShapeSet,
    t_max: int | None = None,
    selector_t_max: int | None = None,
) -> LmmseResult:
    """Leave-one-out hidden-landmark error as a function of model order.

    shape_set must be Procrustes aligned, as for fit_pdm; the folds do not
    re-run Procrustes.  For every sample, a model is fit on the remaining
    samples and every landmark of the held-out sample is predicted from the
    others.  The error at order t averages the squared prediction distance
    over all samples and landmarks; each prediction is the slightly
    ridge-regularised conditional mean of the hidden landmark given the
    visible ones under the covariance of the fold's leading t modes.  One
    kernel call per fold predicts every landmark at every order from the
    fold's complete (N, N) basis from one SVD (pdm._modes: its modes, then
    their orthonormal complement with zero eigenvalues).  The modes past
    each order enter with weight 1 through one reverse cumulative sum over
    the columns, and each landmark and order costs one closed-form 2 x 2
    solve whose determinant is checked to be finite and positive.  Orders
    run from 1 to min(N - 4, M - 2), further capped below the positive rank
    of every fold and by t_max; the N - 4 cap also keeps the 2 x 2 form
    clear of N - 2, past which it loses digits.

    The cap stays strictly under the fold ranks on purpose.  Similarity
    alignment confines every sample, noise included, to a common shape
    subspace (dimension N - 4 for 2D data), so once a fold's model keeps
    its whole positive spectrum the held-out sample lies in the model span
    and the prediction degenerates into exact interpolation.  The last
    order before that point is where overfitting peaks; beyond it the
    error is an artifact, not a measurement.

    Returns:
        LmmseResult with the error table, its argmin (smallest order wins
        ties), and what the proposed and variance selectors pick on the
        full set.

    Raises:
        ValueError: t_max or selector_t_max is below 1.
        NotAligned: the set was not Procrustes aligned first.
        SingularSystem: a fold's 2 x 2 system is numerically singular.
    """
    if any(cap is not None and cap < 1 for cap in (t_max, selector_t_max)):
        raise ValueError("t_max and selector_t_max must be at least 1")
    if shape_set.n_shapes < 3:
        raise TooFewSamples("leave-one-out needs at least 3 shapes")
    if not shape_set.aligned:
        raise NotAligned("the occlusion curve requires a Procrustes-aligned shape set")

    n = shape_set.n_coords
    m = shape_set.n_shapes
    k = n // 2
    X = shape_set.as_matrix()

    folds = [_modes(shape_set.subset(np.delete(np.arange(m), fold))) for fold in range(m)]
    min_rank = min(_rank(lambdas) for _, _, lambdas in folds)
    t_cap = min(n - 4, m - 2)
    if min_rank > 0:
        t_cap = min(t_cap, min_rank - 1)
    if t_max is not None:
        t_cap = min(t_cap, t_max)
    if t_cap < 1:
        if min_rank > 0:
            raise TooFewSamples("no usable order: folds are rank deficient")
        # A variance-free set (all folds rank zero) still has a defined
        # curve: the zero model predicts the fold mean, so keep one order.
        t_cap = 1

    sums = np.zeros(t_cap)
    for fold, (mean, basis, lambdas) in enumerate(folds):
        y = X[:, fold] - mean
        predicted = _predict_landmarks(basis, lambdas, y, t_cap)
        sums += np.sum((predicted - y.reshape(k, 1, 2)) ** 2, axis=(0, 2))

    errors = {t: sums[t - 1] / (m * k) for t in range(1, t_cap + 1)}
    argmin_t = min(errors, key=lambda t: (errors[t], t))

    # Degenerate sets still have a well defined curve, but no order can be
    # selected; leave those entries out rather than failing the whole run.
    selected: dict[str, int] = {}
    try:
        selected["proposed"] = select_order_proposed(shape_set, t_max=selector_t_max).t_star
    except ZeroVariance:
        pass
    try:
        selected["variance"] = select_order_variance(shape_set)
    except ZeroVariance:
        pass
    return LmmseResult(errors=errors, argmin_t=argmin_t, selected_orders=selected)
