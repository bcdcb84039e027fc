"""Monte Carlo and leave-one-out evaluation harnesses.

monte_carlo_order regenerates fresh synthetic sets and tabulates what each
selector picks; order_sweep does the same over subsets of one fixed set;
lmmse_curve scores every candidate order by how well the truncated model
predicts a left-out landmark of a left-out sample from the remaining ones.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NotAligned, PdmOrderError, SingularSystem, TooFewSamples, ZeroVariance
from .order_select import _select_many, select_order_proposed, select_order_variance
from .pdm import PdmModel, _modes, _rank
from .shapes import ShapeSet
from .simgen import noise_variance, sample_shapes

RIDGE_REL = 1e-10


@dataclass(frozen=True)
class CellStats:
    """The selected orders of one (method, sample count) cell, in trial order.

    An empty cell, whose every trial failed, has a NaN mean and variance and
    an empty histogram.
    """

    picks: tuple[int, ...]

    @property
    def mean_t(self) -> float:
        return float(np.array(self.picks, dtype=float).mean()) if self.picks else float("nan")

    @property
    def var_t(self) -> float:
        """The population variance, not the sample estimate."""
        return float(np.array(self.picks, dtype=float).var()) if self.picks else float("nan")

    @property
    def hist(self) -> dict[int, int]:
        return dict(sorted(Counter(self.picks).items()))


@dataclass(frozen=True, eq=False)
class TrialSummary:
    """Selected-order statistics per (method, sample count).

    failure_classes counts the trials that aborted with a propagated error
    by the error's class name, e.g. {"TooFewSamples": 3}; their picks are
    missing from the cells.  sweeps counts the alternation sweeps of the
    proposed selector's scored fits (OrderSelectionResult.sweeps), summed
    over the selections run.  workers is the number of processes the
    trials ran in (1: the calling process); it describes the run, not its
    result, so it takes no part in comparisons.
    """

    cells: dict[tuple[str, int], CellStats]
    trials: int
    failure_classes: dict[str, int] = field(default_factory=dict)
    sweeps: int = 0
    workers: int = field(default=1, compare=False)

    def __post_init__(self) -> None:
        # A failed trial drops every method's pick, so each method misses
        # exactly `failures` picks across its cells, and no cell overflows.
        missing: dict[str, list[int]] = {}
        for (method, _), cell in self.cells.items():
            missing.setdefault(method, []).append(self.trials - len(cell.picks))
        if any(min(absent) < 0 or sum(absent) != self.failures for absent in missing.values()):
            raise ValueError(f"missing picks {missing} do not match {self.failures} failures")

    @property
    def failures(self) -> int:
        """Trials that aborted with a propagated error, over every class."""
        return sum(self.failure_classes.values())


def _check_trials(
    sample_counts: tuple[int, ...], trials: int, rng_seed: int, methods: tuple[str, ...],
    t_max: int | None, fraction: float, threads: int,
) -> None:
    """Refuse no trials, no sample counts or one below 2 (TooFewSamples), a
    negative seed, an unknown method, a t_max below 1, a variance fraction
    outside (0, 1) or no worker."""
    if trials < 1:
        raise ValueError("at least one trial is required")
    if not sample_counts:
        raise ValueError("at least one sample count is required")
    if min(sample_counts) < 2:
        raise TooFewSamples(f"sample count {min(sample_counts)} is below 2 shapes")
    if rng_seed < 0:
        raise ValueError(f"rng_seed must be a non-negative integer, got {rng_seed}")
    for method in methods:
        if method not in ("proposed", "variance"):
            raise ValueError(f"unknown selection method {method!r}")
    if t_max is not None and t_max < 1:
        raise ValueError("t_max must be at least 1")
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie strictly between 0 and 1")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")


def usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where os.sched_getaffinity is
    missing: that is off Linux, where the forked trial workers cannot run."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _trial_seed(master: int, count: int, trial: int) -> int:
    return int(np.random.SeedSequence((master, count, trial)).generate_state(1, np.uint64)[0])


# A job of _tabulate holds max(1, min(TRIAL_STACK_SHAPES // count,
# ceil(trials / workers))) trials of one sample count (_jobs), whose
# selections stream the rows of each block of orders through one stack of
# order_select.STACK_ROWS rows (_select_many).  A larger job gives the stream
# a longer pool, so its stack stays full for longer and the tail of a pool,
# where the stack empties, is paid less often; a job's memory is its sets
# and one stack.  The `sweep` workload (one 400-shape set, M = 10/20/40, 90
# trials each, one process, one BLAS thread, 2-core host): the CPU time of
# its 270 proposed selections, the minimum of 10 alternating in-process
# rounds (medians read 0.1-0.4 s higher on the shared host), and the peak
# RSS of the whole command (42.8 MB when each job's stacks held the orders
# of one block of at most 120 shapes' worth of sets, kept every fit and
# shrank as rows converged):
#   shapes  rows  trials per job  CPU (s)   peak RSS (MB)
#   400     32    40/20/10        0.723     43.2
#   800     32    80/40/20        0.702     44.2
#   1200    32    90/60/30        0.714     44.9
#   800     16    80/40/20        0.884     42.6     (a second series)
#   800     24    80/40/20        0.802     43.4
#   800     32    80/40/20        0.777     44.2
#   800     48    80/40/20        0.761     45.6
# The time levels off from 800 shapes while the memory keeps rising.
TRIAL_STACK_SHAPES = 800


def _tabulate(
    draw: Callable[[int, int], ShapeSet],
    sample_counts: tuple[int, ...],
    trials: int,
    methods: tuple[str, ...],
    t_max: int | None,
    fraction: float,
    threads: int,
) -> TrialSummary:
    """Run every method on draw(count, trial) for every trial and tabulate the picks.

    draw derives its randomness from (count, trial) alone, so the result does
    not depend on job order or on the number of worker processes.  A job is
    a chunk of consecutive trials of one count (_jobs), whose proposed
    selections share the streams of their blocks (_select_many) and keep no
    fits, and it returns its picks with the sweeps of its proposed fits.  A
    PdmOrderError in a trial's draw or one of its methods fails that trial
    alone, drops each method's pick of it and counts under its class name;
    the callers refuse sample counts below 2 up front (_check_trials), so
    every counted failure comes from the data.  Any other error propagates.

    With threads above 1 the jobs run in min(threads, jobs, usable CPUs)
    forked worker processes, which needs Linux; the jobs are cut for
    min(threads, usable CPUs) workers.  The fork hands each worker
    the job function with draw and its data, so only a chunk (count, first
    trial, trials) and its outcomes cross the pipe; the largest sample
    counts go first (_jobs), so the slowest jobs do not finish last.  Each worker
    runs its BLAS on one thread (see _adopt), and the pool joins them all.
    The summary's workers is the count that ran, after the jobs cap: 1 on
    the serial branch.
    """
    counts = tuple(dict.fromkeys(sample_counts))

    def _chunk(job: tuple[int, int, int]) -> tuple[list[dict[str, int] | str], int]:
        """Each trial's picks, or the class name of the PdmOrderError that failed
        it, and the sweeps of the job's proposed fits."""
        count, first, size = job
        sets = [_or_error(draw, count, trial) for trial in range(first, first + size)]
        outcomes = [{} if isinstance(s, ShapeSet) else s for s in sets]
        sweeps = 0
        for method in methods:
            live = [i for i, outcome in enumerate(outcomes) if isinstance(outcome, dict)]
            if method == "proposed":
                picks = _select_many([sets[i] for i in live], t_max=t_max, keep_fits=False)
                sweeps = sum(p.sweeps for p in picks if not isinstance(p, PdmOrderError))
            else:
                picks = [_or_error(select_order_variance, sets[i], fraction=fraction) for i in live]
            for i, pick in zip(live, picks):
                if isinstance(pick, PdmOrderError):
                    outcomes[i] = pick
                else:
                    outcomes[i][method] = pick if method == "variance" else pick.t_star
        return [o if isinstance(o, dict) else type(o).__name__ for o in outcomes], sweeps

    workers = threads if threads <= 1 else min(threads, usable_cpus())
    jobs = _jobs(counts, trials, workers)
    workers = min(workers, len(jobs))
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(
            workers, mp_context=fork, initializer=_adopt, initargs=(_chunk,)
        ) as pool:
            chunks = list(pool.map(_run_adopted, jobs))
    else:
        chunks = [_chunk(job) for job in jobs]
    outcomes = {count: [] for count in counts}
    for (count, _, _), (chunk, _) in zip(jobs, chunks):
        outcomes[count] += chunk
    cells = {
        (method, count): CellStats(
            tuple(picked[method] for picked in outcomes[count] if isinstance(picked, dict))
        )
        for count in counts
        for method in methods
    }
    classes = Counter(o for chunk, _ in chunks for o in chunk if isinstance(o, str))
    sweeps = sum(n for _, n in chunks)
    return TrialSummary(cells, trials, dict(sorted(classes.items())), sweeps, workers)


def _jobs(counts: tuple[int, ...], trials: int, workers: int) -> list[tuple[int, int, int]]:
    """The jobs (count, first trial, trials) of _tabulate, largest count first.

    A job holds max(1, min(TRIAL_STACK_SHAPES // count, ceil(trials / workers)))
    consecutive trials of one count, the last job of a count the rest; the
    jobs of one count keep trial order.
    """
    jobs = []
    for count in sorted(counts, reverse=True):
        per_job = max(1, min(TRIAL_STACK_SHAPES // count, -(-trials // workers)))
        jobs += [(count, t, min(per_job, trials - t)) for t in range(0, trials, per_job)]
    return jobs


def _or_error(call: Callable, *args, **kwargs):
    """call(*args, **kwargs), or the PdmOrderError it raised."""
    try:
        return call(*args, **kwargs)
    except PdmOrderError as exc:
        return exc


# The job function of a forked worker, set once by the pool's initializer.
_adopted: Callable[[tuple[int, int, int]], tuple[list, int]] | None = None
# OpenBLAS's thread-count setter under the names that numpy's builds export.
_BLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_", "openblas_set_num_threads",
)


def _adopt(one: Callable[[tuple[int, int, int]], tuple[list, int]]) -> None:
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


def _run_adopted(job: tuple[int, int, int]) -> tuple[list, int]:
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
        beta_db, b_dist: noise level and coefficient draw (see sample_shapes).
        sample_counts: shapes per set, each at least 2.
        trials: sets per sample count.
        rng_seed: master seed, at least 0.  Each (sample count, trial)
            derives its own generation seed, so results depend neither on
            job order nor on the number of worker processes.
        methods: selectors, all run on the same sets.
        variance_fraction, t_max: selector options.
        threads: worker processes across trials, at least 1 (see
            _tabulate); 1 runs them in this process.  The CLI defaults it
            to the usable CPUs; a library caller owns its process model
            (it may already run in a pool of its own, or not on Linux),
            so here it stays 1 unless asked.

    Every argument is checked, and refused with a ValueError (TooFewSamples
    for a sample count below 2), before the first set is drawn or the first
    worker starts; that includes a beta_db whose noise variance is not finite.
    """
    _check_trials(sample_counts, trials, rng_seed, methods, t_max, variance_fraction, threads)
    noise_variance(seed_pdm.lambdas, beta_db, b_dist)  # refuses b_dist and beta_db

    def _draw(count: int, trial: int) -> ShapeSet:
        seed = _trial_seed(rng_seed, count, trial)
        return sample_shapes(seed_pdm, count, beta_db, seed, b_dist=b_dist)

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
        rng_seed: master seed for the subset draws, at least 0.
        methods: selectors to run on every subset.
        mode: "random" draws subsets without replacement; "prefix" takes
            the first samples in input order.
        t_max, variance_fraction: selector options.
        threads: worker processes across trials, at least 1 (see
            _tabulate); 1 runs them in this process.  The CLI defaults it
            to the usable CPUs; a library caller owns its process model
            (it may already run in a pool of its own, or not on Linux),
            so here it stays 1 unless asked.

    Every argument is checked, and refused with a ValueError (TooFewSamples
    for a subset size below 2 or above the set size), before the first
    subset is drawn or the first worker starts.
    """
    _check_trials(sample_counts, trials, rng_seed, methods, t_max, variance_fraction, threads)
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
    cells = {key: CellStats(cell.picks * trials) for key, cell in once.cells.items()}
    classes = {name: trials * n for name, n in once.failure_classes.items()}
    return TrialSummary(cells, trials, classes, once.sweeps, once.workers)


class _FoldBuffers:
    """The scratch arrays of _predict_landmarks for one curve's N and t_cap.

    lmmse_curve makes one set (about 0.6 MB at N = 80, t_cap = 27) and
    passes it to every fold.  The kernel overwrites u, terms and tails whole
    before it reads them, so nothing carries over from one fold to the next,
    not even from a fold that raised; visible and lower are constants.
    """

    def __init__(self, n: int, t_cap: int) -> None:
        k = n // 2
        # Exact zeros on each hidden pair: c and mass sum the visible rows, no cancelling.
        self.visible = 1.0 - np.repeat(np.eye(k), 2, axis=1)
        self.lower = np.tril(np.ones((t_cap, t_cap)))
        self.u = np.empty((k, t_cap, t_cap))
        self.terms = np.empty((k, 5, n))
        self.tails = np.empty((k, 5, n - 1))


def _predict_landmarks(
    basis: np.ndarray, lambdas: np.ndarray, y: np.ndarray, work: _FoldBuffers
) -> np.ndarray:
    """Predict every landmark of y from the others at every order 1..t_cap.

    basis is a full (N, N) orthonormal basis P with eigenvalues lambdas
    (a zero one acts as a mode outside the model), y a mean-removed (N,)
    sample, and work the curve's buffers for this N and a t_cap of at most
    N - 2.  The large intermediates are written there rather than allocated:
    arrays allocated afresh land on fresh pages on every call, which the
    process faults in again, while the folds of a curve reuse the same
    pages.  With p_j the hidden landmark's two rows of column j,
    c_j = p_aj^T y_a its visible projection and
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
    k, t_cap = work.u.shape[:2]
    hidden = basis.reshape(k, 2, n)
    x0, x1 = hidden[:, 0], hidden[:, 1]
    visible, u, terms = work.visible, work.u, work.terms
    with np.errstate(all="ignore"):  # a non-finite or singular system is refused below
        c = (visible * y) @ basis
        mass = np.cumsum(lambdas[:t_cap] * (visible @ basis[:, :t_cap] ** 2), axis=1)
        rho = np.where(mass > 0.0, RIDGE_REL * mass / (n - 2), 1.0)[:, :, None]
        np.add(lambdas[:t_cap], rho, out=u)
        np.divide(rho, u, out=u)
        # Zeroes the upper triangle as np.tril would while its weights are
        # finite, i.e. rho_t > 0 or lambda_j > 0, as at lmmse_curve's orders.
        np.multiply(u, work.lower, out=u)
        # Per landmark and column: a, b, d of p_j p_j^T and the two rows of c_j p_j.
        for row, (left, right) in enumerate([(x0, x0), (x0, x1), (x1, x1), (c, x0), (c, x1)]):
            np.multiply(left, right, out=terms[:, row])
        # tails[..., t - 1] sums the columns past order t.
        tails = np.cumsum(terms[:, :, :0:-1], axis=2, out=work.tails)[:, :, ::-1]
        sums = u @ terms[:, :, :t_cap].transpose(0, 2, 1) + tails[:, :, :t_cap].transpose(0, 2, 1)
        a, b, d, r0, r1 = np.moveaxis(sums, 2, 0)
        det = a * d - b * b
        estimate = np.stack([b * r1 - d * r0, b * r0 - a * r1], axis=-1) / det[..., None]
    if not (np.all(det > 0.0) and np.all(np.isfinite(det)) and np.all(np.isfinite(estimate))):
        raise SingularSystem("a 2 x 2 landmark system is numerically singular")
    return estimate


@dataclass(frozen=True, eq=False)
class LmmseResult:
    """Leave-one-out landmark prediction error per candidate order.

    Attributes:
        errors: the error at every candidate order, at least one.
        selected_orders: what each selector picks on the full set.
    """

    errors: dict[int, float]
    selected_orders: dict[str, int]

    @property
    def argmin_t(self) -> int:
        """The order of the smallest error, ties broken toward fewer modes."""
        return min(self.errors, key=lambda t: (self.errors[t], t))


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
    their orthonormal complement with zero eigenvalues), writing its large
    intermediates into one _FoldBuffers that the curve allocates once for
    all folds, because arrays allocated on every call land on fresh pages
    each time (~125 minor page faults a fold at N = 80).  The modes past
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
    work = _FoldBuffers(n, t_cap)
    for fold, (mean, basis, lambdas) in enumerate(folds):
        y = X[:, fold] - mean
        predicted = _predict_landmarks(basis, lambdas, y, work)
        sums += np.sum((predicted - y.reshape(k, 1, 2)) ** 2, axis=(0, 2))

    errors = {t: sums[t - 1] / (m * k) for t in range(1, t_cap + 1)}

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
    return LmmseResult(errors=errors, selected_orders=selected)
