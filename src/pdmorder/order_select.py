"""Model order selection for point distribution models.

The training half of the data builds the eigenmodel; the held-out half is
regressed onto each candidate number of modes under a diagonal noise
covariance that is re-estimated in alternation with the box-constrained
coefficients.  An information criterion scores every candidate order and
the smallest score wins, with ties broken toward fewer modes.  Because the
noise covariance is estimated per coordinate, correlated residuals left
behind by Procrustes alignment do not inflate the selected order the way a
white-noise criterion would.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, PdmOrderError, SingularSystem, TooFewSamples, ZeroVariance
from .pdm import PdmModel, _fit, _modes, _orthonormal, _project_stacked
from .shapes import ShapeSet, mean_shape

# Noise variances are kept above this fraction of the mean data power so
# logarithms and inverses stay finite even for exact fits.
SIGMA_FLOOR_REL = 1e-12

# The selector fits this many neighbouring orders at a time in one stacked
# kernel (_fit_orders).  A block spreads numpy's per-call overhead, which
# dominates the small systems of a selection, over its orders, but pays for
# the padding of its lower orders.  Every row of a block is padded to the
# block's top order, so the rows of one block of many sets share a stack
# (STACK_ROWS; the trial harness selects evaluation.TRIAL_STACK_SHAPES
# shapes' worth of sets at once).  Minimum / median seconds over alternating
# rounds, one BLAS thread, 2-core host, the same picks at every block: the
# `sweep` workload's 270 selections (M = 10/20/40 of one 400-shape set,
# N = 80; CPU time, serial, 12 rounds) and the `montecarlo` workload's 40
# (M = 10..200 at 5 dB; wall time, 2 workers, 10 rounds):
#   block   sweep           montecarlo
#   1       0.815 / 0.873   1.533 / 1.656
#   4       0.725 / 0.778   1.258 / 1.541
#   8       0.723 / 0.795   1.318 / 1.588
#   16      0.798 / 0.863   1.253 / 1.466
# Against block 8, block 1 takes 20%, 16% and 6% longer at M = 10, 20 and
# 40 (`sweep` medians).  Block 4 beats block 8 in 6 of 12 `sweep` rounds and
# 6 of 10 `montecarlo` rounds, block 16 in 2 of 12 and 5 of 10: no block
# wins on both workloads.
ORDER_BLOCK = 8

# The rows of one block stream through a lockstep stack of at most this many
# rows (_fit_orders): a row that leaves passes its slot to the next pending
# row of the block, so the stack stays full until the block's pool drains.
# Measured in the table at evaluation.TRIAL_STACK_SHAPES.
STACK_ROWS = 32


@dataclass(frozen=True, eq=False)
class SplitData:
    """A shape set split into a training half and a held-out half.

    Attributes:
        x1: training shapes (model half).
        y: (N, M2) held-out coordinates minus the training mean shape, one
            column per held-out sample.
    """

    x1: ShapeSet
    y: np.ndarray

    @property
    def m1(self) -> int:
        return self.x1.n_shapes

    @property
    def m2(self) -> int:
        return self.y.shape[1]


def split_data(shape_set: ShapeSet, seed: int | None = None) -> SplitData:
    """Split an aligned set into model and scoring halves.

    The training half gets the extra shape when the count is odd.

    Args:
        shape_set: at least four shapes.
        seed: None keeps the input order, so the first half trains; an
            integer permutes the shapes with np.random.default_rng(seed)
            first, the same split for the same seed.
    """
    m = shape_set.n_shapes
    if m < 4:
        raise TooFewSamples(f"splitting needs at least 4 shapes, got {m}")
    indices = np.arange(m) if seed is None else np.random.default_rng(seed).permutation(m)
    m1 = (m + 1) // 2
    x1 = shape_set.subset(indices[:m1])
    y = shape_set.as_matrix()[:, indices[m1:]] - mean_shape(x1)[:, None]
    return SplitData(x1=x1, y=y)


@dataclass(frozen=True, eq=False)
class RegressionFit:
    """Result of the alternating coefficient / noise-variance estimation.

    Attributes:
        coeffs: (order, M2) box-constrained mode coefficients.
        sigma_diag: (N,) per-coordinate noise variances, floored.
        residuals: (N, M2) data minus reconstruction.
        objective_trace: negative log-likelihood (constants dropped) after
            every sweep; one entry per sweep.
        converged: whether the relative objective change fell below tol
            before the sweep budget ran out.
    """

    coeffs: np.ndarray
    sigma_diag: np.ndarray
    residuals: np.ndarray
    objective_trace: tuple[float, ...]
    converged: bool

    @property
    def iterations(self) -> int:
        """Alternation sweeps performed: one per objective_trace entry."""
        return len(self.objective_trace)


def _weighted_column_norms(squares: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """(K, M) sums over i of squares[k, m, i] / sigma[k, i], for (K, M, N) squares."""
    return np.matmul(squares, (1.0 / sigma)[:, :, None])[:, :, 0]


def alternating_ml(
    Y: np.ndarray,
    pdm: PdmModel,
    tol: float = 1e-8,
    max_iter: int = 100,
    sigma_floor: float | None = None,
) -> RegressionFit:
    """Alternate box-constrained projection with diagonal noise estimation.

    Starting from unit noise variances, each sweep projects the data onto
    the modes under the current weights and then re-estimates each
    coordinate's noise variance from the fresh residuals, floored from
    below.  Sweeps stop when the relative change of the objective drops
    under tol.  Running out of sweeps is not an error:
    the fit is returned as-is with converged False.

    This is the selector's lockstep kernel (`select_order_proposed`) run
    on a block that holds the one order of pdm.  Given the selector's
    floor, SIGMA_FLOOR_REL * trace(covariance) / N of the training model,
    a standalone fit follows the same sweeps as the selector's fit of that
    order, up to the rounding that the block's zero padding adds, and at
    high orders the selector's dual form (_fit_orders); the default floor
    below is a different one.  pdm carries no complement, so the fit takes
    the direct form, except at order N, where the complement is empty and
    the projection is B^T Y.  A basis orthonormal to rounding
    (pdm._orthonormal) skips the Cholesky probe on every sweep whose sigma
    ratio is below the bound where it cannot fail (pdm._safe_ratio).

    The box clamp clips each coefficient on its own.  Coefficients fitted
    to held-out data routinely poke past the box edge learned from the
    training half; clipping only touches the offending coordinates, whereas
    scaling the whole column would bleed mode energy into the residuals,
    inflate the noise estimates and bias the order criterion low.

    Args:
        Y: (N, M2) mean-removed data.
        pdm: model to regress onto, at the order to fit.
        tol: relative objective change that counts as converged, >= 0.
        max_iter: sweep budget, at least 1.
        sigma_floor: lower bound for the noise variances, not NaN; defaults
            to SIGMA_FLOOR_REL times the mean per-coordinate power of Y.

    Raises:
        ValueError: tol is NaN or negative, max_iter is below 1, or
            sigma_floor is NaN.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        raise ValueError("Y must be a 2-D matrix with one column per sample")
    if Y.shape[0] != pdm.n_coords:
        raise DimensionMismatch("data matrix rows must match model coordinates")
    if Y.shape[1] < 2:
        raise TooFewSamples(f"regression needs at least 2 held-out samples, got {Y.shape[1]}")
    if sigma_floor is None:
        sigma_floor = SIGMA_FLOOR_REL * float(np.mean(Y * Y))
    _, fit = next(_fit_orders(
        Y.T[None], pdm.basis[None], pdm.lambdas[None], np.array([sigma_floor]), [(0, pdm.order)],
        tol, max_iter,
    ))
    if isinstance(fit, SingularSystem):
        raise fit
    return fit


def _dual(n: int, lo: int, top: int) -> bool:
    """Whether a block of orders lo..top of N coordinates projects through
    its complement (_project_stacked): when the N - lo columns of its
    widest complement are fewer than its top orders' modes."""
    return n - lo < top


def _fit_orders(
    Y: np.ndarray,
    basis: np.ndarray,
    lambdas: np.ndarray,
    floors: np.ndarray,
    rows: Sequence[tuple[int, int]],
    tol: float,
    max_iter: int,
) -> Iterator[tuple[int, RegressionFit | SingularSystem]]:
    """Stream alternating fits through a lockstep stack of STACK_ROWS rows.

    Row r, rows[r] = (s, t), fits set s's held-out data Y[s], stored
    coordinates-last as (M2, N), with the leading t columns of the set's
    (N, W) basis[s], zero past them up to the rows' top order T, its squared
    box widths lambdas[s, :T] and its noise-variance floor floors[s].

    Every projection goes through _project_stacked, in one of two forms
    for the whole call.  The direct form solves a (T, T) system per row.
    The dual form solves one the width of the widest complement, N - lo,
    lo the rows' lowest order, and needs the complete basis (W = N).  A
    call takes the dual form when it is given the complete basis, its
    complement is narrower than its padded basis (_dual: N - lo < T), and
    every set's basis passes pdm._orthonormal.  Both forms give the same
    fits up to rounding.  The same orthonormality check, once per set,
    lets a row skip the Cholesky probe while its sigma ratio stays below
    the bound where the factorisation cannot fail (pdm._safe_ratio); a
    basis that fails the check takes the direct form, and its rows are
    probed on every sweep.  Rows enter the stack in the
    order given, each gathered from its set's arrays as it enters.  A row
    leaves when it converges, runs out of sweeps or its projection fails,
    and its slot passes to the next pending row; once none is pending, the
    stack's last row moves into the freed slot, so the stack stays full
    until its pool drains.  One stack of numpy calls sweeps every row, which
    spreads numpy's per-call overhead, but each row keeps its own sweep
    count, descent guard, objective trace and stopping rule, and depends on
    its own set's arrays and order alone: given the form, its fit does not
    depend on the stack size, the admission order or the other rows.

    Yields:
        (r, fit) as row r leaves the stack, or (r, SingularSystem) for a row
        whose projection failed.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not tol >= 0:
        raise ValueError("tol must be a number >= 0")
    if np.any(np.isnan(floors)):
        raise ValueError("sigma_floor must not be NaN")
    row_set, row_order = np.array(rows, dtype=int).reshape(-1, 2).T
    _, m2, n = Y.shape
    lo, top = int(row_order.min(initial=n)), int(row_order.max(initial=0))
    # Once per set: whether its basis is orthonormal to rounding, which lets
    # its rows skip the probe where it cannot fail and take the dual form.
    trusted = _orthonormal(basis)
    dual = basis.shape[2] == n and _dual(n, lo, top) and bool(trusted.all())
    modes = basis[:, :, :top]
    live = min(STACK_ROWS, len(rows))
    slots = np.arange(live)
    # The norms every row starts from: its data's, under unit variances.
    first_norms = _weighted_column_norms(Y * Y, np.ones(Y.shape[::2]))
    ones = np.ones(m2)
    # The state of the stack, one entry per slot: the row it holds, that
    # row's data, basis, box widths, floor and padding, and its fit so far.
    held = np.empty(live, dtype=int)
    trust = np.empty(live, dtype=bool)
    data = np.empty((live, m2, n))
    bases = np.empty((live, n, top))
    widths = np.empty((live, top))
    lows = np.empty((live, 1))
    pad = np.empty((live, top))
    sigma = np.empty((live, n))
    coeffs = np.empty((live, top, m2))
    residuals = np.empty((live, m2, n))
    # The weighted column norms of the current residuals under the current
    # sigma: the descent guard's baseline, which the objective already sums.
    norms = np.empty((live, m2))
    sweeps = np.empty(live, dtype=int)
    # trace[k, s] is slot k's objective after sweep s + 1; columns double as needed.
    trace = np.empty((live, min(max_iter, 16)))
    # The dual form's state (_project_stacked): each row's complement, the
    # basis columns lo..N-1 past its order, its padding, and its data's
    # products with its modes and with its complement.
    tail = np.arange(lo, n)
    dual_state = () if not dual else (
        np.empty((live, n, n - lo)), np.empty((live, n - lo)),
        np.empty((live, top, m2)), np.empty((live, n - lo, m2)),
    )
    entering, pending = slots, 0
    while live:
        if entering.size:
            new = np.arange(pending, pending + entering.size)
            pending += entering.size
            sets, orders = row_set[new], row_order[new]
            kept = np.arange(top) < orders[:, None]
            held[entering] = new
            trust[entering] = trusted[sets]
            data[entering] = residuals[entering] = Y[sets]
            bases[entering] = modes[sets] * kept[:, None, :]
            widths[entering] = lambdas[sets, :top]
            lows[entering, 0] = np.maximum(floors[sets], 1e-300)
            pad[entering] = ~kept
            sigma[entering] = 1.0
            coeffs[entering] = 0.0
            norms[entering] = first_norms[sets]
            sweeps[entering] = 0
            if dual:
                columns, cpad, bty, cty = dual_state
                past = tail >= orders[:, None]
                columns[entering] = basis[sets, :, lo:] * past[:, None, :]
                cpad[entering] = ~past
                heldout = Y[sets].transpose(0, 2, 1)
                bty[entering] = np.matmul(bases[entering].transpose(0, 2, 1), heldout)
                cty[entering] = np.matmul(columns[entering].transpose(0, 2, 1), heldout)

        candidate, failed = _project_stacked(
            bases, widths, data.transpose(0, 2, 1), sigma, pad,
            trusted=trust, dual=dual_state or None,
        )
        cand_residuals = np.matmul(candidate.transpose(0, 2, 1), bases.transpose(0, 2, 1))
        np.subtract(data, cand_residuals, out=cand_residuals)
        # The clamp makes the projection approximate, so a column can come
        # back worse than the one it replaces.  Keeping the better column
        # under the current weights makes every sweep a descent step, which
        # the convergence test relies on.
        squares = cand_residuals * cand_residuals
        worse = _weighted_column_norms(squares, sigma) > norms
        if np.any(worse):
            np.copyto(candidate, coeffs, where=worse[:, None, :])
            np.copyto(cand_residuals, residuals, where=worse[:, :, None])
            np.multiply(cand_residuals, cand_residuals, out=squares)
        coeffs = candidate
        residuals = cand_residuals
        # The mean over the held-out columns as one matrix-vector product per
        # row runs along the contiguous coordinates: 2-3 times faster than
        # np.mean over the middle axis.
        sigma = np.maximum(np.matmul(ones, squares) / m2, lows)
        norms = _weighted_column_norms(squares, sigma)
        del squares  # so that it and the next sweep's are never both alive
        objectives = m2 * np.sum(np.log(sigma), axis=1) + np.sum(norms, axis=1)

        sweeps += 1
        if sweeps.max() > trace.shape[1]:
            trace = np.hstack([trace, np.empty_like(trace)])
        slots = slots[:live]
        trace[slots, sweeps - 1] = objectives
        prev = np.where(sweeps > 1, trace[slots, sweeps - 2], np.nan)  # NaN never converges
        with np.errstate(over="ignore"):  # a tol near the float range accepts any change
            converged = np.abs(prev - objectives) <= tol * np.maximum(1.0, np.abs(prev))
        done = converged | (sweeps == max_iter)
        done[list(failed)] = True
        leaving = np.flatnonzero(done)
        for slot in leaving.tolist():
            yield int(held[slot]), failed.get(slot) or RegressionFit(
                coeffs=coeffs[slot, : row_order[held[slot]]].copy(),
                sigma_diag=sigma[slot].copy(),
                residuals=residuals[slot].T.copy(),
                objective_trace=tuple(trace[slot, : sweeps[slot]].tolist()),
                converged=bool(converged[slot]),
            )
        entering = leaving[: len(rows) - pending]
        if entering.size < leaving.size:
            state = (held, trust, data, bases, widths, lows, pad, sigma, coeffs, residuals, norms,
                     sweeps, trace, *dual_state)
            for slot in leaving[entering.size:][::-1].tolist():
                live -= 1
                for array in state:
                    array[slot] = array[live]
            (held, trust, data, bases, widths, lows, pad, sigma, coeffs, residuals, norms, sweeps,
             trace, *dual_state) = (array[:live] for array in state)
            dual_state = tuple(dual_state)


def aic_score(fit: RegressionFit, order: int) -> float:
    """Information-criterion score of a regression fit at a given order.

    score = M2 * (sum_i log sigma_i^2 + 2 t) + sum_{i,m} eps_{i,m}^2 / sigma_i^2

    M2, the held-out sample count, is the column count of fit.residuals.
    The additive constant that does not depend on the order is dropped, so
    only score differences between orders are meaningful.  The selector
    takes the data term from the fit's last objective, the same sum up to
    rounding.
    """
    sigma, residuals = fit.sigma_diag, fit.residuals
    m2 = residuals.shape[1]
    datafit = m2 * np.sum(np.log(sigma)) + np.sum(residuals * residuals / sigma[:, None])
    return float(datafit + 2.0 * m2 * order)


@dataclass(frozen=True, eq=False)
class OrderSelectionResult:
    """Outcome of a model order search.

    Attributes:
        scores: criterion value for every order that produced a fit, at
            least one.
        diagnostics: per-order notes, e.g. underdetermined fits, fit
            failures (failed orders carry no score), sweep exhaustion.
        per_order_fits: the regression fit of every scored order.
        sweeps: alternation sweeps of the scored orders' fits, summed.
    """

    scores: dict[int, float]
    diagnostics: dict[int, tuple[str, ...]] = field(default_factory=dict)
    per_order_fits: dict[int, RegressionFit] = field(default_factory=dict)
    sweeps: int = 0

    @property
    def t_star(self) -> int:
        """The selected order: the smallest score, ties broken toward fewer modes."""
        return min(self.scores, key=lambda t: (self.scores[t], t))


def select_order_proposed(
    shape_set: ShapeSet,
    t_max: int | None = None,
    split_seed: int | None = None,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> OrderSelectionResult:
    """Select the model order by the split-data information criterion.

    The candidate range is 1..t_max with t_max capped at the modes of the
    training half's fit_pdm model and at M1 - 1.  Every candidate gets its
    own cold-started alternating fit, so each score depends on its order
    alone.  The fits run in lockstep blocks of ORDER_BLOCK neighbouring
    orders: one stacked kernel sweeps the block, each order zero-padded to
    the block's top order and leaving the block when it converges, which
    matches alternating_ml order by order up to rounding.  An order whose
    projection breaks down leaves its block the same way: it gets no score
    and a "fit failed" note, and the other orders of the block keep exactly
    the fits they would get without it.  Any other error propagates.

    Args:
        shape_set: aligned set with at least 4 shapes.
        t_max: optional cap on the candidate range, at least 1.
        split_seed: the seed of split_data; None trains on the first half.
        tol, max_iter: see alternating_ml.

    Raises:
        ValueError: t_max is below 1.
    """
    result = _select_many([shape_set], t_max, split_seed, tol, max_iter)[0]
    if isinstance(result, PdmOrderError):
        raise result
    return result


def _select_many(
    shape_sets: Sequence[ShapeSet],
    t_max: int | None = None,
    split_seed: int | None = None,
    tol: float = 1e-8,
    max_iter: int = 100,
    keep_fits: bool = True,
) -> list[OrderSelectionResult | PdmOrderError]:
    """select_order_proposed on every set, the same blocks of all sets in one stream.

    The (set, order) rows of the sets whose held-out data have one shape
    share the stream (_fit_orders) of their block of orders lo..top.  Each
    row keeps its set's data, basis, box widths and sigma floor and its
    block's zero padding, so every result is bit-identical to the set's own
    select_order_proposed.  A set's PdmOrderError takes its slot in the
    returned list, and the other sets' results do not depend on it.  With
    keep_fits False the results carry no per_order_fits, so the memory of
    a call is its sets and one stack.

    A block whose complement is narrower than its padded basis, N - lo <
    top (_dual), is given each set's complete (N, N) basis from pdm._fit,
    so its rows project through the complement (the dual form of
    _project_stacked).  Only a set with such a block keeps that basis: its
    last block is one whenever any is.  The scores of those blocks move at
    rounding level against the direct form, and no sweep count moves on
    the measured sets (CHANGES.md).
    """
    if t_max is not None and t_max < 1:
        raise ValueError("t_max must be at least 1")
    results: list[OrderSelectionResult | PdmOrderError | None] = [None] * len(shape_sets)
    # What the fits of a set read: its held-out data, coordinates last, and
    # the modes, box widths and sigma floor of its training half's model.
    kept: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, float]] = {}
    groups: dict[tuple[int, int, tuple[int, int]], list[int]] = {}
    for index, shape_set in enumerate(shape_sets):
        try:
            split = split_data(shape_set, seed=split_seed)
            model, complete = _fit(split.x1)
        except PdmOrderError as exc:
            results[index] = exc
            continue
        # At least one order: the split leaves M1 >= 2 and a fit keeps a mode.
        t_hi = min(model.order, split.m1 - 1)
        if t_max is not None:
            t_hi = min(t_hi, t_max)
        floor = SIGMA_FLOOR_REL * float(np.sum(model.lambdas)) / model.n_coords
        # The complete basis is kept only for a set whose last block, and so
        # possibly others, takes the dual form.
        last = t_hi - (t_hi - 1) % ORDER_BLOCK
        basis = complete if _dual(model.n_coords, last, t_hi) else model.basis[:, :t_hi]
        kept[index] = split.y.T, basis, model.lambdas[:t_hi], floor
        for lo in range(1, t_hi + 1, ORDER_BLOCK):
            key = lo, min(lo + ORDER_BLOCK - 1, t_hi), split.y.shape
            groups.setdefault(key, []).append(index)

    scores: dict[int, dict[int, float]] = {i: {} for i in kept}
    notes: dict[int, dict[int, list[str]]] = {i: {} for i in kept}
    fits: dict[int, dict[int, RegressionFit]] = {i: {} for i in kept}
    sweeps = dict.fromkeys(kept, 0)
    for (lo, top, (n, m2)), members in groups.items():
        data, bases, lambdas, floors = zip(*(kept[i] for i in members))
        rows = [(k, t) for k in range(len(members)) for t in range(lo, top + 1)]
        columns = n if _dual(n, lo, top) else top
        stream = _fit_orders(
            np.stack(data),
            np.stack([basis[:, :columns] for basis in bases]),
            np.stack([widths[:top] for widths in lambdas]),
            np.array(floors),
            rows,
            tol,
            max_iter,
        )
        # Each row is scored as it leaves the stack.  Its last objective is
        # the data term of aic_score, summed as the sweeps sum it.
        for row, fit in stream:
            index, order = members[rows[row][0]], rows[row][1]
            if isinstance(fit, SingularSystem):
                notes[index][order] = [f"fit failed: {fit}"]
                continue
            scores[index][order] = fit.objective_trace[-1] + 2.0 * m2 * order
            sweeps[index] += fit.iterations
            if m2 <= order:
                notes[index].setdefault(order, []).append("underdetermined: M2 <= order")
            if not fit.converged:
                notes[index].setdefault(order, []).append("sweep budget exhausted")
            if keep_fits:
                fits[index][order] = fit

    for index in kept:
        if not scores[index]:
            results[index] = ZeroVariance("every candidate order failed to fit")
            continue
        results[index] = OrderSelectionResult(
            scores=dict(sorted(scores[index].items())),
            diagnostics={t: tuple(v) for t, v in sorted(notes[index].items())},
            per_order_fits=dict(sorted(fits[index].items())),
            sweeps=sweeps[index],
        )
    return results


def select_order_variance(shape_set: ShapeSet, fraction: float = 0.95) -> int:
    """Smallest order whose share of the set's whole spectrum (pdm._modes) reaches fraction.

    Raises:
        ValueError: fraction is not strictly between 0 and 1.
        NotAligned: the set was not Procrustes aligned first.
        ZeroVariance: the set carries no variance.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie strictly between 0 and 1")
    return _variance_order(_modes(shape_set)[2], fraction)


def _variance_order(lambdas: np.ndarray, fraction: float) -> int:
    """The variance rule on a descending spectrum: the first order whose share >= fraction."""
    # Normalise by the running sum's own end, which is then exactly 1.0; a
    # separately rounded total can leave it just below a fraction near 1.
    cumulative = np.cumsum(lambdas)
    if cumulative[-1] <= 0.0:
        raise ZeroVariance("the shapes carry no variance")
    cumulative /= cumulative[-1]
    return int(np.argmax(cumulative >= fraction)) + 1
