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

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, SingularSystem, TooFewSamples, ZeroVariance
from .pdm import PdmModel, _modes, _project_stacked, fit_pdm, truncate
from .shapes import ShapeSet

# Noise variances are kept above this fraction of the mean data power so
# logarithms and inverses stay finite even for exact fits.
SIGMA_FLOOR_REL = 1e-12

# The selector fits this many neighbouring orders at a time in one stacked
# kernel (_fit_orders).  A block spreads numpy's per-call overhead, which
# dominates the small systems of a selection, over its orders, but pays for
# the padding of its lower orders.  Medians of 5 runs, one BLAS thread,
# 2-core host: 90 selections on subsets of 10/20/40 of one 400-shape set /
# 15 simulated sets of M = 10..200 at 5 dB (N = 80 throughout), against
# 2.21 / 1.74 s when each order was fitted on its own:
#   block 1:  2.00 / 1.72 s      block 16:        0.90 / 1.33 s
#   block 4:  1.12 / 1.35 s      block 32:        0.91 / 1.40 s
#   block 8:  1.06 / 1.20 s      all orders (80): 0.93 / 2.30 s
# Wider blocks help the small sets a little and cost the large ones more.
ORDER_BLOCK = 8


@dataclass(frozen=True, eq=False)
class SplitData:
    """A shape set split into a training half and a held-out half.

    Attributes:
        x1: training shapes (model half).
        x2: held-out shapes (scoring half).
        y: (N, M2) held-out coordinates minus the training mean shape, one
            column per held-out sample.
    """

    x1: ShapeSet
    x2: ShapeSet
    y: np.ndarray

    @property
    def m1(self) -> int:
        return self.x1.n_shapes

    @property
    def m2(self) -> int:
        return self.x2.n_shapes


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
    x2 = shape_set.subset(indices[m1:])
    y = x2.as_matrix() - x1.as_matrix().mean(axis=1)[:, None]
    return SplitData(x1=x1, x2=x2, y=y)


@dataclass(frozen=True, eq=False)
class RegressionFit:
    """Result of the alternating coefficient / noise-variance estimation.

    Attributes:
        coeffs: (order, M2) box-constrained mode coefficients.
        sigma_diag: (N,) per-coordinate noise variances, floored.
        residuals: (N, M2) data minus reconstruction.
        iterations: alternation sweeps performed.
        objective_trace: negative log-likelihood (constants dropped) after
            every sweep; one entry per sweep.
        converged: whether the relative objective change fell below tol
            before the sweep budget ran out.
    """

    coeffs: np.ndarray
    sigma_diag: np.ndarray
    residuals: np.ndarray
    iterations: int
    objective_trace: tuple[float, ...]
    converged: bool


def _weighted_column_norms(squares: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """(K, M) sums over i of squares[k, i, m] / sigma[k, i], for (K, N, M) squares."""
    return np.matmul((1.0 / sigma)[:, None, :], squares)[:, 0, :]


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
    order, up to the rounding that the block's zero padding adds; the
    default floor below is a different one.

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
    fit = _fit_orders(Y, pdm, [pdm.order], tol, max_iter, sigma_floor)[0]
    if isinstance(fit, SingularSystem):
        raise fit
    return fit


def _fit_orders(
    Y: np.ndarray,
    pdm: PdmModel,
    orders: Sequence[int],
    tol: float,
    max_iter: int,
    sigma_floor: float,
) -> list[RegressionFit | SingularSystem]:
    """Alternating fits of the leading `order` modes of pdm, for every order, in lockstep.

    orders must ascend and end at pdm.order.  Every order's basis is
    zero-padded to pdm.order and the orders are swept together as stacked
    arrays, which spreads numpy's per-call overhead over the block.  Each
    order keeps its own sweeps, descent guard, objective trace and stopping
    rule.  An order leaves the stack when it converges, runs out of sweeps
    or its projection fails, and the others sweep on as if it were gone.

    Returns:
        One fit per order, in the order of `orders`, or the SingularSystem
        of an order whose projection failed.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not tol >= 0:
        raise ValueError("tol must be a number >= 0")
    if math.isnan(sigma_floor):
        raise ValueError("sigma_floor must not be NaN")
    sigma_floor = max(sigma_floor, 1e-300)
    m2 = Y.shape[1]
    top = pdm.order
    live = np.arange(top) < np.asarray(orders)[:, None]
    basis = pdm.basis * live[:, None, :]
    pad = (~live).astype(float)
    slots = np.arange(len(orders))

    sigma = np.ones((slots.size, Y.shape[0]))
    coeffs = np.zeros((slots.size, top, m2))
    residuals = np.broadcast_to(Y, (slots.size, *Y.shape))
    # The weighted column norms of the current residuals under the current
    # sigma: the descent guard's baseline, which the objective already sums.
    norms = _weighted_column_norms(residuals * residuals, sigma)
    traces: list[list[float]] = [[] for _ in orders]
    fits: list[RegressionFit | SingularSystem | None] = [None] * len(orders)
    for sweep in range(1, max_iter + 1):
        candidate, failed = _project_stacked(basis, pdm.lambdas, Y, sigma, pad)
        cand_residuals = np.matmul(basis, candidate)
        np.subtract(Y, cand_residuals, out=cand_residuals)
        # The clamp makes the projection approximate, so a column can come
        # back worse than the one it replaces.  Keeping the better column
        # under the current weights makes every sweep a descent step, which
        # the convergence test relies on.
        squares = cand_residuals * cand_residuals
        worse = _weighted_column_norms(squares, sigma) > norms
        if np.any(worse):
            np.copyto(candidate, coeffs, where=worse[:, None, :])
            np.copyto(cand_residuals, residuals, where=worse[:, None, :])
            np.multiply(cand_residuals, cand_residuals, out=squares)
        coeffs = candidate
        residuals = cand_residuals
        sigma = np.maximum(np.mean(squares, axis=2), sigma_floor)
        norms = _weighted_column_norms(squares, sigma)
        objectives = m2 * np.sum(np.log(sigma), axis=1) + np.sum(norms, axis=1)

        finished = []
        for row, (slot, objective) in enumerate(zip(slots.tolist(), objectives.tolist())):
            trace = traces[slot]
            trace.append(objective)
            converged = len(trace) >= 2 and (
                abs(trace[-2] - objective) <= tol * max(1.0, abs(trace[-2]))
            )
            if row in failed or converged or sweep == max_iter:
                finished.append(row)
                fits[slot] = failed.get(row) or RegressionFit(
                    coeffs=coeffs[row, : orders[slot]].copy(),
                    sigma_diag=sigma[row].copy(),
                    residuals=residuals[row].copy(),
                    iterations=sweep,
                    objective_trace=tuple(trace),
                    converged=converged,
                )
        if len(finished) == slots.size:
            break
        if finished:
            stay = np.ones(slots.size, dtype=bool)
            stay[finished] = False
            basis, pad, slots, sigma, coeffs, residuals, norms = (
                a[stay] for a in (basis, pad, slots, sigma, coeffs, residuals, norms)
            )
    return fits


def aic_score(fit: RegressionFit, order: int) -> float:
    """Information-criterion score of a regression fit at a given order.

    score = M2 * (sum_i log sigma_i^2 + 2 t) + sum_{i,m} eps_{i,m}^2 / sigma_i^2

    M2, the held-out sample count, is the column count of fit.residuals.
    The additive constant that does not depend on the order is dropped, so
    only score differences between orders are meaningful.
    """
    sigma, residuals = fit.sigma_diag, fit.residuals
    m2 = residuals.shape[1]
    datafit = m2 * np.sum(np.log(sigma)) + np.sum(residuals * residuals / sigma[:, None])
    return float(datafit + 2.0 * m2 * order)


@dataclass(frozen=True, eq=False)
class OrderSelectionResult:
    """Outcome of a model order search.

    Attributes:
        t_star: selected order.
        scores: criterion value for every order that produced a fit.
        diagnostics: per-order notes, e.g. underdetermined fits, fit
            failures (failed orders carry no score), sweep exhaustion.
        per_order_fits: the regression fit of every scored order.
    """

    t_star: int
    scores: dict[int, float]
    diagnostics: dict[int, tuple[str, ...]] = field(default_factory=dict)
    per_order_fits: dict[int, RegressionFit] = field(default_factory=dict)


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
    if t_max is not None and t_max < 1:
        raise ValueError("t_max must be at least 1")
    split = split_data(shape_set, seed=split_seed)
    model = fit_pdm(split.x1)
    # At least one order: the split leaves M1 >= 2 and a fit keeps a mode.
    t_hi = min(model.order, split.m1 - 1)
    if t_max is not None:
        t_hi = min(t_hi, t_max)
    sigma_floor = SIGMA_FLOOR_REL * float(np.sum(model.lambdas)) / model.n_coords

    fits: dict[int, RegressionFit] = {}
    diagnostics: dict[int, list[str]] = {}
    fit_args = dict(tol=tol, max_iter=max_iter, sigma_floor=sigma_floor)
    for lo in range(1, t_hi + 1, ORDER_BLOCK):
        orders = range(lo, min(lo + ORDER_BLOCK - 1, t_hi) + 1)
        block = _fit_orders(split.y, truncate(model, orders[-1]), orders, **fit_args)
        for order, fit in zip(orders, block):
            if isinstance(fit, SingularSystem):
                diagnostics[order] = [f"fit failed: {fit}"]
            else:
                fits[order] = fit

    if not fits:
        raise ZeroVariance("every candidate order failed to fit")

    scores: dict[int, float] = {}
    for order, fit in fits.items():
        scores[order] = aic_score(fit, order)
        if split.m2 <= order:
            diagnostics.setdefault(order, []).append("underdetermined: M2 <= order")
        if not fit.converged:
            diagnostics.setdefault(order, []).append("sweep budget exhausted")

    return OrderSelectionResult(
        t_star=min(scores, key=lambda t: (scores[t], t)),
        scores=scores,
        diagnostics={k: tuple(v) for k, v in diagnostics.items()},
        per_order_fits=fits,
    )


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
