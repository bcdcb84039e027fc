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

from .errors import DimensionMismatch, NumericalError, TooFewSamples, ZeroVariance
from .pdm import PdmModel, TruncatedPdm, _project_stacked, fit_pdm, truncate
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
        y: (N, M2) held-out coordinates minus the mean shape, one column
            per held-out sample.
        mean_source: which half supplied the subtracted mean, "x1" or "x2".
    """

    x1: ShapeSet
    x2: ShapeSet
    y: np.ndarray
    mean_source: str = "x1"

    @property
    def m1(self) -> int:
        return self.x1.n_shapes

    @property
    def m2(self) -> int:
        return self.x2.n_shapes


def split_data(
    shape_set: ShapeSet,
    policy: str = "first_half",
    seed: int | None = None,
    mean_source: str = "x1",
) -> SplitData:
    """Split an aligned set into model and scoring halves.

    The training half gets the extra shape when the count is odd.

    Args:
        shape_set: at least four shapes.
        policy: "first_half" keeps input order; "shuffled" permutes with the
            given seed first (deterministic per seed).
        seed: permutation seed for the shuffled policy.
        mean_source: subtract the mean of "x1" (default) or of "x2" when
            building the held-out data matrix.
    """
    m = shape_set.n_shapes
    if m < 4:
        raise TooFewSamples(f"splitting needs at least 4 shapes, got {m}")
    if mean_source not in ("x1", "x2"):
        raise ValueError(f"unknown mean source {mean_source!r}")
    indices = np.arange(m)
    if policy == "shuffled":
        rng = np.random.default_rng(seed)
        indices = rng.permutation(m)
    elif policy != "first_half":
        raise ValueError(f"unknown split policy {policy!r}")
    m1 = (m + 1) // 2
    x1 = shape_set.subset(indices[:m1])
    x2 = shape_set.subset(indices[m1:])
    mu = (x1 if mean_source == "x1" else x2).as_matrix().mean(axis=1)
    y = x2.as_matrix() - mu[:, None]
    return SplitData(x1=x1, x2=x2, y=y, mean_source=mean_source)


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


def _objective(sigma: np.ndarray, residuals: np.ndarray, m2: int) -> float:
    return float(m2 * np.sum(np.log(sigma)) + np.sum(residuals * residuals / sigma[:, None]))


def _weighted_column_norms(squares: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """(K, M) sums over i of squares[k, i, m] / sigma[k, i], for (K, N, M) squares."""
    return np.matmul((1.0 / sigma)[:, None, :], squares)[:, 0, :]


def alternating_ml(
    Y: np.ndarray,
    pdm: TruncatedPdm,
    tol: float = 1e-8,
    max_iter: int = 100,
    sigma_floor: float | None = None,
    clamp_mode: str = "clip",
) -> RegressionFit:
    """Alternate box-constrained projection with diagonal noise estimation.

    Starting from unit noise variances, each sweep projects the data onto
    the modes under the current weights and then re-estimates each
    coordinate's noise variance from the fresh residuals, floored from
    below.  Sweeps stop when the relative change of the objective drops
    under tol.  Running out of sweeps is not an error:
    the fit is returned as-is with converged False.

    This is the selector's lockstep kernel (`select_order_proposed`) run
    on a block that holds the one order of pdm, so a standalone fit and
    the selector's fit of the same order follow the same sweeps.

    The default clamp is per-coordinate truncation.  Coefficients fitted to
    held-out data routinely poke past the box edge learned from the training
    half; truncation only touches the offending coordinates, whereas uniform
    scaling ("scale") shrinks the whole column and bleeds mode energy into
    the residuals, which inflates the noise estimates and biases the order
    criterion low.

    Args:
        Y: (N, M2) mean-removed data.
        pdm: truncated model to regress onto.
        tol: relative objective change that counts as converged.
        max_iter: sweep budget, at least 1.
        sigma_floor: lower bound for the noise variances; defaults to
            SIGMA_FLOOR_REL times the mean per-coordinate power of Y.
        clamp_mode: "clip" (per-coordinate truncation, default) or "scale"
            (uniform column scaling), passed through to the projection.
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
    return _fit_orders(Y, pdm, [pdm.order], tol, max_iter, sigma_floor, clamp_mode)[0]


def _fit_orders(
    Y: np.ndarray,
    pdm: TruncatedPdm,
    orders: Sequence[int],
    tol: float,
    max_iter: int,
    sigma_floor: float,
    clamp_mode: str,
) -> list[RegressionFit]:
    """Alternating fits of the leading `order` modes of pdm, for every order, in lockstep.

    orders must ascend and end at pdm.order.  Every order's basis is
    zero-padded to pdm.order and the orders are swept together as stacked
    arrays, which spreads numpy's per-call overhead over the block.  Each
    order keeps its own sweeps, descent guard, objective trace and stopping
    rule: an order that converges leaves the stack, so its iteration count
    is its own.  A NumericalError at any order aborts the whole block.

    Returns:
        One fit per order, in the order of `orders`.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    sigma_floor = max(sigma_floor, 1e-300)
    m2 = Y.shape[1]
    top = pdm.order
    live = np.arange(top) < np.asarray(orders)[:, None]
    basis = pdm.basis * live[:, None, :]
    lambdas = np.where(live, pdm.lambdas, 1.0)
    pad = (~live).astype(float)
    slots = np.arange(len(orders))

    sigma = np.ones((slots.size, Y.shape[0]))
    coeffs = np.zeros((slots.size, top, m2))
    residuals = np.broadcast_to(Y, (slots.size, *Y.shape))
    # The weighted column norms of the current residuals under the current
    # sigma: the descent guard's baseline, which the objective already sums.
    norms = _weighted_column_norms(residuals * residuals, sigma)
    traces: list[list[float]] = [[] for _ in orders]
    fits: list[RegressionFit | None] = [None] * len(orders)
    for sweep in range(1, max_iter + 1):
        candidate = _project_stacked(basis, lambdas, Y, sigma, pad, clamp_mode)
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
            if converged or sweep == max_iter:
                finished.append(row)
                fits[slot] = RegressionFit(
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
            basis, lambdas, pad, slots, sigma, coeffs, residuals, norms = (
                a[stay] for a in (basis, lambdas, pad, slots, sigma, coeffs, residuals, norms)
            )
    return fits


def aic_score(fit: RegressionFit, order: int, m2: int, n: int) -> float:
    """Information-criterion score of a regression fit at a given order.

    score = M2 * (sum_i log sigma_i^2 + 2 t) + sum_{i,m} eps_{i,m}^2 / sigma_i^2

    The additive constant that does not depend on the order is dropped, so
    only score differences between orders are meaningful.
    """
    if fit.sigma_diag.shape != (n,) or fit.residuals.shape != (n, m2):
        raise ValueError("fit dimensions disagree with the stated n and m2")
    datafit = _objective(fit.sigma_diag, fit.residuals, m2)
    return float(datafit + 2.0 * m2 * order)


@dataclass(frozen=True, eq=False)
class OrderSelectionResult:
    """Outcome of a model order search.

    Attributes:
        t_star: selected order.
        scores: criterion value for every order that produced a fit.
        method: "proposed" or "variance".
        diagnostics: per-order notes, e.g. underdetermined fits, fit
            failures (failed orders carry no score), sweep exhaustion.
        per_order_fits: the regression fit of every scored order.
    """

    t_star: int
    scores: dict[int, float]
    method: str
    diagnostics: dict[int, tuple[str, ...]] = field(default_factory=dict)
    per_order_fits: dict[int, RegressionFit] = field(default_factory=dict)


def select_order_proposed(
    shape_set: ShapeSet,
    t_max: int | None = None,
    split_policy: str = "first_half",
    split_seed: int | None = None,
    tol: float = 1e-8,
    max_iter: int = 100,
    mean_source: str = "x1",
    clamp_mode: str = "clip",
) -> OrderSelectionResult:
    """Select the model order by the split-data information criterion.

    The candidate range is 1..t_max with t_max capped at the training
    covariance's positive rank, at M1 - 1, and at N.  Every candidate gets
    its own cold-started alternating fit, so each score depends on its
    order alone.  The fits run in lockstep blocks of ORDER_BLOCK
    neighbouring orders: one stacked kernel sweeps the block, each order
    zero-padded to the block's top order and leaving the block when it
    converges, which matches alternating_ml order by order up to rounding.
    A block that raises a NumericalError is refitted one order at a time
    through alternating_ml; orders whose own fit fails are excluded from
    the scores and reported in the diagnostics.  Any other error
    propagates.

    Args:
        shape_set: aligned set with at least 4 shapes.
        t_max: optional cap on the candidate range.
        split_policy, split_seed, mean_source: see split_data.
        tol, max_iter, clamp_mode: see alternating_ml.
    """
    split = split_data(shape_set, policy=split_policy, seed=split_seed, mean_source=mean_source)
    model = fit_pdm(split.x1)
    rank = model.positive_rank()
    if rank == 0:
        raise ZeroVariance("training half carries no variance; no modes to select")
    t_hi = min(rank, split.m1 - 1, model.n_coords)
    if t_max is not None:
        t_hi = min(t_hi, t_max)
    if t_hi < 1:
        raise TooFewSamples("not enough training shapes for even one mode")
    sigma_floor = SIGMA_FLOOR_REL * float(np.sum(model.eigvals)) / model.n_coords

    fits: dict[int, RegressionFit] = {}
    diagnostics: dict[int, list[str]] = {}
    fit_args = dict(tol=tol, max_iter=max_iter, sigma_floor=sigma_floor, clamp_mode=clamp_mode)
    for lo in range(1, t_hi + 1, ORDER_BLOCK):
        orders = range(lo, min(lo + ORDER_BLOCK - 1, t_hi) + 1)
        try:
            block = _fit_orders(split.y, truncate(model, orders[-1]), orders, **fit_args)
            fits.update(zip(orders, block))
        except NumericalError:
            for order in orders:
                try:
                    fits[order] = alternating_ml(split.y, truncate(model, order), **fit_args)
                except NumericalError as exc:
                    diagnostics.setdefault(order, []).append(f"fit failed: {exc}")

    if not fits:
        raise ZeroVariance("every candidate order failed to fit")

    scores: dict[int, float] = {}
    for order, fit in fits.items():
        scores[order] = aic_score(fit, order, split.m2, model.n_coords)
        if split.m2 <= order:
            diagnostics.setdefault(order, []).append("underdetermined: M2 <= order")
        if not fit.converged:
            diagnostics.setdefault(order, []).append("sweep budget exhausted")

    best = math.inf
    t_star = min(scores)
    for order in sorted(scores):
        if scores[order] < best:
            best = scores[order]
            t_star = order
    return OrderSelectionResult(
        t_star=t_star,
        scores=scores,
        method="proposed",
        diagnostics={k: tuple(v) for k, v in diagnostics.items()},
        per_order_fits=fits,
    )


def select_order_variance(model: PdmModel, fraction: float = 0.95) -> int:
    """Smallest order whose cumulative eigenvalue share reaches fraction."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie strictly between 0 and 1")
    total = float(np.sum(model.eigvals))
    if total <= 0.0:
        raise ZeroVariance("model carries no variance")
    cumulative = np.cumsum(model.eigvals) / total
    return int(np.argmax(cumulative >= fraction)) + 1
