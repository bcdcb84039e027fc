"""Point distribution models: fit, truncate, project, serialize.

The model is the mean shape plus an orthonormal deformation basis obtained
from the eigendecomposition of the biased sample covariance (divide by the
number of training shapes).  Deformation coefficients live in the
plausibility box |b_i| <= sqrt(lambda_i).  A model of order t keeps the
leading t modes: fit_pdm returns the full model (t = N) and truncate cuts
it to fewer, so one PdmModel type serves every order.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DataError,
    DimensionMismatch,
    NotAligned,
    OrderOutOfRange,
    ParseError,
    SingularSystem,
)
from .shapes import ShapeSet, _data_lines

# Relative eigenvalue threshold below which a direction counts as rank noise.
RANK_REL_TOL = 1e-12


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector signs so the largest-magnitude entry is positive."""
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


@dataclass(frozen=True, eq=False)
class PdmModel:
    """The leading `order` modes of the eigenmodel of an aligned shape set.

    The model is full when order == n_coords; only a full model may keep
    zero eigenvalues.  The checks cost O(N * order): the basis is trusted
    to be orthonormal.

    Attributes:
        mean: (N,) mean shape coordinates, N even and at least 4.
        basis: (N, order) orthonormal mode columns, 1 <= order <= N.
        lambdas: (order,) eigenvalues, descending and >= 0; strictly
            positive unless the model is full.
        n_train: number of shapes the model was fit on (M1 of the store),
            0 when the model was not fit to data.
    """

    mean: np.ndarray
    basis: np.ndarray
    lambdas: np.ndarray
    n_train: int

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        basis = np.asarray(self.basis, dtype=float)
        lambdas = np.asarray(self.lambdas, dtype=float)
        n = mean.size
        if mean.ndim != 1 or n < 4 or n % 2:
            raise DimensionMismatch(f"a model needs an even coordinate count >= 4, got {n}")
        if basis.ndim != 2 or basis.shape[0] != n or lambdas.shape != basis.shape[1:]:
            raise DimensionMismatch("model arrays disagree on dimensions")
        t = lambdas.size
        if not 1 <= t <= n:
            raise OrderOutOfRange(f"a model keeps 1..{n} modes, got {t}")
        if np.any(lambdas < 0):
            raise ValueError("eigenvalues must be clamped at zero")
        if np.any(np.diff(lambdas) > 0):
            raise ValueError("eigenvalues must be sorted descending")
        if t < n and lambdas[-1] <= 0:
            raise ValueError("a partial model keeps only strictly positive eigenvalues")
        if self.n_train < 0:
            raise ValueError("n_train must not be negative")
        for name, arr in (("mean", mean), ("basis", basis), ("lambdas", lambdas)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_coords(self) -> int:
        return self.mean.size

    @property
    def order(self) -> int:
        return self.basis.shape[1]

    def positive_rank(self) -> int:
        """Number of eigenvalues that carry real variance.

        Eigenvalues below RANK_REL_TOL times the leading one count as
        rank-deficient and are excluded.
        """
        if self.lambdas[0] <= 0.0:
            return 0
        return int(np.sum(self.lambdas > RANK_REL_TOL * self.lambdas[0]))


def fit_pdm(shape_set: ShapeSet) -> PdmModel:
    """Fit a full eigenmodel to an aligned shape set.

    The sample covariance uses the biased normalization (1/M) on centered
    data.  Eigenvalues come back descending with tiny negative rounding
    clamped to zero; each eigenvector is sign-fixed so its largest-magnitude
    entry is positive, making the fit deterministic.

    Raises:
        NotAligned: the set was not Procrustes aligned first.
    """
    if not shape_set.aligned:
        raise NotAligned("fit requires a Procrustes-aligned shape set")
    X = shape_set.as_matrix()
    mu = X.mean(axis=1)
    centered = X - mu[:, None]
    cov = (centered @ centered.T) / shape_set.n_shapes
    vals, vecs = np.linalg.eigh(cov)
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    vals[vals < 0] = 0.0
    vecs = _fix_signs(vecs)
    return PdmModel(mean=mu, basis=vecs, lambdas=vals, n_train=shape_set.n_shapes)


def truncate(model: PdmModel, order: int) -> PdmModel:
    """The full model cut to its leading `order` modes.

    The result is a PdmModel with the same mean and n_train.  Only the
    positive modes can be kept, since a partial model carries no zero
    eigenvalues.

    Raises:
        OrderOutOfRange: model is not full, or order is outside
            1..positive_rank(model).
    """
    if model.order != model.n_coords:
        raise OrderOutOfRange(f"only a full model is truncated, not one of {model.order} modes")
    rank = model.positive_rank()
    if not 1 <= order <= rank:
        raise OrderOutOfRange(f"order {order} outside the usable range 1..{rank}")
    return PdmModel(
        mean=model.mean,
        basis=model.basis[:, :order],
        lambdas=model.lambdas[:order],
        n_train=model.n_train,
    )


def clamp_to_box(coeffs: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    """Clip every coefficient into its interval |b_i| <= sqrt(lambda_i).

    This is the box rule of the projection (project_constrained and the
    selector's sweeps): each coefficient is clipped on its own, so values
    already inside the box are returned unchanged.

    Args:
        coeffs: (t,) coefficient vector or (t, M) matrix, one column per sample.
        lambdas: (t,) eigenvalues >= 0, the squared box half-widths.
    """
    b = np.asarray(coeffs, dtype=float)
    lam = np.asarray(lambdas, dtype=float)
    if b.ndim not in (1, 2) or lam.ndim != 1 or b.shape[0] != lam.size:
        raise DimensionMismatch("coefficient rows must match the eigenvalue count")
    if not np.all(lam >= 0):
        raise ValueError("eigenvalues must be >= 0")
    limits = np.sqrt(lam) if b.ndim == 1 else np.sqrt(lam)[:, None]
    return np.clip(b, -limits, limits)


def project_constrained(pdm: PdmModel, Y: np.ndarray, sigma_diag: np.ndarray) -> np.ndarray:
    """Weighted least squares projection of data onto the modes, boxed.

    Solves the generalized least squares problem with a diagonal noise
    covariance for every column of Y, then clips each coefficient into its
    interval |b_i| <= sqrt(lambda_i) independently.

    Args:
        pdm: model supplying basis and box widths.
        Y: (N, M) mean-removed data, one column per sample.
        sigma_diag: (N,) per-coordinate noise variances, strictly positive.

    Returns:
        (order, M) coefficient matrix inside the box.

    Raises:
        SingularSystem: the weighted normal matrix is numerically singular,
            which signals a catastrophic noise-variance collapse.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[0] != pdm.n_coords:
        raise DimensionMismatch("data matrix rows must match model coordinates")
    sigma = np.asarray(sigma_diag, dtype=float)
    if sigma.shape != (pdm.n_coords,):
        raise DimensionMismatch("sigma_diag must have one entry per coordinate")
    if np.any(sigma <= 0):
        raise ValueError("sigma_diag entries must be strictly positive")
    stacked, failed = _project_stacked(
        pdm.basis[None], pdm.lambdas, Y, sigma[None], np.zeros((1, pdm.order))
    )
    if failed:
        raise failed[0]
    return stacked[0]


def _probe(gram: np.ndarray) -> str | None:
    """Why a weighted normal matrix (or a stack of them) is unusable, or None."""
    if not np.all(np.isfinite(gram)):
        return "weighted normal matrix is not finite"
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return "weighted normal matrix is numerically singular"
    return None


def _project_stacked(
    basis: np.ndarray,
    lambdas: np.ndarray,
    Y: np.ndarray,
    sigma: np.ndarray,
    pad: np.ndarray,
) -> tuple[np.ndarray, dict[int, SingularSystem]]:
    """project_constrained for a stack of K models sharing the data Y.

    One probe tests the whole stack; only when it fails is each model probed
    on its own, and each failing model gets zero coefficients.

    Args:
        basis: (K, N, T) mode columns; a model with fewer than T modes has
            zero columns after its own.
        lambdas: (T,) box widths shared by every model.  Any width will do
            at a padded mode: clipping keeps its zero coefficient zero.
        Y: (N, M) data shared by every model.
        sigma: (K, N) noise variances, one row per model.
        pad: (K, T) 1.0 at every padded mode and 0.0 elsewhere.  It is added
            to the diagonal of the weighted normal matrix, which makes that
            matrix [G 0; 0 I]: padded coefficients solve to exactly zero and
            the probe tests G alone.

    Returns:
        (K, T, M) coefficients, each clipped into its box, zero at padded modes,
        and {index in the stack: SingularSystem} of the failing models.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        weighted = basis / sigma[:, :, None]
        gram = np.matmul(basis.transpose(0, 2, 1), weighted)
    diagonal = np.arange(gram.shape[-1])
    gram[:, diagonal, diagonal] += pad
    failed = {}
    if _probe(gram) is not None:
        failed = {k: SingularSystem(why) for k, g in enumerate(gram) if (why := _probe(g))}
        rows = list(failed)
        gram[rows] = np.eye(gram.shape[-1])
        weighted[rows] = 0.0
    B = np.linalg.solve(gram, np.matmul(weighted.transpose(0, 2, 1), Y))
    limits = np.sqrt(lambdas)[:, None]
    return np.clip(B, -limits, limits), failed


def save_pdm(model: PdmModel, path: str | Path, order: int | None = None) -> None:
    """Write a model to a flat text container.

    Layout: a header row N,t,M1; the mean row; the eigenvalue row; then one
    eigenvector row per retained mode.  Numbers carry 17 significant digits
    so a load followed by a save reproduces the file byte for byte.

    Args:
        model: the model to store.
        path: output file.
        order: store truncate(model, order) instead; None or model.order
            stores the model as it is.

    Raises:
        OrderOutOfRange: truncate refuses the order; nothing is written.
    """
    if order is not None and order != model.order:
        model = truncate(model, order)
    lines = [f"{model.n_coords},{model.order},{model.n_train}"]
    lines.append(",".join(_fmt(v) for v in model.mean))
    lines.append(",".join(_fmt(v) for v in model.lambdas))
    for k in range(model.order):
        lines.append(",".join(_fmt(v) for v in model.basis[:, k]))
    Path(path).write_text("\n".join(lines) + "\n")


def load_pdm(path: str | Path) -> PdmModel:
    """Read a model container written by save_pdm.

    Raises:
        ParseError: unreadable file, malformed header, rows or numbers, or
            arrays that do not make a PdmModel.
    """
    path = Path(path)
    rows = [line.split(",") for _, line in _data_lines(path)]
    if not rows:
        raise ParseError(f"{path}: empty model file")
    header = rows[0]
    try:
        n, t, n_train = (int(v) for v in header)
    except ValueError as exc:
        raise ParseError(f"{path}: header {header!r} is not N,t,M1") from exc
    if not 1 <= t <= n or n_train < 0:
        raise ParseError(f"{path}: header {header!r} needs 1 <= t <= N and M1 >= 0")
    if len(rows) != 2 + 1 + t:
        raise ParseError(f"{path}: expected {3 + t} rows, found {len(rows)}")

    def _floats(fields: list[str], what: str, count: int) -> np.ndarray:
        try:
            values = np.array([float(v) for v in fields])
        except ValueError as exc:
            raise ParseError(f"{path}: malformed number in {what}") from exc
        if values.size != count or not np.all(np.isfinite(values)):
            raise ParseError(f"{path}: {what} must have {count} finite entries")
        return values

    mean = _floats(rows[1], "mean row", n)
    lambdas = _floats(rows[2], "eigenvalue row", t)
    basis = np.column_stack([_floats(rows[3 + k], f"eigenvector row {k}", n) for k in range(t)])
    try:
        return PdmModel(mean=mean, basis=basis, lambdas=lambdas, n_train=n_train)
    except (ValueError, DataError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
