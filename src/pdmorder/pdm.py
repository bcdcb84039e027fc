"""Point distribution models: fit, truncate, project, serialize.

The model is the mean shape plus an orthonormal deformation basis obtained
from the eigendecomposition of the biased sample covariance (divide by the
number of training shapes).  Deformation coefficients live in the
plausibility box |b_i| <= sqrt(lambda_i).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
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
    """Full eigenmodel of an aligned shape set.

    Attributes:
        mean: (N,) mean shape coordinates.
        eigvecs: (N, N) orthonormal eigenvector columns.
        eigvals: (N,) eigenvalues, descending, clamped at zero.
        n_train: number of shapes the model was fit on.
    """

    mean: np.ndarray
    eigvecs: np.ndarray
    eigvals: np.ndarray
    n_train: int

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        vecs = np.asarray(self.eigvecs, dtype=float)
        vals = np.asarray(self.eigvals, dtype=float)
        n = mean.size
        if vecs.shape != (n, n) or vals.shape != (n,):
            raise DimensionMismatch("model arrays disagree on dimensions")
        if np.any(vals < 0):
            raise ValueError("eigenvalues must be clamped at zero")
        if np.any(np.diff(vals) > 0):
            raise ValueError("eigenvalues must be sorted descending")
        for name, arr in (("mean", mean), ("eigvecs", vecs), ("eigvals", vals)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_coords(self) -> int:
        return self.mean.size

    def positive_rank(self) -> int:
        """Number of eigenvalues that carry real variance.

        Eigenvalues below RANK_REL_TOL times the leading one count as
        rank-deficient and are excluded.
        """
        if self.eigvals.size == 0 or self.eigvals[0] <= 0.0:
            return 0
        return int(np.sum(self.eigvals > RANK_REL_TOL * self.eigvals[0]))

    def covariance(self) -> np.ndarray:
        """Reconstructed sample covariance P diag(lambda) P^T."""
        return (self.eigvecs * self.eigvals) @ self.eigvecs.T


@dataclass(frozen=True, eq=False)
class TruncatedPdm:
    """The first `order` deformation modes of a model.

    Attributes:
        mean: (N,) mean shape coordinates.
        basis: (N, order) orthonormal mode columns.
        lambdas: (order,) strictly positive descending eigenvalues.
        order: retained mode count.
    """

    mean: np.ndarray
    basis: np.ndarray
    lambdas: np.ndarray
    order: int

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        basis = np.asarray(self.basis, dtype=float)
        lambdas = np.asarray(self.lambdas, dtype=float)
        if basis.shape != (mean.size, self.order) or lambdas.shape != (self.order,):
            raise DimensionMismatch("truncated model arrays disagree on dimensions")
        if self.order < 1:
            raise OrderOutOfRange("a truncated model keeps at least one mode")
        if np.any(lambdas <= 0):
            raise ValueError("retained eigenvalues must be strictly positive")
        if np.any(np.diff(lambdas) > 0):
            raise ValueError("retained eigenvalues must be sorted descending")
        for name, arr in (("mean", mean), ("basis", basis), ("lambdas", lambdas)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_coords(self) -> int:
        return self.mean.size


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
    return PdmModel(mean=mu, eigvecs=vecs, eigvals=vals, n_train=shape_set.n_shapes)


def truncate(model: PdmModel, order: int) -> TruncatedPdm:
    """Keep the leading `order` modes of a model.

    Raises:
        OrderOutOfRange: order is outside 1..positive_rank(model).
    """
    rank = model.positive_rank()
    if not 1 <= order <= rank:
        raise OrderOutOfRange(
            f"order {order} outside the usable range 1..{rank}"
        )
    return TruncatedPdm(
        mean=model.mean,
        basis=model.eigvecs[:, :order],
        lambdas=model.eigvals[:order],
        order=order,
    )


def clamp_to_box(coeffs: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    """Scale a coefficient vector uniformly into the plausibility box.

    The whole vector is multiplied by
    s = min(1, min_i sqrt(lambda_i) / |b_i|) over the nonzero entries, so
    the direction of the deformation is preserved.  Vectors already inside
    the box are returned unchanged.
    """
    b = np.asarray(coeffs, dtype=float)
    lam = np.asarray(lambdas, dtype=float)
    if b.ndim != 1 or b.shape != lam.shape:
        raise DimensionMismatch("coefficients and eigenvalues must be vectors of one length")
    return _clamp_columns_scale(b[:, None], lam)[:, 0]


def _clamp_columns_scale(B: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    """Column-wise uniform scaling into the box (clamp_to_box per column).

    B is (..., order, M) and lambdas (..., order); leading axes are stacks.
    """
    mags = np.abs(B)
    limits = np.sqrt(lambdas)[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(mags > 0, limits / mags, np.inf)
    s = np.minimum(1.0, ratios.min(axis=-2))
    return B * s[..., None, :]


def _clamp_columns_clip(B: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    """Independent per-coordinate clipping into the box."""
    limits = np.sqrt(lambdas)[..., None]
    return np.clip(B, -limits, limits)


def project_constrained(
    pdm: TruncatedPdm,
    Y: np.ndarray,
    sigma_diag: np.ndarray,
    clamp_mode: str = "scale",
) -> np.ndarray:
    """Weighted least squares projection of data onto the modes, boxed.

    Solves the generalized least squares problem with a diagonal noise
    covariance for every column of Y, then forces each coefficient column
    into the plausibility box.

    Args:
        pdm: truncated model supplying basis and box widths.
        Y: (N, M) mean-removed data, one column per sample.
        sigma_diag: (N,) per-coordinate noise variances, strictly positive.
        clamp_mode: "scale" preserves each column's direction via uniform
            scaling (default); "clip" clamps coordinates independently.

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
    no_pad = np.zeros((1, pdm.order))
    stacked = _project_stacked(
        pdm.basis[None], pdm.lambdas[None], Y, sigma[None], no_pad, clamp_mode
    )
    return stacked[0]


def _project_stacked(
    basis: np.ndarray,
    lambdas: np.ndarray,
    Y: np.ndarray,
    sigma: np.ndarray,
    pad: np.ndarray,
    clamp_mode: str,
) -> np.ndarray:
    """project_constrained for a stack of K models sharing the data Y.

    Args:
        basis: (K, N, T) mode columns; a model with fewer than T modes has
            zero columns after its own.
        lambdas: (K, T) box widths; padded entries must be positive.
        Y: (N, M) data shared by every model.
        sigma: (K, N) noise variances, one row per model.
        pad: (K, T) 1.0 at every padded mode and 0.0 elsewhere.  It is added
            to the diagonal of the weighted normal matrix, which makes that
            matrix [G 0; 0 I]: padded coefficients solve to exactly zero and
            the Cholesky probe tests G alone.
        clamp_mode: "scale" or "clip".

    Returns:
        (K, T, M) coefficients inside each model's box, zero at padded modes.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        weighted = basis / sigma[:, :, None]
        gram = np.matmul(basis.transpose(0, 2, 1), weighted)
    if not np.all(np.isfinite(gram)):
        raise SingularSystem("weighted normal matrix is not finite")
    diagonal = np.arange(gram.shape[-1])
    gram[:, diagonal, diagonal] += pad
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("weighted normal matrix is numerically singular") from exc
    B = np.linalg.solve(gram, np.matmul(weighted.transpose(0, 2, 1), Y))
    if clamp_mode == "scale":
        return _clamp_columns_scale(B, lambdas)
    if clamp_mode == "clip":
        return _clamp_columns_clip(B, lambdas)
    raise ValueError(f"unknown clamp mode {clamp_mode!r}")


def reconstruct(pdm: TruncatedPdm, coeffs: np.ndarray) -> np.ndarray:
    """Deformation part basis @ coeffs; the mean is not added back."""
    B = np.asarray(coeffs, dtype=float)
    if B.ndim == 1:
        if B.shape != (pdm.order,):
            raise DimensionMismatch("coefficient vector length must equal the order")
        return pdm.basis @ B
    if B.ndim != 2 or B.shape[0] != pdm.order:
        raise DimensionMismatch("coefficient rows must equal the order")
    return pdm.basis @ B


def save_pdm(model: PdmModel | TruncatedPdm, path: str | Path, order: int | None = None) -> None:
    """Write a model to a flat text container.

    Layout: a header row N,t,M1; the mean row; the eigenvalue row; then one
    eigenvector row per retained mode.  Numbers carry 17 significant digits
    so a load followed by a save reproduces the file byte for byte.

    Args:
        model: full or truncated model.
        path: output file.
        order: with a full model, store only the leading `order` modes.
    """
    if isinstance(model, PdmModel):
        t = model.n_coords if order is None else order
        if not 1 <= t <= model.n_coords:
            raise OrderOutOfRange(f"cannot store {t} of {model.n_coords} modes")
        basis = model.eigvecs[:, :t]
        lambdas = model.eigvals[:t]
        n_train = model.n_train
    else:
        if order is not None and order != model.order:
            raise OrderOutOfRange("a truncated model is stored at its own order")
        t = model.order
        basis = model.basis
        lambdas = model.lambdas
        n_train = 0
    lines = [f"{model.mean.size},{t},{n_train}"]
    lines.append(",".join(_fmt(v) for v in model.mean))
    lines.append(",".join(_fmt(v) for v in lambdas))
    for k in range(t):
        lines.append(",".join(_fmt(v) for v in basis[:, k]))
    Path(path).write_text("\n".join(lines) + "\n")


def load_pdm(path: str | Path) -> PdmModel | TruncatedPdm:
    """Read a model container written by save_pdm.

    Returns a PdmModel when all modes are present, otherwise a TruncatedPdm.

    Raises:
        ParseError: unreadable file, malformed header, rows or numbers.
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
        if t == n:
            return PdmModel(mean=mean, eigvecs=basis, eigvals=lambdas, n_train=n_train)
        return TruncatedPdm(mean=mean, basis=basis, lambdas=lambdas, order=t)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
