"""Point distribution models: fit, truncate, project, serialize.

The model is the mean shape plus an orthonormal deformation basis: the
eigenvectors of the biased sample covariance (divide by the number of
training shapes), taken from one SVD of the centred data.  Deformation
coefficients live in the plausibility box |b_i| <= sqrt(lambda_i).  A model
of order t keeps the leading t modes, all with positive eigenvalues:
fit_pdm keeps every mode that carries variance and truncate cuts a model to
fewer, so one PdmModel type serves every order.
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
    ZeroVariance,
)
from .shapes import ShapeSet, _data_lines

# Relative eigenvalue threshold below which a direction counts as rank noise.
RANK_REL_TOL = 1e-12
# Relative error, in units of machine epsilon, allowed to a computed column
# mean before the centred data counts as rounding noise (see _modes).
CENTRING_ULPS = 100.0
# Largest entry of |P^T P - I| that load_pdm accepts in a stored basis P.
ORTHONORMAL_TOL = 1e-8


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

    Every mode carries variance: a direction with a zero eigenvalue is not
    part of a model.  The checks cost O(N * order): the basis is trusted to
    be orthonormal (save_pdm and load_pdm check a stored one).

    Attributes:
        mean: (N,) mean shape coordinates, N even and at least 4.
        basis: (N, order) orthonormal mode columns, 1 <= order <= N.
        lambdas: (order,) eigenvalues, descending and strictly positive.
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
        if not np.all(lambdas > 0):
            raise ValueError("a model keeps only positive eigenvalues; refit it from its shapes")
        if np.any(np.diff(lambdas) > 0):
            raise ValueError("eigenvalues must be sorted descending")
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


def _rank(lambdas: np.ndarray) -> int:
    """How many of the descending lambdas exceed RANK_REL_TOL * lambdas[0]."""
    return int(np.sum(lambdas > RANK_REL_TOL * lambdas[0]))


def _modes(shape_set: ShapeSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean, complete (N, N) eigenbasis and (N,) spectrum of an aligned set.

    One SVD of the centred (N, M) data C = U S V^T gives the biased
    covariance C C^T / M = U diag(s^2 / M) U^T without forming C C^T, so
    small eigenvalues are not squared into rounding.  U holds the modes and
    then their orthonormal complement, whose eigenvalues are zero; each
    column is sign-fixed, so the fit is deterministic.

    M copies of one shape x centre to e 1^T, where e = x - mean is the
    rounding of the computed mean, so s_0 / ||X||_F = ||e|| / ||x||: the
    relative error of that mean (at most 2.5 eps in 3000 random draws with
    N <= 80 and M < 300).  The spectrum is therefore all zeros when
    s_0 <= CENTRING_ULPS * eps * ||X||_F, that is when
    lambda_0 <= (100 eps)^2 * N * mean(X^2).  The factor 100 leaves a wide
    margin above that error, and a mode this small would move the shapes by
    at most 2.2e-14 of their size: the centring's own rounding.

    Raises:
        NotAligned: the set was not Procrustes aligned first.
    """
    if not shape_set.aligned:
        raise NotAligned("fit requires a Procrustes-aligned shape set")
    X = shape_set.as_matrix()
    n, m = X.shape
    mu = X.mean(axis=1)
    u, s, _ = np.linalg.svd(X - mu[:, None], full_matrices=m < n)
    lambdas = np.zeros(n)
    if s[0] > CENTRING_ULPS * np.finfo(float).eps * np.linalg.norm(X):
        lambdas[: s.size] = s * s / m
    return mu, _fix_signs(u), lambdas


def fit_pdm(shape_set: ShapeSet) -> PdmModel:
    """Fit the eigenmodel of an aligned shape set: every mode with variance.

    The sample covariance uses the biased normalization (1/M) on centered
    data, and its eigenpairs come from one SVD (see _modes).  The model
    keeps the modes whose eigenvalues exceed RANK_REL_TOL times the leading
    one, so its order is its positive rank: at most min(M - 1, N).

    Raises:
        NotAligned: the set was not Procrustes aligned first.
        ZeroVariance: every shape equals the mean, so no mode carries variance.
    """
    mu, basis, lambdas = _modes(shape_set)
    if lambdas[0] <= 0.0:
        raise ZeroVariance("the shapes carry no variance; a model needs one mode")
    order = _rank(lambdas)
    return PdmModel(mu, basis[:, :order], lambdas[:order], shape_set.n_shapes)


def truncate(model: PdmModel, order: int) -> PdmModel:
    """The model cut to its leading `order` modes, with the same mean and n_train.

    Raises:
        OrderOutOfRange: order is outside 1..model.order.
    """
    if not 1 <= order <= model.order:
        raise OrderOutOfRange(f"order {order} outside the model's modes 1..{model.order}")
    return PdmModel(model.mean, model.basis[:, :order], model.lambdas[:order], model.n_train)


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
        pdm.basis[None], pdm.lambdas[None], Y[None], sigma[None], np.zeros((1, pdm.order))
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
    """project_constrained for a stack of K models, each with its own data.

    One probe tests the whole stack; only when it fails is each model probed
    on its own, and each failing model gets zero coefficients.  Each model's
    coefficients depend on its own row of every argument alone.

    Args:
        basis: (K, N, T) mode columns; a model with fewer than T modes has
            zero columns after its own.
        lambdas: (K, T) box widths, one row per model.  Any width will do
            at a padded mode: clipping keeps its zero coefficient zero.
        Y: (K, N, M) data, one row per model (a broadcast view when the
            models share it).
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
    limits = np.sqrt(lambdas)[:, :, None]
    return np.clip(B, -limits, limits), failed


def save_pdm(model: PdmModel, path: str | Path, order: int | None = None) -> None:
    """Write a model to a flat text container.

    Layout: a header row N,t,M1; the mean row; the eigenvalue row; then one
    eigenvector row per retained mode.  Numbers carry 17 significant digits
    so a load followed by a save reproduces the file byte for byte.

    Args:
        model: the model to store.
        path: output file.
        order: store truncate(model, order) instead, 1..model.order; None
            stores the model as it is.

    Raises:
        OrderOutOfRange: order is outside 1..model.order; nothing is written.
        ValueError: the stored basis P is not orthonormal (an entry of
            |P^T P - I| above ORTHONORMAL_TOL), so load_pdm would refuse the
            file; nothing is written.
    """
    if order is not None:
        model = truncate(model, order)
    if why := _not_orthonormal(model.basis):
        raise ValueError(f"the basis is not orthonormal ({why})")
    lines = [f"{model.n_coords},{model.order},{model.n_train}"]
    lines.append(",".join(_fmt(v) for v in model.mean))
    lines.append(",".join(_fmt(v) for v in model.lambdas))
    for k in range(model.order):
        lines.append(",".join(_fmt(v) for v in model.basis[:, k]))
    Path(path).write_text("\n".join(lines) + "\n")


def load_pdm(path: str | Path) -> PdmModel:
    """Read a model container written by save_pdm.

    Raises:
        ParseError: unreadable file, malformed header, rows or numbers,
            eigenvector rows that are not orthonormal (an entry of
            |P^T P - I| above ORTHONORMAL_TOL), or arrays that do not make a
            PdmModel (a zero eigenvalue included).
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
        model = PdmModel(mean=mean, basis=basis, lambdas=lambdas, n_train=n_train)
    except (ValueError, DataError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if why := _not_orthonormal(basis):
        raise ParseError(f"{path}: eigenvector rows are not orthonormal ({why})")
    return model


def _not_orthonormal(basis: np.ndarray) -> str | None:
    """Why a (N, t) basis P fails max |P^T P - I| <= ORTHONORMAL_TOL, or None."""
    gram_error = float(np.max(np.abs(basis.T @ basis - np.eye(basis.shape[1]))))
    if gram_error <= ORTHONORMAL_TOL:
        return None
    return f"max |P^T P - I| = {gram_error:.3g} > {ORTHONORMAL_TOL:g}"
