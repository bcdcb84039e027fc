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

import functools
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
from .shapes import ShapeSet, _data_lines, mean_shape

# Relative eigenvalue threshold below which a direction counts as rank noise.
RANK_REL_TOL = 1e-12
# Relative error, in units of machine epsilon, allowed to a computed column
# mean before the centred data counts as rounding noise (see _modes).
CENTRING_ULPS = 100.0
# Largest entry of |P^T P - I| that load_pdm accepts in a stored basis P.
ORTHONORMAL_TOL = 1e-8
# Largest entry of |U^T U - I|, in units of N * machine epsilon, at which a
# stacked (N, W) basis U counts as orthonormal to rounding (_orthonormal):
# only such a basis may take the selector's shortcuts (_project_stacked).
# The complete bases of _modes reach 0.6 at N = 24 and 0.25 at N = 80
# (20 sets each, M = 20..200).
ORTHONORMAL_ULPS = 4.0


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
    then their orthonormal complement, whose eigenvalues are zero, with the
    signs the SVD gives them: fit_pdm fixes the signs of the modes it keeps,
    and the spectrum and lmmse_curve's kernel do not depend on them.

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
    mu = mean_shape(shape_set)
    u, s, _ = np.linalg.svd(X - mu[:, None], full_matrices=m < n)
    lambdas = np.zeros(n)
    if s[0] > CENTRING_ULPS * np.finfo(float).eps * np.linalg.norm(X):
        lambdas[: s.size] = s * s / m
    return mu, u, lambdas


def fit_pdm(shape_set: ShapeSet) -> PdmModel:
    """Fit the eigenmodel of an aligned shape set: every mode with variance.

    The sample covariance uses the biased normalization (1/M) on centered
    data, and its eigenpairs come from one SVD (see _modes).  The model
    keeps the modes whose eigenvalues exceed RANK_REL_TOL times the leading
    one, so its order is its positive rank: at most min(M - 1, N).  Each
    kept mode's sign makes its largest-magnitude entry positive (_fix_signs),
    so the fit is deterministic.

    Raises:
        NotAligned: the set was not Procrustes aligned first.
        ZeroVariance: every shape equals the mean, so no mode carries variance.
    """
    return _fit(shape_set)[0]


def _fit(shape_set: ShapeSet) -> tuple[PdmModel, np.ndarray]:
    """fit_pdm's model and the complete (N, N) basis of _modes it comes from,
    whose leading columns are the model's modes, signs fixed."""
    mu, basis, lambdas = _modes(shape_set)
    if lambdas[0] <= 0.0:
        raise ZeroVariance("the shapes carry no variance; a model needs one mode")
    order = _rank(lambdas)
    basis[:, :order] = _fix_signs(basis[:, :order])
    return PdmModel(mu, basis[:, :order], lambdas[:order], shape_set.n_shapes), basis


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


def _gram_error(basis: np.ndarray) -> np.ndarray:
    """max |P^T P - I| of a (N, t) basis P, or of each basis of a (S, N, t) stack."""
    gram = np.matmul(basis.swapaxes(-1, -2), basis)
    return np.max(np.abs(gram - np.eye(basis.shape[-1])), axis=(-2, -1), initial=0.0)


def _orthonormal(bases: np.ndarray) -> np.ndarray:
    """(S,) whether each (N, W) basis U of a stack has max |U^T U - I| at
    rounding level: at most ORTHONORMAL_ULPS * N * eps.  NaN fails."""
    return _gram_error(bases) <= ORTHONORMAL_ULPS * bases.shape[1] * np.finfo(float).eps


@functools.cache
def _safe_ratio(size: int, n: int) -> float:
    """The sigma_max / sigma_min up to which Cholesky cannot fail on a
    trusted row's padded normal matrix of order size (_project_stacked).

    Take a row whose (N, t) basis B, t <= size <= N, passes _orthonormal,
    so that max |B^T B - I| <= d, and its matrix A = B^T S^-1 B (the direct
    form) or C^T S C (the dual form, C its complement), S = diag(sigma),
    rho = sigma_max / sigma_min, u = eps / 2 and g = gamma_{N+1} =
    (N + 1) u / (1 - (N + 1) u).
    - ||B^T B - I||_2 <= t d, so the eigenvalues of A lie in
      [(1 - t d) / sigma_max, (1 + t d) / sigma_min] (sigma_min and
      sigma_max swapped and inverted in the dual form), and no diagonal
      entry exceeds (1 + d) / sigma_min.  So the unit-diagonal H =
      D^-1 A D^-1, D^2 = diag(A), has lambda_min(H) >= lambda_min(A) /
      max A_ii >= (1 - t d) / ((1 + d) rho).
    - Each stored entry is an N-term dot product of b_i with b_j / sigma
      (b_j sigma in the dual form): its error is at most g times the sum of
      the terms' magnitudes, which is at most g sqrt(A_ii A_jj)
      (Cauchy-Schwarz), and each stored diagonal entry is A_ii (1 + theta),
      |theta| <= g.  So the stored matrix's own H' has lambda_min(H') >=
      (lambda_min(H) - size g) / (1 + g).
    - Cholesky runs to completion when lambda_min(H') > size gamma_{size+1}
      / (1 - gamma_{size+1}) (Demmel; Higham, Accuracy and Stability of
      Numerical Algorithms, 2nd ed., Thm 10.7), and gamma_{size+1} <= g.
      The padding adds a decoupled identity block (exact zeros beside it),
      which leaves the factorisation of A as it is.
    - The check itself rounds U^T U by at most gamma_N (1 + d), so d <=
      (ORTHONORMAL_ULPS N eps + g) / (1 - g).
    Together: Cholesky succeeds while rho < (1 - size d)(1 - g) /
    (2 size g (1 + d)), which falls about as 1 / (size N): 7.5e12 at
    size = N = 24, 6.9e11 at size = N = 80 and 5e8 at size = N = 3000.  The
    theorem bars underflow: a row skips the probe only while sigma lies
    within [2^-900, 2^900], where every diagonal entry stays above 2^-901
    and an underflowing rounding (2^-1075 at most) counts for less than
    2^-170 of it, far below g.
    """
    eps = np.finfo(float).eps
    g = (n + 1) * eps / 2 / (1 - (n + 1) * eps / 2)
    d = (ORTHONORMAL_ULPS * n * eps + g) / (1 - g)
    size = max(size, 1)
    return max(0.0, (1 - size * d) * (1 - g) / (2 * size * g * (1 + d)))


def _failures(
    gram: np.ndarray, sigma: np.ndarray, trusted: np.ndarray | None
) -> dict[int, SingularSystem]:
    """{index in the stack: SingularSystem} of the unusable padded normal matrices.

    Every matrix must be finite.  Cholesky runs on the rows that can fail
    only: every row when trusted is None, else the rows not trusted and the
    trusted rows whose sigma is outside the bound of _safe_ratio.  The
    probe decides only failure, never a value.
    """
    probed = np.ones(len(gram), dtype=bool)
    if trusted is not None:
        bound = _safe_ratio(gram.shape[-1], sigma.shape[1])
        high, low = float(sigma.max()), float(sigma.min())
        probed = ~trusted
        if not (2.0**-900 <= low and high <= 2.0**900 and high <= bound * low):
            high, low = sigma.max(axis=1), sigma.min(axis=1)
            with np.errstate(over="ignore"):
                safe = (low >= 2.0**-900) & (high <= 2.0**900) & (high <= bound * low)
            probed |= ~safe
    if np.all(np.isfinite(gram)) and (not probed.any() or _probe(gram[probed]) is None):
        return {}
    suspects = np.flatnonzero(probed | ~np.all(np.isfinite(gram), axis=(1, 2))).tolist()
    return {k: SingularSystem(why) for k in suspects if (why := _probe(gram[k]))}


def _project_stacked(
    basis: np.ndarray,
    lambdas: np.ndarray,
    Y: np.ndarray,
    sigma: np.ndarray,
    pad: np.ndarray,
    trusted: np.ndarray | None = None,
    dual: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, dict[int, SingularSystem]]:
    """project_constrained for a stack of K models, each with its own data.

    The direct form solves the (T, T) weighted normal equations B^T S^-1 B
    c = B^T S^-1 y, S = diag(sigma).  The dual form (the null-space method;
    Bjorck, Numerical Methods for Least Squares Problems, SIAM 1996) needs
    a complete orthonormal basis [B C] and solves a system the width of the
    complement C instead: the weighted residual r = y - B c has B^T S^-1 r
    = 0, so S^-1 r = C z, and C^T (y - r) = 0 gives z = (C^T S C)^-1 C^T y
    and c = B^T (y - r) = B^T y - (B^T S C) z.  Both give the same
    coefficients up to rounding; the dual form is cheaper when C is
    narrower than B.

    A model whose matrix is not finite, or whose Cholesky factorisation
    fails, gets zero coefficients and a SingularSystem.  The factorisation
    is tried only where it can fail (_failures): on every model unless
    trusted says which bases are orthonormal to rounding.  Each model's
    coefficients depend on its own row of every argument alone.

    Args:
        basis: (K, N, T) mode columns; a model with fewer than T modes has
            zero columns after its own.
        lambdas: (K, T) box widths, one row per model.  Any width will do
            at a padded mode: clipping keeps its zero coefficient zero.
        Y: (K, N, M) data, one row per model (a broadcast view when the
            models share it).  The dual form reads only its products below.
        sigma: (K, N) noise variances, one row per model.
        pad: (K, T) 1.0 at every padded mode and 0.0 elsewhere.  It is added
            to the diagonal of the weighted normal matrix, which makes that
            matrix [G 0; 0 I]: padded coefficients solve to exactly zero and
            the probe tests G alone.
        trusted: (K,) whether each model's basis passes _orthonormal, or
            None to probe every model.
        dual: None for the direct form, or (C, cpad, B^T Y, C^T Y) for the
            dual form: (K, N, W) complement columns, zero at the columns a
            model keeps in B; (K, W) 1.0 at those zero columns, which pads
            C^T S C as pad pads the direct matrix; and the (K, T, M) and
            (K, W, M) products of the data.

    Returns:
        (K, T, M) coefficients, each clipped into its box, zero at padded modes,
        and {index in the stack: SingularSystem} of the failing models.
    """
    columns, padding = (basis, pad) if dual is None else dual[:2]
    with np.errstate(over="ignore", invalid="ignore"):
        weighted = basis / sigma[:, :, None] if dual is None else columns * sigma[:, :, None]
        gram = np.matmul(columns.transpose(0, 2, 1), weighted)
    diagonal = np.arange(gram.shape[-1])
    gram[:, diagonal, diagonal] += padding
    failed = _failures(gram, sigma, trusted)
    rows = list(failed)
    if rows:
        gram[rows] = np.eye(gram.shape[-1])
        weighted[rows] = 0.0
    if dual is None:
        B = np.linalg.solve(gram, np.matmul(weighted.transpose(0, 2, 1), Y))
    else:
        # (B^T S C) z = P^T C^T y with P = (C^T S C)^-1 C^T S B: P's solve
        # has T right-hand sides where z's has M, and the selector's M2 is
        # at least its top order T.
        bty, cty = dual[2:]
        P = np.linalg.solve(gram, np.matmul(weighted.transpose(0, 2, 1), basis))
        B = bty - np.matmul(P.transpose(0, 2, 1), cty)
    if rows:
        B[rows] = 0.0
    limits = np.sqrt(lambdas)[:, :, None]
    return np.clip(B, -limits, limits), failed


def save_pdm(model: PdmModel, path: str | Path) -> None:
    """Write a model, every mode it keeps, to a flat text container.

    Layout: a header row N,t,M1; the mean row; the eigenvalue row; then one
    eigenvector row per retained mode.  Numbers carry 17 significant digits
    so a load followed by a save reproduces the file byte for byte.  To
    store fewer modes, save truncate(model, order).

    Raises:
        ValueError: the basis P is not orthonormal (an entry of
            |P^T P - I| above ORTHONORMAL_TOL), so load_pdm would refuse the
            file; nothing is written.
    """
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
    gram_error = float(_gram_error(basis))
    if gram_error <= ORTHONORMAL_TOL:
        return None
    return f"max |P^T P - I| = {gram_error:.3g} > {ORTHONORMAL_TOL:g}"
