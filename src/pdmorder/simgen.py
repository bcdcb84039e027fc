"""Synthetic shape data with known ground truth.

The generator model is a plain PdmModel: a procedural one built by
make_seed_pdm_procedural (a smooth closed mean contour and an orthonormal
set of low-frequency deformation fields) or any model loaded from disk.
Samples are drawn inside the plausibility box, white noise is added in the
model frame, a random similarity transform poses each sample, and (by
default) the set is re-aligned with generalized Procrustes, which is
exactly the step that turns the white noise into correlated residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OrderOutOfRange
from .pdm import PdmModel, _fix_signs
from .shapes import ShapeSet, generalized_procrustes, _as_complex, _as_coords


@dataclass(frozen=True)
class TransformRanges:
    """Half-widths of the random similarity pose applied to each sample.

    rotation is in radians, log_scale in natural log units, translation in
    multiples of the sample's centroid size.
    """

    rotation: float = math.pi
    log_scale: float = 0.2
    translation: float = 0.5

    @staticmethod
    def none() -> "TransformRanges":
        return TransformRanges(rotation=0.0, log_scale=0.0, translation=0.0)


@dataclass(frozen=True)
class SimConfig:
    """Recipe for one synthetic shape set."""

    n_samples: int
    beta_db: float
    rng_seed: int
    transform_ranges: TransformRanges = field(default_factory=TransformRanges)
    realign: bool = True
    b_dist: str = "uniform"

    def __post_init__(self) -> None:
        if self.n_samples < 2:
            raise ValueError("a synthetic set needs at least 2 samples")
        if math.isnan(self.beta_db) or self.beta_db == -math.inf:
            raise ValueError("beta_db must not be NaN or -inf")
        if self.b_dist not in ("uniform", "gaussian"):
            raise ValueError(f"unknown coefficient distribution {self.b_dist!r}")


def parse_spectrum(text: str, order: int) -> np.ndarray:
    """Parse a spectrum spec: "geometric:RATIO[:TOP]" or "list:v1,v2,...".

    The geometric form is TOP * RATIO**k for k = 0..order-1, TOP 0.01 by
    default; it needs 0 < RATIO <= 1 and a finite TOP > 0.  Either form
    must come out as exactly `order` finite, strictly positive, descending
    values, or it raises ValueError: a geometric spectrum whose tail
    underflows to zero is refused like a list with a zero in it.
    """
    kind, _, rest = text.partition(":")
    if kind == "geometric":
        parts = rest.split(":") if rest else []
        if not parts or len(parts) > 2:
            raise ValueError("geometric spectrum takes a ratio and an optional top value")
        ratio = float(parts[0])
        top = float(parts[1]) if len(parts) == 2 else 0.01
        if not 0.0 < ratio <= 1.0:
            raise ValueError("spectrum ratio must lie in (0, 1]")
        if not 0.0 < top < math.inf:
            raise ValueError("top eigenvalue must be positive and finite")
        values = top * ratio ** np.arange(order, dtype=float)
    elif kind == "list":
        values = np.array([float(v) for v in rest.split(",") if v.strip()])
    else:
        raise ValueError(f"unknown spectrum kind {kind!r}")
    if values.size != order:
        raise ValueError(f"{kind} spectrum must supply {order} values, got {values.size}")
    if not np.all((values > 0) & (values < math.inf)) or np.any(np.diff(values) > 0):
        raise ValueError(f"{kind} spectrum must be finite, strictly positive and descending")
    return values


# Variance of the coefficient draw relative to its box half-width squared.
# Uniform on (-w, w) has variance w^2/3; a normal with std w truncated to the
# box keeps 1 - 2*phi(1)/(Phi(1) - Phi(-1)) of its variance.
_B_VARIANCE_FACTOR = {
    "uniform": 1.0 / 3.0,
    "gaussian": 1.0 - 2.0 * (math.exp(-0.5) / math.sqrt(2.0 * math.pi)) / math.erf(1.0 / math.sqrt(2.0)),
}


def noise_variance(lambdas: np.ndarray, beta_db: float, b_dist: str = "uniform") -> float:
    """Noise variance placing the smallest signal eigenvalue beta_db above it.

    The noise level is a ratio against the signal covariance actually
    produced by the generator, not against the box half-width: coefficients
    drawn inside the box carry less variance than the box suggests (a third
    of it for the uniform draw), and the data eigenvalue for the weakest
    mode is that realized variance.  Keying sigma^2 to it keeps beta_db
    meaningful across draw distributions.

    A beta_db so high that 10^(beta_db / 10) passes the float range gives
    0.0, as +inf does.

    Raises:
        ValueError: b_dist is unknown, or the variance is not finite (a NaN
            or -inf beta_db, or one so low against the spectrum that the
            variance overflows).
    """
    try:
        factor = _B_VARIANCE_FACTOR[b_dist]
    except KeyError:
        raise ValueError(f"unknown coefficient distribution {b_dist!r}") from None
    # In plain floats a power past the float range raises OverflowError (the
    # variance underflows) and a power of 0 ZeroDivisionError; numpy would warn.
    try:
        sigma2 = factor * float(lambdas[-1]) / 10.0 ** (float(beta_db) / 10.0)
    except OverflowError:
        sigma2 = 0.0
    except ZeroDivisionError:
        sigma2 = math.inf
    if not 0.0 <= sigma2 < math.inf:
        raise ValueError(f"beta_db {beta_db!r} puts the noise variance at {sigma2!r}")
    return sigma2


def _similarity_fields(mean: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the translation / scale / rotation directions."""
    n = mean.size
    tx = np.zeros(n)
    tx[0::2] = 1.0
    ty = np.zeros(n)
    ty[1::2] = 1.0
    scale = mean.copy()
    rot = np.empty(n)
    rot[0::2] = -mean[1::2]
    rot[1::2] = mean[0::2]
    q, _ = np.linalg.qr(np.column_stack([tx, ty, scale, rot]))
    return q


def make_seed_pdm_procedural(
    n_landmarks: int,
    order: int,
    spectrum: str,
    rng_seed: int,
) -> PdmModel:
    """Build a deterministic procedural ground-truth model.

    The mean is an ellipse with a low-frequency radial perturbation, centered
    and scaled to unit centroid size.  The deformation basis starts from
    smooth radial and tangential sinusoidal fields (frequencies 2 and up,
    random phases), has the similarity directions projected out so Procrustes
    re-alignment cannot swallow the signal, and is orthonormalized by
    Gram-Schmidt.  Identical seeds give bit-identical models.

    Args:
        n_landmarks: landmarks on the contour (N = 2 * n_landmarks coords).
        order: deformation modes to construct, at most 2*n_landmarks - 4.
        spectrum: eigenvalue spec string, "geometric:RATIO[:TOP]" or
            "list:v1,v2,..." (see parse_spectrum).
        rng_seed: seed controlling contour and field phases.

    Returns:
        The model, with n_train 0: it was built, not fitted.
    """
    if n_landmarks < 4:
        raise ValueError("need at least 4 landmarks")
    n = 2 * n_landmarks
    if not 1 <= order <= n - 4:
        raise OrderOutOfRange(
            f"order {order} outside 1..{n - 4} (similarity directions are reserved)"
        )
    lambdas = parse_spectrum(spectrum, order)

    rng = np.random.default_rng(rng_seed)
    theta = 2.0 * math.pi * np.arange(n_landmarks) / n_landmarks
    aspect = rng.uniform(0.55, 0.85)
    amp2, amp3 = rng.uniform(0.03, 0.12), rng.uniform(0.02, 0.08)
    ph2, ph3 = rng.uniform(0.0, 2.0 * math.pi, 2)
    radius = 1.0 + amp2 * np.cos(2 * theta - ph2) + amp3 * np.cos(3 * theta - ph3)
    mean = np.empty(n)
    mean[0::2] = radius * np.cos(theta)
    mean[1::2] = aspect * radius * np.sin(theta)
    z = _as_complex(mean)
    z = z - z.mean()
    z = z / np.linalg.norm(z)
    mean = _as_coords(z)

    # Unit radial / tangential direction at every landmark of the centered mean.
    radial = z / np.abs(z)
    tangential = 1j * radial

    similarity = _similarity_fields(mean)
    basis = np.empty((n, order))
    accepted = 0
    freq = 2
    while accepted < order:
        if freq > 8 * (order + n_landmarks):
            raise OrderOutOfRange("could not build enough independent fields")
        for direction in (radial, tangential):
            for trig in (np.cos, np.sin):
                if accepted == order:
                    break
                phase = rng.uniform(0.0, 2.0 * math.pi)
                candidate = _as_coords(direction * trig(freq * theta + phase))
                candidate = candidate - similarity @ (similarity.T @ candidate)
                if accepted:
                    partial = basis[:, :accepted]
                    candidate = candidate - partial @ (partial.T @ candidate)
                norm = np.linalg.norm(candidate)
                if norm > 1e-8:
                    basis[:, accepted] = candidate / norm
                    accepted += 1
        freq += 1

    basis = _fix_signs(basis)
    return PdmModel(mean=mean, basis=basis, lambdas=lambdas, n_train=0)


def _draw_coeffs(rng: np.random.Generator, sqrt_lambdas: np.ndarray, b_dist: str) -> np.ndarray:
    if b_dist == "uniform":
        return rng.uniform(-sqrt_lambdas, sqrt_lambdas)
    # Truncated gaussian: redraw out-of-box coordinates until all are inside.
    draw = rng.normal(0.0, sqrt_lambdas)
    bad = np.abs(draw) > sqrt_lambdas
    while np.any(bad):
        draw[bad] = rng.normal(0.0, sqrt_lambdas[bad])
        bad = np.abs(draw) > sqrt_lambdas
    return draw


def sample_shapes(model: PdmModel, config: SimConfig) -> ShapeSet:
    """Generate a synthetic shape set from the modes of model.

    Any PdmModel serves, procedural or loaded from disk; every mode it
    keeps is a signal mode, and the noise variance is
    noise_variance(model.lambdas, config.beta_db, config.b_dist).  Each
    sample has its own RNG stream derived from (rng_seed, sample index), so
    a set is bit-identical across runs and unaffected by how many other sets
    are generated around it.

    Raises:
        ValueError: the noise variance is not finite (see noise_variance).
    """
    n = model.n_coords
    sqrt_lambdas = np.sqrt(model.lambdas)
    sigma = math.sqrt(noise_variance(model.lambdas, config.beta_db, config.b_dist))
    ranges = config.transform_ranges

    matrix = np.empty((n, config.n_samples))
    for sample in range(config.n_samples):
        rng = np.random.default_rng((config.rng_seed, sample))
        b = _draw_coeffs(rng, sqrt_lambdas, config.b_dist)
        eps = sigma * rng.standard_normal(n)
        x = model.mean + model.basis @ b + eps
        rotation = rng.uniform(-ranges.rotation, ranges.rotation)
        log_scale = rng.uniform(-ranges.log_scale, ranges.log_scale)
        shift = rng.uniform(-ranges.translation, ranges.translation, 2)
        z = _as_complex(x)
        size = float(np.linalg.norm(z - z.mean()))
        z = math.exp(log_scale) * np.exp(1j * rotation) * z
        z = z + (shift[0] + 1j * shift[1]) * size
        matrix[:, sample] = _as_coords(z)

    raw = ShapeSet.from_matrix(matrix, aligned=False)
    return generalized_procrustes(raw) if config.realign else raw
