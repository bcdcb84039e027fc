"""Synthetic shape data with known ground truth.

The generator model is a plain PdmModel: a procedural one built by
make_seed_pdm_procedural (a smooth closed mean contour and an orthonormal
set of low-frequency deformation fields) or any model loaded from disk.
sample_shapes, the one generator, takes plain arguments and checks them
before the first draw.  Samples are drawn inside the plausibility box,
white noise is added in the model frame, a random similarity transform
poses each sample, and (by default) the set is re-aligned with generalized
Procrustes, which is exactly the step that turns the white noise into
correlated residuals.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import OrderOutOfRange
from .pdm import PdmModel, _fix_signs
from .shapes import ShapeSet, generalized_procrustes, _as_complex, _as_coords


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


# A pose spreads a set's coordinates: a sample scaled by exp(s), |s| <= log_scale,
# and shifted by up to translation centroid sizes per axis holds coordinates
# up to exp(2 * log_scale) * (1 + 2 * translation) times the size of the
# smallest sample.  Each coordinate is rounded relative to its magnitude, so
# that sample carries a relative rounding of eps times this spread.  Capping
# the spread at 2**20 keeps that below eps * 2**20 = 2**-32 = 2.3e-10, under
# the 1e-9 to which a set must be centred to count as aligned (ShapeSet).
# Measured on 12-landmark sets of 20 shapes at 20 dB, 50 seeds, the other
# half-width 0: Procrustes output first failed that centring test at
# translation 3.0e7 (median 7.9e7) and found a shape with no spatial extent
# at log_scale 18.0 (median 19.6); 60 seeds at the cap passed.
POSE_SPREAD_MAX = 2.0**20


def _check_pose(rotation: float, log_scale: float, translation: float) -> None:
    """Refuse pose half-widths that numpy cannot draw from or that round the shapes away.

    Raises:
        ValueError: a half-width is negative, NaN or so large that twice it
            is not finite, or exp(2 * log_scale) * (1 + 2 * translation)
            exceeds POSE_SPREAD_MAX.
    """
    pose = {"rotation": rotation, "log_scale": log_scale, "translation": translation}
    for name, width in pose.items():
        if not 0.0 <= 2.0 * width < math.inf:  # numpy draws need high - low finite
            raise ValueError(f"{name} half-width must be >= 0 with a finite span, got {width!r}")
    # In logarithms, so that no half-width that passed above can overflow here.
    if 2.0 * log_scale + math.log1p(2.0 * translation) > math.log(POSE_SPREAD_MAX):
        raise ValueError(
            f"log_scale {log_scale!r} and translation {translation!r} spread the coordinates by "
            f"exp(2 * log_scale) * (1 + 2 * translation) > 2**20, which leaves the smallest "
            "shape a relative rounding above 2**-32"
        )


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


def sample_shapes(
    model: PdmModel,
    n_samples: int,
    beta_db: float,
    rng_seed: int,
    b_dist: str = "uniform",
    rotation: float = math.pi,
    log_scale: float = 0.2,
    translation: float = 0.5,
    realign: bool = True,
) -> ShapeSet:
    """Generate a synthetic set of n_samples shapes from the modes of model.

    Any PdmModel serves, procedural or loaded from disk; every mode it
    keeps is a signal mode, and the noise variance is
    noise_variance(model.lambdas, beta_db, b_dist).  Each sample has its own
    RNG stream derived from (rng_seed, sample index), so a set is
    bit-identical across runs and unaffected by how many other sets are
    generated around it.

    b_dist draws the coefficients uniformly in the box or, "gaussian", from
    a normal truncated to it.  rotation, log_scale and translation are the
    half-widths of each sample's random pose, in radians, natural log units
    and centroid sizes; all zero leaves the samples in the model frame.
    The pose may spread the coordinates, exp(2 * log_scale) *
    (1 + 2 * translation), by at most POSE_SPREAD_MAX = 2**20, which keeps
    the rounding of every shape below eps * 2**20 = 2**-32 of its size.

    Raises:
        ValueError: before any draw, if n_samples is below 2, a pose
            half-width is negative, NaN or so large that twice it is not
            finite, the pose spreads the coordinates by more than
            POSE_SPREAD_MAX, or the noise variance is not finite or b_dist
            unknown (see noise_variance).
    """
    if n_samples < 2:
        raise ValueError("a synthetic set needs at least 2 samples")
    _check_pose(rotation, log_scale, translation)
    # -0.0 passes the check; numpy's uniform(0.0, -0.0) does not.
    rotation, log_scale, translation = abs(rotation), abs(log_scale), abs(translation)
    n = model.n_coords
    sqrt_lambdas = np.sqrt(model.lambdas)
    sigma = math.sqrt(noise_variance(model.lambdas, beta_db, b_dist))

    matrix = np.empty((n, n_samples))
    for sample in range(n_samples):
        rng = np.random.default_rng((rng_seed, sample))
        b = _draw_coeffs(rng, sqrt_lambdas, b_dist)
        eps = sigma * rng.standard_normal(n)
        x = model.mean + model.basis @ b + eps
        angle = rng.uniform(-rotation, rotation)
        scale = rng.uniform(-log_scale, log_scale)
        shift = rng.uniform(-translation, translation, 2)
        z = _as_complex(x)
        size = float(np.linalg.norm(z - z.mean()))
        z = math.exp(scale) * np.exp(1j * angle) * z
        z = z + (shift[0] + 1j * shift[1]) * size
        matrix[:, sample] = _as_coords(z)

    raw = ShapeSet.from_matrix(matrix, aligned=False)
    return generalized_procrustes(raw) if realign else raw
