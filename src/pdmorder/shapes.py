"""2D landmark shapes, shape sets, and Procrustes alignment.

A shape is one column of a ShapeSet: its interleaved coordinates
(x1, y1, x2, y2, ...).  Internally the alignment routines view each shape
as a complex vector with one entry per landmark, which turns planar
similarity transforms into a single complex multiplication plus an offset
and keeps every rotation proper (no reflections).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateShape,
    DimensionMismatch,
    NotAligned,
    ParseError,
    TooFewSamples,
)

_DEGENERACY_REL_TOL = 1e-15


def _as_complex(coords: np.ndarray) -> np.ndarray:
    return coords[0::2] + 1j * coords[1::2]


def _stack(vectors: Sequence[np.ndarray], where: str = "") -> np.ndarray:
    """Equal-length coordinate vectors as the columns of one matrix."""
    for idx, vector in enumerate(vectors):
        if vector.size != vectors[0].size:
            raise DimensionMismatch(
                f"{where}shape {idx} has {vector.size} coordinates, expected {vectors[0].size}"
            )
    return np.column_stack(vectors) if vectors else np.empty((0, 0))


def _as_coords(z: np.ndarray) -> np.ndarray:
    out = np.empty((2 * z.shape[0], *z.shape[1:]))
    out[0::2] = z.real
    out[1::2] = z.imag
    return out


@dataclass(frozen=True)
class AlignmentReport:
    """Outcome of a generalized Procrustes run."""

    iterations: int
    final_change: float


@dataclass(frozen=True, eq=False, init=False)
class ShapeSet:
    """An immutable (n_coords, n_shapes) array of shapes, one column per shape.

    The constructor keeps a read-only float copy of its matrix and checks it
    once: integer or float entries, 2-D, at least two shapes, an even
    coordinate count >= 4, finite entries, and for aligned sets the mean
    centroid at the origin.  subset takes columns of a checked set without
    checking them again.

    Attributes:
        aligned: whether the set is the output of Procrustes alignment.
        alignment_report: statistics of the aligning run, if any.
    """

    _matrix: np.ndarray
    aligned: bool
    alignment_report: AlignmentReport | None

    def __init__(
        self,
        matrix: np.ndarray,
        aligned: bool = False,
        alignment_report: AlignmentReport | None = None,
    ) -> None:
        try:
            matrix = np.asarray(matrix)
        except ValueError as exc:  # a ragged nest of rows
            raise ParseError(f"a shape matrix must be rectangular: {exc}") from exc
        if matrix.dtype.kind not in "iuf":
            raise ParseError(
                f"shape coordinates must be integers or floats, got dtype {matrix.dtype}"
            )
        matrix = np.array(matrix, dtype=float, order="C")
        if matrix.ndim != 2:
            raise ParseError(f"a shape matrix must be 2-D, got {matrix.ndim}-D")
        n, m = matrix.shape
        if m < 2:
            raise TooFewSamples(f"a shape set needs at least 2 shapes, got {m}")
        if n < 4 or n % 2 != 0:
            raise ParseError(f"shape needs an even number of coordinates >= 4, got {n}")
        if not np.all(np.isfinite(matrix)):
            raise ParseError("shape coordinates must all be finite")
        if aligned and max(abs(matrix[0::2].mean()), abs(matrix[1::2].mean())) > 1e-9:
            raise NotAligned("aligned set must have its mean centroid at the origin")
        matrix.flags.writeable = False
        self.__dict__.update(_matrix=matrix, aligned=aligned, alignment_report=alignment_report)

    @property
    def n_shapes(self) -> int:
        return self._matrix.shape[1]

    @property
    def n_coords(self) -> int:
        return self._matrix.shape[0]

    def as_matrix(self) -> np.ndarray:
        """The read-only (n_coords, n_shapes) column-per-shape matrix."""
        return self._matrix

    def subset(self, indices: Iterable[int]) -> "ShapeSet":
        """A new set holding the selected shapes, alignment flag preserved.

        Raises:
            ValueError: the indices are not a flat sequence of integers, or
                one lies outside 0..n_shapes-1.
            TooFewSamples: fewer than two indices.
        """
        picked = np.asarray(indices if isinstance(indices, np.ndarray) else list(indices))
        if picked.ndim != 1 or (picked.size and picked.dtype.kind not in "iu"):
            raise ValueError(
                f"shape indices must be a flat sequence of integers, "
                f"got a {picked.ndim}-D array of dtype {picked.dtype}"
            )
        n = self.n_shapes
        if picked.size and not (picked.min() >= 0 and picked.max() < n):
            bad = picked[(picked < 0) | (picked >= n)][0]
            raise ValueError(f"shape index {bad} is outside 0..{n - 1} of a {n}-shape set")
        matrix = np.take(self._matrix, picked.astype(np.intp, copy=False), axis=1)
        if matrix.shape[1] < 2:
            raise TooFewSamples(f"a shape set needs at least 2 shapes, got {matrix.shape[1]}")
        matrix.flags.writeable = False
        subset = object.__new__(ShapeSet)
        subset.__dict__.update(_matrix=matrix, aligned=self.aligned, alignment_report=None)
        return subset


def _parse_row(fields: Sequence[str], where: str) -> np.ndarray:
    values = []
    for field in fields:
        text = field.strip()
        try:
            value = float(text)
        except ValueError as exc:
            raise ParseError(f"{where}: malformed number {text!r}") from exc
        if not math.isfinite(value):
            raise ParseError(f"{where}: non-finite value {text!r}")
        values.append(value)
    if len(values) < 4 or len(values) % 2 != 0:
        raise ParseError(f"{where}: expected an even number of coordinates >= 4, got {len(values)}")
    return np.array(values)


def _data_lines(path: Path) -> list[tuple[int, str]]:
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    lines = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        lines.append((lineno, stripped))
    return lines


def load_shape_set(path: str | Path, fmt: str = "csv_rows") -> ShapeSet:
    """Load a shape set from disk.

    Args:
        path: CSV file (one shape per row) or a directory with one file
            per shape, consumed in lexicographic order.  Lines starting
            with '#' are comments.
        fmt: "csv_rows" or "directory_of_files".

    Returns:
        An unaligned ShapeSet in file order.

    Raises:
        ParseError: malformed numeric fields, odd coordinate counts.
        DimensionMismatch: rows disagree on landmark count.
        TooFewSamples: fewer than two shapes.
    """
    path = Path(path)
    rows: list[np.ndarray] = []
    if fmt == "csv_rows":
        for lineno, line in _data_lines(path):
            rows.append(_parse_row(line.split(","), f"{path}:{lineno}"))
    elif fmt == "directory_of_files":
        if not path.is_dir():
            raise ParseError(f"{path} is not a directory")
        files = sorted(p for p in path.iterdir() if p.is_file() and not p.name.startswith("."))
        for file in files:
            lines = _data_lines(file)
            if len(lines) != 1:
                raise ParseError(f"{file}: expected exactly one data row, found {len(lines)}")
            lineno, line = lines[0]
            rows.append(_parse_row(line.split(","), f"{file}:{lineno}"))
    else:
        raise ValueError(f"unknown shape set format {fmt!r}")

    return ShapeSet(_stack(rows, f"{path}: "))


def _check_not_degenerate(norm: float, scale: float, what: str) -> None:
    if norm <= _DEGENERACY_REL_TOL * max(1.0, scale):
        raise DegenerateShape(f"{what} has no spatial extent")


def _similarity_coeffs(
    Zc: np.ndarray, powers: np.ndarray, reference: np.ndarray, allow_scaling: bool
) -> np.ndarray:
    """Per-shape complex factors that best map centered shapes onto a reference.

    Zc holds one centered shape per row and powers their squared norms.
    With scaling, row m times the returned a_m minimizes
    |a_m Zc[m] - reference|^2 over rotation and isotropic scale; a rigid fit
    keeps only the unit-modulus phase of that optimum (1 where the cross
    product vanishes).  A complex factor is always a proper rotation, so no
    reflection is ever introduced.
    """
    cross = Zc.conj() @ reference
    if allow_scaling:
        return cross / powers
    mags = np.abs(cross)
    return np.where(mags > 0, cross / np.where(mags > 0, mags, 1.0), 1.0)


def generalized_procrustes(
    shape_set: ShapeSet,
    tol: float = 1e-9,
    max_iter: int = 200,
    allow_scaling: bool = True,
) -> ShapeSet:
    """Generalized Procrustes alignment of a whole set.

    Every shape is aligned to an evolving mean; the mean is recentered and
    rescaled to unit centroid size after each sweep so its scale cannot
    drift.  Iteration stops once the mean moves less than tol between
    sweeps, or after max_iter sweeps (not an error; the report records the
    final change).

    Args:
        shape_set: input shapes, any pose.
        tol: Euclidean movement of the mean that counts as converged.
        max_iter: sweep budget, at least 1.
        allow_scaling: full similarity alignment; False keeps sizes fixed.

    Returns:
        A new aligned ShapeSet in input order with an AlignmentReport.

    Raises:
        DegenerateShape: some shape has all landmarks coincident.
        ValueError: max_iter is below 1, or tol is NaN or negative.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not tol >= 0:
        raise ValueError("tol must be a number >= 0")
    Z = np.ascontiguousarray(_as_complex(shape_set.as_matrix()).T)
    Zc = Z - Z.mean(axis=1, keepdims=True)
    powers = np.sum(np.abs(Zc) ** 2, axis=1)
    scale = float(np.max(np.abs(shape_set.as_matrix())))
    for m in range(Zc.shape[0]):
        _check_not_degenerate(math.sqrt(powers[m]), scale, f"shape {m}")

    reference = Zc[0]
    if allow_scaling:
        reference = reference / np.linalg.norm(reference)

    for iterations in range(1, max_iter + 1):
        coeff = _similarity_coeffs(Zc, powers, reference, allow_scaling)
        aligned = Zc * coeff[:, None]
        new_mean = aligned.mean(axis=0)
        new_mean = new_mean - new_mean.mean()
        norm = np.linalg.norm(new_mean)
        _check_not_degenerate(float(norm), scale, "mean shape")
        if allow_scaling:
            new_mean = new_mean / norm
        change = float(np.linalg.norm(new_mean - reference))
        reference = new_mean
        if change < tol:
            break

    return ShapeSet(
        _as_coords(aligned.T),
        aligned=True,
        alignment_report=AlignmentReport(iterations=iterations, final_change=change),
    )


def mean_shape(shape_set: ShapeSet) -> np.ndarray:
    """Coordinate-wise average of a set's shapes, an (n_coords,) array."""
    return shape_set.as_matrix().mean(axis=1)
