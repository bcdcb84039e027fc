"""Shape containers, file loading, and Procrustes alignment."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pdmorder import (
    DataError,
    DegenerateShape,
    DimensionMismatch,
    NotAligned,
    ParseError,
    ShapeSet,
    TooFewSamples,
    generalized_procrustes,
    load_shape_set,
    mean_shape,
)
from pdmorder.shapes import _similarity_coeffs


def _similarity(shape: np.ndarray, angle: float, scale: float, shift: complex) -> np.ndarray:
    return _coords(scale * np.exp(1j * angle) * _complex(shape) + shift)


def _complex(coords: np.ndarray) -> np.ndarray:
    return coords[0::2] + 1j * coords[1::2]


def _coords(z: np.ndarray) -> np.ndarray:
    out = np.empty(2 * z.size)
    out[0::2] = z.real
    out[1::2] = z.imag
    return out


def _pair(coords: list[float]) -> np.ndarray:
    """A two-shape matrix holding coords twice (a set needs two shapes)."""
    return np.column_stack([coords, coords])


def _rmsd(a: np.ndarray, b: np.ndarray) -> float:
    """Root mean squared landmark distance between two coordinate vectors."""
    return math.sqrt(2.0 * np.mean((a - b) ** 2))


def _centroid_size(coords: np.ndarray) -> float:
    """Euclidean norm of the centred coordinate vector."""
    z = _complex(coords)
    return float(np.linalg.norm(z - z.mean()))


def _random_shape(rng: np.random.Generator, landmarks: int = 7) -> np.ndarray:
    return rng.standard_normal(2 * landmarks)


def _align_to(shape: np.ndarray, reference: np.ndarray, allow_scaling: bool = True) -> np.ndarray:
    """GPA's per-shape similarity step on a one-row stack, placed on the reference."""
    zc = _complex(shape)[None, :]
    zc = zc - zc.mean()
    w = _complex(reference)
    powers = np.sum(np.abs(zc) ** 2, axis=1)
    coeff = _similarity_coeffs(zc, powers, w - w.mean(), allow_scaling)
    return _coords(coeff[0] * zc[0] + w.mean())


def _grid_best_rmsd(shape: np.ndarray, reference: np.ndarray, step: float = 1e-4) -> float:
    """Best similarity RMSD found by brute-force search over rotation.

    For each rotation angle on a grid, the optimal scale has a closed form,
    so the search is one-dimensional.  Used as an independent check that
    the closed-form alignment is at least as good as an exhaustive one.
    """
    z = _complex(shape)
    w = _complex(reference)
    zc = z - z.mean()
    wc = w - w.mean()
    power = float(np.sum(np.abs(zc) ** 2))
    best = math.inf
    for angle in np.arange(0.0, 2 * math.pi, step):
        rotated = np.exp(1j * angle) * zc
        scale = float(np.real(np.vdot(rotated, wc))) / power
        err = float(np.sum(np.abs(scale * rotated - wc) ** 2))
        best = min(best, err)
    return math.sqrt(best / (reference.size // 2))


class TestShape:
    """A shape is one column of a ShapeSet, checked by the set's constructor."""

    def test_basic_properties(self):
        ss = ShapeSet(_pair([1.0, 2.0, 3.0, 4.0]))
        assert ss.n_coords == 4
        landmarks = ss.as_matrix()[:, 0].reshape(-1, 2)
        assert len(landmarks) == 2
        assert np.allclose(landmarks.mean(axis=0), [2.0, 3.0])

    def test_odd_coordinate_count_rejected(self):
        with pytest.raises(ParseError):
            ShapeSet(_pair([1.0, 2.0, 3.0]))

    def test_too_few_coordinates_rejected(self):
        with pytest.raises(ParseError):
            ShapeSet(_pair([1.0, 2.0]))

    def test_non_finite_rejected(self):
        with pytest.raises(ParseError):
            ShapeSet(_pair([1.0, 2.0, np.nan, 4.0]))

    def test_coords_read_only(self):
        column = ShapeSet(_pair([0.0, 0.0, 1.0, 1.0])).as_matrix()[:, 0]
        with pytest.raises(ValueError):
            column[0] = 5.0


class TestShapeSet:
    def test_requires_two_shapes(self):
        with pytest.raises(TooFewSamples):
            ShapeSet(np.column_stack([[0.0, 0.0, 1.0, 1.0]]))

    def test_dimension_mismatch(self, tmp_path):
        # Shapes of different lengths cannot share a matrix; the loader refuses them.
        (tmp_path / "a.csv").write_text("0,0,1,1\n")
        (tmp_path / "b.csv").write_text("0,0,1,1,2,2\n")
        with pytest.raises(DimensionMismatch):
            load_shape_set(tmp_path)

    def test_aligned_flag_checks_mean_centroid(self):
        a = [1.0, 1.0, 2.0, 2.0]
        b = [3.0, 3.0, 4.0, 4.0]
        with pytest.raises(NotAligned):
            ShapeSet(np.column_stack([a, b]), aligned=True)

    def test_matrix_round_trip(self):
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((8, 5))
        ss = ShapeSet(mat)
        assert ss.n_shapes == 5
        assert ss.n_coords == 8
        np.testing.assert_array_equal(ss.as_matrix(), mat)

    def test_subset_preserves_order(self):
        rng = np.random.default_rng(1)
        ss = ShapeSet(rng.standard_normal((6, 4)))
        sub = ss.subset([3, 1])
        np.testing.assert_array_equal(sub.as_matrix()[:, 0], ss.as_matrix()[:, 3])
        np.testing.assert_array_equal(sub.as_matrix()[:, 1], ss.as_matrix()[:, 1])

    @pytest.mark.parametrize(
        "indices, bad",
        [
            ([-1, 0], -1),
            ([99], 99),
            ([0, 1, 5], 5),
            # Not integer indices: refused before any column is taken.
            ([1.5, 2.7], "1-D array of dtype float64"),
            (np.array([1.0, 2.0]), "1-D array of dtype float64"),
            ([True, False], "1-D array of dtype bool"),
            (["1", "2"], "1-D array of dtype <U1"),
            ([[0, 1]], "2-D array of dtype int64"),
        ],
    )
    def test_subset_refuses_an_index_outside_the_set(self, indices, bad):
        ss = ShapeSet(np.arange(20.0).reshape(4, 5))
        if isinstance(bad, int):
            message = rf"index {bad} .*5-shape set"
        else:
            message = f"a flat sequence of integers, got a {bad}"
        with pytest.raises(ValueError, match=message):
            ss.subset(indices)

    @pytest.mark.parametrize("indices", [[], np.array([], dtype=float), [2]])
    def test_subset_of_fewer_than_two_raises_too_few_samples(self, indices):
        with pytest.raises(TooFewSamples):
            ShapeSet(np.arange(20.0).reshape(4, 5)).subset(indices)


class TestLoadShapeSet:
    def test_csv_rows(self, tmp_path):
        p = tmp_path / "shapes.csv"
        p.write_text(
            "# comment line\n"
            "0,0,1,0,1,1,0,1\n"
            "0,0,2,0,2,2,0,2\n"
            "\n"
            "0,0,3,0,3,3,0,3\n"
        )
        ss = load_shape_set(p)
        assert ss.n_shapes == 3
        assert ss.n_coords == 8
        assert not ss.aligned
        assert ss.as_matrix()[2, 1] == 2.0

    def test_inconsistent_rows(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("0,0,1,0,1,1,0,1\n0,0,1,0,1,1,0,1,2,2\n")
        with pytest.raises(DimensionMismatch):
            load_shape_set(p)

    def test_malformed_field_reports_location(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("0,0,1,0,1,1,0,1\n0,0,oops,0,1,1,0,1\n")
        with pytest.raises(ParseError) as err:
            load_shape_set(p)
        assert "2" in str(err.value)

    def test_single_row_rejected(self, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("0,0,1,0,1,1,0,1\n")
        with pytest.raises(TooFewSamples):
            load_shape_set(p)

    @pytest.mark.parametrize("kind, count", [
        ("empty-directory", 0), ("one-file-directory", 1), ("empty-file", 0),
        ("comments-only", 0), ("one-row", 1),
    ])
    def test_too_few_shapes_names_the_path(self, tmp_path, kind, count):
        p = tmp_path / "input"
        if kind.endswith("directory"):
            p.mkdir()
            if count:
                (p / "a.csv").write_text("0,0,1,0,1,1,0,1\n")
        else:
            p.write_text({"empty-file": "", "comments-only": "# no shapes\n\n",
                          "one-row": "0,0,1,0,1,1,0,1\n"}[kind])
        with pytest.raises(TooFewSamples) as err:
            load_shape_set(p)
        assert str(err.value) == f"{p}: a shape set needs at least 2 shapes, got {count}"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_shape_set(tmp_path / "absent.csv")

    def test_hand_outline_layout(self, tmp_path):
        # 38 samples of 20 landmarks each.
        rng = np.random.default_rng(2)
        rows = rng.standard_normal((38, 40))
        p = tmp_path / "hands.csv"
        p.write_text("\n".join(",".join(map(str, row)) for row in rows))
        ss = load_shape_set(p)
        assert ss.n_shapes == 38
        assert ss.n_coords == 40

    def test_directory_of_files(self, tmp_path):
        d = tmp_path / "set"
        d.mkdir()
        (d / "b.csv").write_text("0,0,1,0,1,1,0,1\n")
        (d / "a.csv").write_text("0,0,2,0,2,2,0,2\n")
        ss = load_shape_set(d)
        assert ss.n_shapes == 2
        # Lexicographic file order defines sample order.
        assert ss.as_matrix()[2, 0] == 2.0


class TestAlignPair:
    """GPA's per-shape similarity step, run on one shape at a time."""

    def test_exact_similarity_recovery(self):
        rng = np.random.default_rng(3)
        ref = _random_shape(rng)
        moved = _similarity(ref, math.pi / 2, 2.0, 0.7 - 1.3j)
        out = _align_to(moved, ref)
        assert _rmsd(out, ref) < 1e-10

    def test_identity(self):
        rng = np.random.default_rng(4)
        ref = _random_shape(rng)
        out = _align_to(ref, ref)
        assert _rmsd(out, ref) < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        ref = _random_shape(rng)
        shape = _random_shape(rng)
        once = _align_to(shape, ref)
        twice = _align_to(once, ref)
        assert _rmsd(once, twice) < 1e-12

    def test_beats_rotation_grid_search(self):
        rng = np.random.default_rng(6)
        ref = _random_shape(rng)
        noisy = ref + 0.05 * rng.standard_normal(ref.size)
        shape = _similarity(noisy, 1.1, 1.4, 0.2 + 0.1j)
        out = _align_to(shape, ref)
        closed_form = _rmsd(out, ref)
        grid = _grid_best_rmsd(shape, ref)
        assert closed_form <= grid + 1e-7

    def test_rigid_mode_keeps_size(self):
        rng = np.random.default_rng(7)
        ref = _random_shape(rng)
        shape = _similarity(ref, 0.8, 3.0, 1.0 + 1.0j)
        out = _align_to(shape, ref, allow_scaling=False)
        assert _centroid_size(out) == pytest.approx(_centroid_size(shape), rel=1e-12)
        # Rotation and translation alone cannot undo the 3x scale.
        assert _rmsd(out, ref) > 0.1

    def test_degenerate_shape(self):
        rng = np.random.default_rng(8)
        ref = _random_shape(rng, landmarks=3)
        flat = [2.0, 5.0, 2.0, 5.0, 2.0, 5.0]
        with pytest.raises(DegenerateShape):
            generalized_procrustes(ShapeSet(np.column_stack([flat, ref])))

    @given(
        seed=st.integers(0, 2**32 - 1),
        landmarks=st.integers(3, 10),
        angle=st.floats(-math.pi, math.pi),
        scale=st.floats(0.2, 5.0),
        shift=st.complex_numbers(max_magnitude=100.0, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_similarity_recovery(
        self, seed: int, landmarks: int, angle: float, scale: float, shift: complex
    ) -> None:
        rng = np.random.default_rng(seed)
        ref = _random_shape(rng, landmarks)
        moved = _similarity(ref, angle, scale, shift)
        assert _rmsd(_align_to(moved, ref), ref) < 1e-10
        once = _align_to(_similarity(_random_shape(rng, landmarks), angle, scale, shift), ref)
        assert _rmsd(_align_to(once, ref), once) < 1e-12
        rigid = _align_to(moved, ref, allow_scaling=False)
        assert _centroid_size(rigid) == pytest.approx(_centroid_size(moved), rel=1e-12)


class TestGeneralizedProcrustes:
    def test_collapses_similarity_copies(self):
        rng = np.random.default_rng(9)
        base = _random_shape(rng)
        shapes = [
            _similarity(
                base,
                rng.uniform(-math.pi, math.pi),
                rng.uniform(0.5, 2.0),
                complex(*rng.uniform(-1, 1, 2)),
            )
            for _ in range(10)
        ]
        aligned = generalized_procrustes(ShapeSet(np.column_stack(shapes)))
        assert aligned.aligned
        for a in aligned.as_matrix().T:
            for b in aligned.as_matrix().T:
                assert _rmsd(a, b) < 1e-8

    def test_fixed_point(self):
        rng = np.random.default_rng(10)
        shapes = [_random_shape(rng) for _ in range(6)]
        aligned = generalized_procrustes(ShapeSet(np.column_stack(shapes)))
        again = generalized_procrustes(aligned)
        for a, b in zip(aligned.as_matrix().T, again.as_matrix().T):
            assert _rmsd(a, b) < 1e-6

    def test_mean_centroid_at_origin(self):
        rng = np.random.default_rng(11)
        shapes = [_random_shape(rng) for _ in range(8)]
        aligned = generalized_procrustes(ShapeSet(np.column_stack(shapes)))
        centroid = mean_shape(aligned).reshape(-1, 2).mean(axis=0)
        assert np.max(np.abs(centroid)) < 1e-9

    def test_report_present(self):
        rng = np.random.default_rng(12)
        shapes = [_random_shape(rng) for _ in range(5)]
        aligned = generalized_procrustes(ShapeSet(np.column_stack(shapes)))
        assert aligned.alignment_report is not None
        assert aligned.alignment_report.iterations >= 1
        assert aligned.alignment_report.final_change < 1e-9

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_below_one_raises(self, max_iter: int) -> None:
        # With no sweep the set would come back unaligned but flagged aligned.
        rng = np.random.default_rng(13)
        shapes = ShapeSet(np.column_stack([_random_shape(rng), _random_shape(rng)]))
        with pytest.raises(ValueError, match="max_iter"):
            generalized_procrustes(shapes, max_iter=max_iter)

    @pytest.mark.parametrize("tol", [math.nan, -1.0])
    def test_tol_nan_or_negative_raises(self, tol: float) -> None:
        # Such a tol never counts as converged: every sweep would run and
        # the report would claim final_change=0.0.
        rng = np.random.default_rng(14)
        shapes = ShapeSet(np.column_stack([_random_shape(rng, 7) for _ in range(6)]))
        with pytest.raises(ValueError, match="tol"):
            generalized_procrustes(shapes, tol=tol)

    def test_order_preserved(self):
        square = np.array([0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0])
        spike = np.array([0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 9.0, 9.0])
        aligned = generalized_procrustes(ShapeSet(np.column_stack([square, spike])))
        # Aligning output 0 back onto the square should land almost exactly;
        # output 1 is a different shape and cannot.
        err0 = _rmsd(_align_to(aligned.as_matrix()[:, 0], square), square)
        err1 = _rmsd(_align_to(aligned.as_matrix()[:, 1], square), square)
        assert err0 < 1e-9
        assert err1 > 0.1

    def test_converges_quickly_on_low_noise_data(self):
        from pdmorder import make_seed_pdm_procedural, sample_shapes

        seed = make_seed_pdm_procedural(20, 5, "geometric:0.7", rng_seed=21)
        raw = sample_shapes(seed, 40, 20.0, 22, realign=False)
        aligned = generalized_procrustes(raw, tol=1e-9)
        assert aligned.alignment_report.iterations < 50

    def test_transform_invariance_up_to_global_similarity(self):
        rng = np.random.default_rng(14)
        shapes = [_random_shape(rng) for _ in range(6)]
        original = generalized_procrustes(ShapeSet(np.column_stack(shapes)))
        jittered = [
            _similarity(
                s,
                rng.uniform(-math.pi, math.pi),
                rng.uniform(0.5, 2.0),
                complex(*rng.uniform(-1, 1, 2)),
            )
            for s in shapes
        ]
        redone = generalized_procrustes(ShapeSet(np.column_stack(jittered)))
        # Undo the one global similarity difference by aligning each output
        # of the second run to the matching output of the first.  Aligned
        # shapes are individually centered, so the pairwise alignment puts
        # them right on top of each other.
        for a, b in zip(original.as_matrix().T, redone.as_matrix().T):
            assert _rmsd(_align_to(b, a), a) < 1e-7


class TestMeanShape:
    def test_midpoint(self):
        a = [0.0, 0.0, 0.0, 0.0]
        b = [2.0, 2.0, 2.0, 2.0]
        np.testing.assert_allclose(mean_shape(ShapeSet(np.column_stack([a, b]))), 1.0)

    def test_estimator_noise_shrinks_with_m(self):
        true_mean = np.array([0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0])
        rng = np.random.default_rng(15)

        def deviation(m: int) -> float:
            mat = true_mean[:, None] + 0.1 * rng.standard_normal((8, m))
            est = mean_shape(ShapeSet(mat))
            return float(np.max(np.abs(est - true_mean)))

        small, large = deviation(100), deviation(10000)
        # Standard error scales as 1/sqrt(M): a 100x sample increase should
        # shrink the deviation by roughly 10x; allow a loose factor.
        assert large < small / 3


class TestShapeSetArray:
    def test_from_matrix_copies_its_input(self):
        mat = np.arange(12.0).reshape(4, 3)
        ss = ShapeSet(mat)
        mat[0, 0] = 99.0
        assert ss.as_matrix()[0, 0] == 0.0

    def test_as_matrix_is_read_only(self):
        ss = ShapeSet(np.arange(12.0).reshape(4, 3))
        with pytest.raises(ValueError):
            ss.as_matrix()[0, 0] = 1.0

    @pytest.mark.parametrize(
        "mat, error",
        [
            (np.zeros(8), ParseError),
            (np.ones((5, 3)), ParseError),
            (np.ones((2, 3)), ParseError),
            (np.array([[1.0, 2.0], [np.nan, 1.0], [0.0, 1.0], [2.0, 3.0]]), ParseError),
            (np.array([[1.0, 2.0], [np.inf, 1.0], [0.0, 1.0], [2.0, 3.0]]), ParseError),
            (np.ones((4, 1)), TooFewSamples),
            (np.ones((4, 0)), TooFewSamples),
            (np.ones((4, 3)) + 1j, ParseError),
            (np.full((4, 3), "1.0"), ParseError),
            (np.ones((4, 3), dtype=bool), ParseError),
            ([[1, 2], [3, 4, 5], [6, 7], [8, 9]], ParseError),
        ],
        ids=["1-d", "odd-n", "n-below-4", "nan", "inf", "one-shape", "no-shapes",
             "complex", "strings", "bool", "ragged"],
    )
    def test_from_matrix_rejects(self, mat, error):
        with pytest.raises(error) as err:
            ShapeSet(mat)
        if isinstance(mat, list):
            assert "rectangular" in str(err.value)
        elif mat.dtype.kind != "f":
            assert f"dtype {mat.dtype}" in str(err.value)

    def test_subset_of_aligned_set_stays_aligned(self):
        rng = np.random.default_rng(17)
        shapes = [_similarity(_random_shape(rng), 0.3 * k, 1.0, 0.5j * k) for k in range(6)]
        aligned = generalized_procrustes(ShapeSet(np.column_stack(shapes)))
        sub = aligned.subset([4, 0, 2])
        assert sub.aligned
        np.testing.assert_array_equal(sub.as_matrix(), aligned.as_matrix()[:, [4, 0, 2]])

    @given(
        rows=st.integers(0, 12),
        cols=st.integers(0, 6),
        dtype=st.sampled_from([np.int32, np.int64, np.float32, np.float64]),
        fortran=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_constructor_and_subset(self, rows, cols, dtype, fortran, data):
        if np.dtype(dtype).kind == "i":
            elements = st.integers(-50, 50)
        else:
            finite = st.floats(-50.0, 50.0, width=8 * np.dtype(dtype).itemsize)
            elements = finite | st.sampled_from([math.nan, math.inf, -math.inf])
        mat = data.draw(arrays(dtype, (rows, cols), elements=elements))
        if fortran:
            mat = np.asfortranarray(mat)
        if not (cols >= 2 and rows >= 4 and rows % 2 == 0 and np.all(np.isfinite(mat))):
            with pytest.raises(DataError):
                ShapeSet(mat)
            return
        got = ShapeSet(mat).as_matrix()
        assert got.tobytes() == np.asarray(mat, float).tobytes()
        assert got.flags.c_contiguous and not got.flags.writeable
        assert not np.shares_memory(got, mat)

        centroid = np.tile([got[0::2].mean(), got[1::2].mean()], rows // 2)
        indices = data.draw(st.lists(st.integers(0, cols - 1), min_size=2, max_size=8))
        # Any flat integer sequence: a list, a tuple or an integer array.
        passed = data.draw(st.sampled_from([
            indices, tuple(indices), np.array(indices), np.array(indices, dtype=np.uint8),
        ]))
        for aligned, source in ((False, mat), (True, got - centroid[:, None])):
            ss = ShapeSet(source, aligned=aligned)
            sub = ss.subset(passed)
            np.testing.assert_array_equal(sub.as_matrix(), np.take(ss.as_matrix(), indices, axis=1))
            assert sub.aligned is aligned
