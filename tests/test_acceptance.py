"""Release gate: one test per shipped acceptance criterion.

Run with -v to get a single pass/fail line per criterion.  The two Monte
Carlo studies and the occlusion curve are computed once in module fixtures
and shared by the criteria that read them.  Total runtime is a couple of
minutes on one core; the harness's worker processes only shuffle work,
never results.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from pdmorder import (
    ShapeSet,
    Shape,
    clamp_to_box,
    fit_pdm,
    generalized_procrustes,
    lmmse_curve,
    make_seed_pdm_procedural,
    monte_carlo_order,
    rmsd,
    sample_shapes,
    select_order_proposed,
)
from pdmorder.cli import main
from pdmorder.order_select import alternating_ml
from pdmorder.pdm import PdmModel

COUNTS_B = (10, 20, 40, 100, 200)


def _seed_model():
    return make_seed_pdm_procedural(40, 10, "geometric:0.7", rng_seed=11)


def _aligned_random_set(rng: np.random.Generator, k: int, m: int) -> ShapeSet:
    mat = rng.normal(size=(2 * k, m))
    for c in range(m):
        mat[0::2, c] -= mat[0::2, c].mean()
        mat[1::2, c] -= mat[1::2, c].mean()
    return ShapeSet.from_matrix(mat, aligned=True)


@pytest.fixture(scope="module")
def run_high_snr():
    return monte_carlo_order(
        _seed_model(), beta_db=20.0, sample_counts=(200,), trials=100, rng_seed=2001,
        threads=4,
    )


@pytest.fixture(scope="module")
def run_moderate_snr():
    return monte_carlo_order(
        _seed_model(), beta_db=5.0, sample_counts=COUNTS_B, trials=100, rng_seed=2002,
        threads=4,
    )


@pytest.fixture(scope="module")
def occlusion_curve():
    shape_set = sample_shapes(_seed_model(), 100, 10.0, 700)
    return lmmse_curve(shape_set)


def test_criterion_1_order_recovery_high_snr(run_high_snr) -> None:
    cell = run_high_snr.cells[("proposed", 200)]
    assert run_high_snr.failures == 0
    assert 9.8 <= cell.mean_t <= 10.2
    assert cell.var_t <= 0.2


def test_criterion_2_order_recovery_moderate_snr(run_moderate_snr) -> None:
    cell = run_moderate_snr.cells[("proposed", 200)]
    assert run_moderate_snr.failures == 0
    assert 9.0 <= cell.mean_t <= 10.5


def test_criterion_3_small_sample_underestimation_trend(run_moderate_snr) -> None:
    means = [run_moderate_snr.cells[("proposed", m)].mean_t for m in COUNTS_B]
    assert all(b >= a for a, b in zip(means, means[1:]))
    assert all(m <= 10.5 for m in means)


def test_criterion_4_variance_threshold_bias_high_snr(run_high_snr) -> None:
    variance_cell = run_high_snr.cells[("variance", 200)]
    proposed_cell = run_high_snr.cells[("proposed", 200)]
    assert variance_cell.mean_t <= 9.5
    assert 9.8 <= proposed_cell.mean_t <= 10.2


def test_criterion_5_alternation_objective_monotone() -> None:
    rng = np.random.default_rng(1005)
    for case in range(200):
        k = int(rng.integers(2, 21))          # N = 2k <= 40
        n = 2 * k
        t = int(rng.integers(1, min(9, n)))   # t <= 8
        m2 = int(rng.integers(2, 61))         # M2 <= 60
        q, _ = np.linalg.qr(rng.normal(size=(n, t)))
        lam = np.sort(rng.uniform(0.5, 5.0, size=t))[::-1]
        pdm = PdmModel(mean=np.zeros(n), basis=q, lambdas=lam, n_train=0)
        y = rng.normal(size=(n, m2)) * rng.uniform(0.5, 2.0)
        fit = alternating_ml(y, pdm)
        trace = np.asarray(fit.objective_trace)
        assert np.all(np.diff(trace) <= 1e-9), f"case {case} not monotone"


def test_criterion_6_score_matches_brute_force() -> None:
    rng = np.random.default_rng(1006)
    for case in range(50):
        k = int(rng.integers(3, 5))           # N = 6 or 8
        m = int(rng.integers(8, 17))          # M <= 16
        t_max = int(rng.integers(1, 5))       # t_max <= 4
        shape_set = _aligned_random_set(rng, k, m)
        result = select_order_proposed(shape_set, t_max=t_max)
        m2 = m - math.ceil(m / 2)
        brute = {}
        for order, fit in result.per_order_fits.items():
            score = 2.0 * m2 * order
            for i in range(fit.sigma_diag.shape[0]):
                score += m2 * math.log(fit.sigma_diag[i])
                for j in range(m2):
                    score += fit.residuals[i, j] ** 2 / fit.sigma_diag[i]
            brute[order] = score
        best = min(sorted(brute), key=lambda order: brute[order])
        assert result.t_star == best, f"case {case}: {result.t_star} != {best}"


def test_criterion_7_lmmse_u_shape_and_selector_optimality(occlusion_curve) -> None:
    errors = occlusion_curve.errors
    t_star = occlusion_curve.selected_orders["proposed"]
    t_hi = max(errors)
    e_min = min(errors.values())
    assert errors[1] > errors[t_star]
    assert errors[t_hi] > errors[t_star]
    assert errors[t_star] <= 1.1 * e_min


def test_criterion_8_alignment_and_model_invariants() -> None:
    rng = np.random.default_rng(1008)

    # similarity-transformed copies collapse under alignment
    base = rng.normal(size=20)
    shapes = []
    for _ in range(6):
        angle = rng.uniform(-np.pi, np.pi)
        scale = math.exp(rng.uniform(-0.4, 0.4))
        rot = scale * np.array(
            [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
        )
        pts = base.reshape(-1, 2) @ rot.T + rng.uniform(-1.0, 1.0, size=2)
        shapes.append(Shape(pts.ravel()))
    aligned = generalized_procrustes(ShapeSet(tuple(shapes)))
    for shape in aligned.shapes[1:]:
        assert rmsd(shape, aligned.shapes[0]) < 1e-8

    # eigenvector orthonormality and covariance reconstruction
    shape_set = _aligned_random_set(rng, k=8, m=30)
    model = fit_pdm(shape_set)
    gram = model.basis.T @ model.basis
    assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-10
    mat = shape_set.as_matrix()
    centered = mat - mat.mean(axis=1, keepdims=True)
    cov = centered @ centered.T / mat.shape[1]
    rebuilt = model.basis @ np.diag(model.lambdas) @ model.basis.T
    assert np.max(np.abs(rebuilt - cov)) < 1e-8

    # coefficient clamp: box membership and idempotence
    for _ in range(100):
        t = int(rng.integers(1, 7))
        radii_sq = rng.uniform(0.1, 4.0, size=t)
        b = rng.normal(size=t) * rng.uniform(0.0, 4.0)
        clamped = clamp_to_box(b, radii_sq)
        assert np.all(np.abs(clamped) <= np.sqrt(radii_sq) * (1.0 + 1e-12))
        again = clamp_to_box(clamped, radii_sq)
        np.testing.assert_allclose(again, clamped, rtol=1e-12, atol=0.0)


def test_criterion_9_repeated_runs_byte_identical(tmp_path: Path) -> None:
    def run_twice(argv_for: "callable", artifacts: list[str]) -> None:
        blobs = []
        for tag in ("one", "two"):
            sub = tmp_path / tag
            sub.mkdir(exist_ok=True)
            assert main(argv_for(sub)) == 0
            blobs.append([
                (sub / name).read_bytes() for name in artifacts
            ])
        assert blobs[0] == blobs[1]

    # generation (criteria 1-4, 7 inputs)
    run_twice(
        lambda d: [
            "simulate", "--landmarks", "40", "--order", "10", "--beta-db", "20",
            "--samples", "200", "--seed", "1", "--out", str(d / "s.csv"),
        ],
        ["s.csv"],
    )
    # selector scores (criteria 5-6 machinery)
    sim = tmp_path / "one" / "s.csv"
    run_twice(
        lambda d: [
            "select", "--input", str(sim), "--out", str(d / "scores.csv"),
        ],
        ["scores.csv"],
    )
    # Monte Carlo summary + histogram (criteria 1-4 harness, reduced trials)
    run_twice(
        lambda d: [
            "montecarlo", "--landmarks", "40", "--order", "10", "--beta-db", "20",
            "--samples", "200", "--trials", "10", "--seed", "2001",
            "--threads", "4", "--out", str(d / "mc.csv"),
        ],
        ["mc.csv", "mc_hist.csv"],
    )
    # occlusion curve (criterion 7 harness, reduced sample count)
    small = tmp_path / "occluded.csv"
    assert main([
        "simulate", "--landmarks", "40", "--order", "10", "--beta-db", "10",
        "--samples", "40", "--seed", "701", "--out", str(small),
    ]) == 0
    run_twice(
        lambda d: [
            "lmmse", "--input", str(small), "--out", str(d / "curve.csv"),
        ],
        ["curve.csv", "curve.selected.json"],
    )
