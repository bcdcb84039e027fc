"""Command line tests: dispatch, exit codes, artifacts, and reproducibility.

Everything runs in-process through main(argv) so exit codes and stream
output can be asserted without spawning subprocesses.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from pdmorder import (
    fit_pdm,
    generalized_procrustes,
    load_shape_set,
    mean_shape,
    noise_variance,
    select_order_variance,
)
from pdmorder.cli import main
from pdmorder.errors import SingularSystem
from pdmorder.pdm import load_pdm, save_pdm

SUBCOMMANDS = (
    "align", "fit", "select", "simulate", "montecarlo", "sweep", "lmmse", "mean-shape",
)


def _simulate_small(out: Path, seed: int = 9) -> None:
    rc = main([
        "simulate", "--landmarks", "12", "--order", "3", "--beta-db", "15",
        "--samples", "16", "--seed", str(seed), "--out", str(out),
    ])
    assert rc == 0


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory: pytest.TempPathFactory) -> Path:
    path = tmp_path_factory.mktemp("cli") / "small.csv"
    _simulate_small(path)
    return path


@pytest.fixture(scope="module")
def seed_models(small_csv: Path) -> dict[str, Path]:
    """The small set's full model and its two-mode truncation, as model files."""
    model = fit_pdm(generalized_procrustes(load_shape_set(small_csv)))
    paths = {"full": small_csv.with_name("full.pdm"), "order2": small_csv.with_name("order2.pdm")}
    save_pdm(model, paths["full"])
    save_pdm(model, paths["order2"], order=2)
    return paths


class TestDispatch:
    def test_unknown_flag_exits_1(self, small_csv: Path, capsys: pytest.CaptureFixture) -> None:
        rc = main(["select", "--input", str(small_csv), "--bogus"])
        assert rc == 1
        assert "unrecognized" in capsys.readouterr().err

    def test_missing_input_exits_2(self, tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
        rc = main(["select", "--input", str(tmp_path / "absent.csv")])
        assert rc == 2
        assert "data error" in capsys.readouterr().err

    def test_no_align_on_raw_input_exits_2(
        self, small_csv: Path, capsys: pytest.CaptureFixture
    ) -> None:
        # CSV input carries no aligned flag, so --no-align must refuse it.
        rc = main(["select", "--input", str(small_csv), "--no-align"])
        assert rc == 2
        assert "not aligned" in capsys.readouterr().err

    def test_numerical_failure_exits_3(
        self, small_csv: Path, capsys: pytest.CaptureFixture, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        def _blow_up(*args: object, **kwargs: object) -> None:
            raise SingularSystem("fabricated breakdown")

        monkeypatch.setattr("pdmorder.cli.select_order_proposed", _blow_up)
        rc = main(["select", "--input", str(small_csv)])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_every_subcommand_has_help(self, capsys: pytest.CaptureFixture) -> None:
        for command in SUBCOMMANDS:
            with pytest.raises(SystemExit) as info:
                main([command, "--help"])
            assert info.value.code == 0
            assert "usage" in capsys.readouterr().out.lower()


class TestManifest:
    def test_manifest_fields(self, small_csv: Path, tmp_path: Path) -> None:
        out = tmp_path / "aligned.csv"
        rc = main(["align", "--input", str(small_csv), "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out.parent / "aligned.csv.manifest.json").read_text())
        assert set(manifest) == {
            "command", "config", "config_hash", "rng_seed", "timestamps", "tool_version",
        }
        assert manifest["command"] == "align"
        assert set(manifest["timestamps"]) == {"started", "finished"}

    def test_config_hash_stable_across_reruns(self, tmp_path: Path) -> None:
        out = tmp_path / "mc.csv"
        argv = [
            "montecarlo", "--landmarks", "12", "--order", "3", "--beta-db", "20",
            "--samples", "10,14", "--trials", "2", "--seed", "3", "--out", str(out),
        ]
        assert main(argv) == 0
        first_hash = json.loads((tmp_path / "mc.csv.manifest.json").read_text())["config_hash"]
        first_data = out.read_bytes()
        first_hist = (tmp_path / "mc_hist.csv").read_bytes()
        assert main(argv) == 0
        second = json.loads((tmp_path / "mc.csv.manifest.json").read_text())
        assert second["config_hash"] == first_hash
        assert second["rng_seed"] == 3
        assert out.read_bytes() == first_data
        assert (tmp_path / "mc_hist.csv").read_bytes() == first_hist

    def test_config_hash_tracks_flags(self, tmp_path: Path) -> None:
        argv = [
            "montecarlo", "--landmarks", "12", "--order", "3", "--beta-db", "20",
            "--samples", "10", "--trials", "1", "--out", str(tmp_path / "mc.csv"),
        ]
        assert main(argv + ["--seed", "3"]) == 0
        h3 = json.loads((tmp_path / "mc.csv.manifest.json").read_text())["config_hash"]
        assert main(argv + ["--seed", "4"]) == 0
        h4 = json.loads((tmp_path / "mc.csv.manifest.json").read_text())["config_hash"]
        assert h3 != h4


class TestEndToEnd:
    def test_simulate_then_select_recovers_truth(
        self, tmp_path: Path, capsys: pytest.CaptureFixture
    ) -> None:
        shapes = tmp_path / "s.csv"
        rc = main([
            "simulate", "--landmarks", "40", "--order", "10", "--beta-db", "20",
            "--samples", "200", "--seed", "1", "--out", str(shapes),
        ])
        assert rc == 0
        rc = main(["select", "--input", str(shapes), "--method", "proposed"])
        assert rc == 0
        assert "t_star=10" in capsys.readouterr().out

    def test_select_writes_scores_csv(
        self, small_csv: Path, tmp_path: Path, capsys: pytest.CaptureFixture
    ) -> None:
        out = tmp_path / "scores.csv"
        rc = main(["select", "--input", str(small_csv), "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        t_star = int(printed.split("t_star=")[1].split()[0])
        lines = out.read_text().splitlines()
        assert lines[0] == "t,score,iterations,converged"
        scores = {}
        for line in lines[1:]:
            t, score, iterations, converged = line.split(",")
            scores[int(t)] = float(score)
            assert int(iterations) >= 1
            assert converged in ("true", "false")
        assert min(scores, key=lambda t: (scores[t], t)) == t_star

    def test_select_prints_each_note_to_stderr(
        self, small_csv: Path, tmp_path: Path, capsys: pytest.CaptureFixture
    ) -> None:
        # One sweep leaves every order's budget exhausted; the notes go to
        # stderr, one line per order, and stdout keeps its single line.
        out = tmp_path / "scores.csv"
        rc = main(["select", "--input", str(small_csv), "--max-iter", "1", "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr()
        orders = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
        notes = [line for line in captured.err.splitlines() if line.startswith("note: ")]
        assert notes == [f"note: t={t}: sweep budget exhausted" for t in orders]
        assert len(captured.out.splitlines()) == 1 and captured.out.startswith("t_star=")

    def test_variance_method_forwards_fraction(
        self, small_csv: Path, capsys: pytest.CaptureFixture
    ) -> None:
        aligned = generalized_procrustes(load_shape_set(small_csv))
        expected = select_order_variance(fit_pdm(aligned), fraction=0.6)
        rc = main([
            "select", "--input", str(small_csv), "--method", "variance",
            "--fraction", "0.6",
        ])
        assert rc == 0
        assert f"t_star={expected}" in capsys.readouterr().out

    def test_fit_roundtrips_through_file(self, small_csv: Path, tmp_path: Path) -> None:
        out = tmp_path / "model.json"
        rc = main(["fit", "--input", str(small_csv), "--out", str(out)])
        assert rc == 0
        loaded = load_pdm(out)
        direct = fit_pdm(generalized_procrustes(load_shape_set(small_csv)))
        # 17-significant-digit serialization round-trips doubles exactly
        assert np.array_equal(loaded.mean, direct.mean)
        assert np.array_equal(loaded.eigvals, direct.eigvals)
        assert np.array_equal(loaded.eigvecs, direct.eigvecs)

    def test_mean_shape_stdout(
        self, small_csv: Path, capsys: pytest.CaptureFixture
    ) -> None:
        rc = main(["mean-shape", "--input", str(small_csv)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "x,y"
        assert len(lines) == 13
        got = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        want = mean_shape(generalized_procrustes(load_shape_set(small_csv)))
        assert np.array_equal(got.ravel(), want.coords)

    def test_align_report_prints_stats(
        self, small_csv: Path, tmp_path: Path, capsys: pytest.CaptureFixture
    ) -> None:
        out = tmp_path / "aligned.csv"
        rc = main(["align", "--input", str(small_csv), "--out", str(out), "--report"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "iterations=" in printed
        assert "final_change=" in printed
        assert out.exists()


class TestArtifacts:
    def test_simulate_truth_sidecar(self, tmp_path: Path) -> None:
        rc = main([
            "simulate", "--landmarks", "12", "--order", "3", "--beta-db", "15",
            "--samples", "16", "--seed", "9", "--out", str(tmp_path / "s.csv"),
            "--out-truth", str(tmp_path / "truth.json"),
        ])
        assert rc == 0
        truth = json.loads((tmp_path / "truth.json").read_text())
        assert set(truth) == {"beta_db", "lambdas", "order", "rng_seed", "sigma2", "source"}
        assert truth["order"] == 3
        assert truth["rng_seed"] == 9
        assert truth["sigma2"] == pytest.approx(
            noise_variance(np.array(truth["lambdas"]), 15.0), rel=1e-12
        )

    def test_simulate_rerun_byte_identical(self, tmp_path: Path) -> None:
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        _simulate_small(first)
        _simulate_small(second)
        assert first.read_bytes() == second.read_bytes()

    def test_montecarlo_outputs(self, tmp_path: Path) -> None:
        out = tmp_path / "mc.csv"
        rc = main([
            "montecarlo", "--landmarks", "12", "--order", "3", "--beta-db", "20",
            "--samples", "10,14", "--trials", "2", "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "method,M,mean_t,var_t"
        rows = [line.split(",") for line in lines[1:]]
        assert {(r[0], r[1]) for r in rows} == {
            ("proposed", "10"), ("proposed", "14"),
            ("variance", "10"), ("variance", "14"),
        }
        hist_lines = (tmp_path / "mc_hist.csv").read_text().splitlines()
        assert hist_lines[0] == "method,M,t,count"
        totals: dict[tuple[str, str], int] = {}
        for line in hist_lines[1:]:
            method, count, _, tally = line.split(",")
            totals[(method, count)] = totals.get((method, count), 0) + int(tally)
        assert all(total == 2 for total in totals.values())

    def test_sweep_outputs(self, small_csv: Path, tmp_path: Path) -> None:
        out = tmp_path / "sweep.csv"
        argv = [
            "sweep", "--input", str(small_csv), "--samples", "10,12", "--trials", "2",
            "--seed", "4", "--out", str(out),
        ]
        assert main(argv) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "method,M,mean_t,var_t"
        assert len(lines) == 5
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first

    def test_lmmse_outputs(self, small_csv: Path, tmp_path: Path) -> None:
        out = tmp_path / "curve.csv"
        rc = main(["lmmse", "--input", str(small_csv), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,e_lmmse"
        errors = {int(line.split(",")[0]): float(line.split(",")[1]) for line in lines[1:]}
        sidecar = json.loads((tmp_path / "curve.selected.json").read_text())
        assert set(sidecar) == {"argmin_t", "selected_orders"}
        assert sidecar["argmin_t"] in errors
        assert set(sidecar["selected_orders"]) == {"proposed", "variance"}

    def test_threads_do_not_change_results(self, tmp_path: Path) -> None:
        outs = []
        for threads, name in ((1, "t1.csv"), (3, "t3.csv")):
            out = tmp_path / name
            rc = main([
                "montecarlo", "--landmarks", "12", "--order", "3", "--beta-db", "20",
                "--samples", "12", "--trials", "3", "--seed", "5",
                "--threads", str(threads), "--out", str(out),
            ])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("model, order", [("full", "3"), ("order2", "2")])
    def test_seed_model_runs(
        self, seed_models: dict[str, Path], tmp_path: Path, model: str, order: str
    ) -> None:
        out = tmp_path / "mc.csv"
        rc = main([
            "montecarlo", "--seed-model", str(seed_models[model]), "--landmarks", "12",
            "--order", order, "--beta-db", "20", "--samples", "10", "--trials", "1",
            "--seed", "1", "--out", str(out),
        ])
        assert rc == 0
        assert out.exists()



_MC = (
    "montecarlo --landmarks 12 --order 3 --beta-db 20 --samples 10 --trials 1 --seed 1 "
    "--out {out}"
)
_SIM = "simulate --order 3 --beta-db 20 --seed 1 --out {out}"


@pytest.mark.parametrize(
    "command, code",
    [
        ("select --input {csv} --method variance --out {out}", 1),
        (_MC + " --trials 0", 1),
        (_MC + " --trials two", 1),
        (_MC + " --methods foo", 1),
        (_MC + " --methods proposed,", 1),
        (_MC + " --spectrum bogus", 1),
        (_MC + " --spectrum list:4,2", 1),
        (_MC + " --fraction 2", 1),
        (_MC + " --fraction nan", 1),
        (_MC + " --samples 1", 2),
        (_MC + " --seed-model {tmp}/missing.pdm", 2),
        (_MC + " --seed-model {bad_pdm}", 2),
        (_SIM + " --landmarks 12 --samples 1", 1),
        (_SIM + " --landmarks 3 --samples 5", 1),
        (_MC + " --beta-db nan", 1),
        (_MC + " --t-max 0", 1),
        ("lmmse --input {csv} --out {out} --t-max 0", 1),
        ("lmmse --input {csv} --out {out} --selector-t-max 0", 1),
        ("select --input {csv} --max-iter 0", 1),
        ("select --input {csv} --t-max 0", 1),
        ("align --input {csv} --out {out} --max-iter 0", 1),
        ("select --input {csv} --method variance --split shuffled", 1),
        ("select --input {csv} --method variance --seed 3", 1),
        ("select --input {csv} --method variance --t-max 2", 1),
        ("select --input {csv} --method variance --tol 1e-6", 1),
        ("select --input {csv} --method variance --max-iter 5", 1),
        ("select --input {csv} --method variance --mean x2", 1),
        ("select --input {csv} --method variance --clamp scale", 1),
        ("select --input {csv} --method proposed --fraction 0.5", 1),
        ("select --input {csv} --warm-start", 1),
        ("select --input {csv} --threads 2", 1),
        (_MC + " --seed-model {full} --landmarks 40", 1),
        (_MC + " --seed-model {full} --spectrum geometric:0.2", 1),
        (_MC + " --seed-model {order2}", 1),
        ("select --input {csv} --tol -1", 1),
        ("align --input {csv} --out {out} --tol nan", 1),
        (_SIM + " --landmarks 12 --samples 5 --rot-range nan", 1),
        (_SIM + " --landmarks 12 --samples 5 --log-scale-range inf", 1),
        (_SIM + " --landmarks 12 --samples 5 --translation-range -1", 1),
        (_MC + " --threads -4", 1),
        ("select --input {csv} --split shuffled", 1),
        (_SIM + " --landmarks 12 --samples 5 --order 0", 1),
        (_MC + " --order -2", 1),
        ("fit --input {csv} --out {out} --order 0", 1),
    ],
    ids=[
        "select-variance-out", "trials-0", "trials-text", "unknown-method", "empty-method",
        "bogus-spectrum", "spectrum-order-mismatch", "fraction-2", "fraction-nan",
        "samples-1", "missing-seed-model", "negative-mode-count", "simulate-samples-1",
        "landmarks-3", "beta-db-nan", "t-max-0", "lmmse-t-max-0", "selector-t-max-0",
        "select-max-iter-0", "select-t-max-0", "align-max-iter-0",
        "variance-split", "variance-seed", "variance-t-max", "variance-tol",
        "variance-max-iter", "variance-mean", "variance-clamp", "proposed-fraction",
        "select-warm-start", "select-threads", "seed-model-landmarks", "seed-model-spectrum",
        "seed-model-order", "select-tol-negative", "align-tol-nan", "rot-range-nan",
        "log-scale-range-inf", "translation-range-negative", "threads-negative",
        "shuffled-without-seed", "simulate-order-0", "montecarlo-order-negative", "fit-order-0",
    ],
)
def test_bad_flags_exit_with_one_line(
    small_csv: Path, seed_models: dict[str, Path], tmp_path: Path,
    capsys: pytest.CaptureFixture, command: str, code: int,
) -> None:
    bad_pdm = tmp_path / "bad.pdm"
    bad_pdm.write_text("4,-1,3\n0,0,0,0\n")
    out = tmp_path / "out.csv"
    fields = dict(csv=small_csv, out=out, tmp=tmp_path, bad_pdm=bad_pdm, **seed_models)
    argv = command.format(**fields).split()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert not out.exists()
