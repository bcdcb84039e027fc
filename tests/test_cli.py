"""Command line tests: dispatch, exit codes, artifacts, and reproducibility.

Everything runs in-process through main(argv) so exit codes and stream
output can be asserted without spawning subprocesses.
"""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pdmorder import (
    fit_pdm,
    generalized_procrustes,
    load_shape_set,
    make_seed_pdm_procedural,
    mean_shape,
    noise_variance,
    sample_shapes,
    select_order_proposed,
    select_order_variance,
)
from pdmorder import evaluation
from pdmorder.cli import build_parser, main, write_shapes_csv
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
    """The small set's fitted model (every positive mode) and its two-mode truncation."""
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
        self, tmp_path: Path, capsys: pytest.CaptureFixture
    ) -> None:
        # A set left in its random poses is off the origin, so --no-align
        # must refuse it rather than use it as aligned.
        raw = tmp_path / "raw.csv"
        rc = main([
            "simulate", "--landmarks", "12", "--order", "3", "--beta-db", "15",
            "--samples", "16", "--seed", "9", "--no-realign", "--out", str(raw),
        ])
        assert rc == 0
        rc = main(["select", "--input", str(raw), "--no-align"])
        assert rc == 2
        assert "not aligned" in capsys.readouterr().err

    def test_no_align_uses_aligned_input_as_is(
        self, small_csv: Path, tmp_path: Path, capsys: pytest.CaptureFixture
    ) -> None:
        # A rigid alignment keeps each shape's size; --no-align must not
        # re-align it with scaling.
        rigid = tmp_path / "rigid.csv"
        assert main(["align", "--input", str(small_csv), "--out", str(rigid), "--rigid"]) == 0
        capsys.readouterr()
        rc = main(["mean-shape", "--input", str(rigid), "--no-align"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        got = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array_equal(got.ravel(), mean_shape(load_shape_set(rigid)).coords)

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


    def test_commands_in_turn_share_one_parser(
        self, small_csv: Path, tmp_path: Path, capsys: pytest.CaptureFixture
    ) -> None:
        # The parser is built once per process, so each run must start from
        # its own flags: a --t-max left over from the first select would
        # make the variance run a usage error.
        aligned = generalized_procrustes(load_shape_set(small_csv))
        assert main(["select", "--input", str(small_csv), "--t-max", "2"]) == 0
        want = select_order_proposed(aligned, t_max=2).t_star
        assert capsys.readouterr().out == f"t_star={want}\n"
        assert main(["select", "--input", str(small_csv), "--method", "variance"]) == 0
        assert capsys.readouterr().out == f"t_star={select_order_variance(aligned)}\n"
        curve = tmp_path / "curve.csv"
        assert main(["lmmse", "--input", str(small_csv), "--t-max", "3", "--out", str(curve)]) == 0
        assert [line.split(",")[0] for line in curve.read_text().splitlines()] == ["t", "1", "2", "3"]
        assert build_parser() is build_parser()


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
        first = json.loads((tmp_path / "mc.csv.manifest.json").read_text())
        first_hash, first_sweeps = first["config_hash"], first["stats"]["sweeps"]
        first_data = out.read_bytes()
        first_hist = (tmp_path / "mc_hist.csv").read_bytes()
        assert main(argv) == 0
        second = json.loads((tmp_path / "mc.csv.manifest.json").read_text())
        assert second["config_hash"] == first_hash
        assert second["rng_seed"] == 3
        assert second["stats"] == {"failures": 0, "failure_classes": {}, "sweeps": first_sweeps}
        assert first_sweeps > 0
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

    @pytest.mark.parametrize("max_iter", ["1", "100"])
    def test_select_manifest_counts_the_sweeps_of_the_scores_file(
        self, small_csv: Path, tmp_path: Path, max_iter: str
    ) -> None:
        out = tmp_path / "scores.csv"
        rc = main(["select", "--input", str(small_csv), "--max-iter", max_iter, "--out", str(out)])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        stats = json.loads(Path(f"{out}.manifest.json").read_text())["stats"]
        assert stats["sweeps"] == sum(int(iterations) for _, _, iterations, _ in rows)
        assert stats["orders"] == {
            t: {"iterations": int(iterations), "converged": converged == "true"}
            for t, _, iterations, converged in rows
        }

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

    def test_seed_shuffles_the_split_reproducibly(
        self, small_csv: Path, tmp_path: Path
    ) -> None:
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in outs:
            argv = ["select", "--input", str(small_csv), "--seed", "3", "--out", str(out)]
            assert main(argv) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        aligned = generalized_procrustes(load_shape_set(small_csv))
        expected = select_order_proposed(aligned, split_seed=3).scores
        rows = [line.split(",") for line in outs[0].read_text().splitlines()[1:]]
        assert {int(row[0]): float(row[1]) for row in rows} == expected

    def test_variance_method_forwards_fraction(
        self, small_csv: Path, capsys: pytest.CaptureFixture
    ) -> None:
        aligned = generalized_procrustes(load_shape_set(small_csv))
        expected = select_order_variance(aligned, fraction=0.6)
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
        assert np.array_equal(loaded.lambdas, direct.lambdas)
        assert np.array_equal(loaded.basis, direct.basis)

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

    def test_simulate_seed_model_truth_source(
        self, seed_models: dict[str, Path], tmp_path: Path
    ) -> None:
        rc = main([
            "simulate", "--seed-model", str(seed_models["order2"]), "--landmarks", "12",
            "--order", "2", "--beta-db", "20", "--samples", "8", "--seed", "3",
            "--out", str(tmp_path / "s.csv"),
            "--out-truth", str(tmp_path / "truth.json"),
        ])
        assert rc == 0
        truth = json.loads((tmp_path / "truth.json").read_text())
        assert truth["source"] == f"from_data:{seed_models['order2']}"
        assert truth["order"] == 2

    def test_simulate_gaussian_truth_sidecar(self, tmp_path: Path) -> None:
        # The truth records the noise the generator drew for the gaussian
        # coefficient law, not the uniform law's.
        rc = main([
            "simulate", "--landmarks", "12", "--order", "3", "--beta-db", "10",
            "--samples", "16", "--seed", "1", "--b-dist", "gaussian",
            "--out", str(tmp_path / "s.csv"), "--out-truth", str(tmp_path / "truth.json"),
        ])
        assert rc == 0
        truth = json.loads((tmp_path / "truth.json").read_text())
        lambdas = np.array(truth["lambdas"])
        assert truth["sigma2"] == noise_variance(lambdas, 10.0, "gaussian")
        assert truth["sigma2"] != noise_variance(lambdas, 10.0)

    @pytest.mark.parametrize("command", ["simulate", "montecarlo"])
    def test_beta_db_past_the_float_range_runs_noiseless(
        self, tmp_path: Path, capsys: pytest.CaptureFixture, command: str
    ) -> None:
        # 10^(3100/10) overflows a float: the noise variance underflows to 0,
        # so the run writes what --beta-db inf writes, and warns of nothing.
        extra = {
            "simulate": ["--samples", "10", "--out-truth"],
            "montecarlo": ["--samples", "10,12", "--trials", "2", "--methods", "variance"],
        }[command]
        outs = {}
        for beta in ("3100", "inf"):
            out = tmp_path / f"{beta}.csv"
            argv = [command, "--landmarks", "12", "--order", "3", "--beta-db", beta,
                    "--seed", "4", "--out", str(out), *extra]
            if command == "simulate":
                argv.append(str(tmp_path / f"{beta}.json"))
            assert main(argv) == 0
            outs[beta] = out.read_bytes()
        assert outs["3100"] == outs["inf"]
        assert capsys.readouterr().err == ""
        if command == "simulate":
            assert json.loads((tmp_path / "3100.json").read_text())["sigma2"] == 0.0

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

    def test_lmmse_outputs(
        self, small_csv: Path, tmp_path: Path, capsys: pytest.CaptureFixture
    ) -> None:
        out = tmp_path / "curve.csv"
        rc = main(["lmmse", "--input", str(small_csv), "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().err == (
            "lmmse: aligning the input with Procrustes (pass --no-align if it is already aligned)\n"
        )
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

    @pytest.mark.parametrize("command", [
        "montecarlo --landmarks 12 --order 3 --beta-db 20",
        "sweep --input {csv} --mode random",
        "sweep --input {csv} --mode prefix",
    ], ids=["montecarlo", "sweep-random", "sweep-prefix"])
    def test_worker_count_keeps_files_identical(
        self, small_csv: Path, tmp_path: Path, capsys: pytest.CaptureFixture, command: str
    ) -> None:
        # Sample count 3 fails in every trial (its training half holds one
        # shape), so the failure tally on stderr and in the manifest must
        # match as well, and so must the sweep count.  The jobs are cut per
        # worker: one job of 15 trials per count serially, 8 + 7 with two
        # workers (and with four on two CPUs).
        assert evaluation.TRIAL_STACK_SHAPES // 12 >= 15
        runs = []
        for threads in (1, 2, 4):
            out = tmp_path / f"t{threads}.csv"
            argv = command.format(csv=small_csv).split() + [
                "--samples", "3,10,12", "--trials", "15", "--seed", "5",
                "--threads", str(threads), "--out", str(out),
            ]
            assert main(argv) == 0
            hist = out.with_name(out.stem + "_hist.csv")
            stats = json.loads(Path(f"{out}.manifest.json").read_text())["stats"]
            runs.append((out.read_bytes(), hist.read_bytes(), capsys.readouterr().err, stats))
        assert "failures=15" in runs[0][2].splitlines()
        assert "failure_classes=TooFewSamples:15" in runs[0][2].splitlines()
        sweeps = runs[0][3].pop("sweeps")
        assert runs[0][3] == {"failures": 15, "failure_classes": {"TooFewSamples": 15}}
        assert sweeps > 0
        assert runs[1][3].pop("sweeps") == runs[2][3].pop("sweeps") == sweeps
        assert runs[0] == runs[1] == runs[2]

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

    @pytest.mark.parametrize("command", [
        "simulate --samples 5",
        "montecarlo --samples 10 --trials 1",
    ])
    def test_odd_coordinate_seed_model_is_a_parse_error(
        self, tmp_path: Path, capsys: pytest.CaptureFixture, command: str
    ) -> None:
        # 9 coordinates pass the --landmarks 4 check (9 // 2 == 4), so only
        # the model's own check stands between the file and the generator.
        model = tmp_path / "odd.pdm"
        rows = ["9,2,5", ",".join(["0"] * 9), "2,1"]
        rows += [",".join(["1" if i == k else "0" for i in range(9)]) for k in range(2)]
        model.write_text("\n".join(rows) + "\n")
        argv = command.split() + [
            "--seed-model", str(model), "--landmarks", "4", "--order", "2",
            "--beta-db", "20", "--seed", "1", "--out", str(tmp_path / "out.csv"),
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert str(model) in err and "Traceback" not in err

    @pytest.mark.parametrize("command", [
        "simulate --samples 5",
        "montecarlo --samples 10 --trials 1",
    ])
    @pytest.mark.parametrize("rows", [
        ("1,0,0,0,0,0,0,0", "1,0,0,0,0,0,0,0"),
        ("1,0,0,0,0,0,0,0", "0,0,0,0,0,0,0,0"),
        ("30,0,0,0,0,0,0,0", "0,1,0,0,0,0,0,0"),
    ], ids=["identical-rows", "zero-row", "row-of-norm-30"])
    def test_seed_model_that_is_not_orthonormal_is_a_parse_error(
        self, tmp_path: Path, capsys: pytest.CaptureFixture, command: str, rows: tuple
    ) -> None:
        model = tmp_path / "bad.pdm"
        model.write_text("8,2,5\n0,0,0,0,0,0,0,0\n2,1\n" + "\n".join(rows) + "\n")
        out = tmp_path / "out.csv"
        argv = command.split() + [
            "--seed-model", str(model), "--landmarks", "4", "--order", "2",
            "--beta-db", "20", "--seed", "1", "--out", str(out),
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {model}: eigenvector rows are not orthonormal")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_simulate_pose_defaults_are_the_generators(self, tmp_path: Path) -> None:
        # Without the pose flags, simulate writes exactly the library's
        # default set, and its manifest records those half-widths.
        out = tmp_path / "s.csv"
        assert main([
            "simulate", "--landmarks", "12", "--order", "3", "--beta-db", "15",
            "--samples", "16", "--seed", "9", "--out", str(out),
        ]) == 0
        model = make_seed_pdm_procedural(12, 3, "geometric:0.7", 9)
        expected = tmp_path / "expected.csv"
        write_shapes_csv(expected, sample_shapes(model, 16, 15.0, 9))
        assert out.read_bytes() == expected.read_bytes()
        config = json.loads(Path(str(out) + ".manifest.json").read_text())["config"]
        assert (config["rot_range"], config["log_scale_range"], config["translation_range"]) == (
            math.pi, 0.2, 0.5
        )



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
        (_MC + " --spectrum geometric:0.5:nan", 1),
        (_MC + " --spectrum list:inf,2,1", 1),
        (_MC + " --spectrum geometric:1e-200", 1),
        (_SIM + " --landmarks 12 --samples 10 --spectrum geometric:1e-200", 1),
        (_MC + " --beta-db=-inf", 1),
        (_SIM + " --landmarks 12 --samples 10 --beta-db=-inf", 1),
        (_MC + " --beta-db=-4000", 1),
        (_SIM + " --landmarks 12 --samples 10 --beta-db=-4000", 1),
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
        ("select --input {csv} --clamp scale", 1),
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
        (_SIM + " --landmarks 12 --samples 5 --rot-range 1e308", 1),
        (_SIM + " --landmarks 12 --samples 5 --log-scale-range 1000", 1),
        (_SIM + " --landmarks 12 --samples 5 --log-scale-range 300", 1),
        (_SIM + " --landmarks 12 --samples 5 --translation-range 1e200", 1),
        (_MC + " --threads -4", 1),
        ("select --input {csv} --split shuffled", 1),
        (_SIM + " --landmarks 12 --samples 5 --order 0", 1),
        (_MC + " --order -2", 1),
        ("fit --input {csv} --out {out} --order 0", 1),
        (_SIM + " --landmarks 12 --samples 5 --seed -1", 1),
        (_MC + " --seed -5", 1),
        ("sweep --input {csv} --samples 10 --trials 1 --seed -5 --out {out}", 1),
        ("select --input {csv} --seed -3", 1),
        ("fit --input {csv} --no-align --out {out} --order 20", 2),
        ("lmmse --input {csv} --out {out} --estimator pinv", 1),
    ],
    ids=[
        "select-variance-out", "trials-0", "trials-text", "unknown-method", "empty-method",
        "bogus-spectrum", "spectrum-order-mismatch", "spectrum-top-nan", "spectrum-list-inf",
        "montecarlo-spectrum-underflow", "simulate-spectrum-underflow",
        "montecarlo-beta-db-minus-inf", "simulate-beta-db-minus-inf",
        "montecarlo-beta-db-minus-4000", "simulate-beta-db-minus-4000",
        "fraction-2", "fraction-nan",
        "samples-1", "missing-seed-model", "negative-mode-count", "simulate-samples-1",
        "landmarks-3", "beta-db-nan", "t-max-0", "lmmse-t-max-0", "selector-t-max-0",
        "select-max-iter-0", "select-t-max-0", "align-max-iter-0",
        "variance-split", "variance-seed", "variance-t-max", "variance-tol",
        "variance-max-iter", "variance-mean", "select-clamp", "proposed-fraction",
        "select-warm-start", "select-threads", "seed-model-landmarks", "seed-model-spectrum",
        "seed-model-order", "select-tol-negative", "align-tol-nan", "rot-range-nan",
        "log-scale-range-inf", "translation-range-negative", "rot-range-1e308",
        "log-scale-range-1000", "log-scale-range-300", "translation-range-1e200",
        "threads-negative",
        "shuffled-without-seed", "simulate-order-0", "montecarlo-order-negative", "fit-order-0",
        "simulate-seed-negative", "montecarlo-seed-negative",
        "sweep-seed-negative", "select-seed-negative", "fit-order-above-rank",
        "lmmse-estimator-pinv",
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


# A small valid run of every subcommand, with every value-taking flag it
# has.  Runs stay tiny: at most 12 landmarks, 20 samples, 3 trials and 2
# worker processes, and the edge values below never make them larger.
_VALID_ARGV = {
    "align": "align --input {csv} --out o.csv --tol 1e-9 --max-iter 50",
    "fit": "fit --input {csv} --out o.pdm --order 2",
    "select": "select --input {csv} --seed 3 --t-max 4 --tol 1e-8 --max-iter 20 --out o.csv",
    "simulate": (
        "simulate --landmarks 12 --order 3 --spectrum geometric:0.7 --beta-db 15 --samples 20 "
        "--seed 1 --rot-range 1 --log-scale-range 0.2 --translation-range 0.5 --out o.csv "
        "--out-truth t.json"
    ),
    "montecarlo": (
        "montecarlo --seed-model {model} --landmarks 12 --order 3 --beta-db 20 --samples 10,12 "
        "--trials 2 --seed 1 --methods proposed,variance --fraction 0.9 --t-max 4 --threads 2 "
        "--out o.csv"
    ),
    "sweep": (
        "sweep --input {csv} --samples 10 --trials 3 --seed 1 --fraction 0.9 --t-max 4 "
        "--threads 2 --mode random --out o.csv"
    ),
    "lmmse": "lmmse --input {csv} --t-max 4 --selector-t-max 4 --out o.csv",
    "mean-shape": "mean-shape --input {csv} --format csv-rows --out o.csv",
}


@pytest.mark.parametrize("command", sorted(_VALID_ARGV))
def test_valid_argv_runs_cleanly(
    small_csv: Path, seed_models: dict[str, Path], tmp_path: Path,
    monkeypatch: pytest.MonkeyPatch, command: str,
) -> None:
    # The edge-value property below is only as good as its base runs: each
    # must exit 0 as it stands, or the property tests a usage error.
    argv = _VALID_ARGV[command].format(csv=small_csv, model=seed_models["full"]).split()
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0


# Every flag takes the small edge values.  The real-valued flags also take
# the large and tiny finite ones; a count flag (--samples, --trials,
# --landmarks, --threads, --t-max, --max-iter, ...) at 1000 would only make
# a valid run long, so the others keep the small pool.
_EDGE_VALUES = ["0", "-1", "nan", "inf", ""]
_LARGE_EDGE_VALUES = ["1e308", "-1e308", "1000", "1e-320", "-0"]
_REAL_FLAGS = {
    "--tol", "--beta-db", "--fraction", "--rot-range", "--log-scale-range", "--translation-range",
}


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_edge_flag_values_exit_with_a_code(
    small_csv: Path, seed_models: dict[str, Path], tmp_path: Path,
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture, data: st.DataObject,
) -> None:
    # One flag of a valid run takes an edge value: the run still ends with
    # one of the four exit codes, never with an exception or a traceback.
    command = data.draw(st.sampled_from(sorted(_VALID_ARGV)))
    argv = _VALID_ARGV[command].format(csv=small_csv, model=seed_models["full"]).split()
    slots = [i for i in range(1, len(argv)) if argv[i - 1].startswith("--")]
    slot = data.draw(st.sampled_from(slots))
    pool = _EDGE_VALUES + (_LARGE_EDGE_VALUES if argv[slot - 1] in _REAL_FLAGS else [])
    argv[slot] = data.draw(st.sampled_from(pool))
    monkeypatch.chdir(tempfile.mkdtemp(dir=tmp_path))
    assert main(argv) in (0, 1, 2, 3)
    assert "Traceback" not in capsys.readouterr().err
