import argparse
import csv
import json
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedpca import _blas, cli
from fedpca.cli import EPSILON_FLOOR, build_parser, main, resolve_params
from fedpca.datasets import (load_csv, save_matrix_csv, synth, synth_gaussian_cov,
                             unit_ball_factor)
from fedpca.federation import FederationConfig, build_tree, depth_error_probe, run_federation
from fedpca.privacy import DpConfig, derive_rng


def run_ok(argv):
    code = main(argv)
    assert code == 0, f"command failed: {argv}"


FIXTURES = Path(__file__).parent / "data" / "schedule-manifests"


def manifest_lines(path):
    """Manifest lines apart from the creation time and the host's BLAS library."""
    return [ln for ln in Path(path).read_text().splitlines()
            if not ln.startswith(("# created", "# blas "))]


def read_metrics(out_dir, metric=None):
    with open(out_dir / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if metric is not None:
        rows = [r for r in rows if r["metric"] == metric]
    return rows


class TestSynth:
    def test_writes_exact_spectrum(self, tmp_path, capsys):
        out = tmp_path / "s"
        run_ok(["synth", "--d", "4", "--n", "12", "--alpha", "1", "--seed", "1",
                "--out", str(out)])
        x = load_csv(out / "matrix.csv")
        assert x.shape == (4, 12)
        got = np.linalg.svd(x, compute_uv=False)
        assert np.max(np.abs(got - [1.0, 0.5, 1.0 / 3.0, 0.25])) < 1e-10
        assert (out / "manifest.txt").exists()
        assert (out / "timings.csv").exists()
        assert "synth: wrote" in capsys.readouterr().out

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["synth", "--d", "5", "--n", "9", "--alpha", "0.5", "--seed", "7"]
        run_ok(argv + ["--out", str(a)])
        run_ok(argv + ["--out", str(b)])
        assert (a / "matrix.csv").read_bytes() == (b / "matrix.csv").read_bytes()

    def test_gauss_generator(self, tmp_path):
        out = tmp_path / "g"
        run_ok(["synth", "--d", "3", "--n", "40", "--generator", "gauss",
                "--seed", "2", "--out", str(out)])
        assert load_csv(out / "matrix.csv").shape == (3, 40)

    def test_missing_dimensions_exit_2(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "x")]) == 2

    def test_other_warning_categories_are_shown_not_recorded(self, tmp_path, capsys,
                                                             monkeypatch):
        save = cli.save_matrix_csv

        def warn_then_save(path, x):
            warnings.warn("disk nearly full", RuntimeWarning)
            save(path, x)

        monkeypatch.setattr(cli, "save_matrix_csv", warn_then_save)
        out = tmp_path / "s"
        with pytest.warns(RuntimeWarning, match="disk nearly full"):
            run_ok(["synth", "--d", "3", "--n", "4", "--out", str(out)])
        assert "disk nearly full" not in (out / "manifest.txt").read_text()
        assert "warning" not in capsys.readouterr().err


class TestRunEdge:
    def test_full_rank_matches_offline_svd(self, tmp_path):
        out = tmp_path / "e"
        run_ok(["run-edge", "--d", "8", "--n", "120", "--rank", "8",
                "--batch", "30", "--no-dp", "--seed", "3", "--out", str(out)])
        got = [float(r["value"]) for r in read_metrics(out, "global_value")]
        x = synth(8, 120, 1.0, 3)
        expect = np.linalg.svd(x, compute_uv=False)
        assert np.max(np.abs(np.array(got) - expect)) < 1e-8

    def test_reconstruction_error_decreases_with_rank(self, tmp_path):
        errs = {}
        for rank in (2, 6):
            out = tmp_path / f"r{rank}"
            run_ok(["run-edge", "--d", "8", "--n", "100", "--rank", str(rank),
                    "--batch", "100", "--no-dp", "--seed", "0", "--out", str(out)])
            errs[rank] = float(read_metrics(out, "reconstruction_error")[-1]["value"])
        assert errs[6] <= errs[2] + 1e-12

    def test_private_run_logs_noise_scale(self, tmp_path):
        out = tmp_path / "p"
        run_ok(["run-edge", "--d", "6", "--n", "60", "--rank", "2", "--batch", "30",
                "--epsilon", "1.0", "--delta", "0.1", "--seed", "0",
                "--normalize", "unit-ball", "--out", str(out)])
        omegas = read_metrics(out, "noise_omega")
        widths = read_metrics(out, "batch_width")
        assert len(omegas) == 2 and len(widths) == 2
        assert all(float(r["value"]) > 0 for r in omegas)

    def test_dp_on_columns_outside_unit_ball_warns(self, tmp_path, capsys):
        out = tmp_path / "w"
        run_ok(["run-edge", "--generator", "gauss", "--d", "20", "--n", "1000",
                "--epsilon", "1", "--out", str(out)])
        x = synth_gaussian_cov(20, 1000, 1.0, 0)
        norms = np.linalg.norm(x, axis=0)
        outside = int(np.sum(norms > 1.0))
        assert outside > 0
        expect = (f"warning: dp enabled but {outside} of 1000 columns lie outside "
                  f"the unit ball (largest norm {np.max(norms):.6g})")
        err = capsys.readouterr().err
        assert err.count("warning:") == 1 and expect in err
        manifest = (out / "manifest.txt").read_text()
        assert sum(ln.startswith("# warning:") for ln in manifest.splitlines()) == 1
        assert expect in manifest

    def test_dp_on_normalized_columns_does_not_warn(self, tmp_path, capsys):
        # at seed 13 plain division by the largest norm leaves it one ulp
        # above 1; the normalizer steps its divisor up until it is not
        x = synth_gaussian_cov(20, 1000, 1.0, 13)
        assert np.max(np.linalg.norm(x / unit_ball_factor(x), axis=0)) <= 1.0
        out = tmp_path / "n"
        run_ok(["run-edge", "--generator", "gauss", "--d", "20", "--n", "1000",
                "--epsilon", "1", "--normalize", "unit-ball", "--seed", "13",
                "--out", str(out)])
        assert "warning" not in capsys.readouterr().err
        assert "warning" not in (out / "manifest.txt").read_text()

    @pytest.mark.parametrize("argv, text", [
        (["run-edge", "--rank", "6", "--batch", "4"], "batch width 4 is below the target rank 6"),
        # four clients raise the same warning; it is reported once
        (["run-federated", "--leaves", "4", "--rank", "6", "--batch", "4"],
         "batch width 4 is below the target rank 6"),
        (["run-edge", "--adaptive", "--energy-alpha", "0.05", "--energy-beta", "0.1"],
         "energy band is narrow"),
    ])
    def test_library_warning_reported_once(self, tmp_path, capsys, recwarn, argv, text):
        out = tmp_path / "w"
        run_ok(argv + ["--d", "8", "--n", "80", "--no-dp", "--out", str(out)])
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]
        err = [ln for ln in capsys.readouterr().err.splitlines() if "warning" in ln.lower()]
        assert len(err) == 1 and err[0].startswith("fedpca warning: ") and text in err[0]
        manifest = [ln for ln in (out / "manifest.txt").read_text().splitlines()
                    if "warning" in ln.lower()]
        assert len(manifest) == 1 and manifest[0] == "# " + err[0][len("fedpca "):]

    def test_missing_data_file_exit_3(self, tmp_path):
        assert main(["run-edge", "--data", str(tmp_path / "nope.csv"),
                     "--no-dp", "--out", str(tmp_path / "o")]) == 3

    def test_ragged_csv_exit_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2,3\n4,5\n")
        assert main(["run-edge", "--data", str(bad), "--no-dp",
                     "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("cell", ["nan", "inf", "1e400"])
    def test_non_finite_csv_exit_3(self, tmp_path, capsys, cell):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"1,2,3\n4,{cell},6\n")
        out = tmp_path / "o"
        assert main(["run-edge", "--data", str(bad), "--no-dp", "--out", str(out)]) == 3
        assert "non-finite cell on line 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["1_000", "١"])
    def test_cell_python_reads_but_numpy_does_not_exit_3(self, tmp_path, capsys, cell):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"1,2,3\n4,{cell},6\n", encoding="utf-8")
        assert main(["run-edge", "--data", str(bad), "--no-dp", "--out", str(tmp_path / "o")]) == 3
        assert "non-numeric cell on line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["1_0,2\n3,4\n", "1,2,\n3,4,\n"])
    def test_bad_first_row_is_no_header_exit_3(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        assert main(["run-edge", "--data", str(bad), "--no-dp", "--out", str(tmp_path / "o")]) == 3
        assert "non-numeric cell on line 1" in capsys.readouterr().err

    def test_non_utf8_csv_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"1,2\n" * 5000 + b"\xe9")
        out = tmp_path / "o"
        assert main(["run-edge", "--data", str(bad), "--no-dp", "--out", str(out)]) == 3
        assert f"{bad}: line 5001 is not UTF-8" in capsys.readouterr().err
        assert not out.exists()

    def test_data_directory_exit_3(self, tmp_path, capsys):
        assert main(["run-edge", "--data", str(tmp_path), "--no-dp",
                     "--out", str(tmp_path / "o")]) == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_out_is_existing_file_exit_3(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("x\n")
        assert main(["run-edge", "--d", "8", "--n", "40", "--no-dp",
                     "--out", str(taken)]) == 3
        assert "Traceback" not in capsys.readouterr().err
        assert taken.read_text() == "x\n"

    @pytest.mark.parametrize("argv", [
        ["run-edge", "--d", "6", "--n", "40", "--rank", "2", "--no-dp"],
        ["utility-sweep", "--d", "6", "--n", "40", "--rank", "2", "--reps", "1", "--no-dp"],
    ])
    def test_cov_block_zero_exit_2(self, tmp_path, argv):
        # zero once fell through to the min(d, 64) default; the client rejects it now
        out = tmp_path / "o"
        assert main(argv + ["--cov-block", "0", "--out", str(out)]) == 2
        assert not out.exists()  # a failed run removes the directory it made

    def test_privacy_infeasible_exit_4(self, tmp_path, capsys):
        code = main(["run-edge", "--d", "20", "--n", "100", "--rank", "4",
                     "--batch", "50", "--epsilon", "0.1", "--delta", "0.05",
                     "--omega-floor", "1.0", "--seed", "0",
                     "--out", str(tmp_path / "o")])
        assert code == 4
        assert "privacy-infeasible" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--epsilon", "inf", "epsilon must be positive and finite"),
        ("--epsilon", "1e-320", "noise scale is not finite for epsilon="),
        ("--delta", "1e-320", "noise scale is not finite for epsilon="),
    ])
    def test_budget_without_finite_noise_exit_2(self, tmp_path, capsys, flag, value, message):
        # epsilon=inf once ran with no noise and recorded the run as private
        out = tmp_path / "o"
        assert main(["run-edge", "--d", "8", "--n", "40", "--normalize", "unit-ball",
                     flag, value, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_failed_run_keeps_an_existing_out(self, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        assert main(["run-edge", "--d", "6", "--n", "40", "--no-dp", "--cov-block", "0",
                     "--out", str(out)]) == 2
        assert out.is_dir()


class TestRunFederated:
    def test_single_leaf_equals_edge_run(self, tmp_path):
        fed, edge = tmp_path / "f", tmp_path / "e"
        common = ["--d", "8", "--n", "90", "--rank", "4", "--batch", "30",
                  "--no-dp", "--seed", "5"]
        run_ok(["run-federated", "--leaves", "1"] + common
               + ["--out", str(fed)])
        run_ok(["run-edge"] + common + ["--out", str(edge)])
        fed_vals = [float(r["value"]) for r in read_metrics(fed, "global_value")]
        edge_vals = [float(r["value"]) for r in read_metrics(edge, "global_value")]
        assert len(fed_vals) == len(edge_vals)
        assert np.max(np.abs(np.array(fed_vals) - edge_vals)) < 1e-10

    def test_schedule_seed_cannot_change_values(self, tmp_path):
        # manifests written while --schedule existed still carry the two keys
        first = tmp_path / "first"
        run_ok(["run-federated", "--d", "10", "--n", "120", "--leaves", "3",
                "--rank", "4", "--batch", "10", "--no-dp", "--seed", "1",
                "--out", str(first)])
        vals, run_ids = {}, set()
        for seed in (5, 17):
            stored = tmp_path / f"manifest{seed}.txt"
            stored.write_text((first / "manifest.txt").read_text()
                              + f"schedule=random_interleave\nschedule_seed={seed}\n")
            out = tmp_path / f"s{seed}"
            run_ok(["replay", str(stored), "--out", str(out)])
            assert f"schedule_seed={seed}" in manifest_lines(out / "manifest.txt")
            vals[seed] = [r["value"] for r in read_metrics(out, "global_value")]
            run_ids |= {r["run_id"] for r in read_metrics(out)}
        assert vals[5] == vals[17]
        assert len(run_ids) == 2  # still hashed into the run identifier

    def test_other_commands_reject_retired_keys(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("schedule=random_interleave\n")
        assert main(["run-edge", "--d", "6", "--n", "40", "--no-dp", "--config", str(cfg),
                     "--out", str(tmp_path / "e")]) == 2

    def test_default_threads_do_not_reach_the_output(self, tmp_path, monkeypatch):
        # the leaf pool takes one worker per CPU the process may run on
        workers, metrics = [], []
        real = cli.run_federation
        monkeypatch.setattr(cli, "run_federation",
                            lambda *a: workers.append(a[3]) or real(*a))
        for cpus in (1, 8):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            out = tmp_path / f"c{cpus}"
            run_ok(["run-federated", "--d", "8", "--n", "80", "--leaves", "4", "--no-dp",
                    "--out", str(out)])
            assert not [ln for ln in manifest_lines(out / "manifest.txt")
                        if ln.startswith("threads")]
            metrics.append((out / "metrics.csv").read_bytes())
        assert workers == [1, 8]
        assert metrics[0] == metrics[1]

    def test_worker_warning_reaches_the_manifest_once(self, tmp_path, monkeypatch, capsys):
        # two workers build the four leaves; each client warns as it is built
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        builders = []
        real = FederationConfig.client
        monkeypatch.setattr(FederationConfig, "client", lambda self, *a:
                            builders.append(threading.current_thread()) or real(self, *a))
        out = tmp_path / "w"
        run_ok(["run-federated", "--d", "8", "--n", "80", "--leaves", "4", "--rank", "6",
                "--batch", "4", "--no-dp", "--out", str(out)])
        assert len(builders) == 4 and threading.main_thread() not in builders
        text = "batch width 4 is below the target rank 6"
        assert sum(text in ln for ln in (out / "manifest.txt").read_text().splitlines()) == 1
        assert capsys.readouterr().err.count(text) == 1

    @pytest.mark.parametrize("policy", ["contiguous", "round_robin"])
    @pytest.mark.parametrize("privacy", [["--no-dp"], ["--epsilon", "1", "--normalize", "unit-ball"]],
                             ids=["plain", "private"])
    def test_two_workers_hold_two_leaves(self, tmp_path, monkeypatch, policy, privacy):
        """At two workers the command holds the data once and two leaves.

        Besides the d x n data and the 8 n bytes of partition index arrays,
        each running leaf holds its d x b column buffer and one update: a
        plain update at most 2 d (r + b) + min(d, r + b)^2 doubles
        (TestUpdateMemory's bound; once r + b exceeds d, no factor is wider
        than d x (r + b)), a private one under d b bytes. The allowance covers the
        generator's and the normalizer's d x 1024 blocks and Python objects.
        Before leaves ran as tasks, all eight buffers lived until the tree
        merged, and round_robin shares were copies of the data.
        """
        d, n, b, r = 20, 40_000, 5000, 5
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        argv = ["run-federated", "--generator", "gauss", "--d", str(d), "--n", str(n),
                "--leaves", "8", "--batch", str(b), "--rank", str(r), "--policy", policy,
                *privacy]
        run_ok(argv[:3] + ["--d", "4", "--n", "16", *privacy, "--out", str(tmp_path / "warm")])
        tracemalloc.start()
        try:
            run_ok(argv + ["--out", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        update = d * b / 8 if len(privacy) > 1 else 2 * d * (r + b) + min(d, r + b) ** 2
        assert peak <= 8 * (d * n + n + 2 * (d * b + update)) + 512 * 1024

    def test_rescale_private_reaches_the_clients(self, tmp_path):
        argv = ["run-federated", "--d", "8", "--n", "80", "--leaves", "4", "--rank", "3",
                "--batch", "10", "--epsilon", "1", "--normalize", "unit-ball",
                "--seed", "3"]
        values = {}
        for flag in ([], ["--rescale-private"]):
            out = tmp_path / f"r{len(flag)}"
            run_ok(argv + flag + ["--out", str(out)])
            values[bool(flag)] = [float(r["value"]) for r in read_metrics(out, "global_value")]
        x = synth(8, 80, 1.0, 3)
        x /= unit_ball_factor(x)
        cfg = FederationConfig(rank=3, batch_size=10, dp=DpConfig(1.0, 0.1),
                               rescale_private=True, seed=3)
        lib = run_federation(np.array_split(x, 4, axis=1), build_tree(4, 2), cfg)
        assert values[True] == [float(v) for v in lib.estimate.values]
        assert values[True] != values[False]

    def test_merge_count_row(self, tmp_path):
        out = tmp_path / "m"
        run_ok(["run-federated", "--d", "6", "--n", "64", "--leaves", "8",
                "--fanout", "2", "--rank", "3", "--batch", "8", "--no-dp",
                "--seed", "0", "--out", str(out)])
        assert float(read_metrics(out, "merge_count")[0]["value"]) == 7.0
        levels = {int(r["t"]) for r in read_metrics(out, "level_rank")}
        assert levels == {0, 1, 2, 3}
        # an under-full tree with an empty leaf: nodes of 3 and 2 children
        # and a root of 2 take 2 + 1 + 1 merges, one fewer than the leaves
        out = tmp_path / "u"
        run_ok(["run-federated", "--d", "6", "--n", "4", "--leaves", "5",
                "--fanout", "3", "--no-dp", "--out", str(out)])
        assert float(read_metrics(out, "merge_count")[0]["value"]) == 4.0
        assert "# tree depth=2 merges=4" in manifest_lines(out / "manifest.txt")


def test_manifests_record_update_blas_threads(tmp_path):
    # every command runs on the one BLAS thread its manifest records
    common = ["--d", "6", "--n", "40", "--rank", "2", "--batch", "10", "--no-dp"]
    for argv in (["run-edge"] + common, ["run-federated"] + common,
                 ["synth", "--d", "6", "--n", "40"],
                 ["depth-probe", "--d", "6", "--n", "32", "--rank", "2", "--depths", "1"],
                 ["utility-sweep", "--d", "4", "--n", "40", "--rank", "1", "--alphas", "1",
                  "--epsilons", "1", "--reps", "1"]):
        out = tmp_path / argv[0]
        run_ok(argv + ["--out", str(out)])
        lines = (out / "manifest.txt").read_text().splitlines()
        assert [ln for ln in lines if ln.startswith("# blas ")] == [f"# {_blas.describe()}"]


class TestReplay:
    def test_federated_metrics_reproduced_byte_for_byte(self, tmp_path):
        first, second = tmp_path / "one", tmp_path / "two"
        run_ok(["run-federated", "--d", "12", "--n", "150", "--leaves", "4",
                "--rank", "5", "--batch", "25", "--epsilon", "0.5",
                "--delta", "0.1", "--seed", "9", "--policy", "seeded_shuffle",
                "--out", str(first)])
        run_ok(["replay", str(first / "manifest.txt"), "--out", str(second)])
        assert (first / "metrics.csv").read_bytes() == (second / "metrics.csv").read_bytes()
        strip = lambda p: [
            ln for ln in p.read_text().splitlines() if not ln.startswith("# created")
        ]
        assert strip(first / "manifest.txt") == strip(second / "manifest.txt")

    def test_synth_matrix_reproduced(self, tmp_path):
        first, second = tmp_path / "one", tmp_path / "two"
        run_ok(["synth", "--d", "6", "--n", "20", "--seed", "4", "--out", str(first)])
        run_ok(["replay", str(first / "manifest.txt"), "--out", str(second)])
        assert (first / "matrix.csv").read_bytes() == (second / "matrix.csv").read_bytes()

    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.iterdir()))
    def test_schedule_era_manifest_reproduced(self, tmp_path, name):
        out = tmp_path / name
        run_ok(["replay", str(FIXTURES / name / "manifest.txt"), "--out", str(out)])
        assert (out / "metrics.csv").read_bytes() == (FIXTURES / name / "metrics.csv").read_bytes()
        assert manifest_lines(out / "manifest.txt") == manifest_lines(FIXTURES / name / "manifest.txt")

    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.iterdir()))
    def test_schedule_era_metrics_match_pre_fold_merge(self, name):
        # metrics.pre-fold.csv was written by the projection-update merge the
        # fold replaced: global values may move by rounding, nothing else
        old = (FIXTURES / name / "metrics.pre-fold.csv").read_text().splitlines()
        new = (FIXTURES / name / "metrics.csv").read_text().splitlines()
        assert len(old) == len(new)
        rows = list(zip(csv.reader(old), csv.reader(new)))
        s1 = max(float(a[3]) for a, _ in rows if a[2] == "global_value")
        for (a, b), line_a, line_b in zip(rows, old, new):
            if a[2] == "global_value":
                assert a[:3] + a[4:] == b[:3] + b[4:]
                assert abs(float(a[3]) - float(b[3])) <= 64 * np.finfo(np.float64).eps * s1
            else:
                assert line_a == line_b

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS caps its threads at the CPU count")
    def test_replay_at_another_blas_thread_count(self, tmp_path):
        # at d = 256 the generator's products and the error metric take
        # other kernels at 2 threads than at 1 unless the command pins one
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))

        def fedpca(threads, *argv):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=path)
            subprocess.run([sys.executable, "-m", "fedpca.cli", *argv], env=env, check=True,
                           stdout=subprocess.DEVNULL)

        first, second = tmp_path / "one", tmp_path / "two"
        fedpca(1, "run-edge", "--d", "256", "--n", "2000", "--rank", "8", "--no-dp",
               "--out", str(first))
        fedpca(2, "replay", str(first / "manifest.txt"), "--out", str(second))
        assert (first / "metrics.csv").read_bytes() == (second / "metrics.csv").read_bytes()

    # one run of each kind a command makes, replayed; the CI workflow runs
    # this file against the installed package too
    @pytest.mark.parametrize("command", [
        "run-edge --d 8 --n 40 --no-dp",
        "run-federated --d 8 --n 80 --leaves 4 --no-dp",
        "run-edge --d 8 --n 40 --epsilon 1 --normalize unit-ball",
        "run-edge --data {columns} --rank 4 --no-dp",
        "run-edge --data {rows} --orientation rows --rank 4 --epsilon 1 --normalize unit-ball",
        "run-edge --data {headed} --orientation rows --no-dp",
        "run-edge --d 8 --n 40 --epsilon 1 --normalize unit-ball --cov-block 3",
        "run-federated --d 8 --n 80 --leaves 4 --epsilon 1 --normalize unit-ball "
        "--rescale-private",
        "run-federated --generator gauss --d 20 --n 4000 --leaves 8 --fanout 2 --rank 5 "
        "--batch 500 --epsilon 4 --delta 0.1 --normalize unit-ball --policy round_robin --seed 3",
        "run-federated --d 8 --n 80 --leaves 4 --no-dp --policy round_robin",
        "run-federated --d 8 --n 80 --leaves 4 --epsilon 1 --normalize unit-ball "
        "--policy round_robin",
        "run-federated --d 8 --n 80 --leaves 4 --no-dp --policy seeded_shuffle",
        "run-federated --d 8 --n 80 --leaves 4 --epsilon 1 --normalize unit-ball "
        "--policy seeded_shuffle",
        "utility-sweep --d 6 --n 80 --rank 2 --alphas 0.5 --epsilons 0.5,1.0 --reps 2",
        "depth-probe --d 16 --n 64 --rank 4 --depths 1,2",
        "depth-probe --d 16 --n 2048 --rank 4 --depths 1,2,3",
        "depth-probe --d 16 --n 2048 --rank 16 --alpha 4 --depths 1,2,3",
        "depth-probe --d 128 --n 256 --rank 128 --generator gauss --seed 1",
    ])
    def test_console_step_run_replays(self, tmp_path, command):
        # --data files: synth's matrix as written, then its transpose, one
        # sample per row, scaled so that --normalize divides it, and the
        # transpose unscaled below a c0,c1,... header
        run_ok(["synth", "--d", "12", "--n", "300", "--seed", "4", "--out", str(tmp_path / "m")])
        columns = tmp_path / "m" / "matrix.csv"
        rows, headed = tmp_path / "rows.csv", tmp_path / "headed.csv"
        samples = load_csv(columns).T
        save_matrix_csv(rows, 10 * samples)
        np.savetxt(headed, samples, delimiter=",", fmt="%.17g",
                   header=",".join(f"c{j}" for j in range(12)), comments="")
        argv = [arg.format(columns=columns, rows=rows, headed=headed) for arg in command.split()]
        first, second = tmp_path / "one", tmp_path / "two"
        run_ok(argv + ["--out", str(first)])
        run_ok(["replay", str(first / "manifest.txt"), "--out", str(second)])
        assert (first / "metrics.csv").read_bytes() == (second / "metrics.csv").read_bytes()
        if argv[0] == "depth-probe":
            flags = [r["value"] for r in read_metrics(first, "within_bound")]
            assert flags and all(v == "1.0" for v in flags)

    def test_manifest_without_command_exit_2(self, tmp_path):
        stray = tmp_path / "manifest.txt"
        stray.write_text("d=4\nn=8\n")
        assert main(["replay", str(stray), "--out", str(tmp_path / "o")]) == 2


class TestConfigFile:
    def test_flags_beat_config(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("rank=3\nbatch=20\n")
        out = tmp_path / "o"
        run_ok(["run-edge", "--d", "6", "--n", "40", "--rank", "2", "--no-dp",
                "--seed", "0", "--config", str(cfg), "--out", str(out)])
        manifest = (out / "manifest.txt").read_text()
        assert "rank=2" in manifest  # flag wins
        assert "batch=20" in manifest  # config fills the gap

    def test_unknown_config_key_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("rnak=3\n")
        assert main(["run-edge", "--d", "4", "--n", "8", "--no-dp",
                     "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("line, argv", [
        # with privacy on, this typo once switched normalization off silently
        ("normalize=unit_ball", ["run-edge", "--epsilon", "1"]),
        ("orientation=diag", ["run-edge", "--no-dp"]),
        ("generator=gaussian", ["synth"]),
        ("policy=round-robin", ["run-federated", "--no-dp"]),
        ("policy=shuffled", ["run-federated", "--no-dp"]),
    ])
    def test_config_value_outside_choices_exit_2(self, tmp_path, line, argv):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(line + "\n")
        out = tmp_path / "o"
        assert main(argv + ["--d", "8", "--n", "40", "--config", str(cfg),
                            "--out", str(out)]) == 2
        assert not out.exists()

    def test_manifest_value_outside_choices_exit_2(self, tmp_path):
        stored = tmp_path / "manifest.txt"
        stored.write_text("command=run-edge\nd=8\nn=40\nnormalize=unit_ball\n")
        out = tmp_path / "o"
        assert main(["replay", str(stored), "--out", str(out)]) == 2
        assert not out.exists()

    def test_malformed_config_line_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("rank 3\n")
        assert main(["run-edge", "--d", "4", "--n", "8", "--no-dp",
                     "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("replay", [False, True])
    def test_repeated_key_exit_2(self, tmp_path, capsys, replay):
        # neither value may win silently, in a config file or a manifest
        text = "# rank twice\nrank=3\nbatch=20\n rank = 5\n"
        path, out = tmp_path / "cfg.txt", tmp_path / "o"
        if replay:
            path.write_text("command=run-edge\nd=6\nn=40\nno_dp=true\n" + text)
            argv = ["replay", str(path)]
        else:
            path.write_text(text)
            argv = ["run-edge", "--d", "6", "--n", "40", "--no-dp", "--config", str(path)]
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 2
        first, again = (6, 8) if replay else (2, 4)
        assert (f"key 'rank' is set on line {first} and again on line {again}"
                in capsys.readouterr().err)
        assert not out.exists()


class TestUtilitySweep:
    def test_row_counts_and_ranges(self, tmp_path):
        out = tmp_path / "u"
        run_ok(["utility-sweep", "--d", "8", "--n", "200", "--rank", "4",
                "--alphas", "1.0", "--epsilons", "0.1,4.0", "--reps", "2",
                "--delta", "0.1", "--seed", "0", "--out", str(out)])
        qa_abs = read_metrics(out, "qa_abs")
        qa_signed = read_metrics(out, "qa_signed")
        # reps * alphas * epsilons * methods = 2 * 1 * 2 * 3
        assert len(qa_abs) == len(qa_signed) == 12
        for r in qa_abs:
            assert 0.0 <= float(r["value"]) <= 1.0
        for r in qa_signed:
            assert -1.0 <= float(r["value"]) <= 1.0
        methods = {json.loads(r["params"])["method"] for r in qa_abs}
        assert methods == {"fpca_mask", "stream_direct", "sulq_symmetric"}

    def test_epsilon_below_floor_is_clipped_with_warning(self, tmp_path, capsys):
        out = tmp_path / "c"
        run_ok(["utility-sweep", "--d", "6", "--n", "100", "--rank", "2",
                "--alphas", "1.0", "--epsilons", "0.0001", "--reps", "1",
                "--seed", "0", "--out", str(out)])
        assert "clipped" in capsys.readouterr().err
        assert "clipped" in (out / "manifest.txt").read_text()
        row = read_metrics(out, "qa_abs")[0]
        assert json.loads(row["params"])["eps_effective"] == EPSILON_FLOOR

    def test_every_method_follows_the_true_vector_sign_without_dp(self, tmp_path):
        # sulq_symmetric's eigh vector once kept LAPACK's sign: -1.0 in 3 of these 6 reps
        out = tmp_path / "s"
        run_ok(["utility-sweep", "--d", "6", "--n", "80", "--rank", "2", "--alphas", "0.5",
                "--epsilons", "1.0", "--reps", "6", "--no-dp", "--out", str(out)])
        rows = read_metrics(out, "qa_signed")
        assert len(rows) == 18
        assert all(float(r["value"]) >= 1.0 - 1e-9 for r in rows)

    def test_deterministic_given_seed(self, tmp_path):
        outs = []
        for name in ("x", "y"):
            out = tmp_path / name
            run_ok(["utility-sweep", "--d", "6", "--n", "80", "--rank", "2",
                    "--alphas", "0.5", "--epsilons", "1.0", "--reps", "1",
                    "--seed", "3", "--out", str(out)])
            outs.append((out / "metrics.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_estimators_get_unit_ball_columns(self, tmp_path, monkeypatch):
        # division by the column norms alone leaves some columns an ulp
        # above norm 1, outside the ball the noise scales assume
        largest = []
        estimators = cli._sweep_estimators

        def record(x, *args):
            largest.append(np.max(np.sqrt(np.einsum("ij,ij->j", x, x))))
            return estimators(x, *args)

        monkeypatch.setattr(cli, "_sweep_estimators", record)
        run_ok(["utility-sweep", "--d", "20", "--n", "5000", "--reps", "2",
                "--seed", "0", "--out", str(tmp_path / "b")])
        assert len(largest) == 20  # 2 alphas x 2 reps x 5 epsilons
        assert max(largest) <= 1.0

    @pytest.mark.parametrize("d, same", [(20, True), (65, False)])
    def test_fpca_mask_is_stream_direct_in_one_slab(self, d, same):
        # the sweep's client folds x in one batch; at d <= 64 that batch has
        # one slab, the one stream_direct draws, so one noise stream gives
        # one vector; past 64 rows the client folds two slabs
        x = synth(d, 400, 1.0, 0)
        x = x / np.linalg.norm(x, axis=0)
        x /= unit_ball_factor(x)
        rngs = (derive_rng(0, 0), derive_rng(0, 0), derive_rng(0, 2))
        got = cli._sweep_estimators(x, 10, None, DpConfig(1.0, 0.1), rngs)
        assert np.array_equal(got["fpca_mask"], got["stream_direct"]) == same


class TestDepthProbe:
    def test_rows_echo_library_values(self, tmp_path):
        out = tmp_path / "d"
        run_ok(["depth-probe", "--d", "16", "--n", "64", "--rank", "4",
                "--fanout", "2", "--depths", "1,2", "--seed", "0", "--out", str(out)])
        x = synth(16, 64, 1.0, 0)
        for depth in (1, 2):
            [(want_measured, want_bound)] = depth_error_probe(x, 2, [depth], 4)
            got_m = [float(r["value"]) for r in read_metrics(out, "measured_error")
                     if int(r["t"]) == depth]
            got_b = [float(r["value"]) for r in read_metrics(out, "error_bound")
                     if int(r["t"]) == depth]
            assert abs(got_m[0] - want_measured) < 1e-12
            assert abs(got_b[0] - want_bound) < 1e-12
        flags = [float(r["value"]) for r in read_metrics(out, "within_bound")]
        assert flags == [1.0, 1.0]

    def test_full_rank_trees_are_within_bound(self, tmp_path):
        # the bound is 0 at r = d, so only rounding separates the two; at
        # d = 128 the upper merges fold 128 + 128 > d directions, and at
        # 16 x 2048 the depth-1 leaves are 1024 columns wide with values
        # falling as i^-4 to 1.5e-5
        runs = [["--d", "5", "--n", "64", "--rank", "5", "--seed", str(seed)]
                for seed in range(6)]
        runs.append(["--d", "128", "--n", "256", "--rank", "128",
                     "--generator", "gauss", "--seed", "1"])
        runs.append(["--d", "16", "--n", "2048", "--rank", "16", "--alpha", "4"])
        for i, argv in enumerate(runs):
            out = tmp_path / str(i)
            run_ok(["depth-probe", *argv, "--depths", "1,2,3", "--out", str(out)])
            flags = [float(r["value"]) for r in read_metrics(out, "within_bound")]
            assert flags == [1.0, 1.0, 1.0]

    def test_excess_beyond_rounding_is_flagged(self, tmp_path, monkeypatch):
        # one part in 1e9 of ||Y||_F above the bound is far past rounding
        x = synth(16, 64, 1.0, 0)
        excess = 1e-9 * float(np.linalg.norm(x))
        monkeypatch.setattr(cli, "depth_error_probe",
                            lambda y, fanout, depths, r: [(0.5 + excess, 0.5)] * len(depths))
        out = tmp_path / "d"
        run_ok(["depth-probe", "--d", "16", "--n", "64", "--rank", "4",
                "--depths", "1,2", "--seed", "0", "--out", str(out)])
        flags = [float(r["value"]) for r in read_metrics(out, "within_bound")]
        assert flags == [0.0, 0.0]

    def test_indivisible_leaves_exit_2(self, tmp_path):
        assert main(["depth-probe", "--d", "8", "--n", "100", "--depths", "3",
                     "--fanout", "2", "--seed", "0",
                     "--out", str(tmp_path / "o")]) == 2


# The CLI surface written out as literals: one table builds the parser and
# the defaults, and these catch a drift in either.
_COMMON = {("--out",): ("out", None, True), ("--config",): ("config", None, False),
           ("--seed",): ("seed", None, False)}
_SYNTH_DATA = {("--d",): ("d", None, False), ("--n",): ("n", None, False),
               ("--alpha",): ("alpha", None, False),
               ("--generator",): ("generator", ("svd", "gauss"), False)}
_DATA = {**_SYNTH_DATA, ("--data",): ("data", None, False),
         ("--orientation",): ("orientation", ("columns", "rows"), False),
         ("--normalize",): ("normalize", ("none", "unit-ball"), False)}
_EDGE = {("--rank",): ("rank", None, False), ("--batch",): ("batch", None, False),
         ("--lambda",): ("forgetting", None, False),
         ("--adaptive",): ("adaptive", None, False),
         ("--energy-alpha",): ("energy_alpha", None, False),
         ("--energy-beta",): ("energy_beta", None, False),
         ("--max-rank",): ("max_rank", None, False),
         ("--cov-block",): ("cov_block", None, False),
         ("--epsilon",): ("epsilon", None, False), ("--delta",): ("delta", None, False),
         ("--no-dp",): ("no_dp", None, False),
         ("--omega-floor",): ("omega_floor", None, False),
         ("--rescale-private",): ("rescale_private", None, False)}
_FED = {("--leaves",): ("leaves", None, False), ("--fanout",): ("fanout", None, False),
        ("--policy",): ("policy", ("contiguous", "round_robin", "seeded_shuffle"), False)}
_SWEEP = {("--d",): ("d", None, False), ("--n",): ("n", None, False),
          ("--alphas",): ("alphas", None, False), ("--epsilons",): ("epsilons", None, False),
          ("--reps",): ("reps", None, False), ("--rank",): ("rank", None, False),
          ("--cov-block",): ("cov_block", None, False), ("--delta",): ("delta", None, False),
          ("--no-dp",): ("no_dp", None, False)}
_PROBE = {("--fanout",): ("fanout", None, False), ("--depths",): ("depths", None, False),
          ("--rank",): ("rank", None, False)}

OPTIONS = {
    "synth": {**_COMMON, **_SYNTH_DATA},
    "run-edge": {**_COMMON, **_DATA, **_EDGE},
    "run-federated": {**_COMMON, **_DATA, **_EDGE, **_FED},
    "utility-sweep": {**_COMMON, **_SWEEP},
    "depth-probe": {**_COMMON, **_DATA, **_PROBE},
    "replay": {(): ("manifest", None, True), ("--out",): ("out", None, True)},
}
VALUELESS = {"--adaptive", "--no-dp", "--rescale-private"}

_DATA_DEFAULTS = {"data": None, "orientation": "columns", "normalize": "none", "d": None,
                  "n": None, "alpha": 1.0, "generator": "svd"}
_EDGE_DEFAULTS = {"rank": 10, "batch": 50, "forgetting": 1.0, "adaptive": False,
                  "energy_alpha": 0.01, "energy_beta": 0.1, "max_rank": None,
                  "cov_block": None, "epsilon": 0.1, "delta": 0.1, "no_dp": False,
                  "omega_floor": None, "rescale_private": False}
DEFAULTS = {
    "synth": {"seed": 0, "d": None, "n": None, "alpha": 1.0, "generator": "svd"},
    "run-edge": {"seed": 0, **_DATA_DEFAULTS, **_EDGE_DEFAULTS},
    "run-federated": {"seed": 0, **_DATA_DEFAULTS, **_EDGE_DEFAULTS, "leaves": 4,
                      "fanout": 2, "policy": "contiguous"},
    "utility-sweep": {"seed": 0, "d": 20, "n": 5000, "alphas": "0.01,1.0",
                      "epsilons": "0.1,0.5,1.0,2.0,4.0", "reps": 20, "rank": 10,
                      "cov_block": None, "delta": 0.1, "no_dp": False},
    "depth-probe": {"seed": 0, **_DATA_DEFAULTS, "d": 32, "n": 256, "fanout": 2,
                    "depths": "1,2,3", "rank": 8},
}


class TestSurface:
    @staticmethod
    def _subparsers():
        parser = build_parser()
        action = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
        return action.choices

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_option_set(self, command):
        actions = [a for a in self._subparsers()[command]._actions
                   if not isinstance(a, argparse._HelpAction)]
        got = {tuple(a.option_strings): (a.dest, tuple(a.choices) if a.choices else None,
                                         a.required) for a in actions}
        assert got == OPTIONS[command]
        assert all(a.default is None for a in actions)
        valueless = {s for a in actions if a.nargs == 0 for s in a.option_strings}
        assert valueless == VALUELESS & {s for opts in got for s in opts}

    @pytest.mark.parametrize("command", sorted(DEFAULTS))
    def test_resolved_defaults(self, command):
        got = resolve_params(command, argparse.Namespace(), {})
        assert got == DEFAULTS[command]
        assert [type(v) for v in got.values()] == [type(DEFAULTS[command][k]) for k in got]


# One command per parameter, on a tiny base run; the extra flags make the
# parameter matter (a private run for the budget, --adaptive for the band).
_BASE = {
    "run-edge": ["--d", "6", "--n", "40"],
    "run-federated": ["--d", "6", "--n", "40", "--no-dp"],
    "utility-sweep": ["--d", "6", "--n", "40", "--rank", "2", "--alphas", "1",
                      "--epsilons", "1", "--reps", "1"],
    "depth-probe": ["--d", "6", "--n", "40"],
}
_HOME = {"leaves": "run-federated", "fanout": "run-federated", "policy": "run-federated",
         "alphas": "utility-sweep", "epsilons": "utility-sweep", "reps": "utility-sweep",
         "depths": "depth-probe"}
_PRIVATE = {"cov_block", "epsilon", "delta", "no_dp", "omega_floor", "rescale_private"}
_BAND = {"energy_alpha", "energy_beta", "max_rank"}
_LISTS = {"alphas", "epsilons", "depths"}
# no valid count in the millions: a --reps or --leaves that large runs for real
_HOSTILE = {
    int: ["0", "-1", str(-2**63)],
    float: ["nan", "inf", "-inf", "5e-324", "1e308"],
    "list": ["", "one,two"],
    "choice": ["sideways"],
    "bool": ["maybe"],
    "path": ["", "missing.csv"],
}


def _kind(name):
    row = cli.PARAMS[name]
    if row.choices is not None:
        return "choice"
    if row.cast is cli._cast_bool:
        return "bool"  # a valueless flag: the value comes from a config file
    if name in _LISTS:
        return "list"
    if row.cast is str:
        return "path"
    return row.cast


def _hostile_cases():
    for name in cli.PARAMS:
        command = _HOME.get(name, "run-edge")
        base = list(_BASE[command])
        if command == "run-edge":
            base += ["--normalize", "unit-ball"] if name in _PRIVATE else ["--no-dp"]
            base += ["--adaptive"] if name in _BAND else []
        for value in _HOSTILE[_kind(name)]:
            yield pytest.param(command, base, name, value, id=f"{name}={value}")


@st.composite
def _hostile_command_lines(draw):
    """A command with 1-5 of its parameters, each set to a hostile value or a choice."""
    command = draw(st.sampled_from(sorted(_BASE)))
    names = draw(st.permutations(cli.COMMANDS[command].params))[:draw(st.integers(1, 5))]
    pairs = [(name, draw(st.sampled_from(_HOSTILE[_kind(name)]
                                         + list(cli.PARAMS[name].choices or ()))))
             for name in names]
    return command, pairs


class TestHostileValues:
    """No parameter value ends in a traceback, an undocumented exit code or a stray --out."""

    @staticmethod
    def _run(argv, tmp_path, capsys):
        out = tmp_path / "o"
        try:
            code = main(argv + ["--out", str(out)])
        except SystemExit as exc:  # argparse rejects the value before a run starts
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), err
        assert "Traceback" not in err
        assert out.exists() == (code == 0)
        return code, err

    @staticmethod
    def _argv(command, base, pairs, tmp_path):
        """Flags for the given (name, value) pairs; booleans go through a config file."""
        argv, config = [command, *base], []
        for name, value in pairs:
            if cli.PARAMS[name].cast is cli._cast_bool:
                config.append(f"{name}={value}\n")
            else:
                flag = cli.PARAMS[name].flag or "--" + name.replace("_", "-")
                if value == "missing.csv":
                    value = str(tmp_path / value)
                argv.append(f"{flag}={value}")
        if config:
            (tmp_path / "c.txt").write_text("".join(config))
            argv += ["--config", str(tmp_path / "c.txt")]
        return argv

    @pytest.mark.parametrize("command, base, name, value", _hostile_cases())
    def test_parameter_value(self, tmp_path, capsys, command, base, name, value):
        self._run(self._argv(command, base, [(name, value)], tmp_path), tmp_path, capsys)

    # every drawn int is at most 0, so no --reps or --leaves runs for real
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(line=_hostile_command_lines())
    def test_drawn_parameter_values(self, capsys, line):
        command, pairs = line
        with tempfile.TemporaryDirectory() as tmp:
            tmp_path = Path(tmp)
            self._run(self._argv(command, _BASE[command], pairs, tmp_path), tmp_path, capsys)

    @pytest.mark.parametrize("argv, message", [
        (["run-edge", "--d", "6", "--n", "40", "--no-dp", "--config", "missing.txt"],
         "cannot read config"),
        (["run-edge", "--no-dp"], "need --data or both --d and --n"),
        (["run-federated", "--n", "40", "--no-dp"], "need --data or both --d and --n"),
    ], ids=["unreadable-config", "edge-without-data", "federated-without-d"])
    def test_missing_input_exit_2(self, tmp_path, capsys, argv, message):
        argv = [str(tmp_path / a) if a == "missing.txt" else a for a in argv]
        code, err = self._run(argv, tmp_path, capsys)
        lines = err.splitlines()
        assert code == 2 and len(lines) == 1 and lines[0].startswith("fedpca: ")
        assert message in lines[0]

    @pytest.mark.parametrize("argv, code, message", [
        (["run-edge", "--d", "6", "--n", "40", "--epsilon", "1", "--normalize", "unit-ball",
          "--omega-floor", "5e-324"], 4, "privacy-infeasible"),
        (["run-federated", "--d", "6", "--n", "40", "--no-dp",
          "--leaves", "9223372036854775807"], 2, "do not fit in memory"),
    ])
    def test_sizes_past_any_batch_or_memory(self, tmp_path, capsys, argv, code, message):
        # an OverflowError and a MemoryError once escaped main with exit 1
        got, err = self._run(argv, tmp_path, capsys)
        assert got == code and message in err
