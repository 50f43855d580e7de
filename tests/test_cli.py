"""Command line interface: subcommands, artifacts, determinism, errors."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rpointhop import (
    HopConfig,
    RigidTransform,
    apply_transform,
    load_cloud,
    load_model,
    load_transform,
    rotation_error,
    save_cloud,
    save_model,
    translation_error,
)
from rpointhop import cli
from rpointhop.cli import main
from rpointhop.config import format_config

from conftest import CLI_CONFIG, random_rotation


@pytest.fixture(scope="session")
def workspace(tmp_path_factory, cli_corpus, cli_model):
    """Directory of cloud files, a saved model, and a register pair."""
    root = tmp_path_factory.mktemp("cli")
    clouds_dir = root / "clouds"
    clouds_dir.mkdir()
    for i, cloud in enumerate(cli_corpus):
        save_cloud(cloud, clouds_dir / f"{i:03d}.xyz")

    model_path = root / "model.rph"
    save_model(cli_model, model_path)

    config_path = root / "train.cfg"
    config_path.write_text(format_config(CLI_CONFIG))

    rng = np.random.default_rng(21)
    tf_gt = RigidTransform(random_rotation(rng), rng.normal(size=3) * 0.3)
    target = cli_corpus[0]
    source = apply_transform(target, tf_gt)
    target_path = root / "target.xyz"
    source_path = root / "source.xyz"
    save_cloud(target, target_path)
    save_cloud(source, source_path)

    return {
        "root": root,
        "clouds_dir": clouds_dir,
        "model": model_path,
        "config": config_path,
        "target": target_path,
        "source": source_path,
        "tf_gt": tf_gt,
    }


def _write_xyz(coords, path) -> None:
    """Coordinates as an xyz file, written directly: a cloud too large for
    :class:`PointCloud` cannot go through ``save_cloud``."""
    path.write_text("".join(" ".join(f"{v:.17g}" for v in row) + "\n" for row in coords))


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


class TestTrain:
    def test_reproduces_library_model_byte_for_byte(self, workspace, capsys):
        # the cloud files round-trip exactly (17 significant digits), so the
        # CLI-trained model must be byte-identical to the in-memory one
        out = workspace["root"] / "cli-trained.rph"
        rc = main([
            "train",
            "--input-dir", str(workspace["clouds_dir"]),
            "--config", str(workspace["config"]),
            "--output", str(out),
        ])
        assert rc == 0
        assert out.read_bytes() == workspace["model"].read_bytes()
        stdout = capsys.readouterr().out
        assert f"model written to {out}" in stdout
        assert "feature dimension:" in stdout
        assert "surviving channels per hop:" in stdout
        assert "k_lrf = 24" in stdout  # echoed config

    def test_seed_flag_overrides_config(self, workspace, capsys):
        out = workspace["root"] / "reseeded.rph"
        rc = main([
            "train",
            "--input-dir", str(workspace["clouds_dir"]),
            "--config", str(workspace["config"]),
            "--output", str(out),
            "--seed", "99",
        ])
        assert rc == 0
        assert load_model(out).config.seed == 99
        assert "seed = 99" in capsys.readouterr().out
        assert out.read_bytes() != workspace["model"].read_bytes()

    def test_surviving_channels_are_the_trees(self, workspace, capsys, tmp_path):
        # a third hop leaves channels of hops 1 and 2 without a surviving
        # descendant: the line counts every survivor of the tree, though the
        # model's plans skip those channels
        config = tmp_path / "three.cfg"
        config.write_text(format_config(replace(CLI_CONFIG, hops=(*CLI_CONFIG.hops, HopConfig(128, 16)))))
        out = tmp_path / "three.rph"
        rc = main([
            "train",
            "--input-dir", str(workspace["clouds_dir"]),
            "--config", str(config),
            "--output", str(out),
        ])
        assert rc == 0
        model = load_model(out)
        counts = [
            sum(1 for n in model.tree.nodes if n.hop == h and n.status != "discarded") for h in (1, 2, 3)
        ]
        assert counts != [plan.slots.size for plan in model.plans]
        lines = capsys.readouterr().out.splitlines()
        assert "surviving channels per hop: " + " ".join(map(str, counts)) in lines

    def test_missing_input_dir(self, workspace, capsys):
        rc = main([
            "train",
            "--input-dir", str(workspace["root"] / "nope"),
            "--output", str(workspace["root"] / "x.rph"),
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_empty_input_dir(self, workspace, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        rc = main([
            "train", "--input-dir", str(empty),
            "--output", str(tmp_path / "x.rph"),
        ])
        assert rc == 1
        assert "no point clouds found" in capsys.readouterr().err

    def test_bad_config(self, workspace, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense = 1\n")
        rc = main([
            "train",
            "--input-dir", str(workspace["clouds_dir"]),
            "--config", str(bad),
            "--output", str(tmp_path / "x.rph"),
        ])
        assert rc == 1
        assert "unknown key" in capsys.readouterr().err

    def test_negative_config_seed_names_line(self, workspace, capsys, tmp_path, monkeypatch):
        config = tmp_path / "negative.cfg"
        config.write_text(format_config(CLI_CONFIG).replace("seed = 0", "seed = -2"))
        monkeypatch.setattr(cli, "_load_dir", None)  # refused before the corpus loads
        rc = main([
            "train",
            "--input-dir", str(workspace["clouds_dir"]),
            "--config", str(config),
            "--output", str(tmp_path / "x.rph"),
        ])
        assert rc == 1
        assert "config line 5: seed must be non-negative, got -2" in capsys.readouterr().err

    def test_non_finite_coordinate_names_file_and_line(self, workspace, capsys, tmp_path):
        clouds = tmp_path / "clouds"
        clouds.mkdir()
        save_cloud(load_cloud(workspace["target"]), clouds / "a.xyz")
        (clouds / "b.xyz").write_text("0 0 0\n1 inf 1\n")
        rc = main(["train", "--input-dir", str(clouds), "--output", str(tmp_path / "x.rph")])
        assert rc == 1
        assert f"{clouds / 'b.xyz'}: line 2: x, y and z must be finite" in capsys.readouterr().err

    def test_overflowing_coordinates_report_error(self, capsys, tmp_path, cli_corpus):
        # scaled by 1e200, a cloud's norm overflows and would normalize to zeros
        clouds = tmp_path / "clouds"
        clouds.mkdir()
        for i, cloud in enumerate(cli_corpus):
            _write_xyz(cloud.coords * 1e200, clouds / f"{i:03d}.xyz")
        out = tmp_path / "x.rph"
        rc = main(["train", "--input-dir", str(clouds), "--output", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: coords too large")
        assert not out.exists()

    def test_duplicate_config_key(self, workspace, capsys, tmp_path):
        config = tmp_path / "twice.cfg"
        config.write_text(format_config(CLI_CONFIG) + "seed = 5\n")
        out = tmp_path / "x.rph"
        rc = main([
            "train",
            "--input-dir", str(workspace["clouds_dir"]),
            "--config", str(config),
            "--output", str(out),
        ])
        assert rc == 1
        assert "config line 6: duplicate key 'seed' (first set on line 5)" in capsys.readouterr().err
        assert not out.exists()


# ---------------------------------------------------------------------------
# register
# ---------------------------------------------------------------------------


class TestRegister:
    def test_recovers_motion_and_writes_artifacts(self, workspace, capsys):
        report_path = workspace["root"] / "reg.txt"
        rc = main([
            "register",
            "--model", str(workspace["model"]),
            "--source", str(workspace["source"]),
            "--target", str(workspace["target"]),
            "--output", str(report_path),
        ])
        assert rc == 0
        tf_gt = workspace["tf_gt"]
        est = load_transform(report_path)
        assert np.abs(rotation_error(est.rotation, tf_gt.rotation)).max() < 1e-5
        assert np.abs(translation_error(est.translation, tf_gt.translation)).max() < 1e-7

        aligned_path = report_path.parent / (report_path.name + ".aligned.xyz")
        aligned = load_cloud(aligned_path)
        target = load_cloud(workspace["target"])
        assert np.abs(aligned.coords - target.coords).max() < 1e-6

        stdout = capsys.readouterr().out
        assert f"report written to {report_path}" in stdout
        assert "euler_deg" in stdout
        assert "pairs 128/256" in stdout

    def test_flag_variants_run(self, workspace, capsys):
        for extra in (["--ransac"], ["--icp-refine"], ["--no-ratio-test"]):
            report_path = workspace["root"] / f"reg{extra[0].strip('-')}.txt"
            rc = main([
                "register",
                "--model", str(workspace["model"]),
                "--source", str(workspace["source"]),
                "--target", str(workspace["target"]),
                "--output", str(report_path),
                *extra,
            ])
            assert rc == 0, extra
            est = load_transform(report_path)
            tf_gt = workspace["tf_gt"]
            assert np.abs(rotation_error(est.rotation, tf_gt.rotation)).max() < 1e-3
        capsys.readouterr()

    def test_cloud_too_small_reports_error(self, workspace, capsys, tmp_path):
        small = tmp_path / "small.xyz"
        small.write_text("\n".join("0 0 %d" % i for i in range(50)) + "\n")
        rc = main([
            "register",
            "--model", str(workspace["model"]),
            "--source", str(small),
            "--target", str(workspace["target"]),
            "--output", str(tmp_path / "r.txt"),
        ])
        assert rc == 1
        assert "hop 1 needs" in capsys.readouterr().err

    def test_overflowing_coordinates_report_error(self, workspace, capsys, tmp_path):
        # scaled by 1e160, squared distances overflow in the KNN search
        paths = {}
        for role in ("source", "target"):
            paths[role] = tmp_path / f"{role}.xyz"
            _write_xyz(load_cloud(workspace[role]).coords * 1e160, paths[role])
        rc = main([
            "register",
            "--model", str(workspace["model"]),
            "--source", str(paths["source"]),
            "--target", str(paths["target"]),
            "--output", str(tmp_path / "r.txt"),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: coords too large")

    def test_corrupt_model_file(self, workspace, capsys, tmp_path):
        # a header length far past the end of the file
        raw = workspace["model"].read_bytes()
        corrupt = tmp_path / "corrupt.rph"
        corrupt.write_bytes(raw[:8] + (2**40).to_bytes(8, "little") + raw[16:])
        rc = main([
            "register",
            "--model", str(corrupt),
            "--source", str(workspace["source"]),
            "--target", str(workspace["target"]),
            "--output", str(tmp_path / "r.txt"),
        ])
        assert rc == 1
        assert "error: corrupt model file" in capsys.readouterr().err

    def test_missing_model_file(self, workspace, capsys, tmp_path):
        rc = main([
            "register",
            "--model", str(tmp_path / "ghost.rph"),
            "--source", str(workspace["source"]),
            "--target", str(workspace["target"]),
            "--output", str(tmp_path / "r.txt"),
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------


class TestFeatures:
    def test_table_format(self, workspace, capsys, cli_model, cli_corpus):
        out = workspace["root"] / "feats.txt"
        rc = main([
            "features",
            "--model", str(workspace["model"]),
            "--input", str(workspace["clouds_dir"] / "000.xyz"),
            "--output", str(out),
            "--seed", "0",
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        dim = cli_model.feature_dim
        assert lines[0] == f"# index x y z f0..f{dim - 1}"
        assert len(lines) == 1 + 256  # final hop budget
        parts = lines[1].split()
        assert len(parts) == 1 + 3 + dim
        idx = int(parts[0])
        coords = np.array([float(v) for v in parts[1:4]])
        assert np.array_equal(coords, cli_corpus[0].coords[idx])
        stdout = capsys.readouterr().out
        assert f"features written to {out}" in stdout
        assert f"points: 256  dimension: {dim}" in stdout

    def test_deterministic_output_file(self, workspace, capsys):
        a = workspace["root"] / "fa.txt"
        b = workspace["root"] / "fb.txt"
        for out in (a, b):
            rc = main([
                "features",
                "--model", str(workspace["model"]),
                "--input", str(workspace["clouds_dir"] / "001.xyz"),
                "--output", str(out),
            ])
            assert rc == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------


class TestBenchmark:
    ARGS = ["--max-angle", "30", "--trials", "2", "--seed", "0"]

    def test_stdout_report(self, workspace, capsys):
        rc = main([
            "benchmark",
            "--model", str(workspace["model"]),
            "--test-dir", str(workspace["clouds_dir"]),
            *self.ARGS,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("# benchmark")
        assert "aggregate\t" in out
        assert "runtime" not in out

    def test_byte_identical_reruns(self, workspace, capsys):
        outs = []
        for _ in range(2):
            rc = main([
                "benchmark",
                "--model", str(workspace["model"]),
                "--test-dir", str(workspace["clouds_dir"]),
                *self.ARGS,
            ])
            assert rc == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_ablation_prints_both_reports(self, workspace, capsys):
        rc = main([
            "benchmark",
            "--model", str(workspace["model"]),
            "--test-dir", str(workspace["clouds_dir"]),
            "--ablation",
            *self.ARGS,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# with ratio test" in out
        assert "# without ratio test" in out

    def test_bad_spec_value(self, workspace, capsys):
        rc = main([
            "benchmark",
            "--model", str(workspace["model"]),
            "--test-dir", str(workspace["clouds_dir"]),
            "--max-angle", "200",
        ])
        assert rc == 1
        assert "max_angle_deg" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class TestPlumbing:
    @staticmethod
    def _at_thread_caps(args, read_output=lambda: None):
        """(stdout, read_output()) of the CLI run with the BLAS thread
        variables unset, then OPENBLAS_NUM_THREADS and OMP_NUM_THREADS both
        at 1 and both at 2. BLAS reads them when it loads, so each run is
        its own process."""
        env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        runs = []
        for cap in (None, "1", "2"):
            caps = {} if cap is None else {"OPENBLAS_NUM_THREADS": cap, "OMP_NUM_THREADS": cap}
            proc = subprocess.run(
                [sys.executable, "-m", "rpointhop.cli", *args],
                env={**env, **caps},
                capture_output=True, text=True, check=True,
            )
            runs.append((proc.stdout, read_output()))
        return runs

    def test_train_identical_at_any_thread_cap(self, workspace):
        # every run writes the same path, since stdout names it
        out = workspace["root"] / "threads.rph"
        runs = self._at_thread_caps(
            [
                "train",
                "--input-dir", str(workspace["clouds_dir"]),
                "--config", str(workspace["config"]),
                "--output", str(out),
            ],
            out.read_bytes,
        )
        assert runs[0] == runs[1] == runs[2]
        assert runs[0][1] == workspace["model"].read_bytes()

    def test_benchmark_identical_at_any_thread_cap(self, workspace):
        # benchmark trials extract their two clouds on the two lanes; with
        # --ransac, RANSAC scores all its hypotheses in one stacked SVD
        for estimate in ([], ["--ransac", "--icp-refine"]):
            runs = self._at_thread_caps(
                ["benchmark", "--model", str(workspace["model"]), "--test-dir", str(workspace["clouds_dir"]),
                 *TestBenchmark.ARGS, *estimate]
            )
            assert runs[0] == runs[1] == runs[2], estimate
            assert "aggregate\t" in runs[0][0]

    def test_register_identical_at_any_thread_cap(self, workspace):
        # matching splits its rows across the two lanes; every report line
        # but the runtime, and the aligned cloud, must agree
        report = workspace["root"] / "threads-reg.txt"

        def read_output():
            lines = report.read_text().splitlines()
            stable = [line for line in lines if not line.startswith("runtime_s ")]
            assert len(stable) == len(lines) - 1
            return stable, Path(f"{report}.aligned.xyz").read_bytes()

        runs = self._at_thread_caps(
            [
                "register",
                "--model", str(workspace["model"]),
                "--source", str(workspace["source"]),
                "--target", str(workspace["target"]),
                "--output", str(report),
                "--ransac", "--icp-refine",
            ],
            read_output,
        )
        assert runs[0] == runs[1] == runs[2]
        assert "used_ransac 1" in runs[0][1][0]

    @pytest.mark.parametrize("command", ["train", "register", "features", "benchmark"])
    @pytest.mark.parametrize("value", ["-1", "x"])
    def test_seed_must_be_non_negative(self, capsys, command, value):
        # argparse refuses the flag itself, before any file is read
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", value])
        assert exc.value.code == 2
        assert f"argument --seed: expected a non-negative integer, got '{value}'" in capsys.readouterr().err

    def test_no_command_exits_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        capsys.readouterr()
