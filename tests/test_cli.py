"""Command line interface: subcommands, artifacts, determinism, errors."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rpointhop import (
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
from rpointhop.cli import _apply_thread_cap, main
from rpointhop.pipeline import format_config

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


THREAD_VARS = ("RPH_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class TestPlumbing:
    def test_thread_cap_sets_env(self, monkeypatch):
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("RPH_THREADS", "2")
        _apply_thread_cap()
        import os

        assert os.environ["OMP_NUM_THREADS"] == "2"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
        assert os.environ["MKL_NUM_THREADS"] == "2"

    def test_thread_cap_respects_existing(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "8")
        monkeypatch.setenv("RPH_THREADS", "2")
        _apply_thread_cap()
        import os

        assert os.environ["OMP_NUM_THREADS"] == "8"  # setdefault semantics

    def test_thread_cap_ignores_garbage(self, monkeypatch):
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("RPH_THREADS", "abc")
        _apply_thread_cap()
        import os

        assert "OMP_NUM_THREADS" not in os.environ
        monkeypatch.setenv("RPH_THREADS", "0")
        _apply_thread_cap()
        assert "OMP_NUM_THREADS" not in os.environ

    def test_train_identical_at_any_thread_cap(self, workspace):
        # the cap must be applied before numpy loads, so each run is its own
        # process; unset, 1 and 2 must give the same model bytes and stdout
        env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        runs = []
        for cap in (None, "1", "2"):
            out = workspace["root"] / f"threads-{cap}.rph"
            run_env = env if cap is None else {**env, "RPH_THREADS": cap}
            proc = subprocess.run(
                [
                    sys.executable, "-m", "rpointhop.cli", "train",
                    "--input-dir", str(workspace["clouds_dir"]),
                    "--config", str(workspace["config"]),
                    "--output", str(workspace["root"] / "threads.rph"),
                ],
                env=run_env, capture_output=True, text=True, check=True,
            )
            # every run writes the same path, since stdout names it
            (workspace["root"] / "threads.rph").rename(out)
            runs.append((out.read_bytes(), proc.stdout))
        assert runs[0] == runs[1] == runs[2]
        assert runs[0][0] == workspace["model"].read_bytes()

    def test_no_command_exits_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        capsys.readouterr()
