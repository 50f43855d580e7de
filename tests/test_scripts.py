"""The measurement scripts under ``scripts/`` run against this checkout.

Both read pipeline and perfbench names that a refactor can break without
any other test noticing: ``accuracy.py`` is run on a two-trial set with the
tiny model, and ``train_peak.py``'s child program in a fresh process on a
four-cloud corpus of the tiny config.
"""

import dataclasses
import hashlib
import importlib.util
import re
import sys
from pathlib import Path

from rpointhop import save_model, train
from rpointhop.bench import make_shape_corpus
from rpointhop.cloud import seeded_rng
from rpointhop.pipeline import extract_pair
from rpointhop.registration import MatchParams

from conftest import TINY_CONFIG

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
TINY_CONFIG_TEXT = (
    "ModelConfig(hops=(HopConfig(192, 24), HopConfig(128, 16)), k_lrf=16, energy_threshold=0.001, seed=0)"
)


def _script(name: str, monkeypatch):
    """``scripts/<name>.py`` as a module; the ``sys.path`` entries it adds
    are undone after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_accuracy_run_set_records_errors_and_extraction_bytes(tiny_model, tiny_corpus, monkeypatch):
    accuracy = _script("accuracy", monkeypatch)
    trials = accuracy.make_trials(tiny_corpus[:2], accuracy.FULL_180, [0, 0])
    params = MatchParams(m1=64, m2=32)
    record = accuracy.run_set(tiny_model, trials, params)
    assert list(record) == ["trials", "inlier_share", *accuracy.ESTIMATES, "extract_sha256"]
    assert record["trials"] == 2 and 0.0 <= record["inlier_share"] <= 1.0
    for name in accuracy.ESTIMATES:
        assert sorted(record[name]) == ["over_5deg", "p50", "p90", "refused"]
        assert 0 <= record[name]["refused"] <= 2 and 0 <= record[name]["over_5deg"] <= 2
    # the digest covers each extracted array's dtype, shape and bytes, in
    # trial and field order, with the extraction seed register() draws
    want = hashlib.sha256()
    for trial in trials:
        seed = int(seeded_rng(trial.seed).integers(2**63))
        for fs in extract_pair(tiny_model, trial.target, trial.source, seed):
            for f in dataclasses.fields(fs):
                a = getattr(fs, f.name)
                want.update(f"{a.dtype.str} {a.shape}".encode())
                want.update(a.tobytes())
    assert record["extract_sha256"] == want.hexdigest()
    assert accuracy.run_set(tiny_model, trials, params) == record


def test_train_peak_child_reports_its_four_fields(tmp_path, monkeypatch):
    train_peak = _script("train_peak", monkeypatch)
    peak, seconds, faults, digest = train_peak.measure(4, TINY_CONFIG_TEXT)
    assert peak > 0 and seconds > 0 and faults >= 0
    assert re.fullmatch(r"[0-9a-f]{8}", digest)
    # the hash is that of the model this process trains on the same corpus
    path = tmp_path / "model.rph"
    save_model(train(make_shape_corpus(4, 1024, 0), TINY_CONFIG), path)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()[:8]
