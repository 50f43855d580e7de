"""Peak RSS, wall time and model hash of one ``train`` call per (model,
corpus size), each in a fresh process.

    python scripts/train_peak.py

Each child imports only the package from this checkout's ``src/``, trains
once on ``make_shape_corpus(B, 1024, 0)`` and reports its ``ru_maxrss``,
the ``train()`` call's wall seconds and minor page faults (the
``ru_minflt`` delta over the call) and the first 8 hex digits of the
SHA-256 of the model's ``save_model`` bytes. Prints one JSON line,
``{"peak_mb": {...}, "train_s": {...}, "minflt": {...}, "model_sha256":
{...}}``, each keyed ``<model>_<B>``, for the default 4-hop model and the
2-hop partial-overlap model at 50 and 100 clouds, so a memory record shows
whether train got slower, how often it asked the kernel for fresh pages,
and whether it kept the model's bits. BLAS threads are as the environment
sets them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

MODELS = {
    "default": "ModelConfig()",
    "partial": "ModelConfig(hops=(HopConfig(768, 64), HopConfig(384, 32)), k_lrf=64, energy_threshold=0.001, seed=0)",
}
CHILD = """
import hashlib, os, resource, tempfile, time
from rpointhop import HopConfig, ModelConfig, save_model, train
from rpointhop.bench import make_shape_corpus
corpus = make_shape_corpus({clouds}, 1024, 0)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
start = time.perf_counter()
model = train(corpus, {config})
seconds = time.perf_counter() - start
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "model.rph")
    save_model(model, path)
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()[:8]
print(peak, seconds, faults, digest)
"""


def measure(clouds: int, config: str) -> tuple[float, float, int, str]:
    """One fresh process's (peak MB, train seconds, minor faults, model
    hash) for ``train`` of ``config``, a ``ModelConfig(...)`` expression, on
    ``clouds`` corpus clouds."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    child = CHILD.format(clouds=clouds, config=config)
    out = subprocess.run([sys.executable, "-c", child], env=env, check=True, capture_output=True, text=True)
    peak, wall, minflt, digest = out.stdout.split()
    return round(float(peak), 1), round(float(wall), 3), int(minflt), digest


def main() -> None:
    peaks, seconds, faults, digests = {}, {}, {}, {}
    for name, config in MODELS.items():
        for clouds in (50, 100):
            key = f"{name}_{clouds}"
            peaks[key], seconds[key], faults[key], digests[key] = measure(clouds, config)
    print(json.dumps({"peak_mb": peaks, "train_s": seconds, "minflt": faults, "model_sha256": digests}))


if __name__ == "__main__":
    main()
