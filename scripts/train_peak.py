"""Peak RSS and wall time of one ``train`` call per (model, corpus size),
each in a fresh process.

    python scripts/train_peak.py

Each child imports only the package from this checkout's ``src/``, trains
once on ``make_shape_corpus(B, 1024, 0)`` and reports its ``ru_maxrss`` and
the ``train()`` call's wall seconds. Prints one JSON line,
``{"peak_mb": {...}, "train_s": {...}}``, each keyed ``<model>_<B>``, for
the default 4-hop model and the 2-hop partial-overlap model at 50 and 100
clouds, so a memory record shows whether train got slower. BLAS threads are
as the environment sets them.
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
import resource, time
from rpointhop import HopConfig, ModelConfig, train
from rpointhop.bench import make_shape_corpus
corpus = make_shape_corpus({clouds}, 1024, 0)
start = time.perf_counter()
train(corpus, {config})
seconds = time.perf_counter() - start
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, seconds)
"""


def main() -> None:
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    peaks, seconds = {}, {}
    for name, config in MODELS.items():
        for clouds in (50, 100):
            child = CHILD.format(clouds=clouds, config=config)
            out = subprocess.run([sys.executable, "-c", child], env=env, check=True, capture_output=True, text=True)
            peak, wall = map(float, out.stdout.split())
            peaks[f"{name}_{clouds}"], seconds[f"{name}_{clouds}"] = round(peak, 1), round(wall, 3)
    print(json.dumps({"peak_mb": peaks, "train_s": seconds}))


if __name__ == "__main__":
    main()
