"""Peak RSS of one ``train`` call per (model, corpus size), each in a fresh process.

    python scripts/train_peak.py

Each child imports only the package from this checkout's ``src/``, trains
once on ``make_shape_corpus(B, 1024, 0)`` and reports its ``ru_maxrss``.
Prints one JSON line of MB, keyed ``<model>_<B>``, for the
default 4-hop model and the 2-hop partial-overlap model at 50 and 100 clouds.
BLAS threads are as the environment sets them.
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
import resource
from rpointhop import HopConfig, ModelConfig, train
from rpointhop.bench import make_shape_corpus
train(make_shape_corpus({clouds}, 1024, 0), {config})
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def main() -> None:
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    peaks = {}
    for name, config in MODELS.items():
        for clouds in (50, 100):
            child = CHILD.format(clouds=clouds, config=config)
            out = subprocess.run([sys.executable, "-c", child], env=env, check=True, capture_output=True, text=True)
            peaks[f"{name}_{clouds}"] = round(float(out.stdout), 1)
    print(json.dumps(peaks))


if __name__ == "__main__":
    main()
