"""Every callable the benchmark's tracer wraps still exists.

``perfbench/spans.py`` patches program functions by module path and
attribute name; a target it cannot find is skipped and its metrics read 0.
Loading its hook table here makes a rename or deletion of a traced name
fail the test suite itself, not only the benchmark's own self-test. An
import kept only so that a hook can patch it (marked ``# noqa: F401``) must
name a hook's target, so that it goes when its hook moves. Train's fits
must also keep going through the hooked ``saab_fit`` with sized arguments,
or the fit counters would change meaning without failing anything.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from collections.abc import Sized
from pathlib import Path

import pytest

from rpointhop import pipeline, train

from conftest import TINY_CONFIG

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_hooks():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module.HOOKS


HOOKS = _load_hooks()


@pytest.mark.parametrize("hook", HOOKS, ids=[f"{h.owner}.{h.attr}" for h in HOOKS])
def test_hook_target_is_a_function(hook):
    # the tracer's own rule: a plain function stored on the module or class
    module_name, _, class_name = hook.owner.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    assert inspect.isfunction(vars(owner).get(hook.attr)), f"{hook.owner}.{hook.attr} is gone"


SRC = Path(__file__).resolve().parents[1] / "src" / "rpointhop"
HOOKED = {(h.owner, h.attr) for h in HOOKS}


def noqa_imports(source: str, module: str) -> list[tuple[str, str]]:
    """(module, name) of every name that ``source`` imports on a line
    marked ``# noqa: F401``: an import that nothing in the module calls."""
    lines = source.splitlines()
    return [
        (module, alias.asname or alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if "# noqa: F401" in lines[alias.lineno - 1]
    ]


def test_hook_only_imports_are_hooked():
    # such an import exists only for a hook that patches the module's own
    # name, so it goes once no hook patches it there
    modules = {path: "rpointhop" + ("" if path.stem == "__init__" else f".{path.stem}") for path in SRC.glob("*.py")}
    found = [pair for path, module in sorted(modules.items()) for pair in noqa_imports(path.read_text(), module)]
    assert [pair for pair in found if pair not in HOOKED] == []


def test_unhooked_noqa_import_is_flagged():
    source = (
        "import os  # noqa: F401 - nothing hooks it\n"
        "from .saab import (\n"
        "    saab_fit,\n"
        "    saab_apply,  # noqa: F401 - hooked\n"
        ")\n"
    )
    found = noqa_imports(source, "rpointhop.pipeline")
    assert found == [("rpointhop.pipeline", "os"), ("rpointhop.pipeline", "saab_apply")]
    assert [pair for pair in found if pair not in HOOKED] == [("rpointhop.pipeline", "os")]


def test_train_fits_count_every_sample_once(tiny_corpus, monkeypatch):
    # the benchmark's fit counter sums len() of pipeline.saab_fit's first
    # argument: train's fits must go through that name, with arguments whose
    # len is their sample count, B·n_h per channel of hop h (for the default
    # model on 50 clouds, 8,652,800 in all)
    fit, args = pipeline.saab_fit, []

    def recording(samples):
        args.append(samples)
        return fit(samples)

    monkeypatch.setattr(pipeline, "saab_fit", recording)
    model = train(tiny_corpus, TINY_CONFIG)
    assert args and all(isinstance(a, Sized) for a in args)
    hop_layers = ({0: model.hop1_layer}, *model.later_hops)
    assert len(args) == sum(len(layers) for layers in hop_layers)
    want = sum(len(tiny_corpus) * hop.num_points * len(layers) for hop, layers in zip(TINY_CONFIG.hops, hop_layers))
    assert sum(len(a) for a in args) == want
