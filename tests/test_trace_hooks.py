"""Every callable the benchmark's tracer wraps still exists.

``perfbench/spans.py`` patches program functions by module path and
attribute name; a target it cannot find is skipped and its metrics read 0.
Loading its hook table here makes a rename or deletion of a traced name
fail the test suite itself, not only the benchmark's own self-test.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

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
