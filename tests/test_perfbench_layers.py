"""The benchmark's per-layer tracer still finds every name it wraps.

``perfbench/layers.py`` wraps ``repro`` functions and methods by name
from outside the package.  A refactor that renames or drops one of them
would only surface as a crash of ``perfbench/run.py --trace 1``; these
checks resolve every name here instead, without installing the tracer.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _layers_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", REPO_ROOT / "perfbench" / "layers.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _layers_module()

#: The names ``Tracer.install`` and ``Tracer.begin_op`` patch or call
#: besides its spans: the count hooks and the per-op degradation counter.
COUNT_HOOKS = [
    ("repro.phy.esnr", "esnr_for_modulation"),
    ("repro.mac.bitrate", "choose_bitrate"),
    ("repro.utils.guarded", "svd_stack"),
    ("repro.utils.guarded", "pinv_stack"),
    ("repro.utils.guarded", "degradations_total"),
]

#: The classes whose instances ``Tracer.install`` collects through their
#: own ``__init__``.
COLLECTED = [
    ("repro.mac.plan", "PlanCache"),
    ("repro.sim.fidelity", "FidelityEngine"),
    ("repro.sim.faults", "FaultInjector"),
]

SPAN_NAMES = [
    (layer, module, name) for layer, module, names in LAYERS.SPANS for name in names
]


@pytest.mark.parametrize("layer,module_name,qualname", SPAN_NAMES)
def test_span_name_resolves(layer, module_name, qualname):
    module = importlib.import_module(module_name)
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        # The tracer replaces the class's own attribute, so an inherited
        # method would not do.
        assert attr in vars(getattr(module, cls_name)), f"{layer}: {qualname}"
    else:
        assert callable(getattr(module, qualname)), f"{layer}: {qualname}"


@pytest.mark.parametrize("module_name,name", COUNT_HOOKS)
def test_count_hook_resolves(module_name, name):
    assert callable(getattr(importlib.import_module(module_name), name))


@pytest.mark.parametrize("module_name,cls_name", COLLECTED)
def test_collected_class_defines_init(module_name, cls_name):
    assert "__init__" in vars(getattr(importlib.import_module(module_name), cls_name))


def test_layer_table_is_not_empty():
    assert len(SPAN_NAMES) >= len(LAYERS.LAYERS) >= 10
