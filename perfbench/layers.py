"""Outside-in per-layer tracing of the ``repro`` package.

The tracer never edits the package: it replaces public functions and
methods of ``repro.*`` modules with thin wrappers, in this process only.
A function is replaced wherever callers look it up -- its defining
module and every loaded ``repro`` module that imported it by name -- and
a method on its class, so ``from x import f`` call sites and
``obj.method()`` call sites are both seen.

Each wrapped call is a *span* of one named layer.  Spans nest on a stack
(the simulator is single-threaded at ``workers=1``); a layer's self time
is its span's duration minus the time covered by its child spans.  A
call that enters a layer it is already inside (a decoder helper calling
another decoder helper) is folded into the outer span, so ``calls``
counts entries into the layer.  Count-only hooks record work units
(matrices decomposed, ESNR evaluations) without opening a span.

Instances of ``PlanCache``, ``FidelityEngine`` and ``FaultInjector`` are
collected through their constructors; :meth:`Tracer.end_op` folds their
existing counters into the totals after every op and drops them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

import numpy as np

#: (layer, module, qualified names) of every timed layer.  The module is
#: where each name is defined; ``Class.method`` names patch the class.
SPANS: List[Tuple[str, str, Tuple[str, ...]]] = [
    ("sim.sweep", "repro.sim.sweep", ("run_sweep",)),
    ("sim.store.open", "repro.sim.store", ("ResultsStore.__init__",)),
    ("sim.store.read", "repro.sim.store", ("ResultsStore.load_many", "ResultsStore.load")),
    (
        "sim.store.write",
        "repro.sim.store",
        (
            "ResultsStore.store",
            "ResultsStore.mark_running",
            "ResultsStore.mark_pending",
            "ResultsStore.mark_failed",
        ),
    ),
    (
        "sim.store.manifest",
        "repro.sim.store",
        (
            "ResultsStore.begin_sweep",
            "ResultsStore.finish_sweep",
            "ResultsStore.get_sweep",
            "ResultsStore.checkpoint_sweep",
        ),
    ),
    ("sim.network", "repro.sim.network", ("Network.__init__",)),
    ("sim.runner", "repro.sim.runner", ("run_simulation",)),
    ("mac.csma", "repro.mac.csma", ("resolve_contention",)),
    ("mac.plan_initial", "repro.mac.plan", ("plan_initial_transmission",)),
    ("mac.plan_join", "repro.mac.plan", ("plan_join",)),
    ("sim.link_abstraction", "repro.sim.link_abstraction", ("receiver_stream_snrs",)),
    (
        "mimo.decoder",
        "repro.mimo.decoder",
        (
            "post_projection_snr",
            "post_projection_snr_db",
            "post_projection_snr_batch",
            "post_projection_snr_db_batch",
        ),
    ),
    ("phy.esnr.select_mcs", "repro.phy.esnr", ("select_mcs",)),
    ("phy.esnr.delivery", "repro.phy.esnr", ("packet_delivery_probability", "delivery_margin_db")),
    ("sim.fidelity", "repro.sim.fidelity", ("FidelityEngine.override_verdict",)),
    ("sim.fidelity.probe", "repro.sim.fidelity", ("simulate_probe_delivery",)),
    (
        "sim.faults",
        "repro.sim.faults",
        (
            "FaultSchedule.from_profile",
            "FaultInjector.__init__",
            "FaultInjector.advance",
            "FaultInjector.finalize",
            "FaultInjector.next_boundary_us",
            "FaultInjector.node_active",
            "FaultInjector.agent_active",
            "FaultInjector.loss_rate",
            "FaultInjector.draw_loss",
            "FaultInjector.draw_erasure",
        ),
    ),
]

LAYERS = [layer for layer, _, _ in SPANS]


def _matrices(stack) -> int:
    """Number of matrices in a ``(..., m, n)`` stack."""
    return int(np.prod(np.shape(stack)[:-2], dtype=np.int64))


class Tracer:
    """Span recorder and counter store for the traced ops of one run."""

    def __init__(self) -> None:
        self.counts: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self._stack: List[list] = []  # [layer, seconds covered by children]
        self._instances: List[Tuple[str, object]] = []
        self._guarded = None
        self._degradations_at_op_start = 0

    # -- installing the wrappers -------------------------------------------

    def install(self) -> None:
        for layer, module_name, names in SPANS:
            module = importlib.import_module(module_name)
            for name in names:
                self._patch(module, name, self._span_wrapper(layer, name))
        esnr = importlib.import_module("repro.phy.esnr")
        bitrate = importlib.import_module("repro.mac.bitrate")
        self._guarded = importlib.import_module("repro.utils.guarded")
        self._patch(esnr, "esnr_for_modulation", self._count_wrapper("phy.esnr.esnr_evals"))
        self._patch(bitrate, "choose_bitrate", self._count_wrapper("mac.bitrate.calls"))
        self._patch(self._guarded, "svd_stack", self._count_wrapper("utils.guarded.svd_matrices", _matrices))
        self._patch(self._guarded, "pinv_stack", self._count_wrapper("utils.guarded.pinv_matrices", _matrices))
        for module_name, cls_name, kind in (
            ("repro.mac.plan", "PlanCache", "plan_cache"),
            ("repro.sim.fidelity", "FidelityEngine", "fidelity"),
            ("repro.sim.faults", "FaultInjector", "faults"),
        ):
            cls = getattr(importlib.import_module(module_name), cls_name)
            cls.__init__ = self._collect_wrapper(kind, cls.__init__)

    def _patch(self, module, qualname: str, make: Callable) -> None:
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, (classmethod, staticmethod)):
                wrapped = type(original)(make(original.__func__))
            else:
                wrapped = make(original)
            setattr(cls, attr, wrapped)
            return
        original = getattr(module, qualname)
        wrapped = make(original)
        # Replace the name wherever a repro module bound it, so call
        # sites that did `from module import name` see the wrapper too.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, layer: str, name: str) -> Callable[[Callable], Callable]:
        stack = self._stack
        counts = self.counts
        self_s = self.self_s
        clock = time.perf_counter
        on_return = _ON_RETURN.get(name)

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if stack and stack[-1][0] == layer:
                    return fn(*args, **kwargs)
                frame = [layer, 0.0]
                stack.append(frame)
                start = clock()
                ok = False
                try:
                    result = fn(*args, **kwargs)
                    ok = True
                    return result
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    self_s[layer] += elapsed - frame[1]
                    counts[layer + ".calls"] += 1
                    if stack:
                        stack[-1][1] += elapsed
                    if ok:
                        counts[layer + ".ok"] += 1
                        if on_return is not None:
                            on_return(counts, args, result)

            return wrapper

        return make

    def _count_wrapper(self, counter: str, units: Callable = None) -> Callable[[Callable], Callable]:
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[counter] += 1 if units is None else units(args[0])
                return fn(*args, **kwargs)

            return wrapper

        return make

    def _collect_wrapper(self, kind: str, init: Callable) -> Callable:
        instances = self._instances

        @functools.wraps(init)
        def wrapper(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            instances.append((kind, obj))

        return wrapper

    # -- per-op bookkeeping ------------------------------------------------

    def begin_op(self) -> None:
        self._degradations_at_op_start = self._guarded.degradations_total()

    def end_op(self) -> None:
        """Fold the op's instance counters and guard degradations in."""
        counts = self.counts
        counts["utils.guarded.degradations"] += (
            self._guarded.degradations_total() - self._degradations_at_op_start
        )
        for kind, obj in self._instances:
            if kind == "plan_cache":
                counts["mac.plan.cache_hits"] += obj.hits
                counts["mac.plan.cache_misses"] += obj.misses
            elif kind == "fidelity":
                counts["sim.fidelity.evaluations"] += obj.evaluations
                counts["sim.fidelity.escalations"] += obj.escalations
                counts["sim.fidelity.memo_hits"] += obj.memo_hits
            else:
                counts["sim.faults.fades_applied"] += obj.fades_applied
                counts["sim.faults.departures_applied"] += obj.departures_applied
        self._instances.clear()


def _on_network(counts, args, result) -> None:
    bank = args[0].channels
    counts["sim.network.pairs"] += bank.n_pairs
    counts["sim.network.bytes"] += bank.nbytes


def _on_contention(counts, args, result) -> None:
    counts["mac.csma.collisions"] += bool(result.collision)


def _on_load_many(counts, args, result) -> None:
    counts["sim.store.read.rows"] += len(result)


def _on_load(counts, args, result) -> None:
    counts["sim.store.read.rows"] += result is not None


#: Per-call observations of a wrapped call's arguments or result.
_ON_RETURN = {
    "Network.__init__": _on_network,
    "resolve_contention": _on_contention,
    "ResultsStore.load_many": _on_load_many,
    "ResultsStore.load": _on_load,
}
