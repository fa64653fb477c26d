"""Outside-in per-layer timing of the flow, without touching ``src/``.

A *layer* is a small set of public callables (see :data:`LAYERS`).
:func:`install` replaces every module-level reference to each callable
inside the ``repro`` package -- the defining module and every module
that imported it by name -- with a timing wrapper, and patches class
attributes for methods.  Lazy ``from x import y`` inside function
bodies resolve through the defining module, so they are covered too.

Self time is a call's wall time minus the wall time of wrapped calls
nested inside it, so the per-layer self times of one run add up to the
wrapped part of the timed section without double counting.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

#: layer name -> (module, attribute) pairs; ``Class.method`` for methods.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "experiments.runner.period_search": (
        ("repro.experiments.runner", "find_target_period"),
    ),
    "flow.run": (
        ("repro.flow.flow2d", "run_flow_2d"),
        ("repro.flow.pin3d", "run_flow_pin3d"),
        ("repro.flow.hetero", "run_flow_hetero_3d"),
    ),
    "netlist": (("repro.netlist.generators", "generate_netlist"),),
    "flow.synthesis": (("repro.flow.synthesis", "initial_sizing"),),
    "liberty.build": (
        ("repro.liberty.presets", "make_library_pair"),
        ("repro.experiments.dse.space", "build_library"),
    ),
    "timing": (
        ("repro.timing.incremental", "TimingSession.report"),
        ("repro.timing.sta", "run_sta"),
    ),
    "place.global": (("repro.place.quadratic", "global_place"),),
    "place.legalize": (("repro.flow.stages", "legalize_all_tiers"),),
    "place.congestion": (("repro.flow.stages", "place_with_congestion_control"),),
    "partition.fm": (("repro.partition.bins", "bin_fm_partition"),),
    "partition.pinning": (
        ("repro.partition.timing_driven", "timing_based_pinning"),
    ),
    "partition.eco": (("repro.partition.repartition", "repartition_eco"),),
    "flow.opt.optimize": (("repro.flow.opt", "optimize_timing"),),
    "flow.opt.recover": (("repro.flow.opt", "recover_area"),),
    "cts": (("repro.cts.tree", "ClockTreeSynthesizer.run"),),
    "flow.report.signoff": (("repro.flow.report", "finalize_design"),),
    "integrity.enforce": (("repro.integrity.contracts", "enforce"),),
    "integrity.checkpoint_write": (
        ("repro.integrity.checkpoint", "write_checkpoint"),
    ),
    "integrity.checkpoint_read": (
        ("repro.integrity.checkpoint", "load_checkpoint"),
    ),
    "integrity.serialize": (
        ("repro.integrity.checkpoint", "design_to_dict"),
        ("repro.integrity.checkpoint", "design_from_dict"),
        ("repro.integrity.checkpoint", "rebind_checkpoint_tier_library"),
    ),
    "experiments.cache.load": (("repro.experiments.cache", "load_payload"),),
    "experiments.cache.store": (("repro.experiments.cache", "store_payload"),),
    "experiments.dse.evaluate": (
        ("repro.experiments.dse.search", "evaluate_config"),
    ),
}

#: Layers that open no span of their own: their time lands in the self
#: time of whichever span encloses them (e.g. ``dse_flow``).
SPANLESS = frozenset({
    "liberty.build",
    "integrity.enforce",
    "integrity.checkpoint_write",
    "integrity.checkpoint_read",
    "integrity.serialize",
    "experiments.cache.load",
    "experiments.cache.store",
})

#: layer -> span name of the tracer, for the cross-check: each call of
#: these layers opens exactly one span of that name.  (``global_place``
#: is absent: the 3-D re-place calls it without a span.)
SPAN_OF = {
    "timing": "sta",
    "partition.fm": "fm_partition",
    "partition.pinning": "timing_pinning",
    "partition.eco": "repartition_eco",
    "flow.opt.optimize": "optimize",
    "flow.opt.recover": "area_recovery",
}


class Recorder:
    """Call counts, inclusive and self wall time per layer."""

    def __init__(self, *, attribute_span: str | None = None):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.latencies: dict[str, list[float]] = defaultdict(list)
        self.sta_full = 0
        self.eco_accepted = 0
        self.eco_rejected = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.search_probes = 0  # flows run inside find_target_period
        self._searching = 0
        # Time of span-less layers spent directly under a span of this
        # name, i.e. the part of that span's self time they explain.
        self.attribute_span = attribute_span
        self.attributed_s: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [nested wrapped time, span, spanless]

    def wrap(self, layer: str, fn, *, method: str = ""):
        spanless = layer in SPANLESS
        current_span = None
        if self.attribute_span is not None:
            from repro.obs import current_span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = current_span() if current_span is not None else None
            frame = [0.0, span, spanless]
            stack = self._stack
            outer_same = any(f[2] and f[1] is span for f in stack)
            stack.append(frame)
            full_before = (
                args[0].stats.full_runs if method == "report" else 0
            )
            if method == "find_target_period":
                self._searching += 1
            elif layer == "flow.run" and self._searching:
                self.search_probes += 1
            start = time.perf_counter()
            try:
                value = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if method == "find_target_period":
                    self._searching -= 1
                self.calls[layer] += 1
                self.total_s[layer] += elapsed
                self.self_s[layer] += elapsed - frame[0]
                self.latencies[layer].append(elapsed)
                if stack:
                    stack[-1][0] += elapsed
                if (
                    spanless
                    and not outer_same
                    and span is not None
                    and span.name == self.attribute_span
                ):
                    self.attributed_s[layer] += elapsed
            if method == "report":
                self.sta_full += args[0].stats.full_runs - full_before
            elif method == "run_sta":
                self.sta_full += 1
            elif method == "repartition_eco":
                self.eco_accepted += value.batches_accepted
                self.eco_rejected += value.batches_rejected
            elif method == "load_payload":
                if value is None:
                    self.cache_misses += 1
                else:
                    self.cache_hits += 1
            return value

        return wrapper


def install(recorder: Recorder, layers=None) -> None:
    """Wrap every import site of the named layers (default: all).

    Modules already imported get their references replaced; modules
    imported later copy the wrapper from the patched defining module.
    """
    for layer in layers or LAYERS:
        for module_name, attr in LAYERS[layer]:
            module = importlib.import_module(module_name)
            modules = [
                m for name, m in list(sys.modules.items())
                if m is not None and (name == "repro" or name.startswith("repro."))
            ]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(
                    cls, meth,
                    recorder.wrap(layer, cls.__dict__[meth], method=meth),
                )
                continue
            original = getattr(module, attr)
            wrapped = recorder.wrap(layer, original, method=attr)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)
