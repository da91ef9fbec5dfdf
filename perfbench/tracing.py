"""Per-layer spans recorded from outside the package.

``Tracer`` rebinds each traced public function wherever the package
looks it up: in the module that defines it, in every ``cvcluster``
module that imported it by name, and on the class for methods.  Each
call appends one span (name, start, end, parent) to an in-memory list;
nothing is written until the run ends.  Leaving the ``with`` block
restores every rebound name.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

# (defining module, attribute path); the metric prefix is the module's
# last component plus the attribute path, e.g. "gaussian.homodyne".
TARGETS = (
    ("cvcluster.serialize", "parse_config"),
    ("cvcluster.mbqc", "compile_program"),
    ("cvcluster.mbqc", "prepare_cluster_state"),
    ("cvcluster.mbqc", "run_schedule"),
    ("cvcluster.mbqc", "resolve_frame"),
    ("cvcluster.gaussian", "homodyne"),
    ("cvcluster.gaussian", "apply_affine"),
    ("cvcluster.gaussian", "fidelity"),
    ("cvcluster.symplectic", "symplectic_form"),
    ("cvcluster.symplectic", "SymplecticAffine.__post_init__"),
    ("cvcluster.symplectic", "SymplecticAffine.compose"),
    ("cvcluster.symplectic", "SymplecticAffine.embed"),
    ("cvcluster.symplectic", "SymplecticAffine.inverse"),
    ("cvcluster.experiment", "run_program"),
    ("cvcluster.experiment", "run_postselection_experiment"),
    ("cvcluster.experiment", "tomography_summary"),
    ("cvcluster.serialize", "write_jsonl"),
    ("cvcluster.serialize", "write_csv"),
    ("cvcluster.serialize", "write_wigner_grid"),
)

SPAN_NAMES = tuple(f"{module.rsplit('.', 1)[1]}.{attr}" for module, attr in TARGETS)


class Tracer:
    """Context manager that records spans and per-layer counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}  # kept alive so ids stay unique
        self.max_modes = 0
        self.bytes: dict[str, int] = defaultdict(int)
        self.accepted = 0
        self.attempted = 0
        self.prepared: tuple[object, object] | None = None  # first (compiled, register)

    def __enter__(self) -> "Tracer":
        packages = [
            module
            for name, module in sys.modules.items()
            if module is not None and (name == "cvcluster" or name.startswith("cvcluster."))
        ]
        for (module_name, attr), span_name in zip(TARGETS, SPAN_NAMES):
            owner = importlib.import_module(module_name)
            if "." in attr:
                class_name, attr = attr.split(".")
                owner = getattr(owner, class_name)
                original = owner.__dict__[attr]
                self._rebind(owner, attr, original, self._wrap(span_name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(span_name, original)
            for module in packages:
                if vars(module).get(attr) is original:
                    self._rebind(module, attr, original, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._rebound):
            setattr(owner, attr, original)
        self._rebound.clear()

    def _rebind(self, owner, attr, original, wrapper) -> None:
        self._rebound.append((owner, attr, original))
        self._wrappers[id(wrapper)] = wrapper
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, func):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = getattr(self, "_observe_" + name.rsplit(".", 1)[1], None)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # per-layer counters, gathered where the work happens
    def _observe_homodyne(self, args, result) -> None:
        self.max_modes = max(self.max_modes, args[0].n_modes)

    def _observe_write_jsonl(self, args, result) -> None:
        self.bytes["write_jsonl"] += os.path.getsize(args[0])

    def _observe_write_csv(self, args, result) -> None:
        self.bytes["write_csv"] += os.path.getsize(args[0])

    def _observe_run_postselection_experiment(self, args, result) -> None:
        self.accepted += result.accepted_trials
        self.attempted += result.trials

    def _observe_prepare_cluster_state(self, args, result) -> None:
        if self.prepared is None:
            self.prepared = (args[0], result)

    def restored(self) -> bool:
        """True when no wrapper is reachable from the package any more."""
        owners = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "cvcluster" or name.startswith("cvcluster."))
        ]
        owners.append(sys.modules["cvcluster.symplectic"].SymplecticAffine)
        return not any(
            id(value) in self._wrappers for owner in owners for value in vars(owner).values()
        )

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Calls and self time (span minus its children) per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {name: [0, 0.0] for name in SPAN_NAMES}
        for (name, start, end, _), children in zip(self.spans, child_time):
            entry = totals[name]
            entry[0] += 1
            entry[1] += end - start - children
        return {name: (calls, self_s) for name, (calls, self_s) in totals.items()}
