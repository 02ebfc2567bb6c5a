"""In-memory spans around the program's public calls.

A span records name, start, end, parent span id and the benchmark
operation it belongs to.  `Tracer.install()` swaps each traced name for
a wrapper at the place the program looks it up (for example
`smaspl.training.solve_power_flow`, `smaspl.cli.solve_power_flow` or
`GaussianPolicy.fisher`) and `uninstall()` puts the originals back, so
untraced runs execute the program unchanged.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from dataclasses import dataclass, field

# (module, attribute path, span name).  A span name may be wrapped at
# several lookup sites; the layer metrics aggregate by span name.
TRACED = (
    ("smaspl.scenario", "load_scenario", "scenario.load_scenario"),
    ("smaspl.cli", "dispatch_cost", "cli.dispatch_cost"),
    ("smaspl.training", "train_episode", "training.train_episode"),
    ("smaspl.training", "select_actions_online",
     "training.select_actions_online"),
    ("smaspl.training", "project_local", "training.project_local"),
    ("smaspl.training", "solve_power_flow", "grid.solve_power_flow"),
    ("smaspl.cli", "solve_power_flow", "grid.solve_power_flow"),
    ("smaspl.training", "compute_step_sensitivities",
     "gradients.compute_step_sensitivities"),
    ("smaspl.training", "reward_action_gradients",
     "gradients.reward_action_gradients"),
    ("smaspl.training", "constraint_action_gradients",
     "gradients.constraint_action_gradients"),
    ("smaspl.training", "chain_sample_to_parameters",
     "gradients.chain_sample_to_parameters"),
    ("smaspl.policy", "GaussianPolicy.evaluate", "policy.evaluate"),
    ("smaspl.policy", "GaussianPolicy.fisher", "policy.fisher"),
    ("smaspl.policy", "GaussianPolicy.sample_actions",
     "policy.sample_actions"),
    ("smaspl.training", "actions_to_injections",
     "microgrid.actions_to_injections"),
    ("smaspl.cli", "actions_to_injections",
     "microgrid.actions_to_injections"),
    ("smaspl.training", "reward_return", "microgrid.reward_return"),
    ("smaspl.cli", "reward_return", "microgrid.reward_return"),
    ("smaspl.training", "constraint_returns", "microgrid.constraint_returns"),
    ("smaspl.training", "forecast_with_error", "scenario.forecast_with_error"),
)


@dataclass
class Span:
    id: int
    parent: int | None
    op: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; one stack of open spans per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            span = Span(len(self.spans), stack[-1].id if stack else None,
                        self.op, name, time.perf_counter())
            self.spans.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                out = fn(*args, **kwargs)
            if name == "grid.solve_power_flow":
                span.attrs["iterations"] = out.iterations
                span.attrs["converged"] = bool(out.converged)
            return out
        return traced

    def install(self, traced=TRACED) -> None:
        for module, path, name in traced:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def to_json(self) -> list[dict]:
        return [{"id": s.id, "parent": s.parent, "op": s.op, "name": s.name,
                 "start": s.start, "end": s.end, **s.attrs}
                for s in self.spans]


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - _covered(children.get(s.id, ()), s.start, s.end)
            for s in spans}
