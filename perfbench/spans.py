"""Span recorder for the traced run.

Each public gtsim function that a layer exposes is wrapped where its caller
looks it up, so the program itself stays untouched. A span records its
duration, and the time its child spans cover, so a layer's self time is the
one minus the other. Spans are aggregated per name in memory: total, self
time, calls and, per call, the duration.
"""

from __future__ import annotations

import functools
import time

clock = time.perf_counter


class SpanStat:
    __slots__ = ("total", "self_time", "calls", "durations")

    def __init__(self):
        self.total = 0.0
        self.self_time = 0.0
        self.calls = 0
        self.durations = []


class Tracer:
    def __init__(self):
        self.stats: dict[str, SpanStat] = {}
        self._stack: list[list[float]] = []  # child time covered, per open span

    def stat(self, name: str) -> SpanStat:
        return self.stats.setdefault(name, SpanStat())

    def wrap(self, name: str, fn):
        stat = self.stat(name)
        stack = self._stack

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                stat.total += duration
                stat.self_time += duration - children[0]
                stat.calls += 1
                stat.durations.append(duration)
            return result

        return spanned

    def patch(self, owner, attr: str, name: str) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points where gtsim's callers find them."""
    from gtsim import algorithms, costs, datasets, harness, metrics, noise, theorycheck, topology

    # topology: harness and the ER tuner both resolve these as module globals
    tracer.patch(topology, "tune_er_probability", "topology.tune")
    tracer.patch(topology, "metropolis_hastings", "topology.mh")
    tracer.patch(topology, "spectral_gap", "topology.spectral_gap")

    tracer.patch(datasets, "load_libsvm", "datasets.parse")
    tracer.patch(datasets, "split_uniform", "datasets.split")
    tracer.patch(datasets, "to_logistic_ensemble", "datasets.densify")

    # costs: instances find methods on their class; LogisticEnsemble inherits
    # the per-agent grad_all loop from CostEnsemble, so it is patched there too
    for cls in (costs.QuadraticEnsemble, costs.LogisticEnsemble):
        for method in ("grad_global_all", "grad_all", "value_global"):
            tracer.patch(cls, method, f"costs.{method}")
    tracer.patch(costs.LogisticEnsemble, "grad_batch", "costs.grad_batch")

    # noise: algorithms imported prepare_sampler by name; the samplers it
    # returns are closures that look noise_block up in the noise module
    prepare = algorithms.prepare_sampler

    @functools.wraps(prepare)
    def prepare_traced(*args, **kwargs):
        return tracer.wrap("noise.sampler", prepare(*args, **kwargs))

    algorithms.prepare_sampler = prepare_traced
    tracer.patch(noise, "noise_block", "noise.noise_block")
    tracer.patch(theorycheck, "noise_samples", "noise.noise_samples")

    tracer.patch(algorithms, "run", "algorithms.run")

    tracer.patch(metrics, "empirical_mse", "metrics.aggregate")
    tracer.patch(metrics, "empirical_tail_probability", "metrics.aggregate")

    # harness bound render_line_chart into its own namespace at import
    tracer.patch(harness, "render_line_chart", "plotting.svg")

    for check, name in (("descent", "descent"), ("descent_pl", "descent_pl"),
                        ("consensus_bound", "consensus"), ("tracker_recursion", "tracker"),
                        ("noise_properties", "noise")):
        tracer.patch(theorycheck, f"check_{check}", f"theorycheck.{name}")
