"""Span recorder for the traced benchmark run.

Spans are recorded from outside the package: `patched(tracer)` replaces the
public functions of each dsgd_lab module with timing wrappers, under the
name the caller looks them up by (``cli.generate_logistic_problem`` as well
as ``objectives.generate_logistic_problem``, ``dynamics.rr_run`` because
``dynamics.run`` calls it through the module globals).  Spans and counters
stay in memory; `layer_metrics` turns them into the per-layer metrics when
the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    cpu_s: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans (name, start, end, parent, thread CPU) and counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, 0.0, 0.0, parent, 0.0))
        stack.append(idx)
        cpu0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            cpu1 = time.thread_time()
            stack.pop()
            span = self.spans[idx]
            span.start, span.end, span.cpu_s = t0, t1, cpu1 - cpu0

    def wrap(self, name: str, func, on_call=None, on_result=None,
             on_error=None):
        """Time every call of func as a span; hooks see the bound arguments."""
        sig = inspect.signature(func)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            bound = None
            if on_call is not None or on_result is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
            if on_call is not None:
                on_call(self, bound.arguments)
            self.count(f"{name}.calls")
            with self.span(name):
                try:
                    result = func(*args, **kwargs)
                except Exception:
                    self.count(f"{name}.errors")
                    if on_error is not None:
                        on_error(self)
                    raise
            if on_result is not None:
                on_result(self, bound.arguments, result)
            return result

        return wrapper


# ---------------------------------------------------------------------------
# counters recorded at the wrapped boundaries


def _noise_width(noise, obj) -> int:
    from dsgd_lab.noise import AdditiveGaussian, Minibatch

    if isinstance(noise, AdditiveGaussian):
        return obj.m * obj.d
    if isinstance(noise, Minibatch):
        return obj.m * obj.n
    return 0


def _count_run(rr: bool):
    """Replicate steps and consumed noise words of a run / rr_run call."""

    def on_call(tracer, a):
        cfg = a["config"]
        is_rr = cfg.algorithm in ("rr_dgd", "rr_dsgd")
        if is_rr != rr:
            return  # run() delegating to rr_run(): counted there
        chains = 2 if rr else 1
        tracer.count("dynamics.replicate_steps", cfg.replicates * chains * cfg.T)
        stochastic = cfg.algorithm in ("dsgd", "rr_dsgd") and a["noise"] is not None
        if stochastic:
            streams = cfg.replicates
            if rr and cfg.coupling == "independent":
                streams *= 2
            tracer.count("noise.words_used",
                         streams * cfg.T * _noise_width(a["noise"], a["obj"]))

    return on_call


def _count_block(name: str):
    def on_call(tracer, a):
        tracer.count(f"{name}.words", a["self"].block_size * a["width"])

    return on_call


def _count_tau(tracer, a):
    tracer.count("noise.words_used",
                 a["n_draws"] * _noise_width(a["model"], a["obj"]))


def _count_iterations(tracer, a, result):
    tracer.count("dynamics.fixed_point.iterations", result.iterations)


def _targets():
    """(owner, attribute, span name, hooks) for every wrapped public call."""
    from dsgd_lab import cli, dynamics, matops, noise, objectives, stats
    from dsgd_lab import theory, topology

    fixed_point = dict(on_result=_count_iterations)
    out = [
        (cli, "main", "cli.main", {}),
        (dynamics, "run", "dynamics.run", dict(on_call=_count_run(False))),
        (dynamics, "rr_run", "dynamics.rr_run", dict(on_call=_count_run(True))),
        (dynamics, "fixed_point", "dynamics.fixed_point", fixed_point),
        (stats, "fixed_point", "dynamics.fixed_point", fixed_point),
        (stats, "run", "dynamics.run", dict(on_call=_count_run(False))),
        (noise.NoiseStream, "raw_block", "noise.raw_block",
         dict(on_call=_count_block("noise.raw_block"))),
        (noise.NoiseStream, "normals_block", "noise.normals_block",
         dict(on_call=_count_block("noise.normals_block"))),
        (noise, "estimate_tau", "noise.estimate_tau", dict(on_call=_count_tau)),
        (theory, "estimate_tau", "noise.estimate_tau", dict(on_call=_count_tau)),
        (theory, "theory_report", "theory.theory_report", {}),
        (theory, "det_bias_expansion", "theory.det_bias_expansion", {}),
        (theory, "sylvester_solve", "matops.sylvester_solve", {}),
        (stats, "stationary_moments", "stats.stationary_moments", {}),
        (cli, "generate_logistic_problem", "objectives.generate_logistic_problem", {}),
        (objectives, "generate_logistic_problem",
         "objectives.generate_logistic_problem", {}),
        (cli, "QuadraticObjectives", "objectives.QuadraticObjectives", {}),
        (objectives.ObjectiveSet, "solve_global_optimum",
         "objectives.solve_global_optimum", {}),
    ]
    for fn in ("sym_eig", "pinv_sym", "sylvester_solve",
               "projected_pinv_expansion", "inverse_perturbation_bound"):
        out.append((matops, fn, f"matops.{fn}", {}))
    for fn in ("build_fully_connected", "build_ring", "build_clusters",
               "from_laplacian"):
        out.append((topology, fn, f"topology.{fn}", {}))
    return out


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install the wrappers for the duration of the block.

    A name the package no longer has is skipped; its metrics then read 0.
    """
    saved = []
    try:
        for owner, attr, name, hooks in _targets():
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, **hooks))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        kids = [(max(k.start, span.start), min(k.end, span.end))
                for k in children.get(i, ())]
        out.append(span.duration - _covered([iv for iv in kids if iv[1] > iv[0]]))
    return out


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced operation, in seconds and counts."""
    spans = tracer.spans
    selfs = self_times(spans)
    counts = tracer.counts

    def top(pred):
        # spans matching pred whose parent does not match it: summing their
        # durations counts nested calls of the same layer once
        return [s for s in spans
                if pred(s.name)
                and (s.parent is None or not pred(spans[s.parent].name))]

    def total(pred) -> float:
        return sum(s.duration for s in top(pred))

    def self_sum(pred) -> float:
        return sum(t for s, t in zip(spans, selfs) if pred(s.name))

    is_run = lambda n: n in ("dynamics.run", "dynamics.rr_run")  # noqa: E731
    runs = top(is_run)
    run_s = sum(s.duration for s in runs)
    steps = counts.get("dynamics.replicate_steps", 0)
    words = (counts.get("noise.raw_block.words", 0)
             + counts.get("noise.normals_block.words", 0))
    return {
        "dynamics.run.self_s": self_sum(is_run),
        "dynamics.run.wait_s": sum(s.duration - s.cpu_s for s in runs),
        "dynamics.replicate_steps": steps,
        "dynamics.ns_per_replicate_step": run_s / steps * 1e9 if steps else 0.0,
        "dynamics.fixed_point.calls": counts.get("dynamics.fixed_point.calls", 0),
        "dynamics.fixed_point.s": total(lambda n: n == "dynamics.fixed_point"),
        "dynamics.fixed_point.iterations":
            counts.get("dynamics.fixed_point.iterations", 0),
        "dynamics.fixed_point.errors": counts.get("dynamics.fixed_point.errors", 0),
        "noise.raw_block.calls": counts.get("noise.raw_block.calls", 0),
        "noise.raw_block.s": total(lambda n: n == "noise.raw_block"),
        "noise.normals_block.calls": counts.get("noise.normals_block.calls", 0),
        "noise.normals_block.s": total(lambda n: n == "noise.normals_block"),
        "noise.words_generated": words,
        "noise.words_used_frac":
            counts.get("noise.words_used", 0) / words if words else 0.0,
        "noise.estimate_tau.calls": counts.get("noise.estimate_tau.calls", 0),
        "noise.estimate_tau.s": total(lambda n: n == "noise.estimate_tau"),
        "theory.theory_report.self_s":
            self_sum(lambda n: n == "theory.theory_report"),
        "theory.det_bias_expansion.s":
            total(lambda n: n == "theory.det_bias_expansion"),
        "matops.s": total(lambda n: _layer(n) == "matops"),
        "stats.stationary_moments.s":
            total(lambda n: n == "stats.stationary_moments"),
        "topology.build_s": total(lambda n: _layer(n) == "topology"),
        "objectives.build_s": total(lambda n: _layer(n) == "objectives"),
        "cli.self_s": self_sum(lambda n: n == "cli.main"),
    }
