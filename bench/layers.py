"""In-process tracing of fmesim at module boundaries.

A Tracer wraps module functions and class methods of an imported fmesim
package, records one span per call (name, start, end, parent span) and a few
counts at the same boundaries, and restores the originals on uninstall.
Spans stay in memory; layer_metrics() reduces them to the per-layer metrics
of the benchmark.  Leaf functions called once per Monte Carlo run are
aggregated instead: their calls and seconds are summed per name and
charged to the enclosing span, which keeps the trace small.  A layer is
the module part of a span name, so the span "linalg.expm" belongs to the
layer "linalg".
"""

from __future__ import annotations

import functools
import pickle
import sys
import time
from collections import defaultdict

PACKAGE = "fmesim"
LAYERS = (
    "rng", "protocol", "write_dynamics", "hilbert", "linalg",
    "herald", "retrieval", "config", "cli",
)

# Spans opened by the tracer itself (pickling for protocol.result_bytes).
# They are children of the span that was running, so they leave its self
# time unchanged, and they belong to no program layer.
MEASURE_SPAN = "bench.measure"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.leaf_totals: dict[str, list] = defaultdict(lambda: [0, 0.0])  # calls, seconds
        self.leaf_child_s: dict[int, float] = defaultdict(float)  # span index -> seconds
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> list:
        record = [name, 0.0, 0.0, self._stack[-1]]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        record = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(record)

    def _wrap_leaf(self, name: str, fn):
        totals = self.leaf_totals[name]
        charged, stack, clock = self.leaf_child_s, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = clock() - start
                totals[0] += 1
                totals[1] += seconds
                charged[stack[-1]] += seconds

        return traced

    def _wrap(self, name: str, fn, leaf: bool = False):
        if leaf:
            return self._wrap_leaf(name, fn)
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self, functions, methods, leaves=()) -> None:
        """Wrap [module, attr] functions and [module, class, attr] methods.

        Every module of the package that binds the same function object
        (for example through `from .rng import trial_uniform_grid`) gets
        the wrapper, so the call is traced where it is made.  Span names in
        leaves are aggregated; they must not call another traced function.
        """
        modules = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        for mod_name, attr in functions:
            mod = modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(mod, attr, None) if mod is not None else None
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            name = f"{mod_name}.{attr}"
            wrapped = self._wrap(name, original, name in leaves)
            for other in modules.values():
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, key, wrapped)
        for mod_name, cls_name, attr in methods:
            mod = modules.get(f"{PACKAGE}.{mod_name}")
            cls = getattr(mod, cls_name, None) if mod is not None else None
            original = cls.__dict__.get(attr) if cls is not None else None
            if original is None:
                self.missing.append(f"{mod_name}.{cls_name}.{attr}")
                continue
            span = f"{mod_name}.{cls_name}" if attr == "__init__" else f"{mod_name}.{attr}"
            self._patch(cls, attr, self._wrap(span, original, span in leaves))

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()


# -- counts taken at boundaries ------------------------------------------------


def _count_blocks(tracer: Tracer, args, result) -> None:
    # One Philox block per (run, trial) cell; the result holds two uniforms per block.
    tracer.counts["rng.blocks"] += result.size // 2


def _count_branches(tracer: Tracer, args, result) -> None:
    tracer.counts["herald.branches"] += len(result)


def _count_expm_dim(tracer: Tracer, args, result) -> None:
    dim = result.shape[0]
    tracer.counts["linalg.expm_max_dim"] = max(tracer.counts["linalg.expm_max_dim"], dim)


def _count_result_bytes(tracer: Tracer, args, result) -> None:
    size = tracer.call(MEASURE_SPAN, lambda: len(pickle.dumps(result, pickle.HIGHEST_PROTOCOL)))
    tracer.counts["protocol.result_bytes"] += size


_HOOKS = {
    "rng.trial_uniform_grid": _count_blocks,
    "herald.click_branches": _count_branches,
    "linalg.expm": _count_expm_dim,
    "protocol.run_protocol": _count_result_bytes,
}


# -- reduction -------------------------------------------------------------------


def span_totals(tracer: Tracer) -> tuple[dict, dict, dict]:
    """Per span name: total duration, total self time, and call count."""
    spans = tracer.spans
    child = [tracer.leaf_child_s.get(i, 0.0) for i in range(len(spans))]
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    duration: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i, (name, start, end, parent) in enumerate(spans):
        duration[name] += end - start
        self_time[name] += end - start - child[i]
        calls[name] += 1
    for name, (count, seconds) in tracer.leaf_totals.items():
        duration[name] += seconds
        self_time[name] += seconds
        calls[name] += count
    return duration, self_time, calls


def layer_metrics(tracer: Tracer, trials_used: int, output_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    duration, self_time, calls = span_totals(tracer)
    layer_self: dict[str, float] = defaultdict(float)
    for name, value in self_time.items():
        layer_self[name.split(".", 1)[0]] += value
    counts = tracer.counts
    blocks = counts["rng.blocks"]
    philox_s = duration["rng.trial_uniform_grid"]
    metrics = {
        "rng.philox_s": philox_s,
        "rng.blocks": blocks,
        "rng.blocks_per_s": blocks / philox_s if philox_s > 0 else 0.0,
        "protocol.trials_used": trials_used,
        "protocol.trial_yield": trials_used / blocks if blocks else 0.0,
        "protocol.record_for_calls": calls["protocol.record_for"],
        "protocol.record_for_s": duration["protocol.record_for"],
        "protocol.run_protocol_s": duration["protocol.run_protocol"],
        "protocol.batch_self_s": self_time["protocol._run_batch"],
        "protocol.result_bytes": counts["protocol.result_bytes"],
        "protocol.aggregate_s": duration["protocol.aggregate"],
        "protocol.engine_s": duration["protocol.ProtocolEngine"],
        "write_dynamics.perturbative_s": duration["write_dynamics.perturbative_state"],
        "write_dynamics.hamiltonian_s": duration["write_dynamics.build_effective_hamiltonian"],
        "hilbert.operator_matrix_s": duration["hilbert.operator_matrix"],
        "linalg.expm_s": duration["linalg.expm"],
        "linalg.expm_max_dim": counts["linalg.expm_max_dim"],
        "herald.click_branches_s": duration["herald.click_branches"],
        "herald.branches": counts["herald.branches"],
        "retrieval.retrieve_s": duration["retrieval.retrieve_fme"],
        "retrieval.metric_s": duration["retrieval.concurrence"] + duration["retrieval.fidelity_to_bell"],
        "retrieval.metric_calls": calls["retrieval.concurrence"] + calls["retrieval.fidelity_to_bell"],
        "config.load_s": (
            duration["config.load_config"] + duration["config.with_overrides"]
            + duration["config.build_setup"]
        ),
        "cli.output_bytes": output_bytes,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    return metrics
