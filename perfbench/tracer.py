"""Outside-in tracer for the pigat benchmark.

The tracer adds nothing to `src/`. While it is installed it replaces
public functions of pigat, looked up by module attribute, with wrappers
that record one span per call: (name, start, end, parent, step). A
function is wrapped where its caller looks it up, so `pigat.train.forward`
and `pigat.model.forward` are two probes on the same function: training
calls the first, `predict` calls the second. Spans stay in memory until
the benchmark writes them out; self time is derived from them afterwards.
Leaving the `with` block restores every original attribute.

A probe whose target no longer exists (a later change deleted or renamed
it) is recorded in `absent` and skipped; the metrics that depend on it are
reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Spans whose calls to the shared FFN kernels belong to the attention heads;
# any other caller (model.forward, model.backward) is the prediction MLP.
ATTENTION_CALLERS = ("model.attention_logits", "model.head_backward")


def _role(kernel: str) -> Callable[[str | None], str]:
    def name(parent: str | None) -> str:
        return f"{kernel}.{'att' if parent in ATTENTION_CALLERS else 'mlp'}"

    return name


def _count_events(args, result) -> dict[str, int]:
    return {"data.build_instances.events": len(args[1])}


def _count_window_slots(args, result) -> dict[str, int]:
    return {"graph.window_slots": int(result.user_mask.sum()) + int(result.item_mask.sum())}


def _count_entries(args, result) -> dict[str, int]:
    return {"graph.neighbor_events.entries": len(result)}


def _count_scatter_rows(args, result) -> dict[str, int]:
    return {"features.scatter_gradient.rows": int(np.asarray(args[1]).size)}


def _count_adam(args, result) -> dict[str, int]:
    params, grads = args[1], args[2]
    counts = {"nn.adam_step.elements": sum(int(p.size) for p in params.values())}
    for name in ("user_table", "item_table"):
        g = grads.get(name)
        if g is not None:
            counts["nn.adam.touched_rows"] = counts.get("nn.adam.touched_rows", 0) + int(
                np.count_nonzero(np.any(g != 0.0, axis=1))
            )
            counts["nn.adam.table_rows"] = counts.get("nn.adam.table_rows", 0) + g.shape[0]
    return counts


def _count_attention_flops(args, result) -> dict[str, int]:
    """Multiply-adds x 2 of the scoring kernel, from the array shapes alone."""
    head, query, keys = args[0], args[1], args[2]
    slots = int(np.prod(keys.shape[:-1]))  # batch x window
    batch = int(np.prod(query.shape[:-1]))
    if head.ffn is not None:
        flops = 2 * slots * sum(int(w.size) for w in head.ffn.weights)
    else:
        flops = 2 * slots * keys.shape[-1]
        if head.proj_w is not None:
            flops += 2 * batch * int(head.proj_w.size)
    return {"model.attention_logits.flops": flops}


@dataclass(frozen=True)
class Probe:
    """One wrapped callable: `module:Attr.path`, and the span it records."""

    target: str
    span: str | Callable[[str | None], str]
    count: Callable | None = None  # (call args, result) -> {counter: amount}
    opens_step: bool = False  # under train.train, a call starts a new train step
    closes_step: bool = False

    def span_name(self, parent: str | None) -> str:
        return self.span if isinstance(self.span, str) else self.span(parent)


PROBES = (
    Probe("pigat.data:encode_events", "data.encode_events"),
    Probe("pigat.data:build_instances", "data.build_instances", _count_events),
    Probe("pigat.data:encode_instance", "features.encode_instance", _count_window_slots),
    Probe("pigat.graph:InteractionGraph.neighbor_events", "graph.neighbor_events", _count_entries),
    Probe("pigat.features:Batch.from_instances", "features.batch_from_instances"),
    Probe("pigat.features:Batch.take", "features.batch_take", opens_step=True),
    Probe("pigat.model:lookup", "features.lookup"),
    Probe("pigat.model:scatter_gradient", "features.scatter_gradient", _count_scatter_rows),
    Probe("pigat.model:apply_confidence", "confidence.apply"),
    Probe("pigat.model:scatter_confidence_gradient", "confidence.scatter_gradient"),
    Probe("pigat.model:ffn_forward", _role("nn.ffn_forward")),
    Probe("pigat.model:ffn_backward", _role("nn.ffn_backward")),
    Probe("pigat.model:masked_softmax", "nn.masked_softmax"),
    Probe("pigat.train:adam_step", "nn.adam_step", _count_adam, closes_step=True),
    Probe("pigat.train:forward", "model.forward"),
    Probe("pigat.model:forward", "model.forward"),
    Probe("pigat.train:backward", "model.backward"),
    Probe("pigat.model:attention_logits", "model.attention_logits", _count_attention_flops),
    Probe("pigat.model:integrate_forward", "model.integrate_forward"),
    Probe("pigat.model:_head_backward", "model.head_backward"),
    Probe("pigat.train:predict", "train.val_pass"),
)

TRAIN_SPAN = "train.train"


class Tracer:
    """Records spans while installed; a context manager that restores pigat."""

    def __init__(self, probes=PROBES):
        self.probes = tuple(probes)
        self.spans: list[list] = []  # [name, start, end, parent index or -1, step or None]
        self.counts: Counter = Counter()
        # Seconds spent in count hooks, charged to no span: keyed by the
        # index of the span that was open when the hook ran.
        self.hidden: defaultdict = defaultdict(float)
        self.absent: list[str] = []
        self.step: int | None = None
        self._steps = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for probe in self.probes:
                self._install(probe)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _install(self, probe: Probe) -> None:
        module_name, _, path = probe.target.partition(":")
        *owner_path, attr = path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in owner_path:
                owner = getattr(owner, part)
        except (ImportError, AttributeError):
            self.absent.append(probe.target)
            return
        # A method must be defined on the named class itself: wrapping an
        # inherited one would shadow it there, not where it lives.
        raw = vars(owner).get(attr)
        if not callable(getattr(raw, "__func__", raw)):
            self.absent.append(probe.target)
            return
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(raw.__func__, probe))
        else:
            wrapped = self._wrap(raw, probe)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def _restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- recording ----------------------------------------------------

    def _open(self, name: str) -> tuple[int, list]:
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, self.step]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        return parent, record

    def _parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _wrap(self, fn, probe: Probe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent_name = tracer._parent_name()
            if probe.opens_step and parent_name == TRAIN_SPAN:
                tracer._steps += 1
                tracer.step = tracer._steps
            parent, record = tracer._open(probe.span_name(parent_name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                record[1], record[2] = start, end
            if probe.closes_step:
                tracer.step = None
            if probe.count is not None:
                tracer.counts.update(probe.count(args, result))
                tracer.hidden[parent] += time.perf_counter() - end
            return result

        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span around a call the benchmark makes itself."""
        _, record = self._open(name)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    # -- derived figures ----------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per span name: total seconds and self seconds."""
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[idx] - self.hidden.get(idx, 0.0)
        return total, own

    def step_seconds(self) -> list[float]:
        """Wall time of each train step: first span start to last span end."""
        bounds: dict[int, list[float]] = {}
        for _, start, end, _, step in self.spans:
            if step is not None:
                lo_hi = bounds.setdefault(step, [start, end])
                lo_hi[0] = min(lo_hi[0], start)
                lo_hi[1] = max(lo_hi[1], end)
        return [hi - lo for lo, hi in bounds.values()]

    def write(self, path: str) -> None:
        """Dump every span as one JSON line, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, step) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": idx, "name": name, "start": start - origin, "end": end - origin,
                         "parent": parent, "step": step},
                        separators=(",", ":"),
                    )
                    + "\n"
                )


# Per-layer metric -> (unit, probes it needs). Metrics whose probes are all
# installed are computed by layer_metrics(); the others are absent.
LAYER_METRICS: dict[str, tuple[str, tuple[str, ...]]] = {
    "data.build_instances.s": ("s", ("pigat.data:build_instances",)),
    "data.build_instances.us_per_event": ("us", ("pigat.data:build_instances",)),
    "data.encode_events.s": ("s", ("pigat.data:encode_events",)),
    "graph.neighbor_events.s": ("s", ("pigat.graph:InteractionGraph.neighbor_events",)),
    "graph.neighbor_events.entries": ("count", ("pigat.graph:InteractionGraph.neighbor_events",)),
    "graph.window_yield": (
        "1", ("pigat.graph:InteractionGraph.neighbor_events", "pigat.data:encode_instance")
    ),
    "features.encode_instance.s": ("s", ("pigat.data:encode_instance",)),
    "features.batch_from_instances.s": ("s", ("pigat.features:Batch.from_instances",)),
    "features.batch_take.s": ("s", ("pigat.features:Batch.take",)),
    "features.lookup.s": ("s", ("pigat.model:lookup",)),
    "features.scatter_gradient.s": ("s", ("pigat.model:scatter_gradient",)),
    "features.scatter_gradient.rows": ("count", ("pigat.model:scatter_gradient",)),
    "confidence.apply.s": ("s", ("pigat.model:apply_confidence",)),
    "confidence.scatter_gradient.s": ("s", ("pigat.model:scatter_confidence_gradient",)),
    # The attention share is a fraction, not a time: it reads 0 on every
    # run of a workload whose heads have no FFN.
    "nn.ffn_forward.s": ("s", ("pigat.model:ffn_forward",)),
    "nn.ffn_forward.att_frac": ("1", ("pigat.model:ffn_forward", "pigat.model:attention_logits")),
    "nn.ffn_backward.s": ("s", ("pigat.model:ffn_backward",)),
    "nn.ffn_backward.att_frac": ("1", ("pigat.model:ffn_backward", "pigat.model:_head_backward")),
    "nn.masked_softmax.s": ("s", ("pigat.model:masked_softmax",)),
    "nn.adam_step.s": ("s", ("pigat.train:adam_step",)),
    "nn.adam_step.elements": ("count", ("pigat.train:adam_step",)),
    "nn.adam.touched_row_frac": ("1", ("pigat.train:adam_step",)),
    "model.forward.s": ("s", ("pigat.train:forward", "pigat.model:forward")),
    "model.forward.self_s": ("s", ("pigat.train:forward", "pigat.model:forward")),
    "model.backward.s": ("s", ("pigat.train:backward",)),
    "model.backward.self_s": ("s", ("pigat.train:backward",)),
    "model.attention_logits.s": ("s", ("pigat.model:attention_logits",)),
    "model.attention_logits.flops": ("count", ("pigat.model:attention_logits",)),
    "model.integrate_forward.s": ("s", ("pigat.model:integrate_forward",)),
    "train.step.s": ("s", ("pigat.features:Batch.take", "pigat.train:adam_step")),
    "train.val_pass.s": ("s", ("pigat.train:predict",)),
    "train.self_s": ("s", ()),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float | None]:
    """Every LAYER_METRICS entry from one traced pass; None marks absent."""
    total, own = tracer.totals()
    counts = tracer.counts
    steps = tracer.step_seconds()
    values = {
        "data.build_instances.s": total["data.build_instances"],
        "data.build_instances.us_per_event": 1e6
        * _ratio(total["data.build_instances"], counts["data.build_instances.events"]),
        "data.encode_events.s": total["data.encode_events"],
        "graph.neighbor_events.s": total["graph.neighbor_events"],
        "graph.neighbor_events.entries": counts["graph.neighbor_events.entries"],
        "graph.window_yield": _ratio(
            counts["graph.window_slots"], counts["graph.neighbor_events.entries"]
        ),
        "features.encode_instance.s": total["features.encode_instance"],
        "features.batch_from_instances.s": total["features.batch_from_instances"],
        "features.batch_take.s": total["features.batch_take"],
        "features.lookup.s": total["features.lookup"],
        "features.scatter_gradient.s": total["features.scatter_gradient"],
        "features.scatter_gradient.rows": counts["features.scatter_gradient.rows"],
        "confidence.apply.s": total["confidence.apply"],
        "confidence.scatter_gradient.s": total["confidence.scatter_gradient"],
        "nn.ffn_forward.s": total["nn.ffn_forward.att"] + total["nn.ffn_forward.mlp"],
        "nn.ffn_forward.att_frac": _ratio(
            total["nn.ffn_forward.att"], total["nn.ffn_forward.att"] + total["nn.ffn_forward.mlp"]
        ),
        "nn.ffn_backward.s": total["nn.ffn_backward.att"] + total["nn.ffn_backward.mlp"],
        "nn.ffn_backward.att_frac": _ratio(
            total["nn.ffn_backward.att"], total["nn.ffn_backward.att"] + total["nn.ffn_backward.mlp"]
        ),
        "nn.masked_softmax.s": total["nn.masked_softmax"],
        "nn.adam_step.s": total["nn.adam_step"],
        "nn.adam_step.elements": counts["nn.adam_step.elements"],
        "nn.adam.touched_row_frac": _ratio(
            counts["nn.adam.touched_rows"], counts["nn.adam.table_rows"]
        ),
        "model.forward.s": total["model.forward"],
        "model.forward.self_s": own["model.forward"],
        "model.backward.s": total["model.backward"],
        "model.backward.self_s": own["model.backward"],
        "model.attention_logits.s": total["model.attention_logits"],
        "model.attention_logits.flops": counts["model.attention_logits.flops"],
        "model.integrate_forward.s": total["model.integrate_forward"],
        "train.step.s": statistics.median(steps) if steps else 0.0,
        "train.val_pass.s": total["train.val_pass"],
        "train.self_s": own[TRAIN_SPAN],
    }
    absent = set(tracer.absent)
    return {
        name: None if absent.intersection(needs) else values[name]
        for name, (_, needs) in LAYER_METRICS.items()
    }
