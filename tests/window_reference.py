"""The per-event window builder, kept as the reference for data.build_instances.

Every event goes into an InteractionGraph in log order, and encode_instance
reads its two windows back from the graph's history; Batch.from_instances
stacks the results. It takes build_instances' arguments and must return
the same Batch, array for array.
"""

import math

from pigat.data import timeline_split
from pigat.errors import DataError
from pigat.features import Batch, encode_instance, window_pads
from pigat.graph import ITEM, USER, InteractionEvent, InteractionGraph


def events_of(timestamps, ids, labels) -> list[InteractionEvent]:
    rows = zip(timestamps, ids[USER].tolist(), ids[ITEM].tolist(), labels)
    return [InteractionEvent(tuple(u), tuple(i), t, int(label)) for t, u, i, label in rows]


def rebuild_graph(schema, events, positives_only=False) -> InteractionGraph:
    graph = InteractionGraph(schema.node_count(USER), schema.node_count(ITEM), positives_only)
    for event in events:
        graph.insert(event)
    return graph


def reference_batch(schema, timestamps, ids, labels, mode, k, positives_only=False) -> Batch:
    """dynamic: encode each event against the graph, then insert it. static: the train-period graph serves all."""
    events = events_of(timestamps, ids, labels)
    pads = window_pads(schema, k)
    if mode == "dynamic":
        graph = InteractionGraph(schema.node_count(USER), schema.node_count(ITEM), positives_only)
        instances = []
        for event in events:
            instances.append(encode_instance(schema, event, graph, event.timestamp, k, pads))
            graph.insert(event)
        return Batch.from_instances(instances)
    if mode != "static":
        raise DataError(f"graph mode must be dynamic or static, got {mode!r}")
    frozen = rebuild_graph(schema, events[: timeline_split(len(events))[0]], positives_only)
    return Batch.from_instances([encode_instance(schema, ev, frozen, math.inf, k, pads) for ev in events])
