"""Append-only bipartite interaction graph with one query: history before t.

Every inserted interaction joins the history of its user and of its
item; a positives-only graph records only positive-label interactions,
so its histories hold exactly what a positives-only window may show.
neighbor_events returns a node's last recorded interactions with
timestamp strictly below a cutoff, so a window built for an interaction
at time t sees exactly the strictly-earlier history: never an
interaction tied at t, never one inserted later.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .errors import DataError, DomainError
from .features import ITEM, USER


@dataclass(frozen=True)
class InteractionEvent:
    """One user-item interaction.

    user_ids / item_ids hold the embedding-table ids of the two profiles
    as they were at interaction time. The identity field's block starts
    each table and its out-of-vocabulary id is its cardinality, so
    user_ids[0] and item_ids[0] are also the graph's node numbers.
    """

    user_ids: tuple[int, ...]
    item_ids: tuple[int, ...]
    timestamp: int
    label: int


class InteractionGraph:
    """Per-node interaction histories in insertion order."""

    def __init__(
        self, num_users: int | None = None, num_items: int | None = None, positives_only: bool = False
    ):
        # part -> node index -> (timestamps, events). Timestamps are
        # non-decreasing, which is what lets a query bisect its cutoff.
        self._logs: dict[str, dict[int, tuple[list[int], list[InteractionEvent]]]] = {
            USER: {},
            ITEM: {},
        }
        self._bounds = {USER: num_users, ITEM: num_items}
        self._last_ts: int | None = None
        self._positives_only = positives_only

    def insert(self, event: InteractionEvent) -> None:
        """Append an interaction to the histories of its user and its item.

        Inserts must arrive with non-decreasing timestamps; ties keep
        their arrival order. Unknown nodes come into existence here. A
        positives-only graph checks a negative interaction like any other,
        then leaves it out of both histories.
        """
        if self._last_ts is not None and event.timestamp < self._last_ts:
            raise DataError(
                f"out-of-order insert: timestamp {event.timestamp} after {self._last_ts}; "
                "sort interactions before building the graph"
            )
        nodes = ((USER, event.user_ids[0]), (ITEM, event.item_ids[0]))
        for part, index in nodes:
            bound = self._bounds[part]
            if index < 0 or (bound is not None and index >= bound):
                raise DataError(f"{part} index {index} outside frozen vocabulary of size {bound}")
        self._last_ts = event.timestamp
        if self._positives_only and event.label <= 0:
            return
        for part, index in nodes:
            timestamps, events = self._logs[part].setdefault(index, ([], []))
            timestamps.append(event.timestamp)
            events.append(event)

    def neighbor_events(
        self, part: str, index: int, max_len: int | None = None, before: float = math.inf
    ) -> list[InteractionEvent]:
        """The node's last max_len interactions with timestamp < before, oldest first.

        Unknown nodes yield the empty list: a cold start is routine, not
        an error.
        """
        if max_len is not None and max_len < 0:
            raise DomainError(f"max_len must be non-negative, got {max_len}")
        log = self._logs[part].get(index)
        if log is None:
            return []
        timestamps, events = log
        end = bisect.bisect_left(timestamps, before)
        start = 0 if max_len is None else max(0, end - max_len)
        return events[start:end]
