"""Stream-shaped processing with incremental per-partition state.

Ray Data has no event-time windows; for batch-expressible windows the
bucket-run ``groupby.map_groups`` pattern wins (opzoo/queries
q07/q08/q20).  This module covers the remaining case from SURVEY.md
§2.9: state that must persist ACROSS arrival chunks in event-time
order, with bounded memory.

Topology (round 2 — no driver loop, no global sort):

1. every event gets a user-hash ``bucket`` (map_batches, no driver);
2. one ``groupby(bucket)`` shuffle hash-partitions the stream —
   O(n_buckets) Ray groups, each holding ALL events of its users;
3. the per-partition kernel time-sorts ITS partition only (per-user
   order is the only order sessionization needs — a global ``sort("ts")``
   is an avoidable total exchange) and replays it through an
   incremental :class:`SessionState` in bounded chunks, exactly as a
   long-lived per-partition actor would consume an unbounded source.

On a real cluster with a true streaming source, step 3 is a pool of
node-local actors, one per hash partition, each consuming its
partition's arrival stream (Ray actor tasks from one submitter execute
in submission order, preserving per-partition event order).  The batch
kernel here runs the identical state machine, so results are
bit-identical to the batch sessionizer (oracle-checked against the
same SQL as q07).
"""

from __future__ import annotations

import numpy as np
import pandas as pd


class SessionState:
    """Incremental sessionizer state: user -> (last_ts, sessions, events).

    ``ingest`` is order-dependent (event-time arrival) and bounded:
    O(distinct users in this partition) memory, independent of stream
    length.
    """

    def __init__(self, gap_us: int):
        self.gap_us = gap_us
        self.last_ts: dict[int, int] = {}
        self.n_sessions: dict[int, int] = {}
        self.n_events: dict[int, int] = {}

    def ingest(self, users: np.ndarray, ts_us: np.ndarray) -> int:
        for u, t in zip(users.tolist(), ts_us.tolist()):
            prev = self.last_ts.get(u)
            if prev is None:
                self.n_sessions[u] = 1
                self.n_events[u] = 1
            else:
                if t - prev > self.gap_us:
                    self.n_sessions[u] += 1
                self.n_events[u] += 1
            self.last_ts[u] = t
        return len(users)

    def finish(self) -> pd.DataFrame:
        users = sorted(self.n_events)
        return pd.DataFrame(
            {
                "user_id": users,
                "n_sessions": [self.n_sessions[u] for u in users],
                "n_events": [self.n_events[u] for u in users],
            }
        )


def streaming_sessionize(
    events_ds, n_buckets: int = 16, gap_s: int = 1800, chunk_rows: int = 65536
):
    """events (user_id, ts) -> per-user session counts via hash-partitioned
    incremental state (see module docstring for the topology).

    Returns a Dataset of (user_id, n_sessions, n_events).
    """
    gap_us = gap_s * 1_000_000

    def bucketize(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.assign(
            bucket=(batch["user_id"].to_numpy().astype(np.int64) % n_buckets).astype(
                np.int32
            )
        )

    def replay_partition(group: pd.DataFrame) -> pd.DataFrame:
        # per-partition event-time order; mergesort keeps equal-ts input
        # order stable so the replay is deterministic
        group = group.sort_values("ts", kind="mergesort")
        users = group["user_id"].to_numpy().astype(np.int64)
        ts_us = group["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        state = SessionState(gap_us)
        for lo in range(0, len(users), chunk_rows):  # bounded arrival chunks
            state.ingest(users[lo : lo + chunk_rows], ts_us[lo : lo + chunk_rows])
        return state.finish()

    return (
        events_ds.map_batches(bucketize, batch_format="pandas", batch_size=65536)
        .groupby("bucket")
        .map_groups(replay_partition, batch_format="pandas")
    )
