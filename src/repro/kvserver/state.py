"""Sans-IO broker state: the topic log and the consumer-group state machine.

Both event transports run the same two state machines: the SimKV server
(:mod:`repro.kvserver.server`) behind its event loop, and the in-process
transport (:class:`~repro.stream.bus.LocalEventBus`, the local
:class:`~repro.stream.groups.GroupCoordinator` backend) behind a lock.
This module holds the one copy of each.  It does no I/O and takes no
locks: callers serialize access, and every time-dependent method takes
the current time as ``now`` (any monotonic clock), so the rules are
testable without sockets, threads or sleeps.
"""
from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Any

from repro.exceptions import GroupMembershipError

__all__ = ['DEFAULT_SESSION_TIMEOUT', 'GroupState', 'TopicLog']

#: Default seconds without a heartbeat before a group member is expired.
DEFAULT_SESSION_TIMEOUT = 10.0


class TopicLog:
    """One topic's retention ring: seq-numbered payloads, oldest first.

    ``append`` numbers events from ``next_seq``; the ring keeps the last
    ``retention`` of them and counts the rest in ``dropped_events``.
    """

    __slots__ = ('next_seq', 'ring', 'ring_bytes', 'retention', 'dropped_events')

    def __init__(self, retention: int) -> None:
        #: Sequence number the next published event will receive.
        self.next_seq = 0
        #: Retained ``(seq, payload)`` pairs in increasing seq order.
        self.ring: deque[tuple[int, Any]] = deque()
        self.ring_bytes = 0
        self.retention = retention
        #: Events that aged out of the ring.
        self.dropped_events = 0

    def _trim(self) -> None:
        ring = self.ring
        while len(ring) > self.retention:
            _, old = ring.popleft()
            self.ring_bytes -= len(old)
            self.dropped_events += 1

    def append(self, payload: Any) -> int:
        """Retain one event payload; returns its sequence number."""
        seq = self.next_seq
        self.append_at(seq, payload)
        return seq

    def append_at(self, seq: int, payload: Any) -> bool:
        """Retain a *replicated* event at an explicit sequence number.

        Mirrors a primary broker's ring onto a replica with identical
        numbering.  Idempotent and tolerant of reordering: duplicates and
        events older than the ring's trim point are dropped (returns
        ``False``), out-of-order arrivals are inserted in sequence order,
        and ``next_seq`` only moves forward — so a replica promoted to
        primary continues the primary's numbering.
        """
        ring = self.ring
        if not ring:
            if seq < self.next_seq:
                return False  # aged out of an empty ring
            ring.append((seq, payload))
        elif seq < ring[0][0]:
            self.next_seq = max(self.next_seq, seq + 1)
            return False
        elif seq <= ring[-1][0]:
            # Out-of-order arrival: scan from the right (arrivals are
            # nearly ordered) for the insert point; drop duplicates.
            index = len(ring)
            while index > 0 and ring[index - 1][0] > seq:
                index -= 1
            if index > 0 and ring[index - 1][0] == seq:
                return False
            ring.insert(index, (seq, payload))
        else:
            ring.append((seq, payload))
        self.ring_bytes += len(payload)
        self.next_seq = max(self.next_seq, seq + 1)
        self._trim()
        return True

    def set_retention(self, retention: int) -> None:
        """Bound the ring to ``retention`` events, trimming immediately."""
        if retention < 1:
            raise ValueError('retention must be at least 1')
        self.retention = retention
        self._trim()

    def events_since(self, since: int, limit: int | None = None) -> tuple[list, int]:
        """Retained ``(seq, payload)`` pairs with ``seq >= since``, oldest first.

        Returns ``(events, lost)``: at most ``limit`` events (all when
        ``None``), and how many events from ``since`` on aged out of the
        ring before they could be read.
        """
        ring = self.ring
        first = ring[0][0] if ring else self.next_seq
        # Seqs strictly increase, so index ``since - first`` already holds
        # a seq >= since; step back over replication gaps to the first one.
        start = min(max(since - first, 0), len(ring))
        while start and ring[start - 1][0] >= since:
            start -= 1
        stop = None if limit is None else start + limit
        return list(islice(ring, start, stop)), max(first - since, 0)

    def stats(self) -> dict[str, Any]:
        """Ring statistics (the ``TSTATS`` keys both transports report)."""
        return {
            'next_seq': self.next_seq,
            'ring_events': len(self.ring),
            'ring_bytes': self.ring_bytes,
            'retention': self.retention,
            'dropped_events': self.dropped_events,
        }


def _merge_max(target: dict[str, int], updates: Any) -> None:
    """Raise ``target[topic]`` to each reported value (never lowers it)."""
    if not isinstance(updates, dict):
        return
    for topic, value in updates.items():
        value = int(value)
        if value > target.get(topic, 0):
            target[topic] = value


class GroupState:
    """One consumer group's membership leases, generation and offsets.

    Membership is leased: each member carries its own session timeout and
    a deadline refreshed by heartbeats and commits.  Every operation first
    sweeps expired members, so death detection needs no timer; every
    membership change bumps ``generation`` so members know to recompute
    the partition assignment.  Offsets are per partition topic:
    ``committed`` is the at-least-once replay point (advanced only by
    commits, after the consumer acked), ``watermarks`` the furthest
    delivered position any member reported — the gap between them is the
    un-acked window a successor must redeliver.
    """

    __slots__ = ('generation', 'members', 'committed', 'watermarks', 'ends',
                 'expired_members')

    def __init__(self) -> None:
        self.generation = 0
        #: member id -> (heartbeat deadline, session timeout seconds).
        self.members: dict[str, tuple[float, float]] = {}
        #: partition topic -> first un-acked sequence number.
        self.committed: dict[str, int] = {}
        #: partition topic -> furthest delivered position reported.
        self.watermarks: dict[str, int] = {}
        #: partition topic -> (end-marker seq, reporting member).  A
        #: partition is *finished* once its end is recorded and either
        #: committed reached it or the reporter is still a live member
        #: (it will ack; if it dies first, expiry re-opens the partition).
        self.ends: dict[str, tuple[int, str]] = {}
        #: Members removed by heartbeat expiry (not voluntary leaves).
        self.expired_members = 0

    def sweep(self, now: float) -> None:
        """Expire members whose heartbeat deadline passed (one generation bump)."""
        dead = [m for m, (deadline, _) in self.members.items() if now > deadline]
        for member in dead:
            del self.members[member]
        if dead:
            self.expired_members += len(dead)
            self.generation += 1

    def _lease(self, member: str, now: float, timeout: float | None = None) -> None:
        """Refresh ``member``'s lease, keeping its timeout unless one is given."""
        if timeout is None:
            timeout = self.members[member][1] if member in self.members else DEFAULT_SESSION_TIMEOUT
        self.members[member] = (now + timeout, timeout)

    def _record_ends(self, member: str, ends: Any) -> None:
        if isinstance(ends, dict):
            for topic, end_seq in ends.items():
                self.ends[topic] = (int(end_seq), member)

    def view(self) -> dict[str, Any]:
        """The ``{'generation', 'members'}`` snapshot every operation returns."""
        return {'generation': self.generation, 'members': sorted(self.members)}

    def join(self, member: str, session_timeout: float, *, now: float) -> dict[str, Any]:
        """Add ``member`` (or renew its lease with a new timeout)."""
        self.sweep(now)
        if member not in self.members:
            self.generation += 1
        self._lease(member, now, session_timeout)
        return self.view()

    def heartbeat(
        self,
        member: str,
        positions: dict[str, int] | None = None,
        ends: dict[str, int] | None = None,
        *,
        now: float,
    ) -> dict[str, Any]:
        """Renew ``member``'s lease and fold in its positions and ends.

        Raises:
            GroupMembershipError: ``member`` expired (or never joined); it
                must rejoin and resync its assignment.
        """
        self.sweep(now)
        if member not in self.members:
            raise GroupMembershipError(f'unknown member {member!r}')
        self._lease(member, now)
        _merge_max(self.watermarks, positions)
        self._record_ends(member, ends)
        return self.view()

    def leave(
        self,
        member: str,
        positions: dict[str, int] | None = None,
        *,
        now: float,
    ) -> dict[str, Any]:
        """Remove ``member`` voluntarily (bumps the generation if it was in)."""
        self.sweep(now)
        if self.members.pop(member, None) is not None:
            self.generation += 1
        _merge_max(self.watermarks, positions)
        return self.view()

    def commit(
        self,
        member: str,
        offsets: dict[str, int],
        positions: dict[str, int] | None = None,
        ends: dict[str, int] | None = None,
        *,
        now: float,
    ) -> dict[str, Any]:
        """Advance committed offsets monotonically; doubles as a heartbeat."""
        self.sweep(now)
        _merge_max(self.committed, offsets)
        _merge_max(self.watermarks, positions)
        self._record_ends(member, ends)
        if member in self.members:
            self._lease(member, now)
        return self.view()

    def fetch(self, topics: Any, *, now: float) -> dict[str, dict[str, Any]]:
        """Per-topic ``committed``, ``watermark``, ``end`` and ``end_member``."""
        self.sweep(now)
        fetched = {}
        for topic in topics:
            end, end_member = self.ends.get(topic, (None, None))
            fetched[topic] = {
                'committed': self.committed.get(topic, 0),
                'watermark': self.watermarks.get(topic, 0),
                'end': end,
                'end_member': end_member,
            }
        return fetched

    def stats(self, *, now: float) -> dict[str, Any]:
        """The group's full state (the ``GROUP_STATS`` reply)."""
        self.sweep(now)
        return {
            **self.view(),
            'committed': dict(self.committed),
            'watermarks': dict(self.watermarks),
            'ends': {topic: end[0] for topic, end in self.ends.items()},
            'expired_members': self.expired_members,
        }

    def merge(self, delta: dict[str, Any], *, now: float) -> dict[str, Any]:
        """Apply a replicated coordinator delta (``REPL_GROUP``) leniently.

        ``delta`` carries the primary's post-op ``generation``, the
        ``op`` ('join'/'heartbeat'/'commit'/'leave'), ``member`` and
        optionally ``session_timeout``, ``offsets``, ``positions`` and
        ``ends``.  The lease is created if missing without a generation
        bump (the primary's bump arrives in ``generation``), the
        generation only moves forward, and offsets and watermarks merge
        by max — so deltas may arrive late, duplicated or out of order.
        """
        self.sweep(now)
        self.generation = max(self.generation, int(delta.get('generation', 0)))
        member = str(delta.get('member', ''))
        op = str(delta.get('op', 'heartbeat'))
        if member and op in ('join', 'heartbeat', 'commit'):
            timeout = delta.get('session_timeout')
            self._lease(member, now, float(timeout) if timeout else None)
        elif member and op == 'leave':
            self.members.pop(member, None)
        _merge_max(self.committed, delta.get('offsets'))
        _merge_max(self.watermarks, delta.get('positions'))
        self._record_ends(member, delta.get('ends'))
        return self.view()
