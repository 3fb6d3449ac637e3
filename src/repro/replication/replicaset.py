"""Mongo replica sets on the virtual clock: oplog, elections, failover.

The paper ran every mongod bare (§3.4.1: no journaling, no replica sets), so
PR 3's fault layer could only show the fragile baseline — a dead shard is
simply gone until the client gives up.  This module adds the production
counterpart: a :class:`ReplicaSet` of journaled mongods where the primary
ships an oplog to secondaries with configurable lag, a seeded election
replaces a dead primary after an election timeout, and the write-concern
spectrum (:mod:`repro.replication.writeconcern`) decides how much of that
pipeline an acknowledgement waits for.

Everything runs on the caller's logical clock: the YCSB runner advances time
op by op and calls :meth:`ReplicaSet.tick`, which (in order) delivers due
oplog entries to secondaries, offers each member's journal its group flush,
and runs an election if the primary has been unreachable past the timeout.
That deliver-then-flush-then-fault ordering is what makes the acknowledged
write safety invariant checkable: by the time a kill fires at time ``t``,
every write whose analytic ack time was ``<= t`` really is as durable as its
concern promised.

Failure semantics (the part chaos tests lean on):

* **kill** — the process dies; the journal keeps only its flushed prefix,
  the member's applied history is truncated to match (safe-mode writes
  inside the 100 ms window are the casualties, exactly as in
  ``docstore/journal.py``).
* **election** — needs a quorum of reachable members; the winner is the
  reachable member with the longest applied history (seeded tie-break).
  Oplog entries beyond the winner's history are *rolled back*.
* **rollback files** — a rolled-back entry that some member still holds
  durably is re-applied through the new primary once that member comes back
  (MongoDB's "operator re-applies the rollback files" procedure), so
  journaled/replicated acks survive failover chains end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.common.errors import (
    ConfigurationError,
    ReplicaSetUnavailable,
    StorageError,
)
from repro.common.rng import SeedStream
from repro.docstore import bson
from repro.docstore.journal import FLUSH_INTERVAL, Journal, JournalOp
from repro.docstore.mongod import Mongod
from repro.replication.writeconcern import SAFE, WriteConcern

#: Default one-way replication lag, primary -> secondary (seconds).
DEFAULT_LAG = 0.05
#: How long the primary must be unreachable before an election runs.
DEFAULT_ELECTION_TIMEOUT = 0.25


@dataclass(frozen=True)
class OplogEntry:
    """One replicated write, stamped with the primary's clock and term."""

    seq: int
    term: int
    time: float
    op: JournalOp
    collection: str
    key: str
    document: bytes | None = None  # full after-image (None for removes)
    fieldname: str | None = None   # set for updates
    value: object = None
    orig_seq: int = 0  # original seq for rollback-file re-applications

    @property
    def origin(self) -> int:
        """The seq that identifies this write across re-applications."""
        return self.orig_seq or self.seq


@dataclass
class LastWrite:
    """What the runner's acknowledged-write ledger records per write."""

    seq: int
    op: str
    collection: str
    key: str
    fieldname: str | None
    value: object
    write_time: float
    ack_time: float
    concern: str


@dataclass
class RolledBack:
    """A write removed from the official history by a failover."""

    entry: OplogEntry
    lost_at: float      # when the member holding it became unreachable
    recovered: bool = False


class ReplicaMember:
    """One mongod in a replica set: process + journal + applied history."""

    def __init__(self, name: str, lag: float, flush_interval: float):
        self.name = name
        self.base_lag = lag
        self.mongod = Mongod(name)
        self.journal = Journal(flush_interval=flush_interval)
        self.flush_interval = flush_interval
        self.applied: list[int] = []  # oplog seqs, in application order
        self.alive = True
        self.partitioned = False
        self.killed_at: float | None = None
        self.lag_factor = 1.0
        self.lag_until = 0.0

    @property
    def reachable(self) -> bool:
        return self.alive and not self.partitioned

    @property
    def applied_seq(self) -> int:
        return self.applied[-1] if self.applied else 0

    def effective_lag(self, now: float) -> float:
        if now < self.lag_until:
            return self.base_lag * self.lag_factor
        return self.base_lag

    # -- state machine -----------------------------------------------------------

    def apply(self, entry: OplogEntry, now: float) -> None:
        """Journal the entry (write-ahead) then apply it to the mongod."""
        self.journal.append(
            max(now, self.journal._last_flush_time), entry.op,
            entry.collection, entry.key, entry.document,
        )
        if entry.op is JournalOp.INSERT:
            if self.mongod.find_encoded(entry.collection, entry.key) is None:
                self.mongod.insert_encoded(entry.collection, entry.key,
                                           entry.document)
        elif entry.op is JournalOp.UPDATE:
            if not self.mongod.update(
                entry.collection, entry.key, entry.fieldname, entry.value
            ):
                # The base insert is always earlier in the same history, but
                # be robust: fall back to the full after-image.
                self.mongod.insert_encoded(entry.collection, entry.key,
                                           entry.document)
        else:
            self.mongod.remove(entry.collection, entry.key)
        self.applied.append(entry.seq)

    def kill(self, now: float) -> None:
        """Process death: unflushed journal tail (and its writes) are gone."""
        if not self.alive:
            return
        self.alive = False
        self.killed_at = now
        self.journal.crash()
        self.applied = self.applied[: self.journal.durable_sequence]
        self.mongod.kill()

    def rebuild(self, entries: list[OplogEntry], now: float) -> None:
        """Resync from scratch: fresh process + journal holding ``entries``."""
        self.mongod = Mongod(self.name)
        self.journal = Journal(flush_interval=self.flush_interval)
        self.applied = []
        self.alive = True
        for entry in entries:
            self.apply(entry, now)
        self.journal.flush(now)


class ReplicaSet:
    """A primary/secondary mongod group with a Mongod-compatible surface.

    Presents the same op methods as a bare :class:`Mongod` (``insert``,
    ``insert_encoded``, ``find_one``, ``find_encoded``, ``update``,
    ``scan``, ``scan_entries``, ``remove``, ``collection``, ``kill``,
    ``restart``) so the existing Mongo-AS/Mongo-CS
    clusters can swap one in per shard.  Additionally exposes the
    replication-only controls the chaos harness drives: ``tick``,
    ``kill_member``/``restart_member``, ``partition_member``/``heal_member``,
    ``lag_spike``, and the acknowledged-write bookkeeping
    (``take_last_write``, ``consume_ack_delay``, ``rolled_back``).
    """

    def __init__(
        self,
        name: str,
        members: int = 3,
        *,
        lag: float = DEFAULT_LAG,
        election_timeout: float = DEFAULT_ELECTION_TIMEOUT,
        flush_interval: float = FLUSH_INTERVAL,
        concern: WriteConcern = SAFE,
        seed: int = 0,
        tracer=None,
    ):
        if members < 1:
            raise ConfigurationError("replica set needs at least 1 member")
        if lag < 0 or election_timeout <= 0:
            raise ConfigurationError(
                "replica set needs lag >= 0 and election_timeout > 0"
            )
        self.name = name
        self.members = [
            ReplicaMember(f"{name}.m{i}", lag, flush_interval)
            for i in range(members)
        ]
        self.primary_index: Optional[int] = 0
        self.term = 1
        self.election_timeout = election_timeout
        self.concern = concern
        self.tracer = tracer
        self.now = 0.0
        self._rng = SeedStream(seed).rng_for("replicaset", name)
        self.oplog: list[OplogEntry] = []
        self._next_seq = 1
        self.rolled_back: list[RolledBack] = []
        self._recovery_queue: list[OplogEntry] = []
        self.elections = 0
        self.stale_reads = 0
        self.downtime: list[tuple[float, float]] = []
        self._down_since: Optional[float] = None
        self.last_failover: Optional[tuple[float, float, int]] = None
        self._last_ack_delay = 0.0
        self._last_write: Optional[LastWrite] = None

    # -- helpers -----------------------------------------------------------------

    def _primary(self) -> Optional[ReplicaMember]:
        if self.primary_index is None:
            return None
        return self.members[self.primary_index]

    def _require_primary(self) -> ReplicaMember:
        primary = self._primary()
        if primary is None or not primary.reachable:
            raise ReplicaSetUnavailable(
                f"replica set {self.name} has no reachable primary"
            )
        return primary

    @property
    def quorum(self) -> int:
        return len(self.members) // 2 + 1

    @property
    def alive(self) -> bool:
        primary = self._primary()
        return primary is not None and primary.reachable

    def _oplog_seqs(self) -> set[int]:
        return {entry.seq for entry in self.oplog}

    def _entries_for(self, seqs: list[int]) -> list[OplogEntry]:
        by_seq = {entry.seq: entry for entry in self.oplog}
        return [by_seq[s] for s in seqs if s in by_seq]

    def _current_max_origin(self, collection: str, key,
                            fieldname: str | None = None) -> int:
        """Latest surviving write (by origin seq) touching this key/field."""
        latest = 0
        for entry in self.oplog:
            if entry.collection != collection or entry.key != key:
                continue
            if (
                fieldname is None
                or entry.fieldname is None
                or entry.fieldname == fieldname
                or entry.op is not JournalOp.UPDATE
            ):
                latest = max(latest, entry.origin)
        return latest

    # -- the clock ---------------------------------------------------------------

    def tick(self, now: float) -> None:
        """Advance to ``now``: ship oplog, flush journals, maybe elect."""
        if now < self.now:
            return
        self.now = now
        self._deliver(now)
        for member in self.members:
            if member.alive:
                member.journal.maybe_flush(now)
        primary = self._primary()
        if primary is None or not primary.reachable:
            if self._down_since is None:
                self._down_since = now
            if now - self._down_since >= self.election_timeout:
                self._elect(now)
        self._drain_recovery_queue()

    def _deliver(self, now: float) -> None:
        for i, member in enumerate(self.members):
            if i == self.primary_index or not member.reachable:
                continue
            lag = member.effective_lag(now)
            for entry in self.oplog:
                if entry.seq <= member.applied_seq:
                    continue
                if entry.time + lag > now:
                    break
                if not self._shippable(entry, member):
                    break  # the only holders are unreachable: wait for them
                member.apply(entry, now)

    def _shippable(self, entry: OplogEntry, target: ReplicaMember) -> bool:
        """An entry can only ship from a reachable member that holds it."""
        return any(
            m is not target and m.reachable and m.applied_seq >= entry.seq
            for m in self.members
        )

    # -- elections and rollback --------------------------------------------------

    def _elect(self, now: float) -> None:
        candidates = [
            (i, m) for i, m in enumerate(self.members) if m.reachable
        ]
        if len(candidates) < self.quorum:
            return  # no quorum: the set stays unavailable
        best_seq = max(m.applied_seq for _, m in candidates)
        leaders = [i for i, m in candidates if m.applied_seq == best_seq]
        winner = leaders[0] if len(leaders) == 1 else self._rng.choice(leaders)
        lost_at = self._down_since if self._down_since is not None else now
        self._rollback(best_seq, lost_at)
        self.primary_index = winner
        self.term += 1
        self.elections += 1
        start = self._down_since if self._down_since is not None else now
        self.downtime.append((start, now))
        self._down_since = None
        self.last_failover = (start, now, self.term)
        if self.tracer:
            self.tracer.add(
                "election.failover", start, now, cat="election",
                node=self.name, lane="election",
                term=self.term, winner=self.members[winner].name,
                rolled_back=len([r for r in self.rolled_back
                                 if r.lost_at == lost_at]),
            )

    def _rollback(self, keep_seq: int, lost_at: float) -> None:
        """Drop oplog entries beyond ``keep_seq``; stash them for recovery."""
        dropped = [e for e in self.oplog if e.seq > keep_seq]
        if not dropped:
            return
        self.oplog = [e for e in self.oplog if e.seq <= keep_seq]
        for entry in dropped:
            self.rolled_back.append(RolledBack(entry=entry, lost_at=lost_at))

    def _queue_rollback_recovery(self, seqs: list[int]) -> None:
        """A returning member durably holds rolled-back writes: re-apply them."""
        for record in self.rolled_back:
            if record.entry.seq in seqs and not record.recovered:
                record.recovered = True
                self._recovery_queue.append(record.entry)
        self._recovery_queue.sort(key=lambda e: e.origin)

    def _drain_recovery_queue(self) -> None:
        primary = self._primary()
        if primary is None or not primary.reachable or not self._recovery_queue:
            return
        queue, self._recovery_queue = self._recovery_queue, []
        for entry in queue:
            self._reapply(entry)

    def _reapply(self, entry: OplogEntry) -> None:
        """Re-apply a recovered rollback-file entry unless it was superseded."""
        primary = self._primary()
        if entry.op is JournalOp.INSERT:
            if primary.mongod.find_encoded(entry.collection, entry.key) is not None:
                return
        else:
            latest = self._current_max_origin(
                entry.collection, entry.key,
                entry.fieldname if entry.op is JournalOp.UPDATE else None,
            )
            if entry.origin <= latest:
                return
            if (
                entry.op is JournalOp.UPDATE
                and primary.mongod.find_encoded(entry.collection, entry.key) is None
            ):
                return  # the base document itself was unrecoverable
        replayed = OplogEntry(
            seq=self._next_seq, term=self.term, time=self.now, op=entry.op,
            collection=entry.collection, key=entry.key,
            document=entry.document, fieldname=entry.fieldname,
            value=entry.value, orig_seq=entry.origin,
        )
        self._next_seq += 1
        primary.apply(replayed, self.now)
        self.oplog.append(replayed)

    # -- membership faults -------------------------------------------------------

    def kill_member(self, index: int) -> None:
        member = self.members[index]
        if not member.alive:
            return
        member.kill(self.now)  # truncates its history to the durable prefix
        if index == self.primary_index:
            # Oplog entries no member holds any more — the dead primary's
            # unflushed tail, minus whatever secondaries already applied or
            # other members hold durably — are gone for good.  This is the
            # safe-mode loss window: everything dropped here was written
            # within one journal flush interval of the kill.
            self._rollback(
                max(m.applied_seq for m in self.members), self.now
            )
            if self._down_since is None:
                self._down_since = self.now

    def restart_member(self, index: int) -> None:
        member = self.members[index]
        if member.alive:
            return
        restored_primary = (
            index == self.primary_index and self._down_since is not None
        )
        self._resync(member)
        if restored_primary and member.reachable:
            # The primary came back before any election ran: close the
            # outage window, it simply resumes in its old term.
            self.downtime.append((self._down_since, self.now))
            self._down_since = None

    def partition_member(self, index: int) -> None:
        member = self.members[index]
        member.partitioned = True
        if index == self.primary_index and self._down_since is None:
            self._down_since = self.now

    def heal_member(self, index: int) -> None:
        member = self.members[index]
        if not member.partitioned:
            return
        member.partitioned = False
        if not member.alive:
            return
        if index == self.primary_index and self._down_since is not None:
            if self._primary() is member:
                # Healed before any election: the old primary resumes.
                self.downtime.append((self._down_since, self.now))
                self._down_since = None
        self._resync(member)

    def lag_spike(self, index: int, factor: float, until: float) -> None:
        member = self.members[index]
        member.lag_factor = max(1.0, factor)
        member.lag_until = until

    def _resync(self, member: ReplicaMember) -> None:
        """Reconcile a returning member's history with the official oplog."""
        official = self._oplog_seqs()
        keep = [s for s in member.applied if s in official]
        orphans = [s for s in member.applied if s not in official]
        member.rebuild(self._entries_for(keep), self.now)
        if orphans:
            self._queue_rollback_recovery(orphans)
        self._drain_recovery_queue()

    # -- write path --------------------------------------------------------------

    def _ack_secondaries(self, needed: int) -> list[ReplicaMember]:
        eligible = [
            m for i, m in enumerate(self.members)
            if i != self.primary_index and m.reachable
        ]
        if len(eligible) < needed:
            raise ReplicaSetUnavailable(
                f"replica set {self.name}: write concern "
                f"{self.concern.name} needs {needed} reachable secondaries, "
                f"have {len(eligible)}"
            )
        eligible.sort(key=lambda m: (m.effective_lag(self.now), m.name))
        return eligible[:needed]

    def _write(self, op: JournalOp, collection: str, key,
               document: bytes | None, fieldname: str | None = None,
               value=None) -> None:
        primary = self._require_primary()
        entry = OplogEntry(
            seq=self._next_seq, term=self.term, time=self.now, op=op,
            collection=collection, key=key, document=document,
            fieldname=fieldname, value=value,
        )
        concern = self.concern
        needed = concern.required_members(len(self.members)) - 1
        ack_set = self._ack_secondaries(needed) if needed > 0 else []
        self._next_seq += 1
        primary.apply(entry, self.now)
        self.oplog.append(entry)
        # The ack set receives the write eagerly (state-wise) so a majority
        # ack really means a majority holds it; the latency cost of shipping
        # and flushing is charged analytically below.
        ack_times = []
        if concern.acked:
            if concern.journal:
                ack_times.append(
                    max(self.now, primary.journal.next_flush_time)
                )
            else:
                ack_times.append(self.now)
        for member in ack_set:
            member.apply(entry, self.now)
            durable = self.now + member.effective_lag(self.now)
            if concern.journal:
                durable = max(durable, member.journal.next_flush_time)
            ack_times.append(durable)
        delay = max(0.0, max(ack_times) - self.now) if ack_times else 0.0
        self._last_ack_delay = delay
        self._last_write = LastWrite(
            seq=entry.seq, op=op.value, collection=collection, key=key,
            fieldname=fieldname, value=value, write_time=self.now,
            ack_time=self.now + delay, concern=concern.name,
        )

    def insert(self, collection: str, document: dict) -> None:
        self.insert_encoded(collection, document["_id"], bson.encode(document))

    def insert_encoded(self, collection: str, key, data: bytes) -> None:
        """Replicate one document's stored BSON bytes: the oplog entry
        carries them, and every member stores them as they are.

        A duplicate ``_id`` is refused at the primary, with the error
        mongod raises, before any oplog entry or journal append exists.
        The check reads the primary's collection directly, so an accepted
        insert counts the same mongod ops and lock holds as before."""
        primary = self._require_primary()
        if primary.mongod.collection(collection).find_encoded(key) is not None:
            raise StorageError(f"duplicate _id {key!r}")
        self._write(JournalOp.INSERT, collection, key, data)

    def update(self, collection: str, key, fieldname: str, value) -> bool:
        primary = self._require_primary()
        before = primary.mongod.find_encoded(collection, key)
        if before is None:
            return False
        self._write(
            JournalOp.UPDATE, collection, key,
            bson.with_field(before, fieldname, value),
            fieldname=fieldname, value=value,
        )
        return True

    def remove(self, collection: str, key) -> bool:
        primary = self._require_primary()
        if primary.mongod.find_encoded(collection, key) is None:
            return False
        self._write(JournalOp.REMOVE, collection, key, None)
        return True

    # -- read path ---------------------------------------------------------------

    def find_one(self, collection: str, key, *, prefer_secondary: bool = False):
        if not prefer_secondary:
            return self._require_primary().mongod.find_one(collection, key)
        secondaries = [
            m for i, m in enumerate(self.members)
            if i != self.primary_index and m.reachable
        ]
        if not secondaries:
            return self._require_primary().mongod.find_one(collection, key)
        member = secondaries[self._rng.random_int(0, len(secondaries) - 1)]
        fresh = self._current_max_origin(collection, key)
        behind = any(
            e.seq > member.applied_seq
            for e in self.oplog
            if e.collection == collection and e.key == key
        )
        if fresh and behind:
            self.stale_reads += 1
        return member.mongod.find_one(collection, key)

    def find_encoded(self, collection: str, key) -> bytes | None:
        """The primary's stored BSON bytes of one document, or None."""
        return self._require_primary().mongod.find_encoded(collection, key)

    def scan_entries(self, collection: str, start_key, count: int) -> list[tuple]:
        return self._require_primary().mongod.scan_entries(
            collection, start_key, count)

    def scan(self, collection: str, start_key, count: int) -> list[dict]:
        return self._require_primary().mongod.scan(collection, start_key, count)

    def collection(self, name: str):
        primary = self._primary()
        if primary is not None and primary.alive:
            return primary.mongod.collection(name)
        for member in self.members:
            if member.alive:
                return member.mongod.collection(name)
        raise ReplicaSetUnavailable(
            f"replica set {self.name} has no live member"
        )

    # -- cluster-facing process controls ----------------------------------------

    def kill(self) -> None:
        """Cluster-level 'kill this shard': kill the current primary."""
        if self.primary_index is not None:
            self.kill_member(self.primary_index)

    def restart(self) -> None:
        """Cluster-level 'restart this shard': restart every dead member."""
        for i, member in enumerate(self.members):
            if not member.alive:
                self.restart_member(i)

    # -- runner hooks ------------------------------------------------------------

    def consume_ack_delay(self) -> float:
        delay, self._last_ack_delay = self._last_ack_delay, 0.0
        return delay

    def take_last_write(self) -> Optional[LastWrite]:
        write, self._last_write = self._last_write, None
        return write

    # -- audit surface -----------------------------------------------------------

    def lost_records(self) -> list[RolledBack]:
        """Rolled-back writes that were never recovered — real data loss."""
        return [r for r in self.rolled_back if not r.recovered]

    def unavailable_seconds(self, now: float | None = None) -> float:
        total = sum(end - start for start, end in self.downtime)
        if self._down_since is not None:
            total += (now if now is not None else self.now) - self._down_since
        return total

    def settle(self, now: float) -> None:
        """Run the clock forward until replication fully quiesces."""
        horizon = now
        for _ in range(1000):
            self.tick(horizon)
            lagging = any(
                m.reachable and m.applied_seq < (self.oplog[-1].seq
                                                 if self.oplog else 0)
                for i, m in enumerate(self.members)
                if i != self.primary_index
            )
            if self.alive and not lagging and not self._recovery_queue:
                return
            horizon += max(
                self.election_timeout,
                max(m.effective_lag(horizon) for m in self.members),
            )
        raise ReplicaSetUnavailable(
            f"replica set {self.name} failed to settle (no quorum?)"
        )
