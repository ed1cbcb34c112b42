"""Stateful fault injection against a :class:`FaultPlan`.

A :class:`FaultInjector` owns the stateful seams: the campaign parent
holds one for the cache/journal/store seams, each shard one for its
segment tears, the prediction server one for request stalls.  (The
worker-side cell seams need no injector: a worker acts on the plan's
pure decisions, :func:`repro.runtime.executor.planned_worker_faults`.)
It layers the stateful firing modes (``one_shot``, ``burst``,
``max_faults``) and a fired-event ledger on top of the plan's pure
per-key decisions, and provides the concrete misbehaviours the seams
need: raising, delaying, and garbling payload bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import InjectedFault
from repro.faults.plan import FaultPlan


@dataclass(frozen=True)
class FaultEvent:
    """One fired injection, for the accounting ledger."""

    seam: str
    key: str


@dataclass
class FaultInjector:
    """Decides, fires, and counts injections for one process."""

    plan: FaultPlan
    events: list[FaultEvent] = field(default_factory=list)
    _burst_left: dict[str, int] = field(default_factory=dict)
    _spent: dict[str, int] = field(default_factory=dict)

    # -- firing ---------------------------------------------------------------
    def fire(self, seam: str, key: str) -> bool:
        """True when ``seam`` faults for ``key``; records the event."""
        spec = self.plan.seams.get(seam)
        if spec is None or spec.rate <= 0.0:
            return False
        fired = False
        if self._burst_left.get(seam, 0) > 0:
            self._burst_left[seam] -= 1
            fired = True
        elif spec.mode == "one_shot" and self._spent.get(seam, 0) > 0:
            fired = False
        elif self.plan.decide(seam, key):
            fired = True
            if spec.mode == "burst":
                self._burst_left[seam] = spec.burst_len - 1
        if fired and spec.max_faults \
                and self._spent.get(seam, 0) >= spec.max_faults:
            return False
        if fired:
            self._spent[seam] = self._spent.get(seam, 0) + 1
            self.events.append(FaultEvent(seam, key))
        return fired

    # -- seam behaviours -------------------------------------------------------
    def inject(self, seam: str, key: str) -> None:
        """Raise :class:`InjectedFault` when the seam fires."""
        if self.fire(seam, key):
            raise InjectedFault(f"injected {seam} fault for {key}")

    def corrupt(self, seam: str, key: str, payload: str) -> str:
        """Garble ``payload`` (truncate + poison bytes) when firing."""
        if not self.fire(seam, key):
            return payload
        return payload[: max(1, len(payload) // 2)] + '\x00{"torn":'

    def corrupt_bytes(self, seam: str, key: str, payload: bytes) -> bytes:
        """Binary twin of :meth:`corrupt`, for pickled artifact payloads:
        truncate and poison so digest verification must catch it."""
        if not self.fire(seam, key):
            return payload
        return payload[: max(1, len(payload) // 2)] + b"\x00torn"

    def delay_s(self, seam: str, key: str) -> float:
        """The stall the seam demands for ``key`` (0.0 = none)."""
        if not self.fire(seam, key):
            return 0.0
        return self.plan.seams[seam].delay_s

    # -- accounting ------------------------------------------------------------
    def fired_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.seam] = counts.get(event.seam, 0) + 1
        return counts

    def event_keys(self) -> list[tuple[str, str]]:
        """The fired ledger as sortable (seam, key) pairs."""
        return [(e.seam, e.key) for e in self.events]
