"""Deterministic batched prediction engine.

The server is a discrete-event simulation in **simulated seconds** —
the same clock discipline as the campaign runtime: nothing here reads
the wall clock (GRN004), service times and energies come from the
analytic inference cost model, and a seeded request stream therefore
replays **bit-identically** on any machine.  Predictions themselves are
real: batches run through the actual fitted artifact, only their
*timing* and *energy* are modelled.

Mechanics, CogniSpace-budget-cap style:

- **admission** — a request whose row count exceeds its own
  ``max_rows`` cap (or the server's batch-row ceiling) is rejected with
  a structured :class:`~repro.faults.FailureRecord`; a request whose
  joule budget cannot be met even by the cheapest variant is rejected
  by the router.  Rejected requests still get a response — nothing is
  ever dropped.
- **micro-batching** — admitted requests queue per variant in a
  :class:`MicroBatcher`; a batch launches when a worker slot is free
  and the batch is full (row/request caps) or its oldest member has
  waited ``max_wait_s``.
- **worker slots** — each variant owns ``n_slots`` slots; a slot busy
  until ``t`` delays the next batch, which is where queueing latency
  (and the batching-vs-latency trade-off) comes from.
- **deadlines** — a response completed after ``arrival + deadline_s``
  is marked ``timeout`` (the work still happened and is charged); the
  ``request_timeout`` fault seam injects per-request stalls through the
  same path so chaos can prove no request goes unanswered.

Every request emits a ``request`` span tree (``queue_wait`` → ``batch``
→ ``predict`` → ``energy``) in the ``sim`` clock domain plus registry
metrics (``serving.*``), mirroring the campaign executor's
observability contract.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.energy.cost_model import estimate_inference
from repro.energy.machines import DEFAULT_MACHINE, JOULES_PER_KWH
from repro.faults import SEAM_REQUEST_TIMEOUT, FailureRecord, FaultInjector
from repro.observability import (
    CLOCK_SIM,
    MetricsRegistry,
    get_tracer,
    make_span,
)
from repro.serving.router import ROUTE_SLO_FALLBACK, SLORouter

#: response statuses
STATUS_OK = "ok"
STATUS_TIMEOUT = "timeout"
STATUS_REJECTED = "rejected"
KNOWN_STATUSES = (STATUS_OK, STATUS_TIMEOUT, STATUS_REJECTED)

#: failure seams local to the serving layer (free-form FailureRecord
#: stages, like the executor's retry stages)
SEAM_REQUEST_BUDGET = "request_budget"
SEAM_REQUEST_DEADLINE = "request_deadline"

#: comparison slack for "waited max_wait_s" under float addition
_WAIT_EPS = 1e-9

#: fixed per-batch dispatch cost (simulated seconds) on top of the
#: modelled inference time
_DISPATCH_OVERHEAD_S = 1e-4


@dataclass(frozen=True)
class RequestBudget:
    """Per-request caps, every one independently enforceable.

    ``max_rows`` caps the request size (admission), ``max_joules`` caps
    the total inference energy the request may consume (routing picks a
    cheap-enough variant or rejects), ``deadline_s`` is the latency SLO
    relative to arrival (a late response is marked ``timeout``).
    """

    max_rows: int | None = None
    max_joules: float | None = None
    deadline_s: float | None = None

    def __post_init__(self):
        if self.max_rows is not None and self.max_rows <= 0:
            raise ValueError("max_rows must be positive")
        if self.max_joules is not None and self.max_joules <= 0:
            raise ValueError("max_joules must be positive")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")


@dataclass(frozen=True)
class PredictionRequest:
    """One prediction call: ``n_rows`` rows arriving at ``arrival_s``."""

    request_id: int
    arrival_s: float
    n_rows: int
    X: np.ndarray | None = None
    budget: RequestBudget = field(default_factory=RequestBudget)

    def __post_init__(self):
        if self.n_rows <= 0:
            raise ValueError("n_rows must be positive")
        if self.X is not None and len(self.X) != self.n_rows:
            raise ValueError("X row count disagrees with n_rows")


@dataclass
class PredictionResponse:
    """What the server answers — exactly one per submitted request."""

    request_id: int
    status: str
    variant: str | None
    n_rows: int
    arrival_s: float
    started_s: float | None = None
    completed_s: float | None = None
    joules: float = 0.0
    predictions: np.ndarray | None = None
    slo_ok: bool = True
    failure: FailureRecord | None = None

    @property
    def latency_s(self) -> float:
        if self.completed_s is None:
            return 0.0
        return self.completed_s - self.arrival_s

    @property
    def queue_wait_s(self) -> float:
        if self.started_s is None:
            return 0.0
        return self.started_s - self.arrival_s

    @property
    def joules_per_prediction(self) -> float:
        return self.joules / self.n_rows if self.n_rows else 0.0


@dataclass(frozen=True)
class BatchPolicy:
    """Micro-batching knobs."""

    max_batch_rows: int = 256
    max_batch_requests: int = 32
    max_wait_s: float = 0.005

    def __post_init__(self):
        if self.max_batch_rows < 1:
            raise ValueError("max_batch_rows must be >= 1")
        if self.max_batch_requests < 1:
            raise ValueError("max_batch_requests must be >= 1")
        if self.max_wait_s < 0:
            raise ValueError("max_wait_s must be non-negative")


class MicroBatcher:
    """FIFO accumulation queue with row/request caps and a wait window.

    Pure data structure (no clock of its own) so the batching laws are
    property-testable in isolation: :meth:`take` returns a FIFO prefix
    that never exceeds the caps and never drops or reorders requests.
    """

    def __init__(self, policy: BatchPolicy):
        self.policy = policy
        self._pending: deque[PredictionRequest] = deque()
        self._rows = 0

    def __len__(self) -> int:
        return len(self._pending)

    def add(self, request: PredictionRequest) -> None:
        self._pending.append(request)
        self._rows += request.n_rows

    def full(self) -> bool:
        return (self._rows >= self.policy.max_batch_rows
                or len(self._pending) >= self.policy.max_batch_requests)

    def ready(self, now: float) -> bool:
        """Should a batch launch at ``now`` (given a free slot)?"""
        if not self._pending:
            return False
        if self.full():
            return True
        waited = now - self._pending[0].arrival_s
        return waited >= self.policy.max_wait_s - _WAIT_EPS

    def flush_at(self) -> float | None:
        """When the oldest pending request's wait window expires."""
        if not self._pending:
            return None
        return self._pending[0].arrival_s + self.policy.max_wait_s

    def take(self) -> list[PredictionRequest]:
        """Pop the next batch: the longest FIFO prefix within the caps
        (always at least one request, so an oversized head — which
        admission normally prevents — cannot wedge the queue)."""
        if not self._pending:
            return []
        batch = [self._pending.popleft()]
        rows = batch[0].n_rows
        while self._pending:
            nxt = self._pending[0]
            if (rows + nxt.n_rows > self.policy.max_batch_rows
                    or len(batch) >= self.policy.max_batch_requests):
                break
            batch.append(self._pending.popleft())
            rows += nxt.n_rows
        self._rows -= rows
        return batch


#: event kinds in deterministic same-timestamp order: free a slot, then
#: admit arrivals, then run wait-window flushes
_EVENT_RANK = {"slot": 0, "arrive": 1, "flush": 2}


class PredictionServer:
    """Serve prediction requests from loaded artifacts under an SLO."""

    def __init__(self, router: SLORouter, *,
                 policy: BatchPolicy | None = None,
                 n_slots: int = 2,
                 machine=None,
                 execute_predictions: bool = True,
                 span_sample_every: int = 1,
                 fault_injector: FaultInjector | None = None,
                 registry: MetricsRegistry | None = None):
        if n_slots < 1:
            raise ValueError("n_slots must be >= 1")
        if span_sample_every < 0:
            raise ValueError("span_sample_every must be >= 0")
        self.router = router
        self.policy = policy or BatchPolicy()
        self.n_slots = n_slots
        self.machine = machine or DEFAULT_MACHINE
        self.execute_predictions = execute_predictions
        #: record the span tree of every Nth request (0 disables; 1 =
        #: every request, the chaos-audit setting)
        self.span_sample_every = span_sample_every
        self.fault_injector = fault_injector
        # `or` would discard an empty registry (len 0 is falsy)
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.spans: list[dict] = []
        self.n_batches = 0

    # -- public API ------------------------------------------------------------
    def process(self, requests) -> list[PredictionResponse]:
        """Run the simulation over a request stream; returns exactly one
        response per request, ordered by ``request_id``."""
        ordered = sorted(requests,
                         key=lambda r: (r.arrival_s, r.request_id))
        events: list[tuple[float, int, int, object]] = []
        self._seq = 0
        for req in ordered:
            self._push(events, req.arrival_s, "arrive", req)
        queues: dict[str, MicroBatcher] = {}
        slots: dict[str, list[float]] = {}
        responses: dict[int, PredictionResponse] = {}

        while events:
            now, _, _, payload = heapq.heappop(events)
            kind, data = payload
            if kind == "arrive":
                self._admit(data, now, queues, slots, responses, events)
            else:   # "slot" and "flush" both just retry dispatch
                self._dispatch(data, now, queues, slots, responses,
                               events)
        return [responses[rid] for rid in sorted(responses)]

    # -- event plumbing --------------------------------------------------------
    def _push(self, events, t: float, kind: str, data) -> None:
        self._seq += 1
        heapq.heappush(
            events, (t, _EVENT_RANK[kind], self._seq, (kind, data))
        )

    # -- admission + routing ---------------------------------------------------
    def _admit(self, req: PredictionRequest, now: float, queues, slots,
               responses, events) -> None:
        self.registry.counter("serving.requests").inc()
        cap = req.budget.max_rows
        if cap is not None and req.n_rows > cap:
            self._reject(req, now, responses,
                         f"{req.n_rows} rows exceed the request's "
                         f"max_rows cap of {cap}")
            return
        if req.n_rows > self.policy.max_batch_rows:
            self._reject(req, now, responses,
                         f"{req.n_rows} rows exceed the server's "
                         f"batch ceiling of {self.policy.max_batch_rows}")
            return
        decision = self.router.route(req.n_rows, req.budget.max_joules)
        if not decision.accepted:
            self._reject(req, now, responses,
                         f"joule budget {req.budget.max_joules:g} J "
                         f"unmeetable: cheapest variant needs "
                         f"{decision.projected_joules:g} J")
            return
        variant = decision.variant
        if variant not in queues:
            queues[variant] = MicroBatcher(self.policy)
            slots[variant] = [0.0] * self.n_slots
        queue = queues[variant]
        queue.add(req)
        responses[req.request_id] = PredictionResponse(
            request_id=req.request_id, status=STATUS_OK,
            variant=variant, n_rows=req.n_rows, arrival_s=req.arrival_s,
            slo_ok=decision.reason != ROUTE_SLO_FALLBACK,
        )
        self._dispatch(variant, now, queues, slots, responses, events)

    def _reject(self, req: PredictionRequest, now: float, responses,
                message: str) -> None:
        self.registry.counter("serving.rejected").inc()
        failure = FailureRecord(
            error_type="ConstraintViolationError",
            seam=SEAM_REQUEST_BUDGET, attempt=1, message=message,
        )
        responses[req.request_id] = PredictionResponse(
            request_id=req.request_id, status=STATUS_REJECTED,
            variant=None, n_rows=req.n_rows, arrival_s=req.arrival_s,
            completed_s=now, failure=failure,
        )
        self._record_request_span(responses[req.request_id], now, now)

    # -- batching + execution --------------------------------------------------
    def _dispatch(self, variant: str, now: float, queues, slots,
                  responses, events) -> None:
        queue = queues.get(variant)
        if queue is None:
            return
        while len(queue):
            slot = self._free_slot(slots[variant], now)
            if slot is None or not queue.ready(now):
                break
            batch = queue.take()
            self._execute(variant, batch, now, slot, slots, responses,
                          events)
        if len(queue):
            # guarantee progress: the wait window of the (new) oldest
            # request always has a flush event in flight
            flush_at = max(queue.flush_at(), now)
            self._push(events, flush_at, "flush", variant)

    @staticmethod
    def _free_slot(slot_times: list[float], now: float) -> int | None:
        for i, free_at in enumerate(slot_times):
            if free_at <= now:
                return i
        return None

    def _execute(self, variant: str, batch, now: float, slot: int,
                 slots, responses, events) -> None:
        artifact = self.router.artifact(variant)
        n_rows = sum(r.n_rows for r in batch)
        est = estimate_inference(artifact, n_rows, self.machine)
        service_s = _DISPATCH_OVERHEAD_S + est.seconds
        model_joules = est.kwh * JOULES_PER_KWH
        # the batch's full bill includes dispatch overhead; the router
        # only learns the model-attributable share, so its per-variant
        # estimates stay comparable to the manifest numbers instead of
        # being drowned by per-batch constants
        joules = (model_joules
                  + self.machine.power(1) * _DISPATCH_OVERHEAD_S)
        t1 = now + service_s
        slots[variant][slot] = t1
        self._push(events, t1, "slot", variant)
        self.n_batches += 1
        self.registry.counter("serving.batches").inc()
        self.registry.histogram("serving.batch_rows",
                                (1, 4, 16, 64, 256, 1024)).observe(n_rows)
        predictions = self._predict(artifact, batch)
        self.router.observe(variant, n_rows, model_joules)

        offset = 0
        for req in batch:
            share = joules * req.n_rows / n_rows
            done = t1 + self._injected_stall(req)
            response = responses[req.request_id]
            response.started_s = now
            response.completed_s = done
            response.joules = share
            if predictions is not None:
                response.predictions = predictions[
                    offset:offset + req.n_rows]
            offset += req.n_rows
            self._finalise(response, req, t1)

    def _predict(self, artifact, batch) -> np.ndarray | None:
        if not self.execute_predictions:
            return None
        blocks = [r.X for r in batch]
        if any(b is None for b in blocks):
            return None
        X = blocks[0] if len(blocks) == 1 else np.vstack(blocks)
        return artifact.predict(X)

    def _injected_stall(self, req: PredictionRequest) -> float:
        """The ``request_timeout`` chaos seam: a seeded per-request
        stall added after batch completion (a straggler, not a batch
        failure — siblings in the batch are unaffected)."""
        if self.fault_injector is None:
            return 0.0
        return self.fault_injector.delay_s(
            SEAM_REQUEST_TIMEOUT, f"req:{req.request_id}"
        )

    def _finalise(self, response: PredictionResponse,
                  req: PredictionRequest, predict_end: float) -> None:
        stalled = response.completed_s > predict_end
        deadline = req.budget.deadline_s
        if stalled:
            response.failure = FailureRecord(
                error_type="InjectedFault", seam=SEAM_REQUEST_TIMEOUT,
                attempt=1, injected=True,
                message=f"injected stall on request {req.request_id}",
            )
        if deadline is not None and response.latency_s > deadline:
            response.status = STATUS_TIMEOUT
            if response.failure is None:
                response.failure = FailureRecord(
                    error_type="DeadlineExceeded",
                    seam=SEAM_REQUEST_DEADLINE, attempt=1,
                    message=(f"latency {response.latency_s:.4g}s over "
                             f"the {deadline:g}s deadline"),
                )
        registry = self.registry
        registry.counter(f"serving.{response.status}").inc()
        registry.counter("serving.rows").inc(response.n_rows)
        registry.counter("serving.joules").inc(response.joules)
        registry.histogram("serving.latency_seconds").observe(
            response.latency_s)
        registry.histogram("serving.queue_wait_seconds").observe(
            response.queue_wait_s)
        self._record_request_span(response, response.started_s,
                                  predict_end)

    # -- observability ---------------------------------------------------------
    def _record_request_span(self, response: PredictionResponse,
                             started: float, predict_end: float) -> None:
        if (self.span_sample_every == 0
                or response.request_id % self.span_sample_every):
            return
        t0 = response.arrival_s
        done = response.completed_s if response.completed_s is not None \
            else t0
        root = make_span("request", t0, CLOCK_SIM, {
            "id": response.request_id,
            "status": response.status,
            "variant": response.variant or "",
            "rows": response.n_rows,
        })
        root["t1"] = done
        if response.variant is not None:
            children = [
                ("queue_wait", t0, started, {}),
                ("batch", started, started,
                 {"rows": response.n_rows}),
                ("predict", started, predict_end, {}),
                ("energy", done, done, {"joules": response.joules}),
            ]
            for name, a, b, attrs in children:
                child = make_span(name, a, CLOCK_SIM, attrs)
                child["t1"] = b
                root["children"].append(child)
        self.spans.append(root)
        tracer = get_tracer()
        if tracer is not None:
            tracer.roots.append(root)
