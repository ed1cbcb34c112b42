"""Deterministic, seeded fault plans.

A :class:`FaultPlan` names the *seams* where failures may be injected
(``cell_error``, ``worker_death``, ``slow_cell``, ``cache_corrupt``,
``journal_torn``, ``rapl_read``, ``trial_error``, ``artifact_corrupt``,
``request_timeout``, ``shard_death``, ``lease_expire``,
``segment_torn``, ``store_corrupt``) and, per seam, how often and in
what pattern they
fire.  Decisions are **order-independent
pure functions** of ``(plan seed, seam, key)``: the draw is a sha256
hash mapped to [0, 1), so the parent process, a pool worker, and a
re-run with the same seed all agree on exactly which keys fault —
regardless of scheduling, completion order or worker count.  That is
what makes a chaos campaign's injected-fault sequence reproducible and
lets the executor *account* for worker-side faults (even a worker that
``os._exit``-ed before reporting) by evaluating the same plan
parent-side.

The plan serialises to JSON so it can travel in a pickled call to a
pool worker and into the campaign journal header for provenance.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

from repro.utils.rng import check_random_state

#: the seams the runtime/energy/systems layers expose hooks for
SEAM_CELL_ERROR = "cell_error"        # exception out of run_single
SEAM_WORKER_DEATH = "worker_death"    # os._exit inside the pool worker
SEAM_SLOW_CELL = "slow_cell"          # wall-clock stall tripping cell_timeout_s
SEAM_CACHE_CORRUPT = "cache_corrupt"  # garbled ResultCache payload bytes
SEAM_JOURNAL_TORN = "journal_torn"    # truncated CampaignJournal line
SEAM_RAPL_READ = "rapl_read"          # RaplCounter.read() failure
SEAM_TRIAL_ERROR = "trial_error"      # one pipeline evaluation raises
SEAM_ARTIFACT_CORRUPT = "artifact_corrupt"   # garbled artifact payload bytes
SEAM_REQUEST_TIMEOUT = "request_timeout"     # one served request stalls
SEAM_SHARD_DEATH = "shard_death"      # a whole shard group dies mid-batch
SEAM_LEASE_EXPIRE = "lease_expire"    # a shard wedges past its lease, then
                                      # resurrects as a fenced straggler
SEAM_SEGMENT_TORN = "segment_torn"    # truncated shard journal-segment line
SEAM_STORE_CORRUPT = "store_corrupt"  # garbled EvalStore trial payload bytes

KNOWN_SEAMS = (
    SEAM_CELL_ERROR,
    SEAM_WORKER_DEATH,
    SEAM_SLOW_CELL,
    SEAM_CACHE_CORRUPT,
    SEAM_JOURNAL_TORN,
    SEAM_RAPL_READ,
    SEAM_TRIAL_ERROR,
    SEAM_ARTIFACT_CORRUPT,
    SEAM_REQUEST_TIMEOUT,
    SEAM_SHARD_DEATH,
    SEAM_LEASE_EXPIRE,
    SEAM_SEGMENT_TORN,
    SEAM_STORE_CORRUPT,
)

#: firing patterns a seam supports
MODES = ("bernoulli", "one_shot", "burst")


@dataclass(frozen=True)
class SeamSpec:
    """How one seam misbehaves.

    ``rate`` is the per-key firing probability.  ``mode`` shapes the
    pattern: ``bernoulli`` fires independently per key (the only mode
    whose decisions are order-independent — campaign-level chaos uses
    it exclusively); ``one_shot`` fires on the first key whose draw
    passes and then never again; ``burst`` keeps firing for
    ``burst_len`` consecutive checks once triggered.  ``max_faults``
    caps total fires per injector instance (0 = unlimited).
    ``delay_s`` is the stall length for ``slow_cell``-style seams.
    """

    rate: float = 0.0
    mode: str = "bernoulli"
    burst_len: int = 1
    max_faults: int = 0
    delay_s: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.burst_len < 1:
            raise ValueError("burst_len must be >= 1")
        if self.max_faults < 0:
            raise ValueError("max_faults must be >= 0")
        if self.delay_s < 0:
            raise ValueError("delay_s must be non-negative")


def _uniform(nonce: int, seam: str, key: str) -> float:
    """Deterministic draw in [0, 1) from the plan nonce, seam and key."""
    digest = hashlib.sha256(f"{nonce}|{seam}|{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass
class FaultPlan:
    """Seed + per-seam specs; the pure decision function lives here."""

    seed: int = 0
    seams: dict[str, SeamSpec] = field(default_factory=dict)

    def __post_init__(self):
        # the plan's decision stream is keyed by a nonce derived from the
        # seed through the package's standard RNG plumbing, so fault
        # streams are decorrelated from the campaign's own seed schedule
        self._nonce = int(
            check_random_state(int(self.seed)).integers(0, 2**63 - 1)
        )

    # -- decisions -------------------------------------------------------------
    def draw(self, seam: str, key: str) -> float:
        return _uniform(self._nonce, seam, key)

    def decide(self, seam: str, key: str) -> bool:
        """Stateless (bernoulli) decision: does ``seam`` fire for ``key``?

        Stateful modes (``one_shot``/``burst``/``max_faults``) need an
        :class:`~repro.faults.injector.FaultInjector`; this pure form is
        what the worker-side seams fire on, so the parent can account
        for them without hearing back.
        """
        spec = self.seams.get(seam)
        if spec is None or spec.rate <= 0.0:
            return False
        return self.draw(seam, key) < spec.rate

    # -- serialisation ---------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "seed": int(self.seed),
            "seams": {name: asdict(spec)
                      for name, spec in sorted(self.seams.items())},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        return cls(
            seed=int(payload.get("seed", 0)),
            seams={name: SeamSpec(**spec)
                   for name, spec in payload.get("seams", {}).items()},
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def uniform(cls, seed: int, seams, rate: float, *,
                delay_s: float = 0.0) -> "FaultPlan":
        """One bernoulli spec at ``rate`` for every seam in ``seams``."""
        return cls(seed=seed, seams={
            seam: SeamSpec(rate=rate, delay_s=delay_s) for seam in seams
        })
