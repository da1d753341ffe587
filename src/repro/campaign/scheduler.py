"""Multi-tenant campaign scheduling: one master, many campaigns, one fleet.

The paper's MW layer multiplexes one master over many heterogeneous
workers; ``campaign serve`` multiplexes many *campaigns* (tenants) over
one worker fleet:

* :class:`CampaignScheduler` — the pure dispatch policy, in the style of
  the megha/pigeon_sim scheduler: each tenant owns a **two-level queue**
  (high priority drains before low, FIFO within a band) and dispatch
  slots are shared by **deficit-weighted round-robin** — every slot, each
  dispatchable tenant earns credit proportional to its weight and the
  tenant with the largest deficit spends one unit, so a backlogged
  tenant's share converges to ``weight / total_weight`` with bounded
  starvation.  **Inflight caps** and capability placement (``can_place``)
  are modelled as ineligibility: a capped or unplaceable tenant earns no
  credit, so it neither starves others nor banks a burst for later.
* :class:`MultiCampaignMaster` — the runner's claim → dispatch → record
  loop (:class:`~repro.campaign.runner._DispatchLoop`) with one tenant
  per directory, all sharing one :class:`~repro.mw.driver.MWDriver`.
  With ``async_mode`` its work units are single evaluations, shared by
  open jobs rather than by this scheduler.

Placement is constraint-checked twice: the scheduler only offers a job
when a free worker slot's capability vector covers it
(:meth:`~repro.mw.driver.MWDriver.capacity`), and the driver's
:meth:`~repro.mw.driver.MWDriver._pick_worker` enforces the same rule at
dispatch.  Decisions surface as ``repro_sched_*`` series; ``campaign
serve --status`` renders the per-tenant view.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.campaign.runner import (
    DEFAULT_LEASE_TTL,
    Campaign,
    _DispatchLoop,
    default_runner_id,
)
from repro.campaign.spec import PRIORITIES
from repro.telemetry import Telemetry

__all__ = [
    "CampaignScheduler",
    "MultiCampaignMaster",
    "TenantQueue",
    "serve_status",
]


@dataclass
class TenantQueue:
    """One tenant's scheduling state inside a :class:`CampaignScheduler`.

    ``deficit`` is the tenant's deficit-round-robin credit balance:
    incremented by its weight share each slot it is dispatchable,
    decremented by one when it wins the slot.  ``high`` and ``low`` are
    the two FIFO priority bands; ``inflight`` counts dispatched items not
    yet marked complete (compared against ``max_inflight``).
    """

    name: str
    weight: float = 1.0
    max_inflight: Optional[int] = None
    high: Deque[Any] = field(default_factory=deque)
    low: Deque[Any] = field(default_factory=deque)
    deficit: float = 0.0
    inflight: int = 0
    dispatched: int = 0

    def depth(self) -> int:
        """Queued (not yet dispatched) items across both bands."""
        return len(self.high) + len(self.low)

    def peek(self) -> Optional[Any]:
        """The next item this tenant would dispatch (high band first)."""
        if self.high:
            return self.high[0]
        if self.low:
            return self.low[0]
        return None

    def pop(self) -> Any:
        """Remove and return the next item (high band first; FIFO within)."""
        return self.high.popleft() if self.high else self.low.popleft()

    def under_cap(self) -> bool:
        """Whether the tenant may dispatch another item right now."""
        return self.max_inflight is None or self.inflight < self.max_inflight


class CampaignScheduler:
    """Deficit-weighted round-robin over per-tenant two-level queues.

    The policy core of ``campaign serve``, kept free of stores, drivers
    and sockets so its fairness properties are directly testable: items
    are opaque, tenants are names, and the only external input is the
    caller's ``can_place`` predicate (a free worker slot whose capability
    vector covers the item exists *right now*).

    Fairness contract, for tenants that stay dispatchable (non-empty
    queue, under their inflight cap, placeable):

    * **proportional share** — over ``S`` consecutive slots a tenant of
      weight ``w`` wins ``S * w / W ± O(n_tenants)`` of them, where ``W``
      is the dispatchable tenants' total weight;
    * **bounded starvation** — the gap between a tenant's consecutive
      wins never exceeds ``ceil(W / w) + n_tenants`` slots;
    * **per-tenant FIFO** — within a priority band, items dispatch in
      arrival order, and the high band fully precedes the low band.

    Parameters
    ----------
    telemetry:
        Metrics context for the ``repro_sched_*`` series; defaults to
        :meth:`Telemetry.from_env`.
    """

    def __init__(self, telemetry: Optional[Telemetry] = None) -> None:
        self.tenants: Dict[str, TenantQueue] = {}
        self.telemetry = telemetry if telemetry is not None else Telemetry.from_env()

    # -- tenant management -------------------------------------------------

    def add_tenant(self, name: str, weight: float = 1.0,
                   max_inflight: Optional[int] = None) -> TenantQueue:
        """Register a tenant; returns its :class:`TenantQueue`.

        ``weight`` sets the tenant's share of dispatch slots relative to
        the other dispatchable tenants; ``max_inflight`` caps how many of
        its items may be dispatched-but-incomplete at once.
        """
        if name in self.tenants:
            raise ValueError(f"tenant {name!r} already registered")
        if not (float(weight) > 0):
            raise ValueError(f"weight must be > 0, got {weight}")
        if max_inflight is not None and int(max_inflight) < 1:
            raise ValueError(f"max_inflight must be >= 1 or None, got {max_inflight}")
        tenant = TenantQueue(name=name, weight=float(weight),
                             max_inflight=max_inflight)
        self.tenants[name] = tenant
        return tenant

    def enqueue(self, name: str, item: Any, priority: str = "low") -> None:
        """Queue one item for a tenant in the given priority band."""
        if priority not in PRIORITIES:
            raise ValueError(f"priority must be one of {PRIORITIES}, got {priority!r}")
        tenant = self.tenants[name]
        (tenant.high if priority == "high" else tenant.low).append(item)
        self.telemetry.gauge(
            "repro_sched_queue_depth", "Queued (undispatched) jobs per tenant.",
            tenant=name,
        ).set(tenant.depth())

    def depth(self, name: str) -> int:
        """Queued items for one tenant (both bands)."""
        return self.tenants[name].depth()

    def queued(self) -> int:
        """Queued items across every tenant."""
        return sum(t.depth() for t in self.tenants.values())

    # -- the slot auction --------------------------------------------------

    def select(
        self, can_place: Optional[Callable[[Any], bool]] = None
    ) -> Optional[Tuple[str, Any]]:
        """Fill one dispatch slot; returns ``(tenant, item)`` or ``None``.

        A tenant competes for the slot iff it has queued work, is under
        its inflight cap, and its head item passes ``can_place`` (default:
        everything places).  Competitors each earn ``weight / W`` credit,
        the highest-deficit competitor (registration order breaks ties)
        pops its head item and pays one unit.  Tenants blocked by their
        cap or by placement earn nothing — policy is explicit: they are
        counted in ``repro_sched_blocked_total`` instead of silently
        skipped.

        ``None`` means no tenant can use the slot (all empty, capped, or
        unplaceable); callers stop offering slots until something changes
        (a completion, a worker join, new work).
        """
        competitors: List[TenantQueue] = []
        for tenant in self.tenants.values():
            if not tenant.depth():
                continue
            if not tenant.under_cap():
                blocked = "inflight_cap"
            elif can_place is not None and not can_place(tenant.peek()):
                blocked = "no_capable_worker"
            else:
                competitors.append(tenant)
                continue
            self.telemetry.counter(
                "repro_sched_blocked_total",
                "Dispatch slots a tenant with queued work could not take.",
                tenant=tenant.name, reason=blocked,
            ).inc()
        if not competitors:
            return None
        total_weight = sum(t.weight for t in competitors)
        for tenant in competitors:
            tenant.deficit += tenant.weight / total_weight
        winner = max(competitors, key=lambda t: t.deficit)
        winner.deficit -= 1.0
        item = winner.pop()
        winner.inflight += 1
        winner.dispatched += 1
        self.telemetry.counter(
            "repro_sched_dispatch_total", "Dispatch slots won, per tenant.",
            tenant=winner.name,
        ).inc()
        self.telemetry.gauge(
            "repro_sched_queue_depth", "Queued (undispatched) jobs per tenant.",
            tenant=winner.name,
        ).set(winner.depth())
        return winner.name, item

    def mark_complete(self, name: str) -> None:
        """Record one dispatched item of a tenant as finished (frees cap)."""
        tenant = self.tenants[name]
        if tenant.inflight <= 0:
            raise ValueError(f"tenant {name!r} has no inflight items")
        tenant.inflight -= 1


class MultiCampaignMaster(_DispatchLoop):
    """One long-lived master draining many campaign directories.

    The :class:`~repro.campaign.runner._DispatchLoop` ``campaign run``
    uses, with one tenant per directory over one mw driver on
    ``transport``: each tenant claims rolling batches from its own store
    under leases, a :class:`CampaignScheduler` shares free worker slots
    out by deficit-weighted round-robin, placement honours each job's
    constraint vector, and a finished job is recorded in its tenant's
    store at the end of the pump beat it finishes in.  :meth:`serve`
    drains them all.

    Parameters
    ----------
    directories:
        Campaign directories (each with ``spec.json``); tenant names —
        the spec names — must be unique across them.
    transport:
        Shared fleet transport: ``process`` (default), ``threaded``,
        ``inproc``, or a ``tcp://host:port`` listen URL (heterogeneous
        ``mw-worker --caps`` workers connect there).
    max_workers:
        Worker rank slots (default: CPU count; without ``worker_caps`` a
        local fleet spawns no more workers than pending jobs).
    weights / quotas:
        Per-tenant overrides (``{name: weight}`` / ``{name:
        max_inflight}``) of the specs' scheduling fields.
    worker_caps:
        ``{rank: [capability, …]}`` for the same-host transports (TCP
        workers declare their own caps in the hello handshake).
    batch_size:
        Jobs claimed per top-up, per tenant — the lease granularity (the
        jobs each tenant keeps open in async mode).
    async_mode / max_inflight / eval_batch / flush_interval:
        As in :class:`~repro.campaign.runner.CampaignRunner`.  The pool
        is shared by open jobs, not by DRR, so async mode refuses
        (``ValueError``) differing weights, quotas, constraints and
        ``worker_caps``.
    lease_ttl / runner_id / mw_max_retries / telemetry:
        As in :class:`~repro.campaign.runner.CampaignRunner`.
    """

    def __init__(
        self,
        directories: Sequence[Any],
        transport: str = "process",
        max_workers: Optional[int] = None,
        weights: Optional[Mapping[str, float]] = None,
        quotas: Optional[Mapping[str, int]] = None,
        worker_caps: Optional[Mapping[int, Sequence[str]]] = None,
        batch_size: int = 8,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        mw_max_retries: int = 2,
        runner_id: Optional[str] = None,
        telemetry: Optional[Telemetry] = None,
        async_mode: bool = False,
        max_inflight: Optional[int] = None,
        eval_batch: int = 1,
        flush_interval: float = 2.0,
    ) -> None:
        if not directories:
            raise ValueError("campaign serve needs at least one directory")
        runner_id = runner_id or default_runner_id()
        if telemetry is None:
            telemetry = Telemetry.from_env(Path(directories[0]), runner=runner_id)
        super().__init__(
            "eval" if async_mode else "job", label=transport,
            batch_size=batch_size, lease_ttl=lease_ttl,
            runner_id=runner_id, telemetry=telemetry, transport=transport,
            max_workers=max_workers, mw_max_retries=mw_max_retries,
            worker_caps=worker_caps, max_inflight=max_inflight,
            eval_batch=eval_batch, flush_interval=flush_interval,
        )
        weights = dict(weights or {})
        quotas = dict(quotas or {})
        for directory in directories:
            campaign = Campaign(directory)
            name = campaign.spec.name
            if name in self.tenants:
                raise ValueError(
                    f"duplicate tenant name {name!r} (in {directory}); "
                    f"spec names must be unique under one serve master"
                )
            self.add_tenant(
                campaign.spec, campaign.store, campaign.jobs(),
                weight=float(weights.get(name, campaign.spec.weight)),
                max_inflight=quotas.get(name, campaign.spec.max_inflight),
                campaign=campaign,
            )
        unknown = (set(weights) | set(quotas)) - set(self.tenants)
        if unknown:
            raise ValueError(
                f"--weight/--quota name(s) {sorted(unknown)} match no tenant; "
                f"tenants: {sorted(self.tenants)}"
            )
        tenants = self.tenants.values()
        ignored = [f"{t.name}'s quota" for t in tenants if t.max_inflight is not None]
        ignored += [f"{t.name}'s constraints" for t in tenants
                    if t.campaign.spec.constraints]
        if len({t.weight for t in tenants}) > 1:
            ignored.append("weights that differ between tenants")
        if self.worker_caps:
            ignored.append("--worker-caps")
        if async_mode and ignored:  # the eval kind would silently drop them
            raise ValueError(
                f"async serve shares the fleet by open jobs, not by weight, "
                f"quota or capability; it cannot honour {', '.join(ignored)} "
                f"(serve without --async, or drop them)"
            )


def serve_status(directories: Sequence[Any]) -> List[dict]:
    """One-shot ``campaign serve --status`` rows, without starting a master.

    Reads each directory's spec and store and reports job progress plus
    the scheduling policy fields (weight, priority, constraints, inflight
    cap).
    """
    rows = []
    for directory in directories:
        campaign = Campaign(directory)
        row = campaign.status()
        row.pop("cells", None)
        row.update(
            weight=float(campaign.spec.weight),
            max_inflight=campaign.spec.max_inflight,
            priority=campaign.spec.priority,
            constraints=list(campaign.spec.constraints),
        )
        rows.append(row)
    return rows
