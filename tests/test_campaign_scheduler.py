"""Multi-tenant scheduling: DRR policy properties and the serve loop.

The policy half (:class:`CampaignScheduler`) is tested as pure math —
hypothesis drives random tenant populations through thousands of dispatch
slots and checks the fairness contract (proportional share, bounded
starvation, per-tenant FIFO within a priority band).  The serve half
(:class:`MultiCampaignMaster`) is tested end to end over the same-host
transports: two tenants with disjoint grids drain through one fleet,
constraint placement is proven from the execution audit log's worker
column, and completion is exactly-once per job.  The tcp flavor of the
same scenario (heterogeneous ``mw-worker --caps`` processes) lives in
CI's scheduler-smoke job.
"""

import math
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign import (
    Campaign,
    CampaignScheduler,
    CampaignSpec,
    JOB_AUDIT_ENV,
    MultiCampaignMaster,
    serve_status,
)
from repro.telemetry import Telemetry

NULL = Telemetry(enabled=False)

drr_settings = settings(
    max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# A tenant population: 2-6 tenants with weights spanning two orders of
# magnitude — wide enough to expose starvation of light tenants.
weights_strategy = st.lists(
    st.sampled_from([0.1, 0.5, 1.0, 2.0, 5.0, 10.0]), min_size=2, max_size=6
)


def saturated_scheduler(weights, backlog=4000):
    """A scheduler whose every tenant always has queued work."""
    sched = CampaignScheduler(telemetry=NULL)
    names = [f"t{i}" for i in range(len(weights))]
    for name, weight in zip(names, weights):
        sched.add_tenant(name, weight=weight)
        for k in range(backlog):
            sched.enqueue(name, (name, k))
    return sched, names


class TestDeficitRoundRobin:
    @given(weights=weights_strategy)
    @drr_settings
    def test_share_proportional_to_weight(self, weights):
        """Over S slots every saturated tenant wins S*w/W slots, within a
        slack independent of S (here: n_tenants + 1 — the deficit scheme
        is *exactly* proportional up to rounding)."""
        sched, names = saturated_scheduler(weights)
        total = sum(weights)
        slots = 1000
        wins = Counter()
        for _ in range(slots):
            name, _ = sched.select()
            sched.mark_complete(name)
            wins[name] += 1
        for name, weight in zip(names, weights):
            expected = slots * weight / total
            assert abs(wins[name] - expected) <= len(weights) + 1

    @given(weights=weights_strategy)
    @drr_settings
    def test_no_tenant_starves(self, weights):
        """The gap between consecutive wins of a saturated tenant is
        bounded by 2*ceil(W/w) + 2n slots — bounded starvation, however
        light the tenant (empirical worst observed: 1.5 * (W/w + n))."""
        sched, names = saturated_scheduler(weights)
        total = sum(weights)
        bound = {
            name: 2 * math.ceil(total / weight) + 2 * len(weights)
            for name, weight in zip(names, weights)
        }
        last = {name: -1 for name in names}
        for slot in range(1500):
            name, _ = sched.select()
            sched.mark_complete(name)
            assert slot - last[name] <= bound[name], (
                f"{name} waited {slot - last[name]} slots (bound {bound[name]})"
            )
            last[name] = slot

    @given(
        items=st.lists(
            st.tuples(st.sampled_from(["a", "b"]), st.sampled_from(["high", "low"])),
            min_size=1,
            max_size=60,
        )
    )
    @drr_settings
    def test_per_tenant_fifo_within_band(self, items):
        """Whatever the interleaving across tenants, each tenant's items
        dispatch in arrival order within a band, and its high band fully
        drains before its low band."""
        sched = CampaignScheduler(telemetry=NULL)
        for name in ("a", "b"):
            sched.add_tenant(name)
        arrivals = {("a", "high"): [], ("a", "low"): [],
                    ("b", "high"): [], ("b", "low"): []}
        for seq, (name, band) in enumerate(items):
            sched.enqueue(name, seq, priority=band)
            arrivals[(name, band)].append(seq)
        dispatched = {"a": [], "b": []}
        while True:
            selected = sched.select()
            if selected is None:
                break
            name, seq = selected
            dispatched[name].append(seq)
            sched.mark_complete(name)
        for name in ("a", "b"):
            expected = arrivals[(name, "high")] + arrivals[(name, "low")]
            assert dispatched[name] == expected

    def test_inflight_cap_blocks_then_releases(self):
        sched = CampaignScheduler(telemetry=NULL)
        sched.add_tenant("capped", max_inflight=2)
        for k in range(4):
            sched.enqueue("capped", k)
        assert sched.select()[1] == 0
        assert sched.select()[1] == 1
        assert sched.select() is None  # at the cap
        sched.mark_complete("capped")
        assert sched.select()[1] == 2

    def test_unplaceable_head_blocks_only_its_tenant(self):
        """A tenant whose head item can't place earns no credit and the
        other tenants keep dispatching (no head-of-line blocking across
        tenants)."""
        sched = CampaignScheduler(telemetry=NULL)
        sched.add_tenant("pinned")
        sched.add_tenant("free")
        sched.enqueue("pinned", "needs-md")
        for k in range(3):
            sched.enqueue("free", k)
        grants = [sched.select(lambda item: item != "needs-md") for _ in range(4)]
        assert [g[1] for g in grants[:3]] == [0, 1, 2]
        assert grants[3] is None  # only the unplaceable head remains
        assert sched.select(lambda item: True) == ("pinned", "needs-md")

    def test_blocked_tenant_banks_no_burst(self):
        """Slots a capped tenant sat out earn it nothing: once unblocked
        it resumes at its weight share instead of monopolizing the fleet."""
        sched = CampaignScheduler(telemetry=NULL)
        sched.add_tenant("a", max_inflight=1)
        sched.add_tenant("b")
        for k in range(100):
            sched.enqueue("a", k)
            sched.enqueue("b", k)
        name, _ = sched.select()
        while True:  # drain slots until "a" is at its cap
            selected = sched.select()
            if selected is None or sched.tenants["a"].inflight == 1:
                break
        for _ in range(50):  # "a" capped: all slots go to "b"
            selected = sched.select()
            assert selected is None or selected[0] == "b"
            if selected:
                sched.mark_complete("b")
        assert sched.tenants["a"].deficit <= 1.0  # no banked credit

    def test_validation(self):
        sched = CampaignScheduler(telemetry=NULL)
        sched.add_tenant("t")
        with pytest.raises(ValueError, match="already registered"):
            sched.add_tenant("t")
        with pytest.raises(ValueError, match="weight"):
            sched.add_tenant("w", weight=0)
        with pytest.raises(ValueError, match="max_inflight"):
            sched.add_tenant("q", max_inflight=0)
        with pytest.raises(ValueError, match="priority"):
            sched.enqueue("t", "x", priority="urgent")
        with pytest.raises(ValueError, match="no inflight"):
            sched.mark_complete("t")
        for batch_size in (0, -1):  # rejected before any directory is opened
            with pytest.raises(ValueError, match="batch_size"):
                MultiCampaignMaster(["unopened"], batch_size=batch_size,
                                    telemetry=NULL)


def tenant_spec(name, algorithm, **overrides):
    """A small, fast grid; distinct algorithms keep tenant grids disjoint."""
    kwargs = dict(
        name=name,
        algorithms=[algorithm],
        functions=["sphere"],
        dims=[2],
        sigma0s=[1.0],
        seeds=list(range(6)),
        tau=1e-3,
        walltime=1e3,
        max_steps=10,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


class TestMultiCampaignMaster:
    def serve_two_tenants(self, tmp_path, monkeypatch, **master_kwargs):
        """Drain a constrained + an unconstrained tenant over one fleet."""
        audit = tmp_path / "audit.log"
        monkeypatch.setenv(JOB_AUDIT_ENV, str(audit))
        spec_a = tenant_spec("tenant-a", "DET", constraints=["md"],
                             priority="high", weight=2.0)
        spec_b = tenant_spec("tenant-b", "PC")
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        Campaign(dir_a, spec=spec_a)
        Campaign(dir_b, spec=spec_b)
        master = MultiCampaignMaster(
            [dir_a, dir_b],
            transport="threaded",
            max_workers=3,
            worker_caps={1: ["md"], 2: ["md", "fast"]},  # rank 3: no caps
            batch_size=4,
            telemetry=NULL,
            **master_kwargs,
        )
        reports = master.serve(timeout=120)
        return spec_a, spec_b, reports, audit, dir_a, dir_b

    def test_drains_both_tenants_with_constraint_placement(
        self, tmp_path, monkeypatch
    ):
        spec_a, spec_b, reports, audit, dir_a, dir_b = self.serve_two_tenants(
            tmp_path, monkeypatch
        )
        assert reports["tenant-a"].n_done == 6
        assert reports["tenant-b"].n_done == 6
        assert not reports["tenant-a"].interrupted
        # placement: every constrained execution names an md-capable rank
        ids_a = {j.job_id for j in spec_a.expand()}
        entries = [line.split() for line in audit.read_text().splitlines()]
        for job_id, _run, _span, worker in entries:
            if job_id in ids_a:
                rank, _, caps = worker.partition(":")
                assert rank in ("1", "2"), f"constrained job on rank {rank}"
                assert "md" in caps.split(",")
        # exactly-once per job, across both tenants
        counts = Counter(entry[0] for entry in entries)
        assert len(counts) == 12 and all(n == 1 for n in counts.values())
        # both stores are complete
        assert Campaign(dir_a).store.completed_ids() == ids_a
        assert Campaign(dir_b).store.completed_ids() == {
            j.job_id for j in spec_b.expand()
        }

    def test_serve_is_resumable_and_idempotent(self, tmp_path, monkeypatch):
        """A second serve over drained directories does nothing."""
        *_, dir_a, dir_b = self.serve_two_tenants(tmp_path, monkeypatch)
        master = MultiCampaignMaster([dir_a, dir_b], transport="inproc",
                                     max_workers=1, telemetry=NULL)
        reports = master.serve(timeout=60)
        assert reports["tenant-a"].n_skipped == 6
        assert reports["tenant-a"].n_run == 0
        assert reports["tenant-b"].n_run == 0

    def test_quota_override_caps_inflight(self, tmp_path, monkeypatch):
        """--quota NAME=1 serializes a tenant without blocking the other."""
        spec_a, spec_b, reports, *_ = self.serve_two_tenants(
            tmp_path, monkeypatch, quotas={"tenant-a": 1}
        )
        assert reports["tenant-a"].n_done == 6
        assert reports["tenant-b"].n_done == 6

    def test_one_heartbeat_thread_whatever_the_tenant_count(
        self, tmp_path, monkeypatch
    ):
        """A 3-tenant serve renews every tenant's claims from as many
        heartbeat threads as a 1-tenant serve."""
        import threading

        names = []
        real_start = threading.Thread.start

        def start(thread):
            names.append(thread.name)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)

        def heartbeat_threads(algorithms):
            names.clear()
            directories = []
            for algorithm in algorithms:
                directory = tmp_path / f"{len(algorithms)}-{algorithm}"
                Campaign(directory, spec=tenant_spec(f"t-{algorithm}", algorithm))
                directories.append(directory)
            master = MultiCampaignMaster(directories, transport="inproc",
                                         max_workers=2, telemetry=NULL)
            reports = master.serve(timeout=60)
            assert all(report.n_done == 6 for report in reports.values())
            return names.count("lease-heartbeat")

        assert heartbeat_threads(["DET", "PC", "MN"]) == heartbeat_threads(["DET"])

    def test_unknown_override_name_rejected(self, tmp_path):
        Campaign(tmp_path / "a", spec=tenant_spec("only", "DET"))
        with pytest.raises(ValueError, match="match no tenant"):
            MultiCampaignMaster([tmp_path / "a"], weights={"ghost": 2.0},
                                telemetry=NULL)

    def test_duplicate_tenant_names_rejected(self, tmp_path):
        Campaign(tmp_path / "a", spec=tenant_spec("same", "DET"))
        Campaign(tmp_path / "b", spec=tenant_spec("same", "PC"))
        with pytest.raises(ValueError, match="duplicate tenant name"):
            MultiCampaignMaster([tmp_path / "a", tmp_path / "b"],
                                telemetry=NULL)

    def test_unsatisfiable_constraints_fail_not_hang(self, tmp_path):
        """On a static fleet with no capable worker, constrained jobs fail
        (recorded as failed) instead of waiting forever."""
        spec = tenant_spec("pinned", "DET", constraints=["gpu"])
        directory = tmp_path / "camp"
        Campaign(directory, spec=spec)
        master = MultiCampaignMaster([directory], transport="inproc",
                                     max_workers=2, telemetry=NULL)
        reports = master.serve(timeout=60)
        assert reports["pinned"].n_failed == 6
        records = list(Campaign(directory).store.records())
        assert all("constraints" in (r["error"] or "") for r in records)

    def test_caps_on_the_highest_rank_survive_a_short_backlog(
        self, tmp_path, monkeypatch
    ):
        """Fewer pending jobs than workers must not shrink the fleet below
        the rank that holds the capability they need."""
        audit = tmp_path / "audit.log"
        monkeypatch.setenv(JOB_AUDIT_ENV, str(audit))
        spec = tenant_spec("pinned", "DET", constraints=["gpu"], seeds=[0, 1])
        directory = tmp_path / "camp"
        Campaign(directory, spec=spec)
        master = MultiCampaignMaster([directory], transport="inproc",
                                     max_workers=4, worker_caps={4: ["gpu"]},
                                     telemetry=NULL)
        reports = master.serve(timeout=60)
        assert reports["pinned"].n_done == 2 and reports["pinned"].n_failed == 0
        workers = [line.split()[3] for line in audit.read_text().splitlines()]
        assert workers == ["4:gpu", "4:gpu"]

    def test_serve_status_reports_policy_fields(self, tmp_path):
        Campaign(tmp_path / "a", spec=tenant_spec(
            "tenant-a", "DET", constraints=["md"], weight=2.0, max_inflight=3,
        ))
        rows = serve_status([tmp_path / "a"])
        assert rows[0]["name"] == "tenant-a"
        assert rows[0]["weight"] == 2.0
        assert rows[0]["max_inflight"] == 3
        assert rows[0]["constraints"] == ["md"]
        assert rows[0]["pending"] == 6
