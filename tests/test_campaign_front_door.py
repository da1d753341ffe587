"""The campaign front door: ``campaign run`` and ``campaign serve`` share
one option group and one handler over the one dispatch loop.

``run DIR`` initialises or resumes one spec and then takes the path
``serve DIR`` takes, so every dispatch-loop setting means the same under
both commands: ``serve --async`` runs the loop's ``eval`` kind, ``run``
takes ``--timeout`` and ``--mw-max-retries``.  What async serving cannot
honour (it shares the fleet by open jobs, not by deficit-weighted
round-robin) is refused before any claim instead of ignored.
"""

import json
from collections import Counter

import pytest

from repro.campaign import Campaign, CampaignSpec
from repro.cli import main

#: Fields that record when and by which run a job executed, not what it gave.
TIMING_FIELDS = ("elapsed_s", "run_id", "span_id")


def det_spec(name, functions, seeds):
    return CampaignSpec(name=name, algorithms=["DET"], functions=functions,
                        dims=[2], sigma0s=[1.0], seeds=seeds, tau=1e-3,
                        walltime=1e3, max_steps=30)


def stored(directory):
    """``{job_id: record}`` of a campaign's store, timing fields dropped."""
    return {
        rec["job_id"]: {k: v for k, v in rec.items() if k not in TIMING_FIELDS}
        for rec in Campaign(directory).records()
    }


def record_lines(directory) -> Counter:
    """Result lines per job id in a jsonl store (claims and releases excluded)."""
    counts = Counter()
    for line in (directory / "results.jsonl").read_text().splitlines():
        rec = json.loads(line)
        if rec["status"] in ("done", "failed"):
            counts[rec["job_id"]] += 1
    return counts


@pytest.mark.parametrize("transport", ["inproc", "process"])
def test_async_serve_records_equal_two_async_runs(tmp_path, capsys, transport):
    """Two DET tenants served together record what two one-tenant async
    runs record: DET mints no refinement, so sharing the in-flight budget
    (and batch frames, which mix the tenants' same-objective proposals)
    changes nothing but timing."""
    specs = [det_spec("alpha", ["sphere"], [0, 1, 2]),
             det_spec("beta", ["sphere", "quadratic"], [3, 4])]
    loop_flags = ["--async", "--eval-batch", "8", "--transport", transport,
                  "--max-workers", "2"]
    served = []
    for spec in specs:
        served.append(tmp_path / "serve" / spec.name)
        Campaign(served[-1], spec=spec)
        path = tmp_path / f"{spec.name}.json"
        spec.save(path)
        rc = main(["campaign", "run", str(tmp_path / "run" / spec.name),
                   "--spec", str(path), *loop_flags])
        assert rc == 0
    rc = main(["campaign", "serve", *map(str, served), *loop_flags])
    out = capsys.readouterr().out
    assert rc == 0 and "serving 2 campaign(s)" in out
    for spec, directory in zip(specs, served):
        alone = stored(tmp_path / "run" / spec.name)
        assert len(alone) == len(spec.expand())
        assert stored(directory) == alone
        assert all(rec["status"] == "done" for rec in alone.values())


def test_mixed_algorithm_async_serve_records_each_job_once(tmp_path, capsys):
    """Refinement-minting tenants (MN, PC) and a DET tenant share one
    async pool; every job of every tenant is recorded exactly once."""
    dirs = [tmp_path / "noisy", tmp_path / "det"]
    Campaign(dirs[0], spec=CampaignSpec(
        name="noisy", algorithms=["MN", "PC"], functions=["sphere"], dims=[2],
        sigma0s=[1.0], seeds=[0, 1, 2], tau=0.05, walltime=1e5, max_steps=15))
    Campaign(dirs[1], spec=det_spec("det", ["sphere", "quadratic"], [0, 1]))
    rc = main(["campaign", "serve", *map(str, dirs), "--async",
               "--transport", "threaded", "--max-workers", "3",
               "--batch-size", "2", "--max-inflight", "8"])
    assert rc == 0, capsys.readouterr().err
    for directory in dirs:
        jobs = {job.job_id for job in Campaign(directory).jobs()}
        assert record_lines(directory) == Counter({job_id: 1 for job_id in jobs})


@pytest.mark.parametrize("flags, spec_extra", [
    (["--weight", "alpha=2"], {}),
    (["--quota", "alpha=1"], {}),
    (["--worker-caps", "1=md"], {}),
    ([], {"constraints": ["md"]}),
    ([], {"max_inflight": 1}),
], ids=["weight", "quota", "worker-caps", "spec-constraints", "spec-max-inflight"])
def test_async_serve_refuses_a_policy_it_would_ignore(tmp_path, capsys, flags,
                                                      spec_extra):
    """The eval kind shares the fleet by open jobs, so weights that differ,
    quotas, constraints and worker caps exit 2 before any claim."""
    dirs = [tmp_path / "alpha", tmp_path / "beta"]
    Campaign(dirs[0], spec=CampaignSpec(
        name="alpha", algorithms=["DET"], functions=["sphere"], dims=[2],
        sigma0s=[1.0], seeds=[0], max_steps=10, **spec_extra))
    Campaign(dirs[1], spec=det_spec("beta", ["sphere"], [1]))
    rc = main(["campaign", "serve", *map(str, dirs), "--async",
               "--transport", "inproc", *flags])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error:" in captured.err and "open jobs" in captured.err
    assert "serving" not in captured.out
    for directory in dirs:
        assert not (directory / "results.jsonl").exists()  # nothing claimed


def test_serve_json_without_status_is_an_error(tmp_path, capsys):
    directory = tmp_path / "camp"
    Campaign(directory, spec=det_spec("camp", ["sphere"], [0]))
    rc = main(["campaign", "serve", str(directory), "--json",
               "--transport", "inproc"])
    err = capsys.readouterr().err
    assert rc == 2 and "error:" in err and "--status" in err
    assert not (directory / "results.jsonl").exists()


def test_serve_takes_max_jobs_and_progress_per_campaign(tmp_path, capsys):
    """The options that were ``run``-only now mean the same under serve:
    ``--max-jobs`` caps each tenant, ``--progress`` beats per tenant.
    Three jobs a tenant leave work for a second pass, which must not take
    more of it."""
    dirs = [tmp_path / "alpha", tmp_path / "beta"]
    Campaign(dirs[0], spec=det_spec("alpha", ["sphere"], [0, 1, 2]))
    Campaign(dirs[1], spec=det_spec("beta", ["quadratic"], [0, 1, 2]))
    rc = main(["campaign", "serve", *map(str, dirs), "--transport", "inproc",
               "--max-workers", "1", "--max-jobs", "1", "--progress"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "1 completed" in out and "resume    :" in out
    beats = [line for line in out.splitlines() if line.startswith("[")]
    assert {line.split("]")[0] for line in beats} == {"[alpha", "[beta"}
    for directory in dirs:
        assert sum(record_lines(directory).values()) == 1


def test_run_takes_timeout_and_mw_max_retries(tmp_path, capsys):
    """The options that were ``serve``-only now mean the same under run."""
    directory = tmp_path / "camp"
    rc = main(["campaign", "run", str(directory), "--algorithms", "DET",
               "--functions", "sphere", "--dims", "2", "--sigma0s", "1.0",
               "--seeds", "0", "--max-steps", "20", "--walltime", "1e3",
               "--backend", "mw", "--transport", "inproc",
               "--timeout", "120", "--mw-max-retries", "0"])
    out = capsys.readouterr().out
    assert rc == 0 and "backend   : mw" in out and "1 completed" in out


@pytest.mark.parametrize("flags,named", [
    (["--async"], ["--async"]),
    (["--max-jobs", "1", "--timeout", "5"], ["--max-jobs", "--timeout"]),
    (["--weight", "camp=2"], ["--weight"]),
])
def test_serve_status_refuses_options_it_would_ignore(tmp_path, capsys, flags,
                                                      named):
    """``--status`` starts no master, so a loop or policy option is an
    error rather than a silent no-op; ``--json`` still applies."""
    directory = tmp_path / "camp"
    Campaign(directory, spec=det_spec("camp", ["sphere"], [0]))
    rc = main(["campaign", "serve", str(directory), "--status", *flags])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "error:" in captured.err
    assert all(flag in captured.err for flag in named)
    assert main(["campaign", "serve", str(directory), "--status", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["name"] == "camp"


def test_a_value_error_mid_drain_is_not_a_bad_option(tmp_path, monkeypatch):
    """Only building the loop maps ``ValueError`` to exit 2; one raised
    while draining is a fault of the run and propagates."""
    from repro.campaign.runner import _DispatchLoop

    def broken_pass(self, cap, completed=None):
        raise ValueError("mid-drain fault")

    monkeypatch.setattr(_DispatchLoop, "_pass", broken_pass)
    directory = tmp_path / "camp"
    Campaign(directory, spec=det_spec("camp", ["sphere"], [0]))
    with pytest.raises(ValueError, match="mid-drain fault"):
        main(["campaign", "serve", str(directory), "--transport", "inproc"])
