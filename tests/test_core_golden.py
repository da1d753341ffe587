"""Golden-digest parity for the optimizer step loop.

Every algorithm in ``ALGORITHMS`` is run on a concurrent and on a
non-concurrent :class:`~repro.noise.stochastic.SamplingPool`, over three
seeds and dims 2 and 4.  Each run is reduced to a digest of
``best_theta`` (raw bytes), ``best_estimate``, ``n_underlying_calls``,
``n_steps`` and the full step trace.  ``GOLDEN`` holds the digests the
sequential reference loop produced before the ask/tell engine became
generator-driven; they are the ground truth, so any change to the noise
stream, the step order or the round boundaries shows up here.

Five drives must reproduce them bitwise:

* ``_run_inline()`` — the step generator sampled locally;
* ``run()`` — the public entry point;
* one round through ``ask``/``tell``, then ``run()`` to finish;
* ``ask()`` with each round told in *reverse* order;
* ``ask()`` with each round told through one ``tell_many`` batch.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core import ALGORITHMS, default_termination, make_optimizer
from repro.functions import Sphere, random_vertices
from repro.noise import SamplingPool, StochasticFunction

SEEDS = (0, 1, 2)
DIMS = (2, 4)
POOLS = ("concurrent", "serial")


def build(algorithm, pool_kind, dim, seed):
    """A deterministically seeded optimizer on an explicit pool."""
    vertices = random_vertices(
        dim, low=-2.0, high=2.0, rng=np.random.default_rng(seed)
    )
    func = StochasticFunction(
        Sphere(dim), sigma0=1.0, rng=np.random.default_rng(1000 + seed)
    )
    pool = SamplingPool(func, warmup=1.0, concurrent=pool_kind == "concurrent")
    return make_optimizer(
        algorithm,
        func,
        vertices,
        pool=pool,
        termination=default_termination(tau=1e-3, walltime=2e4, max_steps=25),
        record_trace=True,
    )


def result_digest(result):
    """Short hex digest of everything the trajectory determines."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(result.best_theta, dtype=float).tobytes())
    h.update(
        json.dumps(
            [
                float(result.best_estimate),
                int(result.n_underlying_calls),
                int(result.n_steps),
                result.trace.to_records(),
            ],
            sort_keys=True,
        ).encode()
    )
    return h.hexdigest()[:20]


def _drive_reversed(opt):
    surface = opt.func.f
    while True:
        proposals = opt.ask()
        if not proposals:
            break
        for p in reversed(proposals):
            opt.tell(p.id, float(surface(np.asarray(p.theta))))
    return opt.result()


def _drive_tell_many(opt):
    surface = opt.func.f
    while True:
        proposals = opt.ask()
        if not proposals:
            break
        values = surface.batch(np.array([p.theta for p in proposals], dtype=float))
        opt.tell_many([(p.id, float(v)) for p, v in zip(proposals, values)])
    return opt.result()


def _drive_ask_then_run(opt):
    """One round through ask/tell, then run() finishes the engine's run."""
    surface = opt.func.f
    for p in opt.ask():
        opt.tell(p.id, float(surface(np.asarray(p.theta))))
    return opt.run()


DRIVES = {
    "inline": lambda opt: opt._run_inline(),
    "run": lambda opt: opt.run(),
    "ask_then_run": _drive_ask_then_run,
    "reversed_tells": _drive_reversed,
    "tell_many": _drive_tell_many,
}

CASES = [
    (algorithm, pool_kind, dim, seed)
    for algorithm in sorted(ALGORITHMS)
    for pool_kind in POOLS
    for dim in DIMS
    for seed in SEEDS
]


def case_key(algorithm, pool_kind, dim, seed):
    return f"{algorithm}/{pool_kind}/d{dim}/s{seed}"


GOLDEN = {
    "ANDERSON/concurrent/d2/s0": "d663cae44eec37975349",
    "ANDERSON/concurrent/d2/s1": "e2d16ee5d6f2d0254905",
    "ANDERSON/concurrent/d2/s2": "8dbf86158f135b2f2186",
    "ANDERSON/concurrent/d4/s0": "7b05ad487c6793478b10",
    "ANDERSON/concurrent/d4/s1": "1b932f2f89251e387e4c",
    "ANDERSON/concurrent/d4/s2": "ac662768f5d708db8ca2",
    "ANDERSON/serial/d2/s0": "57b76c5546b484a0d598",
    "ANDERSON/serial/d2/s1": "d877c3d8559dbb08fba0",
    "ANDERSON/serial/d2/s2": "37c862b0696c80ee3872",
    "ANDERSON/serial/d4/s0": "ae33b8c7f3029210f71b",
    "ANDERSON/serial/d4/s1": "40dab4dd70ca9c8b68c8",
    "ANDERSON/serial/d4/s2": "eabac6e5c42699a73658",
    "DET/concurrent/d2/s0": "2e24cd71b1cfbcce38b6",
    "DET/concurrent/d2/s1": "c0507d6930eeb5dc3406",
    "DET/concurrent/d2/s2": "356692d4b59666879277",
    "DET/concurrent/d4/s0": "89022f8c8607b241370d",
    "DET/concurrent/d4/s1": "cd8cfc19886e64745d33",
    "DET/concurrent/d4/s2": "93a2cc2e54aaaaddbe55",
    "DET/serial/d2/s0": "0a7c898299d6686315e6",
    "DET/serial/d2/s1": "1b252c3ddd53786ca964",
    "DET/serial/d2/s2": "ae5fd8515fa09e9f79e6",
    "DET/serial/d4/s0": "ba67e5b904209a9b5258",
    "DET/serial/d4/s1": "72c93130d6d818539711",
    "DET/serial/d4/s2": "980a235047fc3c8b685e",
    "MN/concurrent/d2/s0": "95759ee755905117c75e",
    "MN/concurrent/d2/s1": "5bb2f4286b5fda94f076",
    "MN/concurrent/d2/s2": "f09a2330dd4297b6c1ba",
    "MN/concurrent/d4/s0": "c22a706945af4c721fde",
    "MN/concurrent/d4/s1": "33bc4c3ab77538f7b378",
    "MN/concurrent/d4/s2": "6d90c76105416bdbaa98",
    "MN/serial/d2/s0": "9bd042211fd53759a675",
    "MN/serial/d2/s1": "cc6b271bf483dbd0f355",
    "MN/serial/d2/s2": "37c862b0696c80ee3872",
    "MN/serial/d4/s0": "0956f45d0cb63176bdff",
    "MN/serial/d4/s1": "c08bc85992e655b381cd",
    "MN/serial/d4/s2": "43990a8a981715650ebb",
    "PC/concurrent/d2/s0": "930a22af22f16eeeb9ae",
    "PC/concurrent/d2/s1": "afbd283bb1e2a0c6ee45",
    "PC/concurrent/d2/s2": "778b42a30334bb8c5ee8",
    "PC/concurrent/d4/s0": "5973bc1f28a710916b65",
    "PC/concurrent/d4/s1": "4beba4759550e31f7def",
    "PC/concurrent/d4/s2": "4ebe1cd4942d0eba5b94",
    "PC/serial/d2/s0": "5078645e7147f1891e18",
    "PC/serial/d2/s1": "2dba045ecdc8c73479bc",
    "PC/serial/d2/s2": "68038f3dbd2e9ed804b2",
    "PC/serial/d4/s0": "a951e7ce39d8bcd5322f",
    "PC/serial/d4/s1": "cb5dc493d9c3ad5b9167",
    "PC/serial/d4/s2": "b0689cd2322b15084bab",
    "PC+MN/concurrent/d2/s0": "d57a000e91f890b0b723",
    "PC+MN/concurrent/d2/s1": "326d8cbfb8d6d0a97b3e",
    "PC+MN/concurrent/d2/s2": "80fa2edc265c6071bc57",
    "PC+MN/concurrent/d4/s0": "9badfab274098e52916f",
    "PC+MN/concurrent/d4/s1": "bbb16889228e2161d57e",
    "PC+MN/concurrent/d4/s2": "798117ef39aca216e808",
    "PC+MN/serial/d2/s0": "9bd042211fd53759a675",
    "PC+MN/serial/d2/s1": "cc6b271bf483dbd0f355",
    "PC+MN/serial/d2/s2": "37c862b0696c80ee3872",
    "PC+MN/serial/d4/s0": "4f727c2b768bcddc89b7",
    "PC+MN/serial/d4/s1": "204fcd0da78bd85380b9",
    "PC+MN/serial/d4/s2": "d22d747d85dda64c3eeb",
}


@pytest.mark.parametrize("drive", sorted(DRIVES))
@pytest.mark.parametrize(
    "algorithm,pool_kind,dim,seed", CASES, ids=[case_key(*c) for c in CASES]
)
def test_trajectory_matches_golden_digest(algorithm, pool_kind, dim, seed, drive):
    opt = build(algorithm, pool_kind, dim, seed)
    result = DRIVES[drive](opt)
    assert result_digest(result) == GOLDEN[case_key(algorithm, pool_kind, dim, seed)]


def test_golden_table_covers_every_case():
    assert sorted(GOLDEN) == sorted(case_key(*c) for c in CASES)


# -- the refinement path, through the async campaign driver -----------------
#
# The drives above never mint speculative refinements and use only the
# ``average`` noise mode.  An inproc async campaign does both: once every
# open job's round is handed out, its ``ask(n)`` calls top frames up with
# refinements, whose told values merge at round boundaries, and campaign
# jobs run in the default ``resample`` mode.  The inproc transport answers tasks in one deterministic order,
# so the run is reproducible and its records are pinned here.

ASYNC_GOLDEN = "c7fc15352470e798a89e"

# DET's pool is not concurrent, so an async DET grid mints no refinement:
# the driver's round-first top-up must hand out exactly the proposals, in
# exactly the order, one plain pass over the sources did.
ASYNC_DET_GOLDEN = "a3dd813229706ddad848"


def async_records_digest(records):
    """Digest of each record's job id, best_true, best_estimate and
    n_underlying_calls, in job-id order."""
    h = hashlib.sha256()
    for rec in sorted(records, key=lambda r: r["job_id"]):
        res = rec["result"]
        h.update(json.dumps([rec["job_id"], res["best_true"], res["best_estimate"],
                             res["n_underlying_calls"]]).encode())
    return h.hexdigest()[:20]


def run_async_campaign(tmp_path, monkeypatch, algorithms):
    """An inproc async campaign on a small sphere grid; returns its
    records and every refinement proposal it minted."""
    from repro.campaign import Campaign, CampaignSpec
    from repro.core.base import _AskTellEngine

    minted = []
    mint = _AskTellEngine._mint_refinements

    def counting_mint(engine, n):
        out = mint(engine, n)
        minted.extend(out)
        return out

    monkeypatch.setattr(_AskTellEngine, "_mint_refinements", counting_mint)
    spec = CampaignSpec(
        name="async-golden", algorithms=sorted(algorithms), functions=["sphere"],
        dims=list(DIMS), sigma0s=[0.3], seeds=list(SEEDS), max_steps=6,
    )
    assert spec.noise_mode == "resample"
    campaign = Campaign(tmp_path / "camp", spec=spec)
    report = campaign.run(backend="mw", mw_transport="inproc", max_workers=2,
                          async_mode=True, eval_batch=8, max_inflight=16)
    assert report.n_done == len(algorithms) * len(DIMS) * len(SEEDS)
    return list(campaign.store.records()), minted


def test_async_campaign_with_refinements_matches_golden_digest(tmp_path, monkeypatch):
    records, minted = run_async_campaign(tmp_path, monkeypatch, ALGORITHMS)
    assert minted, "the drive must exercise speculative refinements"
    assert async_records_digest(records) == ASYNC_GOLDEN


def test_async_det_campaign_matches_golden_digest(tmp_path, monkeypatch):
    records, minted = run_async_campaign(tmp_path, monkeypatch, ["DET"])
    assert not minted
    assert async_records_digest(records) == ASYNC_DET_GOLDEN
