"""Run the paper's optimizers and sampling pools on an MW fleet in tests.

Workers return the deterministic surface value ``f(theta)``; the master
draws the noise when it merges the value (§1.2, "the master collates the
cost function computed by the workers").  Every helper checks that the
driver holds no finished task once the caller has its answer.
"""

import numpy as np

from repro.core import (
    MaxStepsTermination,
    NelderMead,
    PointComparison,
    default_termination,
)
from repro.core.async_driver import AsyncEvalDriver, EvalSource
from repro.functions import Sphere, initial_simplex
from repro.mw.driver import MWDriver
from repro.noise import StochasticFunction


def det(seed=3, steps=25):
    """DET on a noisy 2-d sphere; its pool is non-concurrent."""
    return NelderMead(
        StochasticFunction(Sphere(2), sigma0=0.5, rng=seed),
        initial_simplex([2.0, -1.0], step=1.0),
        termination=MaxStepsTermination(steps),
    )


def pc(seed=3):
    """PC on a noisy 2-d sphere, run to the default termination."""
    return PointComparison(
        StochasticFunction(Sphere(2), sigma0=0.5, rng=seed),
        initial_simplex([2.0, -1.0], step=1.0),
        termination=default_termination(tau=5e-2, walltime=5e3, max_steps=200),
    )


def surface_executor(f):
    """Worker side: the deterministic surface value of one proposal."""

    def execute(work, context):
        return {"value": float(f(np.asarray(work["theta"], dtype=float)))}

    return execute


def proposal_payload(proposal):
    return {"theta": [float(x) for x in proposal.theta], "dt": proposal.dt}


def run_on_fleet(opt, backend, n_workers=5, seed=0):
    """Drive ``opt`` to its result on a fresh fleet; returns
    ``(result, scheduling stats, per-rank utilization rows)``."""
    driver = MWDriver(
        surface_executor(opt.func.f), n_workers=n_workers, backend=backend, seed=seed
    )
    outcomes = []
    try:
        stats = AsyncEvalDriver(driver, max_inflight=n_workers).run(
            [EvalSource(key="opt", opt=opt, make_work=proposal_payload)],
            lambda source, result, error: outcomes.append((result, error)),
        )
        assert driver.tasks == {}, "a finished task was left in driver.tasks"
        utilization = driver.utilization()
    finally:
        driver.shutdown()
    ((result, error),) = outcomes
    assert error is None
    return result, stats, utilization


def sample_on_fleet(rounds, driver):
    """Drive a :class:`~repro.noise.SamplingPool` round generator to its
    return value, answering every round with surface values computed on
    ``driver``'s workers (the fleet counterpart of
    :func:`repro.noise.stochastic.sample_locally`)."""
    answer = None
    try:
        while True:
            evs, dt = rounds.send(answer)
            tasks = [
                driver.submit({"theta": [float(x) for x in ev.theta], "dt": dt})
                for ev in evs
            ]
            driver.wait_all(timeout=60.0)
            answer = [task.result["value"] for task in tasks]
            for task in tasks:
                driver.release(task)
            assert driver.tasks == {}, "a finished task was left in driver.tasks"
    except StopIteration as stop:
        return stop.value
