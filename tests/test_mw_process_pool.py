"""Process-backend coverage for pool sampling and optimizers on MW workers."""

import numpy as np
import pytest

from repro.core import MaxStepsTermination, NelderMead
from repro.functions import initial_simplex
from repro.mw.driver import MWDriver
from repro.noise import SamplingPool, StochasticFunction
from repro.noise.stochastic import sample_locally

from fleet_helpers import run_on_fleet, sample_on_fleet, surface_executor


def paraboloid(theta):
    return float(np.dot(theta - 1.0, theta - 1.0))


def process_fleet(n_workers, seed):
    return MWDriver(
        surface_executor(paraboloid), n_workers=n_workers, backend="process", seed=seed
    )


class TestProcessBackedPool:
    def test_sampling_over_worker_processes(self):
        driver = process_fleet(n_workers=2, seed=0)
        try:
            pool = SamplingPool(StochasticFunction(paraboloid, sigma0=0.0, rng=0))
            ev = sample_on_fleet(pool.activate_rounds([2.0, 0.0]), driver)
            sample_on_fleet(pool.advance_rounds(3.0), driver)
        finally:
            driver.shutdown()
        assert ev.estimate == pytest.approx(paraboloid(np.array([2.0, 0.0])))
        assert ev.time == pytest.approx(4.0)

    def test_optimizer_over_process_backend(self):
        def det():
            return NelderMead(
                StochasticFunction(paraboloid, sigma0=0.0, rng=1),
                initial_simplex([3.0, -1.0], step=1.0),
                termination=MaxStepsTermination(40),
            )

        result, _, _ = run_on_fleet(det(), "process", n_workers=5, seed=1)
        assert result.best_true < 0.1
        assert result.best_theta.tobytes() == det().run().best_theta.tobytes()

    def test_noise_statistics_across_processes(self):
        """The master draws the noise from its one stream, so three vertices
        at one point answered by three worker processes get three different
        estimates, bitwise equal to sampling the same pool locally."""

        def sample(answer):
            pool = SamplingPool(StochasticFunction(paraboloid, sigma0=2.0, rng=2))
            evs = [answer(pool.activate_rounds([1.0, 1.0], label=f"v{i}"))
                   for i in range(3)]
            answer(pool.advance_rounds(1.0))
            return [ev.estimate for ev in evs]

        driver = process_fleet(n_workers=3, seed=2)
        try:
            estimates = sample(lambda rounds: sample_on_fleet(rounds, driver))
            ranks = [row["rank"] for row in driver.utilization() if row["tasks"]]
        finally:
            driver.shutdown()
        assert len(set(round(e, 12) for e in estimates)) == 3
        assert estimates == sample(sample_locally)
        assert len(ranks) > 1
