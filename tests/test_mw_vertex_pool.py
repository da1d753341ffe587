"""The optimizer's vertex pool, sampled on MW workers.

A :class:`~repro.noise.SamplingPool` asks for its samples in rounds; here
every round is answered by an :class:`~repro.mw.driver.MWDriver` fleet.  The
workers return the deterministic surface value ``f(theta)`` and the master
merges it with the noise model, so the pool's clock, warmup, refinement and
counters behave exactly as when it samples locally.
"""

import numpy as np
import pytest

from repro.core import MaxStepsTermination, NelderMead
from repro.functions import Sphere, initial_simplex
from repro.mw.driver import MWDriver
from repro.noise import SamplingPool, StochasticFunction

from fleet_helpers import pc, run_on_fleet, sample_on_fleet, surface_executor


def sphere(theta):
    return float(np.dot(theta, theta))


@pytest.fixture
def fleet():
    driver = MWDriver(surface_executor(sphere), n_workers=2, backend="inproc", seed=0)
    yield driver
    driver.shutdown()


def sphere_pool(sigma0, seed=0, **kwargs):
    return SamplingPool(
        StochasticFunction(sphere, sigma0=sigma0, rng=seed,
                           sigma_known=kwargs.pop("sigma_known", True)),
        **kwargs,
    )


class TestVertexSampler:
    """One vertex sample: a worker's surface value plus the master's noise."""

    def test_noiseless_sample_is_exact(self, fleet):
        pool = sphere_pool(sigma0=0.0)
        ev = sample_on_fleet(pool.activate_rounds([1.0, 2.0]), fleet)
        assert ev.estimate == 5.0
        assert ev.time == 1.0
        assert fleet.n_submitted == 1

    def test_noise_scales_with_dt(self, fleet):
        pool = sphere_pool(sigma0=4.0, concurrent=False)
        evs = [pool.adopt(pool.func.start(np.zeros(2))) for _ in range(3000)]
        sample_on_fleet(pool.advance_rounds(16.0, targets=evs), fleet)
        assert fleet.n_submitted == 3000
        draws = [ev.estimate for ev in evs]
        assert np.std(draws) == pytest.approx(1.0, rel=0.07)  # 4/sqrt(16)

    def test_callable_sigma0(self, fleet):
        pool = SamplingPool(
            StochasticFunction(sphere, sigma0=lambda th: float(th[0]), rng=0),
            concurrent=False,
        )
        assert pool.func.sigma0_at(np.array([3.0, 0.0])) == 3.0
        still = sample_on_fleet(pool.activate_rounds([0.0, 1.0]), fleet)
        noisy = sample_on_fleet(pool.activate_rounds([3.0, 0.0]), fleet)
        assert still.estimate == 1.0  # sigma0 is 0 there: no noise drawn
        assert noisy.sigma0 == 3.0
        assert noisy.estimate != 9.0

    def test_invalid_dt_rejected(self, fleet):
        pool = sphere_pool(sigma0=1.0)
        sample_on_fleet(pool.activate_rounds([1.0, 0.0]), fleet)
        with pytest.raises(ValueError):
            sample_on_fleet(pool.advance_rounds(0.0), fleet)
        assert fleet.n_submitted == 1  # rejected before any task was sent
        with pytest.raises(ValueError):
            pool.func.merge_external_batch(pool.active, 0.0, [1.0])


class TestMWVertexPool:
    def test_activation_warms_up(self, fleet):
        pool = sphere_pool(sigma0=0.0, warmup=2.0)
        ev = sample_on_fleet(pool.activate_rounds([1.0, 1.0]), fleet)
        assert ev.estimate == pytest.approx(2.0)
        assert ev.time == pytest.approx(2.0)
        assert pool.now == pytest.approx(2.0)

    def test_advance_extends_all_active(self, fleet):
        pool = sphere_pool(sigma0=0.0, warmup=1.0)
        a = sample_on_fleet(pool.activate_rounds([0.0, 0.0]), fleet)
        b = sample_on_fleet(pool.activate_rounds([1.0, 0.0]), fleet)
        sample_on_fleet(pool.advance_rounds(3.0), fleet)
        assert a.time == pytest.approx(5.0)  # 1 + 1 (b's warmup) + 3
        assert b.time == pytest.approx(4.0)
        assert fleet.n_submitted == 1 + 2 + 2

    def test_deactivate(self, fleet):
        pool = sphere_pool(sigma0=0.0)
        ev = sample_on_fleet(pool.activate_rounds([0.0, 0.0]), fleet)
        pool.deactivate(ev)
        assert len(pool) == 0
        with pytest.raises(ValueError):
            pool.deactivate(ev)
        sample_on_fleet(pool.advance_rounds(1.0), fleet)
        assert fleet.n_submitted == 1  # nothing left to sample
        assert ev.time == 1.0

    def test_estimates_converge_with_sampling(self, fleet):
        pool = sphere_pool(sigma0=5.0, seed=1)
        ev = sample_on_fleet(pool.activate_rounds([2.0, 0.0]), fleet)
        sample_on_fleet(pool.advance_rounds(400.0), fleet)
        assert ev.estimate == pytest.approx(4.0, abs=1.5)
        assert ev.sem == pytest.approx(5.0 / np.sqrt(401.0), rel=1e-6)

    def test_sigma_unknown_mode(self, fleet):
        pool = sphere_pool(sigma0=2.0, sigma_known=False)
        ev = sample_on_fleet(pool.activate_rounds([1.0, 0.0]), fleet)
        assert ev.sigma0 is None

    def test_function_view_counters(self, fleet):
        pool = sphere_pool(sigma0=0.0)
        sample_on_fleet(pool.activate_rounds([1.0, 1.0]), fleet)
        sample_on_fleet(pool.advance_rounds(2.0), fleet)
        assert pool.func.n_underlying_calls == fleet.n_submitted == 2
        assert pool.func.total_sampling_time == pytest.approx(3.0)
        assert pool.func.true_value([1.0, 1.0]) == 2.0


class TestOptimizerOverMW:
    def test_det_on_mw_matches_plain_pool_noiseless(self):
        """The same DET run whether sampling is local or via MW."""

        def det():
            return NelderMead(
                StochasticFunction(Sphere(2), sigma0=0.0, rng=0),
                initial_simplex([2.0, -1.0], step=1.0),
                termination=MaxStepsTermination(25),
            )

        plain = det().run()
        mw, _, _ = run_on_fleet(det(), "inproc")
        assert mw.trace.operations() == plain.trace.operations()
        assert mw.best_theta.tobytes() == plain.best_theta.tobytes()
        assert mw.best_estimate == plain.best_estimate

    def test_pc_over_threaded_backend_converges(self):
        result, _, _ = run_on_fleet(pc(), "threaded")
        assert result.best_true < 1.0

    def test_paper_worker_count_d_plus_3(self):
        """d + 3 workers (paper §3.1): every rank works, no task fails."""
        d = 2
        result, stats, utilization = run_on_fleet(pc(), "threaded", n_workers=d + 3)
        assert result.n_steps > 0
        assert stats["told"] == stats["submitted"] > 0
        assert len(utilization) == d + 3
        assert all(row["tasks"] > 0 for row in utilization)
