"""The paper's optimizers on an MW fleet, through the ask/tell seam.

"An optimizer on a fleet" is one :class:`~repro.core.async_driver.EvalSource`
under :class:`~repro.core.async_driver.AsyncEvalDriver` over an
:class:`~repro.mw.driver.MWDriver`: workers return the deterministic surface
value ``f(theta)`` and the master draws the noise at merge time (§1.2, "the
master collates the cost function computed by the workers").  So a run that
mints no speculative refinements (DET, whose pool is non-concurrent) is
bitwise equal to the local run on every transport, noise included.
"""

import pytest

from fleet_helpers import det, pc, run_on_fleet

BACKENDS = ("inproc", "threaded", "process")


class TestDetOnFleet:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bitwise_equal_to_local_run_with_noise(self, backend):
        local = det().run()
        fleet, stats, _ = run_on_fleet(det(), backend)
        assert fleet.trace.to_records() == local.trace.to_records()
        assert fleet.best_theta.tobytes() == local.best_theta.tobytes()
        assert fleet.best_estimate == local.best_estimate
        assert fleet.n_underlying_calls == local.n_underlying_calls
        # the initial simplex is sampled at construction; every later
        # evaluation crossed the fleet
        assert stats["told"] == local.n_underlying_calls - 3


class TestStochasticOnFleet:
    def test_pc_converges_on_process_fleet(self):
        result, _, _ = run_on_fleet(pc(), "process")
        assert result.best_true < 1.0
