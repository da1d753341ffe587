"""Cross-module integration tests: the full stack end to end."""

import numpy as np
import pytest

from repro.core import (
    MaxStepsTermination,
    PointComparison,
    ToleranceTermination,
    WalltimeTermination,
    optimize,
)
from repro.functions import Sphere, initial_simplex
from repro.mw import FileIOChannel, MWDriver, VertexServer
from repro.mw.vertex_server import ServerProxyExecutor
from repro.noise import StochasticFunction
from repro.water import TIP4P_PUBLISHED, surrogate_cost_function, water_systems
from repro.water.parameterize import water_cost

from fleet_helpers import run_on_fleet


class TestOptimizeFrontDoor:
    def test_named_function(self):
        result = optimize(
            "sphere", dim=2, algorithm="DET", sigma0=0.0, seed=0,
            x0=[2.0, 2.0], tau=1e-10, max_steps=1000,
        )
        assert result.best_true < 1e-8

    def test_callable_objective(self):
        # note the asymmetric start: eq. 2.9 terminates on *value spread*, so
        # a simplex symmetric about the optimum (all values equal) would stop
        # immediately — a legitimate property of the paper's criterion
        result = optimize(
            lambda th: float((th[0] - 3.0) ** 2 + th[1] ** 2),
            algorithm="DET", sigma0=0.0, x0=[0.1, -0.2], step=0.9,
            tau=1e-10, max_steps=1000,
        )
        np.testing.assert_allclose(result.best_theta, [3.0, 0.0], atol=1e-3)

    def test_prewrapped_stochastic_function(self):
        func = StochasticFunction(Sphere(2), sigma0=0.5, rng=3)
        result = optimize(func, algorithm="PC", x0=[1.0, 1.0],
                          tau=1e-2, walltime=1e4, max_steps=200)
        assert result.best_true < 2.0

    def test_random_simplex_needs_dim(self):
        with pytest.raises(ValueError):
            optimize(lambda th: 0.0, algorithm="DET")

    def test_named_function_needs_dim(self):
        with pytest.raises(ValueError):
            optimize("sphere", algorithm="DET")

    def test_restarts_refine(self):
        result = optimize(
            "rosenbrock", dim=2, algorithm="DET", sigma0=0.0, seed=0,
            x0=[-1.0, 1.5], step=0.5, tau=1e-10, max_steps=800, restarts=2,
        )
        assert result.extra["restarts"] == 2
        assert result.best_true < 1e-6

    def test_unknown_algorithm(self):
        with pytest.raises(KeyError):
            optimize("sphere", dim=2, algorithm="SGD")


class TestFullMWStack:
    def test_master_worker_server_client_chain(self, tmp_path):
        """Fig 3.2's full path drives a real optimization: the optimizer's
        proposals become MW tasks; each worker proxies through spool files
        to a vertex server running Ns=6 surrogate property clients; the
        server applies the eq. 3.4 cost and its sample is the value told."""
        import threading

        from repro.core import NelderMead
        from repro.core.async_driver import AsyncEvalDriver, EvalSource
        from repro.water.tip4p import INITIAL_SIMPLEX_3_4A

        # vertex server with the six water property systems
        server = VertexServer(water_systems("surrogate"), cost=water_cost(), seed=1)
        req_w = FileIOChannel(tmp_path, "req")
        req_r = FileIOChannel(tmp_path, "req")
        rsp_w = FileIOChannel(tmp_path, "rsp")
        rsp_r = FileIOChannel(tmp_path, "rsp")
        thread = threading.Thread(
            target=server.serve, args=(req_r, rsp_w), kwargs={"timeout": 30.0}
        )
        thread.start()
        proxy = ServerProxyExecutor(req_w, rsp_r, timeout=30.0)

        def server_value(work, context):
            return {"value": proxy(work, context)["sample"]}

        driver = MWDriver(server_value, n_workers=1, backend="inproc", seed=0)
        try:
            f, _, _ = surrogate_cost_function()
            # the initial simplex is sampled on the master at construction;
            # every later evaluation goes through the server
            opt = NelderMead(
                StochasticFunction(f, sigma0=0.0, rng=0),
                INITIAL_SIMPLEX_3_4A[:4],
                termination=MaxStepsTermination(2),
            )
            outcomes = []
            AsyncEvalDriver(driver, max_inflight=1).run(
                [EvalSource(
                    key="water", opt=opt,
                    make_work=lambda p: {"theta": p.theta, "dt": p.dt},
                )],
                lambda source, result, error: outcomes.append((result, error)),
            )
        finally:
            req_w.write(None)
            thread.join(timeout=10.0)
            driver.shutdown()
        ((result, error),) = outcomes
        assert error is None
        assert result.n_steps >= 1
        assert server.n_evaluations > 0
        assert result.n_underlying_calls == 4 + server.n_evaluations

    def test_pc_over_mw_threaded_full_opt(self):
        def f(theta):
            return float(np.dot(theta, theta))

        term = (
            ToleranceTermination(5e-2)
            | WalltimeTermination(5e3)
            | MaxStepsTermination(150)
        )
        opt = PointComparison(
            StochasticFunction(f, sigma0=0.3, rng=2),
            initial_simplex([2.0, -1.0], step=1.0),
            termination=term,
        )
        result, _, _ = run_on_fleet(opt, "threaded", n_workers=5, seed=2)
        assert result.best_true < 1.0


class TestWaterOnRealMD:
    @pytest.mark.slow
    def test_md_systems_produce_cost(self):
        """The MD-backed property systems feed the eq. 3.4 cost end to end."""
        from repro.md.simulation import SimulationProtocol

        protocol = SimulationProtocol(
            n_molecules=4, n_equilibration=30, n_production=40, sample_every=10,
            rdf_bins=16,
        )
        systems = water_systems("md", md_protocol=protocol)
        server = VertexServer(systems, cost=water_cost(), seed=0)
        out = server.evaluate(TIP4P_PUBLISHED, dt=1.0)
        assert np.isfinite(out["sample"])
        assert set(out["properties"]) >= {
            "energy", "pressure", "diffusion", "p_goo", "p_goh", "p_ghh",
        }
