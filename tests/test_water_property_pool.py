"""Tests for the property-level water evaluation pool."""

import hashlib
import json
import math

import numpy as np
import pytest

from repro.core import ALGORITHMS, MaxStepsTermination, NelderMead, PointComparison
from repro.water import TIP4P_PUBLISHED, WaterSurrogate
from repro.water.cost import WaterCostFunction
from repro.water.experiment import EXPERIMENTAL_TARGETS
from repro.water.property_pool import (
    PropertyEvaluation,
    PropertySamplingPool,
    parameterize_water_property_level,
)
from repro.water.tip4p import INITIAL_SIMPLEX_3_4A


@pytest.fixture
def pool():
    return PropertySamplingPool(rng=0, warmup=1.0)


class TestPropertyEvaluation:
    def test_estimate_is_cost_of_means(self, pool):
        ev = pool.activate(TIP4P_PUBLISHED)
        expected = pool.cost(ev.property_means())
        assert ev.estimate == pytest.approx(expected)

    def test_unsampled_evaluation_undefined(self):
        cost = WaterCostFunction(EXPERIMENTAL_TARGETS)
        surr = WaterSurrogate()
        sigma0 = {n: surr.sigma0(n) for n in cost.properties}
        ev = PropertyEvaluation(TIP4P_PUBLISHED, cost, sigma0)
        assert math.isnan(ev.estimate)
        assert ev.sem == math.inf

    def test_sem_decreases_with_sampling(self, pool):
        ev = pool.activate(TIP4P_PUBLISHED)
        s1 = ev.sem
        pool.advance(100.0)
        assert ev.sem < s1
        assert ev.sem > 0.0  # chi-square floor keeps it noisy

    def test_property_means_converge(self, pool):
        ev = pool.activate(TIP4P_PUBLISHED)
        pool.advance(5000.0)
        clean = pool.surrogate.properties(TIP4P_PUBLISHED)
        assert ev.property_means()["energy"] == pytest.approx(clean["energy"], abs=0.2)
        assert ev.property_means()["pressure"] == pytest.approx(
            clean["pressure"], abs=120.0
        )

    def test_generic_merge_disabled(self, pool):
        ev = pool.activate(TIP4P_PUBLISHED)
        with pytest.raises(TypeError):
            ev.merge_block(1.0, 0.0)

    def test_missing_property_in_block_rejected(self, pool):
        ev = pool.activate(TIP4P_PUBLISHED)
        with pytest.raises(KeyError):
            ev.merge_property_block(1.0, {"energy": -41.5})

    def test_cost_estimator_bias_decays(self):
        """E[cost(means)] - cost(truth) ~ 1/t (squared-residual bias)."""
        def mean_cost(t, n=80):
            vals = []
            for seed in range(n):
                p = PropertySamplingPool(rng=seed, warmup=t)
                ev = p.activate(TIP4P_PUBLISHED)
                vals.append(ev.estimate)
            return float(np.mean(vals))

        truth = PropertySamplingPool(rng=0).func.true_value(TIP4P_PUBLISHED)
        bias_short = mean_cost(1.0) - truth
        bias_long = mean_cost(64.0) - truth
        assert bias_short > 0.0
        assert bias_long < bias_short / 8.0


class TestPropertySamplingPool:
    def test_protocol_surface(self, pool):
        ev = pool.activate(TIP4P_PUBLISHED)
        assert ev in pool
        assert len(pool) == 1
        pool.deactivate(ev)
        assert len(pool) == 0
        with pytest.raises(ValueError):
            pool.deactivate(ev)

    def test_concurrent_refinement(self, pool):
        a = pool.activate(TIP4P_PUBLISHED)
        b = pool.activate(INITIAL_SIMPLEX_3_4A[0])
        assert a.time == pytest.approx(2.0)  # refreshed during b's warmup
        assert b.time == pytest.approx(1.0)
        pool.advance(3.0)
        assert a.time == pytest.approx(5.0)

    def test_true_value_view(self, pool):
        f_true = pool.func.true_value(TIP4P_PUBLISHED)
        assert f_true == pytest.approx(
            pool.cost(pool.surrogate.properties(TIP4P_PUBLISHED))
        )

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            PropertySamplingPool(warmup=0.0)
        p = PropertySamplingPool(rng=0)
        with pytest.raises(ValueError):
            p.advance(0.0)

    @pytest.mark.parametrize("refinements", [0, 2])
    def test_asktell_fails_loudly(self, refinements):
        """A property-level round has no surface value a worker could
        return: told values (told refinements first, too) fail the run at
        the first completed round, and ask()/result() surface the
        TypeError."""
        pool = PropertySamplingPool(rng=3)
        opt = NelderMead(
            pool.func,
            INITIAL_SIMPLEX_3_4A[:4],
            pool=pool,
            termination=MaxStepsTermination(5),
        )
        proposals = opt.ask()
        assert proposals, "the first step's round was not published"
        if refinements:
            proposals = opt.ask(refinements) + proposals
        opt.tell_many([(p.id, 0.0) for p in proposals])
        assert opt.finished
        with pytest.raises(TypeError, match="told surface values"):
            opt.ask()
        with pytest.raises(TypeError, match="told surface values"):
            opt.result()


class TestPropertyLevelOptimization:
    def test_pc_runs_on_property_pool(self):
        pool = PropertySamplingPool(rng=3)
        opt = PointComparison(
            pool.func,
            INITIAL_SIMPLEX_3_4A[:4],
            pool=pool,
            termination=MaxStepsTermination(15),
        )
        result = opt.run()
        assert result.n_steps == 15
        assert np.isfinite(result.best_estimate)

    def test_parameterization_converges_near_tip4p(self):
        result = parameterize_water_property_level(
            algorithm="PC", seed=1, walltime=3e5, max_steps=200, tau=1e-3
        )
        eps, sig, qh = result.best_theta
        assert abs(eps - 0.155) < 0.03
        assert abs(sig - 3.154) < 0.08
        assert abs(qh - 0.520) < 0.03

    def test_matches_cost_level_path_statistically(self):
        """Property-level and cost-level noise models agree on the answer."""
        from repro.water import parameterize_water

        a = parameterize_water_property_level(
            algorithm="MN", seed=5, walltime=2e5, max_steps=150, tau=1e-3
        )
        b = parameterize_water(
            algorithm="MN", seed=5, walltime=2e5, max_steps=150, tau=1e-3
        )
        np.testing.assert_allclose(a.best_theta, b.best_theta, atol=0.15)


def result_digest(result):
    """Short hex digest of everything a property-level run determines."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(result.best_theta, dtype=float).tobytes())
    h.update(
        json.dumps(
            [
                float(result.best_estimate),
                int(result.n_underlying_calls),
                int(result.n_steps),
                float(result.total_sampling_time),
                result.trace.to_records(),
            ],
            sort_keys=True,
        ).encode()
    )
    return h.hexdigest()[:20]


#: ``parameterize_water_property_level(algorithm, seed=3, max_steps=25)``,
#: captured while the pool still sampled through its own activate/advance;
#: the per-property noise order (vertex by vertex, property by property)
#: is part of the pin.
PROPERTY_LEVEL_GOLDEN = {
    "ANDERSON": "7f3deccbd4b19ab2861d",
    "DET": "ac2c7840075bef0c4b2c",
    "MN": "a85e4e1e3909b5135e5b",
    "PC": "ec40d22ff25ea8cac427",
    "PC+MN": "853ce364440d352839e3",
}


class TestPropertyLevelGolden:
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_seeded_run_matches_digest(self, algorithm):
        result = parameterize_water_property_level(
            algorithm=algorithm, seed=3, max_steps=25
        )
        assert result_digest(result) == PROPERTY_LEVEL_GOLDEN[algorithm]
