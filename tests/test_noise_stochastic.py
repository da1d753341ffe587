"""Tests for StochasticFunction and SamplingPool."""

import math

import numpy as np
import pytest

from repro.functions import Sphere
from repro.noise import SamplingPool, StochasticFunction, VirtualClock


def make(sigma0=1.0, mode="average", seed=0, sigma_known=True, f=None):
    return StochasticFunction(
        f if f is not None else Sphere(2),
        sigma0=sigma0,
        mode=mode,
        rng=seed,
        sigma_known=sigma_known,
    )


class TestStochasticFunction:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            make(mode="bogus")

    def test_true_value_is_noise_free(self):
        func = make(sigma0=100.0)
        assert func.true_value([3.0, 4.0]) == 25.0

    def test_noiseless_evaluation_exact(self):
        func = make(sigma0=0.0)
        ev = func.evaluate([1.0, 2.0], time=1.0)
        assert ev.estimate == 5.0
        assert ev.sem == 0.0

    def test_evaluation_unbiased(self):
        func = make(sigma0=2.0, seed=1)
        vals = [func.evaluate([1.0, 0.0], time=1.0).estimate for _ in range(4000)]
        assert np.mean(vals) == pytest.approx(1.0, abs=0.1)
        assert np.std(vals) == pytest.approx(2.0, rel=0.05)

    def test_average_mode_variance_after_extension(self):
        """Estimate after total time t has variance sigma0^2/t."""
        finals = []
        for seed in range(2000):
            func = make(sigma0=2.0, seed=seed)
            ev = func.evaluate([0.0, 0.0], time=1.0)
            func.extend(ev, 3.0)  # total t = 4
            finals.append(ev.estimate)
        assert np.std(finals) == pytest.approx(1.0, rel=0.07)  # 2/sqrt(4)

    def test_resample_mode_variance_after_extension(self):
        finals = []
        for seed in range(2000):
            func = make(sigma0=2.0, mode="resample", seed=seed)
            ev = func.evaluate([0.0, 0.0], time=1.0)
            func.extend(ev, 3.0)
            finals.append(ev.estimate)
        assert np.std(finals) == pytest.approx(1.0, rel=0.07)

    def test_location_dependent_sigma0(self):
        func = StochasticFunction(
            Sphere(1), sigma0=lambda theta: float(abs(theta[0])), rng=0
        )
        assert func.sigma0_at([3.0]) == 3.0
        assert func.sigma0_at([0.0]) == 0.0

    def test_sigma_unknown_hides_truth(self):
        func = make(sigma0=5.0, sigma_known=False)
        ev = func.start([0.0, 0.0])
        assert ev.sigma0 is None

    def test_counters(self):
        func = make()
        ev = func.evaluate([0.0, 0.0], time=2.0)
        func.extend(ev, 3.0)
        assert func.n_underlying_calls == 2
        assert func.total_sampling_time == pytest.approx(5.0)

    def test_extend_rejects_nonpositive_dt(self):
        func = make()
        ev = func.start([0.0, 0.0])
        with pytest.raises(ValueError):
            func.extend(ev, 0.0)

    def test_seed_reproducibility(self):
        a = make(seed=9).evaluate([1.0, 1.0], 1.0).estimate
        b = make(seed=9).evaluate([1.0, 1.0], 1.0).estimate
        assert a == b


class TestSamplingPoolConcurrent:
    def test_activation_samples_warmup(self):
        func = make()
        pool = SamplingPool(func, warmup=2.0)
        ev = pool.activate([1.0, 1.0])
        assert ev.time == pytest.approx(2.0)
        assert pool.now == pytest.approx(2.0)

    def test_concurrent_advance_extends_all(self):
        func = make()
        pool = SamplingPool(func, warmup=1.0, concurrent=True)
        a = pool.activate([0.0, 0.0])
        b = pool.activate([1.0, 1.0])
        # b's activation warmup also extended a
        assert a.time == pytest.approx(2.0)
        pool.advance(5.0)
        assert a.time == pytest.approx(7.0)
        assert b.time == pytest.approx(6.0)

    def test_clock_is_wall_time_not_total_effort(self):
        func = make()
        pool = SamplingPool(func, warmup=1.0)
        pool.activate([0.0, 0.0])
        pool.activate([1.0, 1.0])
        pool.advance(10.0)
        # wall time: 1 + 1 + 10; total effort is larger (parallel sampling)
        assert pool.now == pytest.approx(12.0)
        assert func.total_sampling_time > pool.now

    def test_deactivate_stops_sampling(self):
        func = make()
        pool = SamplingPool(func, warmup=1.0)
        a = pool.activate([0.0, 0.0])
        pool.deactivate(a)
        t = a.time
        pool.activate([1.0, 1.0])
        pool.advance(3.0)
        assert a.time == t
        assert a not in pool

    @pytest.mark.parametrize("warmup", [0.0, -1.0])
    def test_nonpositive_warmup_rejected(self, warmup):
        with pytest.raises(ValueError):
            SamplingPool(make(), warmup=warmup)

    def test_deactivate_unknown_raises(self):
        func = make()
        pool = SamplingPool(func, warmup=1.0)
        ev = func.start([0.0, 0.0])
        with pytest.raises(ValueError):
            pool.deactivate(ev)

    def test_adopt_registers_without_time(self):
        func = make()
        pool = SamplingPool(func, warmup=1.0)
        ev = func.evaluate([0.0, 0.0], 1.0)
        pool.adopt(ev)
        assert ev in pool
        assert pool.now == 0.0

    def test_len_counts_active(self):
        func = make()
        pool = SamplingPool(func, warmup=1.0)
        a = pool.activate([0.0, 0.0])
        pool.activate([1.0, 1.0])
        assert len(pool) == 2
        pool.deactivate(a)
        assert len(pool) == 1


class TestSamplingPoolNonConcurrent:
    def test_activation_extends_only_new(self):
        func = make()
        pool = SamplingPool(func, warmup=1.0, concurrent=False)
        a = pool.activate([0.0, 0.0])
        b = pool.activate([1.0, 1.0])
        assert a.time == pytest.approx(1.0)
        assert b.time == pytest.approx(1.0)
        assert pool.now == pytest.approx(2.0)

    def test_advance_without_targets_only_moves_clock(self):
        func = make()
        pool = SamplingPool(func, warmup=1.0, concurrent=False)
        a = pool.activate([0.0, 0.0])
        pool.advance(5.0)
        assert a.time == pytest.approx(1.0)
        assert pool.now == pytest.approx(6.0)

    def test_advance_with_targets_extends_them(self):
        func = make()
        pool = SamplingPool(func, warmup=1.0, concurrent=False)
        a = pool.activate([0.0, 0.0])
        b = pool.activate([1.0, 1.0])
        pool.advance(4.0, targets=[a])
        assert a.time == pytest.approx(5.0)
        assert b.time == pytest.approx(1.0)

    def test_advance_rejects_inactive_target(self):
        func = make()
        pool = SamplingPool(func, warmup=1.0, concurrent=False)
        ev = func.start([0.0, 0.0])
        with pytest.raises(ValueError):
            pool.advance(1.0, targets=[ev])

    def test_shared_clock_between_pools(self):
        clock = VirtualClock()
        f1 = StochasticFunction(Sphere(1), sigma0=0.0, rng=0, clock=clock)
        pool = SamplingPool(f1, warmup=2.0)
        pool.activate([0.0])
        assert clock.now == pytest.approx(2.0)


class TestBatchedSamplingParity:
    """Batched kernels consume the identical rng stream as scalar loops.

    This is the invariant the whole batched-evaluation path rests on: one
    generator call over a frame's noise scales must leave the evaluations
    *and* the generator bitwise where the historical per-evaluation loop
    would have left them.
    """

    @staticmethod
    def _thetas(n=7, seed=3):
        return np.random.default_rng(seed).uniform(-2.0, 2.0, size=(n, 2))

    @pytest.mark.parametrize("mode", ["average", "resample"])
    def test_extend_many_bitwise_matches_scalar_loop(self, mode):
        batched = make(sigma0=1.5, mode=mode, seed=9)
        scalar = make(sigma0=1.5, mode=mode, seed=9)
        evs_b = [batched.start(t) for t in self._thetas()]
        evs_s = [scalar.start(t) for t in self._thetas()]
        for dt in (1.0, 2.5, 0.25):
            batched.extend_many(evs_b, dt)
            for ev in evs_s:
                scalar.extend(ev, dt)
        for eb, es in zip(evs_b, evs_s):
            assert eb.time == es.time
            assert eb.estimate == es.estimate
            assert eb.sem == es.sem
        assert batched.rng.bit_generator.state == scalar.rng.bit_generator.state
        assert batched.n_underlying_calls == scalar.n_underlying_calls
        assert batched.total_sampling_time == scalar.total_sampling_time

    @pytest.mark.parametrize("mode", ["average", "resample"])
    def test_merge_external_batch_matches_scalar_merges(self, mode):
        batched = make(sigma0=0.7, mode=mode, seed=21)
        scalar = make(sigma0=0.7, mode=mode, seed=21)
        thetas = self._thetas(n=5, seed=11)
        fvals = [float(Sphere(2)(t)) for t in thetas]
        evs_b = [batched.start(t) for t in thetas]
        evs_s = [scalar.start(t) for t in thetas]
        batched.merge_external_batch(evs_b, 1.5, fvals)
        for ev, v in zip(evs_s, fvals):
            scalar.merge_external(ev, 1.5, v)
        for eb, es in zip(evs_b, evs_s):
            assert eb.estimate == es.estimate
            assert eb.time == es.time
        assert batched.rng.bit_generator.state == scalar.rng.bit_generator.state

    def test_zero_sigma_entries_never_touch_the_generator(self):
        """Mixed frame: noiseless points are exact and draw nothing,
        exactly as the scalar path skips their rng call."""
        sigma0 = lambda th: 0.0 if th[0] < 0 else 1.0  # noqa: E731
        batched = make(sigma0=sigma0, seed=5)
        scalar = make(sigma0=sigma0, seed=5)
        thetas = np.array([[-1.0, 0.5], [1.0, 0.5], [-2.0, 0.0], [2.0, 0.0]])
        evs_b = [batched.start(t) for t in thetas]
        evs_s = [scalar.start(t) for t in thetas]
        batched.extend_many(evs_b, 2.0)
        for ev in evs_s:
            scalar.extend(ev, 2.0)
        for eb, es, t in zip(evs_b, evs_s, thetas):
            assert eb.estimate == es.estimate
            if t[0] < 0:  # noiseless: the exact surface value
                assert eb.estimate == float(Sphere(2)(t))
        assert batched.rng.bit_generator.state == scalar.rng.bit_generator.state

    @pytest.mark.parametrize("mode", ["average", "resample"])
    def test_zero_sigma_keeps_the_sign_of_negative_zero(self, mode):
        """A noiseless point keeps its told value bit for bit: ``-0.0``
        must not become ``0.0`` on the way in."""
        batched = make(sigma0=0.0, mode=mode, seed=2)
        scalar = make(sigma0=0.0, mode=mode, seed=2)
        ev_b = batched.start([0.0, 0.0])
        ev_s = scalar.start([0.0, 0.0])
        batched.merge_external_batch([ev_b], 1.0, [-0.0])
        scalar.merge_external(ev_s, 1.0, -0.0)
        for ev in (ev_b, ev_s):
            assert ev.estimate == 0.0 and math.copysign(1.0, ev.estimate) == -1.0
        assert batched.rng.bit_generator.state == scalar.rng.bit_generator.state

    def test_callable_sigma_resample_matches_scalar_merges(self):
        """Callable sigma0 in resample mode, with one evaluation merged
        twice in the batch (told refinements can repeat a vertex): each
        merge reads the time the previous one left, as the loop does."""
        sigma0 = lambda th: 0.0 if th[0] < 0 else 0.5 + abs(th[1])  # noqa: E731
        batched = make(sigma0=sigma0, mode="resample", seed=31)
        scalar = make(sigma0=sigma0, mode="resample", seed=31)
        thetas = np.array([[1.0, 0.5], [-1.0, 0.5], [2.0, -1.5], [0.3, 0.0]])
        evs_b = [batched.start(t) for t in thetas]
        evs_s = [scalar.start(t) for t in thetas]
        batched.extend_many(evs_b, 1.0)
        for ev in evs_s:
            scalar.extend(ev, 1.0)
        order = [0, 1, 2, 0, 3]
        fvals = [float(Sphere(2)(thetas[i])) + 0.25 * k for k, i in enumerate(order)]
        batched.merge_external_batch([evs_b[i] for i in order], 0.75, fvals)
        for i, v in zip(order, fvals):
            scalar.merge_external(evs_s[i], 0.75, v)
        for eb, es in zip(evs_b, evs_s):
            assert eb.estimate == es.estimate
            assert eb.time == es.time
        assert batched.rng.bit_generator.state == scalar.rng.bit_generator.state

    def test_batch_evaluate_matches_scalar_evaluates(self):
        batched = make(sigma0=1.0, seed=13)
        scalar = make(sigma0=1.0, seed=13)
        thetas = self._thetas(n=4, seed=17)
        evs_b = batched.batch_evaluate(thetas, time=1.0, labels=list("abcd"))
        evs_s = [scalar.evaluate(t, time=1.0, label=lbl)
                 for t, lbl in zip(thetas, list("abcd"))]
        for eb, es in zip(evs_b, evs_s):
            assert eb.estimate == es.estimate
            assert eb.label == es.label
        assert batched.rng.bit_generator.state == scalar.rng.bit_generator.state

    def test_extend_many_empty_is_a_noop(self):
        func = make(seed=1)
        before = func.rng.bit_generator.state
        func.extend_many([], 1.0)
        assert func.rng.bit_generator.state == before
        assert func.n_underlying_calls == 0

    def test_merge_external_batch_validates(self):
        func = make(seed=1)
        ev = func.start([0.0, 0.0])
        with pytest.raises(ValueError):
            func.merge_external_batch([ev], 0.0, [1.0])
        with pytest.raises(ValueError):
            func.merge_external_batch([ev], 1.0, [1.0, 2.0])
