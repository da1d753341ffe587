"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from store_helpers import STORE_BACKENDS, open_store_backend

from repro.functions import Rosenbrock, Sphere
from repro.noise import SamplingPool, StochasticFunction

try:  # hypothesis is a tier-1 dependency but not every CI job installs it
    from hypothesis import HealthCheck, settings as hyp_settings
except ImportError:
    pass
else:
    # The reproducible profile CI runs the property suite under
    # (HYPOTHESIS_PROFILE=ci): derandomized, bounded examples, no
    # deadline flakes on loaded runners.
    hyp_settings.register_profile(
        "ci",
        derandomize=True,
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    # The nightly schedule leg runs the property suite at full strength:
    # fresh randomness every night and the library-default example count
    # (no derandomize, so regressions the bounded ci profile would never
    # reach still get hunted down over time).
    hyp_settings.register_profile(
        "nightly",
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    if os.environ.get("HYPOTHESIS_PROFILE"):
        hyp_settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


@pytest.fixture(params=STORE_BACKENDS + ("netstore",))
def store_backend(request, tmp_path, monkeypatch):
    """Factory of store instances, parametrized over every engine.

    Each call opens a *fresh instance* over the same substrate (one
    directory per test), so multi-runner tests model real cooperating
    processes.  The factory carries metadata for engine-sensitive
    assertions: ``.engine`` (fixture param) and ``.cli_store_spec`` (the
    ``--store`` argument creating this engine from the CLI).

    The ``netstore`` parametrization spins up a real in-process
    :class:`~repro.campaign.backends.netstore.StoreServer` over a sqlite
    backend, so every store and chaos test also runs over an actual
    TCP socket; ``make()`` then returns network clients of it.

    Telemetry is switched on for every parametrization so the whole
    store/chaos matrix also exercises the instrumented code paths.
    """
    monkeypatch.setenv("REPRO_TELEMETRY", "1")

    if request.param == "netstore":
        from repro.campaign.backends import NetworkStoreBackend, StoreServer
        from repro.campaign.backends.sqlite import SQLiteStoreBackend

        served = SQLiteStoreBackend(tmp_path / "served-store")
        server = StoreServer(served, listen="127.0.0.1:0")
        server.start()
        clients = []

        def make():
            client = NetworkStoreBackend(server.address)
            clients.append(client)
            return client

        def teardown():
            for client in clients:
                client.close()
            server.close()
            served.close()

        request.addfinalizer(teardown)
        make.engine = "netstore"
        make.cli_store_spec = server.address
        return make

    def make():
        return open_store_backend(request.param, tmp_path / "backend-store")

    make.engine = request.param
    make.cli_store_spec = request.param
    return make


@pytest.fixture
def result_lines():
    """Counter of raw result-record lines in a campaign store file.

    Lease lines are excluded, and *lines* are counted, not deduplicated
    records — the assertion that a job was never re-executed.  Shared by
    the campaign test modules.
    """
    import json
    from pathlib import Path

    from repro.campaign import STATUS_CLAIMED, STATUS_RELEASED

    def count(path) -> int:
        n = 0
        for line in Path(path).read_text().strip().splitlines():
            if json.loads(line)["status"] not in (STATUS_CLAIMED, STATUS_RELEASED):
                n += 1
        return n

    return count


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def sphere3():
    return Sphere(3)


@pytest.fixture
def rosenbrock3():
    return Rosenbrock(3)


@pytest.fixture
def noisy_sphere(sphere3):
    """Moderately noisy sphere with known sigma0 and a deterministic seed."""
    return StochasticFunction(sphere3, sigma0=1.0, rng=42, sigma_known=True)


@pytest.fixture
def noiseless_sphere(sphere3):
    return StochasticFunction(sphere3, sigma0=0.0, rng=0)


@pytest.fixture
def pool(noisy_sphere):
    return SamplingPool(noisy_sphere, warmup=1.0, concurrent=True)
