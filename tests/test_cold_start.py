"""Cold start: each ``python -m repro`` command imports only what it runs.

The package inits re-export lazily (:mod:`repro._lazy`), so
``campaign store-serve`` never loads numpy (and so never starts
OpenBLAS's thread pool) and an ``mw-worker`` loads the mw stack plus its
executor's closure, not the campaign runner or the applications.  Every
check runs in a fresh interpreter: the test process itself has long
imported everything.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign.backends.netstore import NetworkStoreBackend

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: The packages whose inits re-export lazily.
LAZY_PACKAGES = ("repro", "repro.campaign", "repro.core", "repro.mw")

#: What ``mw-worker`` never needs, whichever campaign executor it runs
#: (the executors use the store layer's record statuses, no engine).
NOT_ON_WORKER_PATH = (
    "repro.campaign.runner",
    "repro.campaign.scheduler",
    "repro.campaign.store",
    "repro.campaign.backends.netstore",
    "repro.campaign.backends.sqlite",
    "sqlite3",
    "repro.analysis",
    "repro.md",
    "repro.water",
    "repro.cluster",
    "repro.optroot",
)


def fresh_modules(code):
    """Run ``code`` in a fresh interpreter; return its ``sys.modules`` keys."""
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint(' '.join(sys.modules))"],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize("module", [
    "repro.campaign.execution",
    "repro.campaign.backends.netstore",
    "repro.campaign.store",
    "repro.mw.tcp",
])
def test_module_imports_first_in_a_fresh_interpreter(module):
    """No module leans on a package init's import order (the store and
    backends modules import each other; only a lazy import breaks it)."""
    assert module in fresh_modules(f"import {module}")


@pytest.mark.parametrize("engine", ["sqlite", "jsonl"])
def test_store_serve_path_loads_no_numpy(tmp_path, engine):
    modules = fresh_modules(
        "import repro.cli\n"
        "from repro.campaign.backends import StoreServer, open_store\n"
        f"open_store({str(tmp_path)!r}, engine={engine!r})"
    )
    assert "repro.campaign.backends.netstore" in modules
    assert "numpy" not in modules
    assert "repro.core" not in modules


def test_store_serve_first_requests_import_nothing(tmp_path):
    """Start-up finishes before ``store-serve`` listens: a first-use import
    would land inside the first client's request."""
    modules = fresh_modules(
        "import sys\n"
        "import repro.cli\n"
        "from repro.campaign.backends import StoreServer, open_store\n"
        f"store = open_store({str(tmp_path)!r}, engine='sqlite')\n"
        "before = set(sys.modules)\n"
        "job = {'label': 'DET', 'algorithm': 'DET', 'function': 'sphere',\n"
        "       'dim': 2, 'sigma0': 1.0}\n"
        "store.claim(['a', 'b'], 'r1', 10.0)\n"
        "store.record_many([{'job_id': 'a', 'status': 'done', 'job': job,\n"
        "                    'result': {'v': 1}}])\n"
        "store.renew(['b'], 'r1', 10.0)\n"
        "store.release(['b'], 'r1')\n"
        "store.records(), store.counts()\n"
        "assert set(sys.modules) == before, set(sys.modules) - before\n"
    )
    assert "repro.telemetry" in modules


def test_welcomed_worker_imports_nothing_before_its_first_result():
    """Start-up finishes before the hello: building the rank's generator
    on welcome and running a first job load no further module."""
    fresh_modules(
        "import sys\n"
        "import repro.cli, repro.mw.codec, repro.mw.tcp\n"
        "from repro.mw.transport import resolve_executor\n"
        "executor = resolve_executor({'kind': 'executor',\n"
        "    'spec': 'repro.campaign.execution:mw_job_executor'})\n"
        "before = set(sys.modules)\n"
        "from repro.mw.tcp import _seed_from_payload\n"
        "from repro.mw.worker import MWWorker\n"
        "worker = MWWorker(1, executor,\n"
        "                  _seed_from_payload({'entropy': 7, 'spawn_key': [0]}))\n"
        "from repro.campaign.spec import CampaignSpec\n"
        "job = CampaignSpec(name='c', algorithms=['PC'], functions=['sphere'],\n"
        "                   dims=[2], sigma0s=[1.0], seeds=[0],\n"
        "                   max_steps=10).expand()[0]\n"
        "record = executor(job.to_dict(), worker.context)\n"
        "assert record['status'] == 'done', record\n"
        "assert set(sys.modules) == before, set(sys.modules) - before\n"
    )


@pytest.mark.parametrize("executor", ["mw_job_executor", "mw_eval_executor"])
def test_mw_worker_path_loads_only_the_mw_stack_and_its_executor(executor):
    modules = fresh_modules(
        "import repro.cli, repro.mw.codec, repro.mw.tcp\n"
        "from repro.mw.transport import resolve_executor\n"
        "resolve_executor({'kind': 'executor', "
        f"'spec': 'repro.campaign.execution:{executor}'}})"
    )
    assert "repro.campaign.execution" in modules
    loaded = {name for name in modules
              if name.startswith(NOT_ON_WORKER_PATH)}
    assert not loaded


def test_plain_mw_worker_path_loads_no_campaign_layer():
    modules = fresh_modules("import repro.cli, repro.mw.codec, repro.mw.tcp")
    assert not {name for name in modules if name.startswith("repro.campaign")}
    assert "repro.mw.driver" not in modules


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_exported_name_resolves_from_cold(package):
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import {package} as p\n"
         "missing = [n for n in p.__all__ if not hasattr(p, n)]\n"
         "assert not missing, missing\n"
         "assert set(p.__all__) <= set(dir(p))\n"
         "assert not hasattr(p, 'no_such_name')\n"],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_star_import_and_quickstart_work_from_cold():
    proc = subprocess.run(
        [sys.executable, "-c",
         "from repro import *\n"
         "from repro.campaign import *\n"
         "result = optimize('sphere', dim=2, algorithm='DET', sigma0=0.0,\n"
         "                  seed=0, max_steps=20)\n"
         "assert result.n_steps > 0 and Campaign.__name__ == 'Campaign'\n"],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/<pid>/status and /proc/<pid>/maps")
def test_live_store_serve_runs_one_thread_without_numpy(tmp_path):
    """Unpinned (no OPENBLAS_NUM_THREADS), a serving store-serve holds one
    thread, its selector loop, and has no numpy library mapped."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("OPENBLAS_NUM_THREADS", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign", "store-serve",
         str(tmp_path / "store"), "--listen", "127.0.0.1:0"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        line = proc.stdout.readline()
        assert " at store://" in line, line
        client = NetworkStoreBackend(line.rsplit(" at ", 1)[1].strip())
        try:
            job = {"label": "DET", "algorithm": "DET", "function": "sphere",
                   "dim": 2, "sigma0": 1.0}
            client.record_many([{"job_id": f"j{i}", "status": "done",
                                 "job": job, "result": {"v": i}}
                                for i in range(3)])
            assert client.completed_ids() == {"j0", "j1", "j2"}
            time.sleep(0.2)
            status = Path(f"/proc/{proc.pid}/status").read_text()
            maps = Path(f"/proc/{proc.pid}/maps").read_text()
        finally:
            client.close()
        assert "Threads:\t1\n" in status
        assert "numpy" not in maps
    finally:
        proc.terminate()
        proc.communicate(timeout=30)
