"""The subprocesses one benchmark round starts, and their bounded teardown.

A round's fleet is its ``mw-worker`` processes plus, on the netstore
workload, one ``campaign store-serve`` process.  Every process is tracked
from the moment it is spawned; :meth:`Fleet.stop` first gives each a
bounded graceful exit and then kills and reaps whatever is left, so no
exit path, a failed check or Ctrl-C included, leaves a process behind.
"""

from __future__ import annotations

import os
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import IO, List, Optional

#: Seconds a worker keeps dialing the master before giving up.
CONNECT_TIMEOUT_S = 30.0
#: Seconds the fleet may take to spawn and join (or a server to listen).
START_TIMEOUT_S = 60.0
#: Seconds a process gets to exit on its own before it is killed.
GRACE_S = 10.0
#: Bytes of each child's stderr log shown in a failure message.
LOG_TAIL_BYTES = 2000

#: Worker executors by task kind, untraced (the program's own) and traced
#: (the benchmark's timing wrappers in :mod:`perfbench.worker`).
EXECUTORS = {
    ("eval", False): "repro.campaign.execution:mw_eval_executor",
    ("job", False): "repro.campaign.execution:mw_job_executor",
    ("eval", True): "perfbench.worker:traced_eval_executor",
    ("job", True): "perfbench.worker:traced_job_executor",
}


class FleetError(RuntimeError):
    """A fleet process failed to start, join, or listen in time."""


class Fleet:
    """Spawn, track, and always reap a round's worker and store processes.

    Parameters
    ----------
    root:
        Checkout root; ``src`` and the root itself go on the children's
        ``PYTHONPATH`` so workers import both the program and the
        benchmark's executors.
    logdir:
        Where each child's stderr is kept (shown when a child fails).
    env:
        Extra environment for the children.
    """

    def __init__(self, root: Path, logdir: Path,
                 env: Optional[dict] = None) -> None:
        self.root = Path(root)
        self.logdir = Path(logdir)
        self.logdir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src"), str(self.root)]
        )
        self.env.update(env or {})
        self.procs: List[subprocess.Popen] = []
        self._logs: List[IO] = []

    def _spawn(self, name: str, argv: List[str], **kwargs) -> subprocess.Popen:
        log = open(self.logdir / f"{name}.log", "wb")
        self._logs.append(log)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            env=self.env, stdin=subprocess.DEVNULL, stderr=log, **kwargs,
        )
        self.procs.append(proc)
        return proc

    def spawn_workers(self, url: str, n: int, executor: str) -> None:
        """Start ``n`` ``mw-worker`` processes dialing the master at ``url``."""
        for i in range(n):
            self._spawn(f"worker-{len(self.procs)}-{i}", [
                "mw-worker", url,
                "--connect-timeout", str(CONNECT_TIMEOUT_S),
                "--executor", executor,
            ], stdout=subprocess.DEVNULL)

    def wait_joined(self, transport, n: int) -> None:
        """Block until ``n`` workers completed the hello with ``transport``."""
        deadline = time.monotonic() + START_TIMEOUT_S
        while len(transport.stats()["connected"]) < n:
            dead = [p for p in self.procs if p.poll() is not None]
            if dead:
                raise FleetError(
                    f"a fleet process exited with code {dead[0].returncode} "
                    f"before joining:\n{self.log_tail()}"
                )
            if time.monotonic() > deadline:
                raise FleetError(
                    f"{n} workers did not join within {START_TIMEOUT_S:g}s:\n"
                    f"{self.log_tail()}"
                )
            time.sleep(0.005)

    def start_store_server(self, directory: Path) -> str:
        """Start ``campaign store-serve`` on a port-0 listen; return its URL."""
        proc = self._spawn("store-serve", [
            "campaign", "store-serve", str(directory), "--listen", "127.0.0.1:0",
        ], stdout=subprocess.PIPE)
        lines: queue.Queue = queue.Queue()

        def read_stdout() -> None:
            for raw in proc.stdout:
                lines.put(raw.decode("utf-8", "replace"))
            lines.put(None)

        threading.Thread(target=read_stdout, daemon=True,
                         name="store-serve-stdout").start()
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            try:
                line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise FleetError(
                    f"store-serve printed no address within "
                    f"{START_TIMEOUT_S:g}s:\n{self.log_tail()}"
                ) from None
            if line is None:
                raise FleetError(
                    f"store-serve exited before listening:\n{self.log_tail()}"
                )
            if " at store://" in line:
                return line.rsplit(" at ", 1)[1].strip()

    def stop(self) -> None:
        """Let each process exit within :data:`GRACE_S`, then kill and reap.

        Workers exit on the master's shutdown frame; the store server is
        sent SIGINT, which it handles as a clean stop.
        """
        for proc in self.procs:
            if proc.poll() is None and "store-serve" in proc.args:
                proc.send_signal(signal.SIGINT)
        deadline = time.monotonic() + GRACE_S
        for proc in self.procs:
            try:
                proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for proc in self.procs:
            if proc.stdout is not None:
                proc.stdout.close()
        for log in self._logs:
            log.close()
        self.procs = []
        self._logs = []

    def log_tail(self) -> str:
        """The end of every child's stderr log, for failure messages."""
        parts = []
        for path in sorted(self.logdir.glob("*.log")):
            text = path.read_bytes()[-LOG_TAIL_BYTES:].decode("utf-8", "replace")
            if text.strip():
                parts.append(f"--- {path.name}\n{text}")
        return "\n".join(parts) or "(no output)"
