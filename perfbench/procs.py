"""Launching the program under test, and what the kernel counted for it.

Linux folds the resident set of a process's old address space into
``ru_maxrss`` at ``exec``, so a child spawned by a large process reports
at least its parent's peak RSS.  The benchmark process grows (inputs,
reference passes, layer probes), so it never spawns the program itself:
a launcher process, started first and importing only the standard
library, spawns every program process on request.

Every launch is timed inside the launcher from just before spawn to the
return of ``os.wait4``, which also yields the child's CPU time and peak
RSS.  The kernel folds the resources of the child's own reaped children
(shard workers) into those figures.

Run as a script, this module is the launcher: it reads one JSON request
per line on stdin and answers one JSON line on stdout.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional


@dataclass
class Exit:
    """One finished process."""

    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def program_env(root: Path, build: Path) -> Dict[str, str]:
    """Environment for the program: sources from the checkout; compiled
    kernels required; kernels and bytecode cached under ``build``, as an
    installed program's would be, whatever the caller's environment."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["REPRO_KERNEL_CACHE"] = str(build / "kernels")
    env["REPRO_CLOCK_KERNEL"] = "cffi"
    env["PYTHONPYCACHEPREFIX"] = str(build / "pycache")
    env["TMPDIR"] = str(build / "tmp")
    for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONDEVMODE"):
        env.pop(name, None)
    return env


def cli_argv(args: List[str]) -> List[str]:
    return [sys.executable, "-m", "repro.cli"] + list(args)


def peak_rss_mb(pid: int) -> float:
    """Peak RSS so far of a live process (``VmHWM``)."""
    with open("/proc/%d/status" % pid) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for process %d" % pid)


class Launcher:
    """The benchmark's handle on the launcher process."""

    def __init__(self, env: Dict[str, str], cwd: Path) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())], env=env,
            cwd=str(cwd), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )

    def _call(self, **request) -> dict:
        self._proc.stdin.write(json.dumps(request).encode("utf-8") + b"\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher exited")
        reply = json.loads(line)
        if "error" in reply:
            raise RuntimeError("launcher: %s" % reply["error"])
        return reply

    def run(self, argv: List[str], stdout: Path,
            timeout_s: float = 150.0) -> Exit:
        """Run ``argv`` to completion, stdout and stderr into one file."""
        return Exit(**self._call(op="run", argv=argv, stdout=str(stdout),
                                 timeout_s=timeout_s))

    def start(self, argv: List[str], log: Path) -> dict:
        """Start a server; returns its ``pid``, spawn-to-ready time
        ``ready_s`` (the first stdout line) and ``ready_cpu_s``."""
        return self._call(op="start", argv=argv, log=str(log))

    def stop(self, pid: int, timeout_s: float = 30.0) -> Exit:
        """SIGTERM a started server (graceful drain) and reap it."""
        return Exit(**self._call(op="stop", pid=pid, timeout_s=timeout_s))

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=60)
        self._proc.stdout.close()


# --------------------------------------------------------------------- #
# The launcher process
# --------------------------------------------------------------------- #

def _reap(proc: subprocess.Popen, started: float, timeout_s: float) -> Exit:
    """Block in ``wait4``; a watchdog kills the child past ``timeout_s``."""
    watchdog = threading.Timer(timeout_s, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode == -signal.SIGKILL:
        raise TimeoutError("%r ran longer than %.0fs" % (proc.args, timeout_s))
    return Exit(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )


def _cpu_seconds(pid: int) -> float:
    """User + system CPU a live process has used so far."""
    with open("/proc/%d/stat" % pid) as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / float(os.sysconf("SC_CLK_TCK"))


class _Server:
    def __init__(self, argv: List[str], log: str) -> None:
        self.log = open(log, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=self.log)
        self.drain: Optional[threading.Thread] = None

    def wait_ready(self) -> dict:
        line = self.proc.stdout.readline().decode("utf-8", "replace")
        ready_s = time.perf_counter() - self.started
        if not line.startswith("serving on"):
            raise RuntimeError("serve did not start: %r" % line)
        # One summary line arrives per session; a pipe nobody reads would
        # stall the server, so copy the rest into the log.
        self.drain = threading.Thread(
            target=shutil.copyfileobj, args=(self.proc.stdout, self.log),
            daemon=True,
        )
        self.drain.start()
        return {"pid": self.proc.pid, "ready_s": ready_s,
                "ready_cpu_s": _cpu_seconds(self.proc.pid)}

    def stop(self, timeout_s: float) -> Exit:
        try:
            self.proc.send_signal(signal.SIGTERM)
            return _reap(self.proc, self.started, timeout_s)
        finally:
            if self.proc.returncode is None:
                self.proc.kill()
                self.proc.wait()
            if self.drain is not None:
                self.drain.join(timeout=10)
            self.proc.stdout.close()
            self.log.close()


def _handle(request: dict, servers: Dict[int, _Server]) -> dict:
    if request["op"] == "run":
        with open(request["stdout"], "wb") as out:
            started = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out,
                                    stderr=subprocess.STDOUT)
        return asdict(_reap(proc, started, request["timeout_s"]))
    if request["op"] == "start":
        server = _Server(request["argv"], request["log"])
        servers[server.proc.pid] = server
        return server.wait_ready()
    if request["op"] == "stop":
        return asdict(servers.pop(request["pid"]).stop(request["timeout_s"]))
    raise ValueError("unknown request %r" % request["op"])


def serve_requests() -> None:
    servers: Dict[int, _Server] = {}
    try:
        for line in sys.stdin:
            try:
                reply = _handle(json.loads(line), servers)
            except Exception as error:  # reported to the benchmark process
                reply = {"error": "%s: %s" % (type(error).__name__, error)}
            sys.stdout.write(json.dumps(reply) + "\n")
            sys.stdout.flush()
    finally:
        for server in servers.values():
            server.stop(timeout_s=10)


if __name__ == "__main__":
    serve_requests()
