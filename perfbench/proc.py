"""Run one fresh `oddball` process and account for its whole process tree.

Wall time is taken around spawn and reap.  CPU time and peak resident memory
come from `os.wait4`, whose rusage covers the child and every descendant it
waited for, so campaign pool workers are counted too.  Peak memory is the
largest resident set of any one process in that tree.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import signal
import subprocess
import sys
import threading
import time

# The exact entry point the installed `oddball` console script runs.
CLI_CODE = "import sys; from oddball.cli import main; sys.exit(main())"


@dataclasses.dataclass(frozen=True)
class Invocation:
    argv: tuple
    exit_code: int | None  # None when the process was killed on timeout
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


def child_env(root: str) -> dict:
    """Environment that imports `oddball` from the checkout's own `src/`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONIOENCODING"] = "utf-8"
    env.pop("ODDBALL_PRECISION", None)  # outputs are recorded at the default
    # users run from installed bytecode; the first import writes src/**/__pycache__
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _drain(stream, sink: list) -> None:
    sink.append(stream.read())
    stream.close()


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait_group_gone(pgid: int, limit_s: float = 10.0) -> None:
    """Wait until no process of the group is left, pool workers included."""
    end = time.monotonic() + limit_s
    while time.monotonic() < end:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_process(cmd: list, env: dict, cwd: str, timeout_s: float) -> Invocation:
    """Spawn `cmd` in its own process group, collect both output streams and
    reap it with `os.wait4`.  On timeout the whole group is killed."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=cwd,
                            start_new_session=True)
    out: list = []
    err: list = []
    readers = [threading.Thread(target=_drain, args=(proc.stdout, out)),
               threading.Thread(target=_drain, args=(proc.stderr, err))]
    for t in readers:
        t.start()
    killer = threading.Timer(timeout_s, _kill_group, args=(proc.pid,))
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # keeps Popen from reaping again
    if proc.returncode < 0:
        _kill_group(proc.pid)
        _wait_group_gone(proc.pid)
    for t in readers:
        t.join()
    code = proc.returncode if proc.returncode >= 0 else None
    return Invocation(
        argv=tuple(cmd),
        exit_code=code,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stdout=out[0] if out else b"",
        stderr=err[0] if err else b"",
    )


def run_cli(argv: list, root: str, timeout_s: float) -> Invocation:
    """One `oddball <argv>` process, as a user would start it."""
    inv = run_process([sys.executable, "-c", CLI_CODE, *argv], child_env(root), root, timeout_s)
    return dataclasses.replace(inv, argv=tuple(argv))
