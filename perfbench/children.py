"""The benchmark's child processes: set-up probes and the daemon."""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
import time
from array import array

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))


def _spawn(script: str, *args: str) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, os.path.join(HERE, script),
                             *args], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)


def _reap(proc: subprocess.Popen) -> None:
    """End a child (end of stdin stops it) and wait for it."""
    with contextlib.suppress(OSError):
        proc.stdin.close()
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def _json_line(proc: subprocess.Popen, what: str) -> dict:
    line = proc.stdout.readline()
    if not line:
        proc.wait(timeout=60)
        raise RuntimeError(f"{what} exited with {proc.returncode} "
                           "before reporting")
    return json.loads(line)


def bulk_setup(src: str, packed: bytes) -> tuple:
    """Fresh interpreter until its first checked conversion of
    ``packed``: ``(seconds, failed rows, child report)``."""
    start = time.perf_counter()
    proc = _spawn("setup_probe.py", src, packed.hex())
    try:
        report = _json_line(proc, "setup probe")
        elapsed = time.perf_counter() - start
        report.update(_json_line(proc, "setup probe"))
    finally:
        _reap(proc)
    values = array("d", packed).tolist()
    failed, _ = oracles.check_plane_shortest(
        values, report["plane"].encode("ascii"))
    texts = report["plane"].split("\n")[:-1]
    failed += oracles.check_plane_read(texts, report["bits"])[0]
    failed += sum(oracles.check_fixed(x, row) is not None
                  for x, row in zip(values, report["fixed"]))
    return elapsed, failed, report


class Daemon:
    """A :class:`ReproDaemon` with its defaults in a child process."""

    def __init__(self, src: str):
        self.proc = _spawn("daemon_host.py", src)
        try:
            self.port = _json_line(self.proc, "daemon")["port"]
        except BaseException:
            self.kill()
            raise

    def _ask(self, line: str) -> dict:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        return _json_line(self.proc, "daemon")

    def stats(self) -> dict:
        """The daemon's stats and pool stats so far."""
        return self._ask("stats")

    def stop(self) -> dict:
        """Drain and stop; the daemon's stats, pool stats and peak RSS."""
        try:
            return self._ask("stop")
        finally:
            self.kill()

    def kill(self) -> None:
        """Stop without the report (idempotent)."""
        _reap(self.proc)
