"""SIGTERM is a clean shutdown: a served process leaves no worker behind.

``serve --worker-mode process`` forks a pool of search workers.  Process
managers (and ``smoke --multiprocess``) stop a server with SIGTERM, so the
server must treat it like Ctrl-C and shut its worker pool down instead of
dying and orphaning the workers.
"""

from __future__ import annotations

import os
import shutil
import signal
import tempfile

import pytest

from repro.core.parallel import _fork_context
from repro.service.__main__ import _free_port, _spawn_server
from repro.service.client import ServiceClient

pytestmark = [
    pytest.mark.skipif(_fork_context() is None,
                       reason="fork start method unavailable"),
    pytest.mark.skipif(not os.path.isdir("/proc/self"),
                       reason="needs /proc to list child processes"),
]


def children_of(pid):
    """PIDs whose parent is *pid* (read from /proc)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r") as handle:
                stat = handle.read()
        except OSError:
            continue
        # the command name is parenthesised and may hold spaces
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def alive(pid):
    """True unless *pid* is gone or a zombie."""
    try:
        with open(f"/proc/{pid}/stat", "r") as handle:
            stat = handle.read()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2:].split()[0] != "Z"


def test_sigterm_leaves_no_worker_running():
    cache_dir = tempfile.mkdtemp(prefix="repro-sigterm-")
    proc = _spawn_server(_free_port(), cache_dir, workers=2,
                         worker_mode="process")
    workers = []
    try:
        port = int(proc.args[proc.args.index("--port") + 1])
        client = ServiceClient(f"http://127.0.0.1:{port}")
        health = client.wait_until_healthy(timeout=90.0)
        assert health.get("worker_mode") == "process"
        reply = client.allocate(
            {"cdfg": {"bench": "diffeq"}, "length": 8, "seed": 1,
             "restarts": 2,
             "improve": {"max_trials": 1, "moves_per_trial": 40}})
        assert reply.get("status") == "done"
        workers = children_of(proc.pid)
        assert workers, "process mode forked no workers"

        proc.terminate()
        returncode = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=15)
        survivors = [pid for pid in workers if alive(pid)]
        for pid in survivors:  # never leak them past the test either
            os.kill(pid, signal.SIGKILL)
        shutil.rmtree(cache_dir, ignore_errors=True)
    assert survivors == []
    assert returncode == 0
