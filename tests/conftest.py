import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    import ray.data

    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


def processes_naming(text: str) -> list:
    """Pids of the live processes whose command line contains ``text``."""
    pids = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit() or int(pid) == os.getpid():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        if text in cmd:
            pids.append(int(pid))
    return pids


def run_bounded(script: str, timeout_s: float, what: str,
                temp_dir: str | None = None) -> dict:
    """Run ``script`` (a Ray driver's source) in a child Python and return
    the JSON object on its last stdout line.

    The child gets ``sys.argv[1]``, an alarm budget of two thirds of
    ``timeout_s`` in seconds, and ``sys.argv[2]``, a Ray temp dir of its
    own (``temp_dir``, else a fresh one) to pass to
    ``ray.init(_temp_dir=...)``. Every process of that cluster names the
    dir on its command line, while Ray's runtime-env agent and workers
    leave the driver's process group; so a hang past ``timeout_s``
    kills exactly the processes that name the dir, then fails the
    test."""
    temp_dir = temp_dir or tempfile.mkdtemp(prefix="rb")  # short: sockets
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [ROOT, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-c", script, str(int(timeout_s * 2 / 3)),
         temp_dir], env=env, cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        for _ in range(3):   # a dying raylet may still start a worker
            for pid in processes_naming(temp_dir):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            time.sleep(0.5)
        proc.communicate()
        pytest.fail(f"{what}: the driver hung past its own alarm")
    finally:
        shutil.rmtree(temp_dir, ignore_errors=True)
    assert proc.returncode == 0, err[-2000:]
    return json.loads(out.strip().splitlines()[-1])
