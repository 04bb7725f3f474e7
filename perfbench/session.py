"""The benchmark's Ray session: one local session with ``num_cpus=1``, the
benchmark process and every process it starts pinned to one CPU, and a
warm worker that has imported naer_ray.

The pinning keeps wall times steady on a shared multi-CPU virtual
machine: with the session spread over 4 vCPUs, hypervisor steal varied
between 1% and 18% from minute to minute and job times with it (5 to
9.5 s for the same job); on one vCPU steal stayed under 2%.  Across ten
seeds the job times still spread by 9-13% (quartile distance over
median), which is the host's own drift from minute to minute: the jobs
of one run agree far better than runs a minute apart, and a run's jobs
are slow when a CPU-bound loop timed right after the run is slow too.

``python3 perfbench/session.py`` is one set-up sample: it starts a fresh
session, prints the seconds from the start of its own process to the
ready session, and shuts the session down.
"""

from __future__ import annotations

import os
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: object store size; the workloads keep well under 100 MB in flight
OBJECT_STORE_BYTES = 512 * 1024 * 1024
#: CPUs the benchmark and its Ray session are pinned to
PINNED_CPUS = 1
#: Ray's session files go here when the socket paths stay within the
#: AF_UNIX limit (107 bytes; ``<dir>/session_<stamp>_<pid>/sockets/raylet``
#: adds up to 63), else to Ray's default temporary directory
RAY_TEMP_DIR = os.path.join(ROOT, ".bench_work", "ray")
_SOCKET_SUFFIX = 63


def since_process_start() -> float:
    """Seconds since this process started (``/proc/self/stat`` start time
    against ``CLOCK_BOOTTIME``, both counted from boot)."""
    with open("/proc/self/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def pin() -> list[int]:
    """Pin this process, and so every process it starts later, to the
    ``PINNED_CPUS`` highest-numbered CPUs it may use; returns them."""
    cpus = sorted(os.sched_getaffinity(0))[-PINNED_CPUS:]
    os.sched_setaffinity(0, cpus)
    return cpus


def ray_temp_dir() -> str | None:
    if len(RAY_TEMP_DIR) + _SOCKET_SUFFIX > 107:
        return None
    os.makedirs(RAY_TEMP_DIR, exist_ok=True)
    return RAY_TEMP_DIR


def start(trace_dir: str | None = None) -> None:
    """Start the session the way ``python -m naer_ray.job --num-cpus`` does
    and wait for a worker that has imported naer_ray.  Workers inherit the
    driver's ``sys.path``, so they import naer_ray from this checkout.

    With ``trace_dir`` the workers also install the trace wrappers
    (``perfbench.trace.install_worker``) and write their spans there."""
    import logging

    import ray

    kwargs = {}
    if trace_dir is not None:
        from perfbench import trace

        os.environ[trace.TRACE_DIR_ENV] = trace_dir
        kwargs["runtime_env"] = {
            "worker_process_setup_hook": "perfbench.trace.install_worker",
            # the hook runs before the driver's sys.path reaches the worker
            "env_vars": {
                trace.TRACE_DIR_ENV: trace_dir,
                "PYTHONPATH": os.pathsep.join(
                    p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
                ),
            },
        }
    temp_dir = ray_temp_dir()
    if temp_dir is not None:
        kwargs["_temp_dir"] = temp_dir
    ray.init(
        address="local",
        num_cpus=1,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
        log_to_driver=False,
        **kwargs,
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    ray.get(ray.remote(_import_naer_ray).remote())


def _import_naer_ray() -> None:
    import naer_ray.pipelines.kg  # noqa: F401


def descendants(root_pid: int) -> list[int]:
    """Every live descendant of ``root_pid``, parents before children."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    out, todo = [], [root_pid]
    while todo:
        kids = children.get(todo.pop(), [])
        out.extend(kids)
        todo.extend(kids)
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def stop(graceful: bool = True, timeout: float = 20.0) -> None:
    """End the session and wait until every process it started has ended
    (workers outlive the raylet briefly); stragglers get SIGKILL.  Then
    remove the session's files.

    ``graceful=False`` skips ``ray.shutdown()`` and kills the processes
    at once; only a process that exits right after may use it."""
    import signal

    import ray

    started = descendants(os.getpid())
    node = ray._private.worker._global_node
    session_dir = node.get_session_dir_path() if node is not None else ""
    signals = (None, signal.SIGKILL) if graceful else (signal.SIGKILL,)
    if graceful:
        ray.shutdown()
    for sig in signals:
        if sig is not None:
            for pid in started:
                try:
                    os.kill(pid, sig)
                except OSError:
                    pass
        deadline = time.monotonic() + timeout
        while started and time.monotonic() < deadline:
            started = [pid for pid in started if _alive(pid)]
            time.sleep(0.02)
        if not started:
            break
    if os.path.dirname(session_dir) == RAY_TEMP_DIR:
        shutil.rmtree(session_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.path.insert(0, ROOT)
    pin()
    start()
    ready = since_process_start()
    print(f"{ready!r}", flush=True)
    stop(graceful=False)
    os._exit(0)
