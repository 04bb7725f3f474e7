"""Benchmark of naer_ray's checkpointed KG job, ``run_kg_job``.

    python3 perfbench/run.py --workload gazetteer_dense --seed 1 --seconds 10 --trace 0

One unit of work is one ``run_kg_job`` call on a fresh output root, in a
warm local Ray session with ``num_cpus=1`` pinned to one CPU, one job at
a time (closed loop).  The inputs come from ``perfbench.gen``
(cached per workload, seed and generator version, outside timing); a
small Ray Data pipeline over the same input warms the session first.  Every
job's output is reconciled against its MANIFEST and digested; the first
job's output also gets the full correctness check (``perfbench.check``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` starts one
session whose workers install the wrappers of ``perfbench.trace`` and
splits the time in two halves: untraced jobs while the wrappers pass
straight through, then traced jobs; it reports the per-layer metrics and
the tracing overhead.  A traced job whose layer busy times add up to more
than its wall time (spans counted twice) fails.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1
when any job raised or failed a check, and 2 when the program under test
is missing from the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import session  # noqa: E402  (imports nothing heavy)

WORKLOADS = ("gazetteer_dense", "gazetteer_sparse", "answers_long")
CACHE_DIR = os.path.join(ROOT, ".bench_cache")
WORK_DIR = os.path.join(ROOT, ".bench_work")

#: conv-hash buckets of the triples stage (run_kg_job's default)
N_BUCKETS = 16
#: set-up samples per run: this process plus SETUP_PROBES fresh ones
SETUP_PROBES = 1
#: jobs per untraced run at least, so that job_s is a median of four or more
MIN_JOBS = 4
#: RSS sampling period in seconds
RSS_PERIOD = 0.2

END_TO_END_UNITS = {
    "job_s": "s",
    "turns_per_s": "turns/s",
    "peak_rss_mb": "MB",
    "output_mb": "MB",
    "setup_s": "s",
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ RSS


def _ray_family(root_pid: int) -> list[int]:
    """``root_pid`` plus its descendants that are Ray worker processes."""
    family = [root_pid]
    for pid in session.descendants(root_pid):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read()
        except OSError:
            continue
        if cmd.startswith(b"ray::") or b"default_worker.py" in cmd:
            family.append(pid)
    return family


def _rss_bytes(pids: list[int]) -> int:
    page = os.sysconf("SC_PAGE_SIZE")
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/statm") as f:
                total += int(f.read().split()[1]) * page
        except (OSError, ValueError, IndexError):
            continue
    return total


class RssSampler:
    """Background sampler of the summed RSS of the driver and Ray workers.

    The processes are resolved once, when the sampler starts (the worker
    pool is warm by then); each sample reads only their ``statm``."""

    def __init__(self, period: float = RSS_PERIOD):
        self.period = period
        self.peak = 0
        self._pids = _ray_family(os.getpid())
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.peak = max(self.peak, _rss_bytes(self._pids))
            self._stop.wait(self.period)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


# ------------------------------------------------------------------ jobs


def run_job(spec: dict, out_root: str) -> dict:
    from naer_ray.pipelines.kg import run_kg_job

    return run_kg_job(
        spec["transcripts"],
        spec.get("dictionary"),
        out_root,
        extractor=spec["extractor"],
        answers_path=spec.get("answers"),
        expected_path=spec.get("expected"),
        canonicalize=spec["canonicalize"],
        n_buckets=N_BUCKETS,
    )


class Runner:
    """Closed loop of jobs on one input set, with the per-job checks."""

    def __init__(self, spec: dict, work: str, label: str = "job"):
        self.spec = spec
        self.work = work
        self.label = label
        self.attempted = 0
        self.failed = 0
        self.full_checked = False
        self.first_digest: str | None = None
        self.jobs: list[dict] = []

    def one(self, on_done=None) -> float:
        """One job and its checks; returns the job's wall time."""
        from perfbench import check

        self.attempted += 1
        out = os.path.join(self.work, f"job-{self.label}-{self.attempted:03d}")
        shutil.rmtree(out, ignore_errors=True)
        with RssSampler() as rss:
            t0 = time.perf_counter()
            try:
                counters = run_job(self.spec, out)
            except Exception as exc:  # noqa: BLE001 — a raising job counts as failed
                self.failed += 1
                log(f"{self.label} job {self.attempted} raised {type(exc).__name__}: {exc}")
                shutil.rmtree(out, ignore_errors=True)
                return time.perf_counter() - t0
            t1 = time.perf_counter()
        job = {"run_id": self.attempted, "start": t0, "end": t1, "job_s": t1 - t0,
               "peak_rss_bytes": rss.peak, "output_bytes": check.output_bytes(out),
               "counters": counters}
        if on_done is not None:
            job.update(on_done(job, out))
        problems = check.reconcile_problems(out, self.spec, N_BUCKETS)
        if not self.full_checked:
            problems += check.full_problems(out, self.spec)
            self.full_checked = True
        digest = check.digest(out)
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            problems.append(f"digest {digest[:12]} != first job's {self.first_digest[:12]}")
        log(f"{self.label} job {self.attempted}: {t1 - t0:.3f} s")
        if problems:
            self.failed += 1
            log(f"{self.label} job {self.attempted} failed its checks: {problems}")
        else:
            self.jobs.append(job)
        shutil.rmtree(out, ignore_errors=True)
        return t1 - t0

    def loop(self, seconds: float, min_jobs: int = 1, on_done=None) -> None:
        """Run jobs until their summed time reaches ``seconds`` and at least
        ``min_jobs`` have run."""
        spent = 0.0
        while spent < seconds or self.attempted < min_jobs:
            spent += self.one(on_done)

    def median(self, key: str) -> float:
        """Median over the jobs that passed their checks (0.0 if none did)."""
        return statistics.median(j[key] for j in self.jobs) if self.jobs else 0.0


def warm_up(spec: dict, work: str) -> None:
    """Warm the session, untimed, with one small Ray Data pipeline over the
    job's input that uses the operators a job uses (parquet read, map,
    group-by, parquet write).  It starts Ray Data's helper actors and loads
    the worker's readers and writers for a fraction of a job's cost."""
    import ray

    out = os.path.join(work, "warmup")
    shutil.rmtree(out, ignore_errors=True)
    ds = ray.data.read_parquet(spec["transcripts"], columns=["conv_id", "turn_idx"])
    ds = ds.map_batches(_identity, batch_format="pyarrow")
    ds.groupby("conv_id").map_groups(_identity, batch_format="pyarrow").write_parquet(out)
    shutil.rmtree(out, ignore_errors=True)


def _identity(batch):
    return batch


# ----------------------------------------------------------------- set-up


def setup_samples(probes: int) -> list[float]:
    """Seconds from process start to a ready session, in fresh processes."""
    samples = []
    for _ in range(probes):
        out = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "session.py")],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        ).stdout
        samples.append(float(out.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------- modes


def end_to_end(args, work: str, since_start: float) -> tuple[Runner, dict]:
    from perfbench import gen

    setup = setup_samples(SETUP_PROBES)
    t0 = time.perf_counter()
    session.start()
    setup.append(since_start + time.perf_counter() - t0)
    log(f"setup_s samples: {[round(s, 3) for s in setup]}")
    try:
        spec = gen.inputs(args.workload, args.seed, CACHE_DIR)
        warm_up(spec, work)
        runner = Runner(spec, work)
        runner.loop(args.seconds, MIN_JOBS)
    finally:
        session.stop()
    job_s = runner.median("job_s")
    metrics = {
        "job_s": job_s,
        "turns_per_s": spec["turns"] / job_s if job_s else 0.0,
        "peak_rss_mb": runner.median("peak_rss_bytes") / 2**20,
        "output_mb": runner.median("output_bytes") / 2**20,
        "setup_s": statistics.median(setup),
    }
    return runner, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def job_extras(job: dict, out: str) -> dict:
    """Per-job figures of the traced run read from the job's output and
    from ``Dataset.stats()`` of its shuffles."""
    from perfbench import check, trace

    with open(os.path.join(out, "MANIFEST.json")) as f:
        canon = json.load(f)["stages"].get("canon", {}).get("buckets", {})

    files = [os.path.join(d, f) for d, _, fs in os.walk(out) for f in fs
             if f.endswith(".parquet")]
    exchange_s = trace.exchange_task_seconds(trace.EXCHANGE_DATASETS)
    trace.EXCHANGE_DATASETS.clear()
    return {"extra": {
        "files": len(files),
        "bytes": sum(os.path.getsize(f) for f in files),
        # the labels table is written without a MANIFEST entry of its own
        "canon_names": check.footer_rows(check.stage_files(out, "canonical_labels")),
        "canon_edges": sum(b["rows"] for b in canon.values()),
    }, "exchange_s": exchange_s}


def traced(args, work: str) -> tuple[Runner, dict, list[dict]]:
    from perfbench import gen, trace

    spec = gen.inputs(args.workload, args.seed, CACHE_DIR)
    half = args.seconds / 2
    trace_dir = os.path.join(work, "spans")
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    session.start(trace_dir)
    try:
        trace.install_driver()
        warm_up(spec, work)
        # the first full job of a traced session runs slower than the rest;
        # it is checked but kept out of the untraced/traced comparison
        warm = Runner(spec, work, "warm")
        warm.one()
        plain = Runner(spec, work, "plain")
        plain.first_digest = warm.first_digest
        plain.full_checked = True
        plain.loop(half)
        trace.set_enabled(True)
        runner = Runner(spec, work, "traced")
        runner.first_digest = warm.first_digest  # traced output must equal untraced
        runner.full_checked = True
        runner.loop(half, on_done=job_extras)
        trace.set_enabled(False)
    finally:
        session.stop()
    windows = [(j["run_id"], j["start"], j["end"]) for j in runner.jobs]
    spans = trace.collect(trace_dir, windows)
    per_job = []
    for j in runner.jobs:
        mine = [s for s in spans if s["run_id"] == j["run_id"]]
        m = trace.layer_metrics(mine, j["job_s"], j["exchange_s"], j["extra"])
        if m["driver.overhead_s"] < 0:
            runner.failed += 1
            log(f"traced job {j['run_id']}: layer busy times exceed job_s by "
                f"{-m['driver.overhead_s']:.3f} s")
        per_job.append(m)
    metrics = {name: statistics.median(m[name] for m in per_job) if per_job else 0.0
               for name in trace.PER_LAYER if name != "trace.overhead_ratio"}
    untraced_s = plain.median("job_s")
    metrics["trace.overhead_ratio"] = runner.median("job_s") / untraced_s if untraced_s else 0.0
    spans_out = os.path.join(work, f"spans-{args.workload}-s{args.seed}.jsonl")
    with open(spans_out, "w") as f:
        f.writelines(json.dumps(s, separators=(",", ":")) + "\n" for s in spans)
    log(f"spans written to {spans_out}")
    runner.attempted += warm.attempted + plain.attempted
    runner.failed += warm.failed + plain.failed
    out = {k: {"value": v, "unit": trace.unit_of(k)} for k, v in metrics.items()}
    return runner, out, per_job


def print_table(title: str, metrics: dict) -> None:
    print(title)
    width = max(len(k) for k in metrics)
    for k, m in metrics.items():
        print(f"  {k:<{width}}  {m['value']:>16.6g}  {m['unit']}")


def run_all(args) -> int:
    """Every workload, each in a fresh process; prints each one's table and
    exits 1 if any of them failed."""
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        print("\n".join(proc.stdout.rstrip().splitlines()[:-1]), flush=True)
        status = status or proc.returncode
    return 1 if status else 0


def main(argv=None) -> int:
    since_start = session.since_process_start()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them in turn (tables only)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not os.path.isfile(os.path.join(ROOT, "naer_ray", "pipelines", "kg.py")):
        log(f"naer_ray is missing from {ROOT}; nothing to benchmark")
        return 2
    log(f"pinned to CPUs {session.pin()}")
    work = os.path.join(WORK_DIR, f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        if args.trace:
            runner, metrics, _ = traced(args, work)
        else:
            runner, metrics = end_to_end(args, work, since_start)
    finally:
        for entry in os.listdir(work):
            if entry.startswith("job-") or entry in ("warmup", "spans"):
                shutil.rmtree(os.path.join(work, entry), ignore_errors=True)
        if not os.listdir(work):
            os.rmdir(work)
    error_rate = runner.failed / runner.attempted
    print_table(
        f"{args.workload} seed={args.seed} trace={args.trace}: {runner.attempted} jobs, "
        f"error_rate={error_rate:g}",
        metrics,
    )
    correct = runner.failed == 0 and bool(runner.jobs)
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
