"""mfglab benchmark: three harness workloads timed end to end and per layer.

    python3 perfbench/run.py --workload {particles,game_system,nash} \
        --seed N --seconds S --trace {0,1}

The package is imported from the ``src`` directory next to this one, so the
command works from any checkout without installing it. Every run goes through
``mfglab.harness.run_experiment``, the path ``mfglab run`` takes, with the
workload's generated config; each run's artifacts pass the correctness gate in
``workloads.py`` or count as failed.

``--trace 0`` reports the end-to-end metrics: ``run_s`` (median in-process
run after one warm-up), and from fresh processes ``cold_run_s``, ``setup_s``
and ``peak_rss_mb``. ``--trace 1`` alternates untraced and traced runs and
reports the per-layer metrics of ``tracing.py``. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``. Artifacts go to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
import tracing

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
OUT = HERE / "out"

END_TO_END = {"run_s": "s", "cold_run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
COLD_PROBES = 9  # fresh processes per invocation; set-up and cold runs report their median
MIN_SAMPLES = 5  # timed runs of run_s, even when --seconds has passed
MIN_TRACED = 3  # traced runs, so that counts are compared and a median exists
PROBE_TIMEOUT_S = 150


class Session:
    """The runs of one invocation: artifacts, correctness checks and failure counts."""

    def __init__(self, workload: str, seed: int, size: str, work_dir: Path):
        self.workload = workload
        self.size = size
        self.cfg = workloads.config(workload, seed, size)
        self.work_dir = work_dir
        self.config_path = work_dir / "config.json"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._runs = 0
        work_dir.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(self.cfg))

    def fresh_dir(self) -> Path:
        self._runs += 1
        return self.work_dir / f"run{self._runs}"

    def fail(self, label: str, problem: str) -> None:
        self.failed += 1
        self.problems.append(f"{label}: {problem}")

    def record(self, label: str, out_dir: Path, exit_code: int) -> bool:
        """Check one finished run, count it, and delete its artifacts."""
        self.attempted += 1
        problems = workloads.check(self.workload, self.cfg, out_dir, exit_code, self.size)
        shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            self.fail(label, "; ".join(problems))
        return not problems

    def run(self, label: str, harness, tracer: tracing.Tracer | None = None) -> tuple[float | None, bool]:
        """One in-process run from the config text.

        Returns its wall time (None if it raised) and whether it passed the
        correctness gate. A failed run keeps its time; it counts in ``failed``.
        """
        out = self.fresh_dir()
        text = self.config_path.read_text()
        try:
            with tracing.installed(tracer) if tracer else contextlib.nullcontext():
                cfg = harness.parse_config(text)
                start = time.perf_counter()
                result = harness.run_experiment(cfg, out)
                elapsed = time.perf_counter() - start
        except Exception:  # a crash is a failed run; the benchmark goes on
            self.attempted += 1
            shutil.rmtree(out, ignore_errors=True)
            self.fail(label, traceback.format_exc(limit=3).strip().replace("\n", " | "))
            return None, False
        return elapsed, self.record(label, out, result.exit_code)

    def probe(self, label: str) -> dict | None:
        """One fresh-process run through cold.py; its measurements, or None if it printed none."""
        out = self.fresh_dir()
        cmd = [sys.executable, str(HERE / "cold.py"), str(self.config_path), str(out)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.attempted += 1
            shutil.rmtree(out, ignore_errors=True)
            self.fail(label, f"no result within {PROBE_TIMEOUT_S} s")
            return None
        lines = proc.stdout.strip().splitlines()
        try:
            measured = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            self.attempted += 1
            shutil.rmtree(out, ignore_errors=True)
            self.fail(label, f"exit code {proc.returncode}, no measurement: {proc.stderr.strip()[-300:]}")
            return None
        self.record(label, out, proc.returncode)
        return measured


def measure_end_to_end(session: Session, harness, seconds: float) -> tuple[dict, dict]:
    """run_s from in-process runs, the rest from fresh-process probes; medians.

    The probes are spread evenly over the measuring time, between the
    in-process runs, so that both kinds of sample see the same share of
    whatever else the machine is doing.
    """
    start = time.perf_counter()
    session.run("warm-up", harness)
    probes: list[dict] = []
    samples: list[float] = []
    tries = 0
    for k in range(1, COLD_PROBES + 1):
        probe = session.probe(f"probe {k}")
        if probe is not None:
            probes.append(probe)
        slot_end = start + seconds * k / COLD_PROBES
        while time.perf_counter() < slot_end or (
                k == COLD_PROBES and len(samples) < MIN_SAMPLES and tries < 2 * MIN_SAMPLES):
            tries += 1
            elapsed, _ = session.run(f"run {tries}", harness)
            if elapsed is not None:
                samples.append(elapsed)
    if not samples or not probes:
        raise RuntimeError("no run finished:\n" + "\n".join(session.problems[:5]))
    metrics = {
        "run_s": statistics.median(samples),
        "cold_run_s": statistics.median(p["cold_run_s"] for p in probes),
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in probes),
    }
    detail = {"run_s": samples, "probes": probes}
    return metrics, detail


def measure_layers(session: Session, harness, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Alternate untraced and traced runs; per-layer metrics of the median traced run."""
    deadline = time.perf_counter() + seconds
    session.run("warm-up", harness)
    tracer = tracing.Tracer()
    untraced: list[float] = []
    traced: list[int] = []
    run = 0
    while time.perf_counter() < deadline or (len(traced) < MIN_TRACED and run < 2 * MIN_TRACED):
        run += 1
        elapsed, _ = session.run(f"untraced run {run}", harness)
        if elapsed is not None:
            untraced.append(elapsed)
        tracer.run = run
        if session.run(f"traced run {run}", harness, tracer)[1]:
            traced.append(run)
    tracing.write_spans(tracer, spans_path)
    if not traced or not untraced:
        raise RuntimeError("no successful run to trace:\n" + "\n".join(session.problems[:5]))

    profiles = {r: tracing.run_profile(tracer, r) for r in traced}
    exact = [n for n in tracing.per_layer_metrics() if n.endswith(".calls") or n in tracing.COUNTS]
    first = profiles[traced[0]]
    for r in traced[1:]:
        differ = [n for n in exact if profiles[r][n] != first[n]]
        if differ:
            session.fail(f"traced run {r}", f"counts differ from traced run {traced[0]}: {differ}")
    order = sorted(traced, key=lambda r: profiles[r]["trace.run_s"])
    chosen = dict(profiles[order[(len(order) - 1) // 2]])
    self_total = sum(chosen[f"{layer}.self_s"] for layer in tracing.TRACED)
    if abs(self_total - chosen["trace.run_s"]) > 1e-9 * max(1.0, chosen["trace.run_s"]):
        session.fail("trace", f"self times add up to {self_total!r}, not to trace.run_s {chosen['trace.run_s']!r}")
    chosen["trace.overhead_frac"] = chosen["trace.run_s"] / statistics.median(untraced) - 1.0
    detail = {"untraced_run_s": untraced,
              "traced_run_s": [profiles[r]["trace.run_s"] for r in traced],
              "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(REPO))}
    return chosen, detail


def environment(seed: int) -> dict:
    """Software and hardware the numbers were measured on."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        blas = None
    threads = {var: os.environ.get(var) for var in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    if not (REPO / ".git").exists():
        return None  # an exported checkout; source_sha256 identifies the code
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "mfglab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of one invocation")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs exist for the smoke test; they have no pinned values")
    args = parser.parse_args(argv)

    if not (SRC / "mfglab" / "__init__.py").is_file():
        print(f"perfbench: no mfglab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from mfglab import harness

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    session = Session(args.workload, args.seed, args.size, OUT / f"work-{tag}-{os.getpid()}")
    try:
        if args.trace:
            metrics, detail = measure_layers(session, harness, args.seconds, OUT / f"spans-{tag}.csv")
            units = tracing.per_layer_metrics()
        else:
            metrics, detail = measure_end_to_end(session, harness, args.seconds)
            units = END_TO_END
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(session.work_dir, ignore_errors=True)

    env = environment(args.seed)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} size={args.size}")
    for name, unit in units.items():
        print(f"  {name:36s} {metrics[name]:>14.6g} {unit}")
    failed_frac = session.failed / session.attempted
    print(f"  {'failed_frac':36s} {failed_frac:>14.6g} frac"
          f" ({session.failed} of {session.attempted} attempted runs failed)")
    if args.trace:
        print("  wait: none; every layer runs in one thread with no queue or lock, so no wait time is reported")
        print(f"  traced runs {len(detail['traced_run_s'])}, untraced runs {len(detail['untraced_run_s'])},"
              f" {detail['spans']} spans in {detail['spans_file']}")
    else:
        print(f"  run_s is the median of {len(detail['run_s'])} runs after one warm-up;"
              f" cold_run_s, setup_s and peak_rss_mb are medians of {len(detail['probes'])} fresh processes")
    for problem in session.problems[:10]:
        print(f"  FAILED {problem}")
    print("env " + json.dumps(env, sort_keys=True))

    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {**result, "failed_frac": failed_frac, "problems": session.problems, "detail": detail,
         "env": env, "config": session.cfg}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
