"""thermofit benchmark: four closed-loop workloads, checked outputs, and a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload paper-cli --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

With ``--trace 0`` the run measures end-to-end metrics: it sets the workload
up several times (reporting the median set-up time), then runs ops one after
another for ``--seconds`` seconds.  With ``--trace 1`` it runs the named
workload's ops for ``--seconds`` seconds, alternating an untimed-by-spans op
with a traced one, then one round of traced ops of every other workload, and
reports every per-layer metric.  Human-readable lines come first; the last
line of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  A fuller result, stamped with the source version and the
machine, is written under ``.perfbench_work/results/``.

The program is imported from ``src/`` of the checkout and nowhere else; the
run stops with exit code 2 if it is not there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
NAMES = ("paper-cli", "logger-fit", "logger-export", "step-suite")
# Set-up is repeated at least SETUPS times and for at least SETUP_SECONDS,
# so that a cheap set-up still gives a steady median.
SETUPS = 3
SETUP_SECONDS = 3.0


def load_program():
    """Import thermofit from this checkout's src/, or explain why not."""
    if not os.path.isfile(os.path.join(SRC, "thermofit", "__init__.py")):
        raise RuntimeError(f"no thermofit sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    import thermofit

    if os.path.dirname(os.path.dirname(os.path.abspath(thermofit.__file__))) != SRC:
        raise RuntimeError(f"thermofit was imported from {thermofit.__file__}, not {SRC}")


def git_sha() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    sha, _, name = line.strip().partition(" ")
                    if name == ref:
                        return sha
    except OSError:
        pass
    return None


def src_sha256() -> str:
    """Digest of the program's sources, which identifies it where .git is absent."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "thermofit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp() -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model(),
    }


class Tally:
    """Counts attempted ops and those that raised or failed their check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, workload, out=None, error: BaseException | None = None) -> bool:
        self.attempted += 1
        reason = None
        if error is not None:
            reason = f"raised {error!r}"
        else:
            try:
                reason = workload.check(out)
            except Exception as e:  # a malformed output fails its check
                reason = f"check raised {e!r}"
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{workload.name}: {reason}")
        return reason is None


def timed(fn, *args):
    """Call fn, returning (seconds, result, exception)."""
    t0 = time.perf_counter()
    try:
        out, err = fn(*args), None
    except Exception as e:  # an op that raises is a failed op
        out, err = None, e
    return time.perf_counter() - t0, out, err


def timed_run(w, seed: int, seconds: float, workdir: str, tally: Tally):
    setups = []
    first = time.perf_counter()
    while len(setups) < SETUPS or time.perf_counter() - first < SETUP_SECONDS:
        t0 = time.perf_counter()
        w.setup(seed, workdir)
        _, out, err = timed(w.op, 0)
        setups.append(time.perf_counter() - t0)
        tally.record(w, out, err)
    times = []
    deadline = time.perf_counter() + seconds
    i = 1
    while True:
        dt, out, err = timed(w.op, i)
        times.append(dt)
        tally.record(w, out, err)
        i += 1
        if time.perf_counter() >= deadline:
            break
    who = resource.RUSAGE_CHILDREN if w.child_rss else resource.RUSAGE_SELF
    # The JSON line carries the mean op time: on a host whose speed drifts
    # over tens of seconds it varied less from run to run than the median.
    metrics = {
        "op_ms_mean": (statistics.fmean(times) * 1000.0, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }
    notes = [f"op times over {len(times)} ops; setup_s is the median of {len(setups)} set-ups"]
    extra = {"op_ms_p50": (statistics.median(times) * 1000.0, "ms")}
    # The 90th percentile is reported only when at least ten samples lie beyond it.
    if len(times) >= 100:
        extra["op_ms_p90"] = (statistics.quantiles(times, n=10)[-1] * 1000.0, "ms")
    else:
        notes.append(f"op_ms_p90 not reported: {len(times)} ops, it needs 100")
    if w.samples_per_op:
        extra["samples_per_s"] = (w.samples_per_op * len(times) / sum(times), "1/s")
    extra["failed_ratio"] = (tally.failed / tally.attempted, f"of {tally.attempted}")
    return metrics, extra, notes, {"op_s": times, "setup_s": setups}


def traced_run(selected, others, seed: int, seconds: float, workdir: str, tally: Tally):
    from spans import Recorder, write_jsonl
    from workloads import OpTrace

    rec = Recorder()
    metrics = {}
    next_op = 0
    for w in (selected, *others):
        sub = os.path.join(workdir, w.name)
        os.makedirs(sub, exist_ok=True)
        w.setup(seed, sub)
        _, out, err = timed(w.op, 0)
        tally.record(w, out, err)
        untraced, traced_ids = [], []
        deadline = time.perf_counter() + seconds
        i = 1
        while True:
            dt, out, err = timed(w.op, i)
            untraced.append(dt)
            tally.record(w, out, err)
            _, out, err = timed(w.traced_op, i, rec, next_op)
            if tally.record(w, out, err):
                traced_ids.append(next_op)
            next_op += 1
            i += 1
            if i > w.round_size and (w is not selected or time.perf_counter() >= deadline):
                break
        by_op = {op_id: [] for op_id in traced_ids}
        for s in rec.spans:
            if s.op_id in by_op:
                by_op[s.op_id].append(s)
        traces = [OpTrace(spans) for spans in by_op.values()]
        for name, value in w.layer_metrics(traces).items():
            metrics[f"{w.name}.{name}"] = value
        op_traced = statistics.median(tr.one("op").duration for tr in traces)
        metrics[f"{w.name}.trace.overhead_ratio"] = (op_traced / statistics.median(untraced) - 1.0, "ratio")
        w.release()
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    spans_path = os.path.join(WORK, "results", f"spans-{selected.name}-seed{seed}.jsonl")
    write_jsonl(rec.spans, spans_path)
    return metrics, [f"{len(rec.spans)} spans written to {os.path.relpath(spans_path, ROOT)}"]


def run_one(args) -> int:
    try:
        load_program()
    except (RuntimeError, ImportError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    info = stamp()
    tally = Tally()
    os.makedirs(WORK, exist_ok=True)
    selected = WORKLOADS[args.workload](SRC)
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{args.workload}-") as workdir:
        if args.trace:
            others = [WORKLOADS[n](SRC) for n in NAMES if n != args.workload]
            metrics, notes = traced_run(selected, others, args.seed, args.seconds, workdir, tally)
            extra, samples = {}, {}
        else:
            metrics, extra, notes, samples = timed_run(selected, args.seed, args.seconds, workdir, tally)

    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# stamp {json.dumps(info)}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{args.workload:<14} {name:<44} {value:>14.6g} {unit}")
    for note in notes:
        print(f"# {note}")
    for reason in tally.reasons:
        print(f"# FAILED {reason}")

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    path = os.path.join(WORK, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {**result, "stamp": info, "workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
             "samples": samples, "failures": tally.reasons},
            fh,
            indent=1,
        )
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another, so peak RSS stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        one = json.loads(lines[-1])
        merged["correct"] &= one["correct"]
        merged["attempted"] += one["attempted"]
        merged["failed"] += one["failed"]
        for metric, value in one["metrics"].items():
            # A traced run reports every workload's layers; keep those of the
            # workload it ran for the full time.
            if not args.trace:
                merged["metrics"][f"{name}.{metric}"] = value
            elif metric.startswith(f"{name}."):
                merged["metrics"][metric] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
