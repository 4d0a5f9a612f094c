"""Run one benchmark workload and print its metrics as a JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-compare --seed 20090322 --seconds 40 --trace 0

Each repetition runs in a process forked from this one after the
imports, so interpreter start-up and imports are excluded while the
program's process-wide memo caches start cold.  Repetitions run one at
a time (a closed loop) until the next one would overrun ``--seconds``.

``--trace 0`` reports the end-to-end metrics, the median over
repetitions.  ``--trace 1`` alternates untraced and traced repetitions
and reports the per-layer metrics of the traced repetition with the
median wall time, plus the tracing overhead.  Either way every cell's
result digest is checked: against ``golden.json`` on the default seed,
and for equality across all repetitions (traced or not) on any seed.

The last line of standard output is the result object; a record of
every invocation is appended to ``perfbench/results/history.jsonl`` and
the traced spans to ``perfbench/results/spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections.abc import Callable
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
GOLDEN_PATH = BENCH_DIR / "golden.json"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Whole invocation must end well inside the 180-second limit.
HARD_LIMIT_S = 170.0

#: The seed whose cell digests are recorded in ``golden.json``.
DEFAULT_SEED = 20090322
#: A seed not used while the benchmark was written; confirm claims on it.
HELDOUT_SEED = 4242


def summarize(values: list[float]) -> dict[str, float]:
    """Median, quartiles and sample count of ``values``."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "samples": len(values),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process and its reaped children, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _kill_group(pid: int) -> None:
    """SIGKILL a repetition and everything it started (its process group)."""
    for kill in (os.killpg, os.kill):
        try:
            kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def fork_call(fn: Callable[[], dict], timeout_s: float) -> dict:
    """Run ``fn`` in a forked child; returns its JSON-able result or error."""
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        try:
            os.setpgid(0, 0)
            payload = {"ok": True, "value": fn()}
        except BaseException:
            payload = {"ok": False, "error": traceback.format_exc()}
        try:
            with os.fdopen(write_fd, "wb") as out:
                out.write(json.dumps(payload, allow_nan=False).encode())
        finally:
            os._exit(0)
    os.close(write_fd)
    chunks = []
    deadline = time.monotonic() + timeout_s
    timed_out = False
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    timed_out = True
                    break
                ready, _, _ = select.select([pipe], [], [], remaining)
                if ready:
                    chunk = os.read(pipe.fileno(), 1 << 16)
                    if not chunk:
                        break
                    chunks.append(chunk)
    except BaseException:
        _kill_group(pid)
        raise
    finally:
        if timed_out:
            _kill_group(pid)
        os.waitpid(pid, 0)
    if timed_out:
        return {"ok": False, "error": f"repetition exceeded {timeout_s:.0f} s"}
    try:
        return json.loads(b"".join(chunks))
    except ValueError:
        return {"ok": False, "error": "repetition died without a result"}


def git_provenance() -> dict:
    """Commit and dirty flag, or nulls outside a git checkout."""
    if not (ROOT / ".git").exists():
        return {"git_sha": None, "git_dirty": None}

    def git(*args):
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=60
        )
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"git_sha": sha, "git_dirty": None if status is None else bool(status)}


def provenance(params: dict) -> dict:
    return {
        **git_provenance(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "unix_time": time.time(),
        "params": params,
    }


def append_jsonl(path: Path, record: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as out:
        out.write(json.dumps(record, sort_keys=True, allow_nan=False) + "\n")


def repetition(workload, seed: int, traced: bool, scratch: Path) -> dict:
    """One workload run (call in a fresh fork): metrics, digests, spans.

    ``scratch`` is a directory the run may create and fill; the caller
    removes it.
    """
    from repro.bloom.bloom_filter import positions_cache_info
    from repro.overlay.blueprint import build_count
    from repro.protocols.groups import stable_hash

    from perfbench import probes
    from perfbench.spans import SpanRecorder
    from perfbench.workloads import end_to_end_metrics, per_layer_metrics

    if stable_hash.cache_info().currsize or positions_cache_info().currsize:
        raise RuntimeError("memo caches are warm before the workload starts")
    recorder = SpanRecorder()
    undo = (probes.install if traced else probes.install_build_timer)(recorder)
    scratch.mkdir(parents=True)
    try:
        builds = build_count()
        root = recorder.enter("workload", True)
        try:
            raw = workload.execute(seed, scratch)
        finally:
            wall_s = recorder.exit(root)
        builds = build_count() - builds
        rss_mb = peak_rss_mb()
        undo()
        cells, extras = workload.collect(raw)
        digests, failures = {}, {}
        for cell in cells:
            try:
                digests[cell.cell_id] = cell.check()
            except (KeyError, TypeError, ValueError) as error:
                failures[cell.cell_id] = repr(error)
        if traced:
            metrics = per_layer_metrics(workload, cells, extras, recorder, root.sid, builds)
        else:
            metrics = end_to_end_metrics(cells, recorder, wall_s, rss_mb)
    finally:
        undo()
    return {
        "traced": traced,
        "wall_s": wall_s,
        "metrics": metrics,
        "digests": digests,
        "cell_failures": failures,
        "trace": recorder.export() if traced else None,
    }


def load_golden() -> dict:
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def check_cells(reps: list[dict], expected: list[str], reference: dict | None):
    """Count attempted and failed cells over every repetition.

    A cell fails if its repetition raised, its own check raised, or its
    digest differs from ``reference`` (the recorded digests, or else the
    first repetition that ran).
    """
    attempted = failed = 0
    problems = []
    for rep in reps:
        attempted += len(expected)
        if not rep["ok"]:
            failed += len(expected)
            problems.append(rep["error"])
            continue
        value = rep["value"]
        if reference is None:
            reference = value["digests"]
        for cell_id in expected:
            digest = value["digests"].get(cell_id)
            if digest is None or digest != reference.get(cell_id):
                failed += 1
                problems.append(
                    f"{cell_id}: {value['cell_failures'].get(cell_id, 'digest differs')}"
                )
    return attempted, failed, problems


def forked_repetition(workload, seed: int, traced: bool, timeout_s: float) -> dict:
    """:func:`repetition` in a fresh fork, with its scratch directory removed after."""
    scratch = RESULTS_DIR / "tmp" / f"{os.getpid()}-{time.monotonic_ns()}"
    try:
        return fork_call(lambda: repetition(workload, seed, traced, scratch), timeout_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(workload, seed: int, seconds: int, trace: bool) -> list[dict]:
    """Repeat the workload, one forked run at a time, for ``seconds``."""
    started = time.monotonic()
    kinds = [False, True] if trace else [False]
    reps: list[dict] = []
    took: dict[bool, list[float]] = {False: [], True: []}
    while True:
        traced = kinds[len(reps) % len(kinds)]
        t0 = time.monotonic()
        remaining = HARD_LIMIT_S - (t0 - started)
        rep = forked_repetition(workload, seed, traced, remaining)
        took[traced].append(time.monotonic() - t0)
        reps.append(rep)
        if not rep["ok"]:
            break
        if len(reps) < len(kinds):
            continue
        upcoming = kinds[len(reps) % len(kinds)]
        estimate = statistics.median(took[upcoming])
        if time.monotonic() - started + estimate > seconds:
            break
    return reps


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"workload seed (default {DEFAULT_SEED}, recorded; held-out {HELDOUT_SEED})",
    )
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record",
        action="store_true",
        help="record the default seed's cell digests in golden.json and exit",
    )
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so a running repetition is killed too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from perfbench.workloads import WORKLOADS
    except ImportError as error:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {error}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    seed = args.seed
    if seed < 0:
        parser.error("--seed must be non-negative")
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    expected = workload.cell_ids(seed)

    if args.record:
        rep = forked_repetition(workload, DEFAULT_SEED, False, HARD_LIMIT_S)
        if not rep["ok"] or rep["value"]["cell_failures"]:
            print(rep.get("error") or rep["value"]["cell_failures"], file=sys.stderr)
            return 1
        golden = load_golden()
        golden.setdefault("seed", DEFAULT_SEED)
        golden.setdefault("digests", {})[workload.name] = rep["value"]["digests"]
        GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        print(json.dumps(rep["value"]["digests"], indent=2, sort_keys=True))
        return 0

    reps = measure(workload, seed, args.seconds, bool(args.trace))
    reference = None
    if seed == DEFAULT_SEED:
        reference = load_golden().get("digests", {}).get(workload.name)
        if reference is None:
            print(f"perfbench: no recorded digests for {workload.name}", file=sys.stderr)
            return 1
    attempted, failed, problems = check_cells(reps, expected, reference)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    plain = [r["value"] for r in reps if r["ok"] and not r["value"]["traced"]]
    traced = [r["value"] for r in reps if r["ok"] and r["value"]["traced"]]
    if args.trace:
        declared = spec["per_layer"]
        if not traced or not plain:
            print("perfbench: no completed traced and untraced repetitions", file=sys.stderr)
            return 1
        ordered = sorted(traced, key=lambda r: r["wall_s"])
        chosen = ordered[(len(ordered) - 1) // 2]
        values = dict(chosen["metrics"])
        values["trace.overhead_frac"] = (
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r in plain)
            - 1.0
        )
        stats = {"chosen_wall_s": chosen["wall_s"], "traced": len(traced), "untraced": len(plain)}
    else:
        declared = spec["end_to_end"]
        if not plain:
            print("perfbench: no completed repetition", file=sys.stderr)
            return 1
        stats = {
            name: summarize([r["metrics"][name] for r in plain]) for name in plain[0]["metrics"]
        }
        values = {name: s["median"] for name, s in stats.items()}
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        print(
            f"perfbench: reported {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json",
            file=sys.stderr,
        )
        return 1

    for rep in traced:
        append_jsonl(
            RESULTS_DIR / "spans.jsonl",
            {"workload": workload.name, "seed": seed, "trace": rep["trace"]},
        )
    append_jsonl(
        RESULTS_DIR / "history.jsonl",
        {
            "workload": workload.name,
            "seed": seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "provenance": provenance(workload.params(seed)),
            "repetitions": [
                {k: v for k, v in r["value"].items() if k != "trace"} if r["ok"] else r
                for r in reps
            ],
            "summary": stats,
            "attempted": attempted,
            "failed": failed,
        },
    )
    if args.trace:
        print(f"# per-layer values from the median of {len(traced)} traced repetitions")
    for name in sorted(values):
        s = stats.get(name)
        detail = f"  (n={s['samples']}, q1={s['q1']:.6g}, q3={s['q3']:.6g})" if s else ""
        print(f"# {name} = {values[name]:.6g} {units[name]}{detail}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
