#!/usr/bin/env python3
"""Benchmark of the gkpkit command line: end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 gkpbench/run.py --workload {desk,state,all} [--seed 0]
                            [--seconds S] [--trace 0|1]

Each command of a workload runs in a fresh interpreter, exactly as
`python -m gkpkit.cli` with PYTHONPATH=src (see child.py), one after another,
with no --workers and with the BLAS thread variables as inherited. One pass
runs the workload's command chain once; passes repeat until --seconds is
used up (by default BENCHMARK.json's run_seconds), and there are at least
two so that their result files can be compared byte for byte.

--trace 0 reports the end-to-end metrics as medians over the passes.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (layers.py). Metric names and units come from
BENCHMARK.json. Every metric is printed by name and unit; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics. With --workload all the workloads run in turn and the metric
names in that line carry the workload as a prefix. The full result, with the
environment fingerprint, per-pass figures and sample counts, is written to
.gkpbench-work/<workload>/result.json.

Exit codes: 0 when every command succeeded and passed its correctness gate
and the determinism check, 1 otherwise, 2 when gkpkit's sources are missing.
"""

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import namedtuple

import checks
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".gkpbench-work")
HARD_LIMIT_S = 170  # a run must end within 180 s, whatever --seconds says
MIN_SETUP_SAMPLES = 5

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

Step = namedtuple("Step", "name argv out check")


def desk(seed):
    """The README pipeline: operators, sweep eigensolves, analysis, small writes."""
    return [
        Step("atlas", ["atlas", "--delta", "0.35", "--seed", str(seed), "--out", "atlas"],
             "atlas", checks.atlas),
        Step("sweep", ["sweep", "--delta", "0.35", "--cutoffs", "5:120:5",
                       "--seed", str(seed), "--out", "sweep"],
             "sweep", checks.sweep),
        Step("analyze", ["analyze", "--sweep", os.path.join("sweep", "sweep.json"),
                         "--out", "analysis"],
             "analysis", checks.analyze),
    ]


def state(seed):
    """One large eigensolve, a Wigner grid that keeps the mass, homodyne sampling,
    and the Gaussian-bound search for three named targets and one drawn from the seed."""
    return [
        Step("groundstate", ["groundstate", "--u", "H", "--cutoff", "150", "--wigner",
                             "--grid=-18:18:271", "--out", "gs"],
             "gs", checks.groundstate),
        Step("measure", ["measure", "--u", "0", "--cutoff", "150", "--counts", "100000",
                         "--seed", str(seed), "--out", "measure"],
             "measure", checks.measure),
        Step("bound", ["bound", "--u", "0", "--u", "H", "--u", "T",
                       f"--u={generic_target(seed)}", "--budget", "200",
                       "--seed", str(seed), "--out", "bound"],
             "bound", checks.bound),
    ]


def generic_target(seed):
    """A unit Bloch vector drawn from the seed, as an 'ux,uy,uz' triple."""
    rng = random.Random(seed)
    vec = [rng.gauss(0.0, 1.0) for _ in range(3)]
    norm = math.sqrt(sum(v * v for v in vec))
    return ",".join(repr(v / norm) for v in vec)


WORKLOADS = {"desk": desk, "state": state}


def child_env():
    """The inherited environment with src/ put first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_child(base, tail, cwd, deadline, traced=False, pass_id="setup"):
    """Run child.py in a fresh interpreter and wait for it.

    The child writes its record to base.json and its output to base.out and
    base.err. Returns wall and CPU seconds, max RSS in MB, exit code, the
    record (None if unreadable) and the time.monotonic() reading at which
    the process was reaped. The process is killed when the deadline passes.
    """
    env = child_env()
    with open(base + ".out", "w") as out, open(base + ".err", "w") as err:
        spawned = time.monotonic()
        command = [sys.executable, os.path.join(HERE, "child.py"), base + ".json",
                   str(int(traced)), pass_id, repr(spawned), *tail]
        proc = subprocess.Popen(command, cwd=cwd, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(max(deadline - spawned, 0.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        with open(base + ".json") as fh:
            record = json.load(fh)
    except (OSError, ValueError):
        record = None
    return {"wall": ended - spawned, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024, "exit": proc.returncode,
            "record": record, "ended": ended}


def run_pass(steps, work, pass_id, traced, deadline):
    """Run the command chain once in its own folder; stop at the first failure."""
    folder = os.path.join(work, pass_id)
    os.makedirs(folder)
    results = []
    complete = False
    for step in steps:
        base = os.path.join(work, f"{pass_id}.{step.name}")
        result = run_child(base, ["--", *step.argv], folder, deadline, traced, pass_id)
        result.update(name=step.name, failures=[])
        results.append(result)
        if result["exit"] != 0 or result["record"] is None:
            result["failures"].append(f"exit code {result['exit']}, see {base}.err")
            break
        result["teardown"] = result["ended"] - result["record"]["finished"]
        try:
            result["failures"] += step.check(os.path.join(folder, step.out))
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            result["failures"].append(f"unreadable output: {exc!r}")
    else:
        complete = True
    return {
        "id": pass_id,
        "traced": traced,
        "steps": results,
        "complete": complete,
        "wall": sum(r["wall"] for r in results),
        "cpu": sum(r["cpu"] for r in results),
        "rss_mb": max(r["rss_mb"] for r in results),
        "digests": checks.digests(folder),
    }


def check_determinism(reference, other, steps):
    """Mark every command whose files differ from the reference pass."""
    owner = {step.out: result for step, result in zip(steps, other["steps"])}
    paths = set(reference["digests"]) | set(other["digests"])
    for path in sorted(paths):
        if reference["digests"].get(path) != other["digests"].get(path):
            result = owner.get(path.split(os.sep)[0], other["steps"][-1])
            result["failures"].append(
                f"{path} differs from pass {reference['id']} after stripping timestamps"
            )


def run_passes(steps, work, seconds, trace, deadline):
    """Passes until the time is used up: at least two, traced ones alternating
    with untraced ones when trace is set."""
    start = time.monotonic()
    passes = []
    reference = None
    while True:
        traced = trace and len(passes) % 2 == 1
        done = run_pass(steps, work, f"pass{len(passes)}", traced, deadline)
        passes.append(done)
        if done["complete"]:
            if reference is None:
                reference = done
            else:
                check_determinism(reference, done, steps)
        elapsed = time.monotonic() - start
        next_wall = statistics.median(p["wall"] for p in passes)
        if len(passes) >= 2 and elapsed + next_wall > seconds:
            return passes
        if time.monotonic() + 1.5 * next_wall > deadline:
            return passes


def setup_samples(passes, work, traced, deadline):
    """Import times of the commands, topped up with bare imports to MIN_SETUP_SAMPLES."""
    samples = [
        r["record"]["setup_s"]
        for p in passes if p["traced"] == traced
        for r in p["steps"] if r["record"]
    ]
    while not traced and len(samples) < MIN_SETUP_SAMPLES:
        if time.monotonic() + 5 > deadline:
            break
        done = run_child(os.path.join(work, f"setup{len(samples)}"), ["--setup-only"],
                         work, deadline)
        if done["exit"] != 0 or done["record"] is None:
            break
        samples.append(done["record"]["setup_s"])
    return samples


def end_to_end(passes, setup, attempted, failed):
    timed = [p for p in passes if not p["traced"] and p["complete"]] or passes
    values = {
        "wall_s": [p["wall"] for p in timed],
        "cpu_s": [p["cpu"] for p in timed],
        "peak_rss_mb": [p["rss_mb"] for p in timed],
        "setup_s": setup,
    }
    metrics = {name: statistics.median(v) for name, v in values.items() if v}
    metrics["pass_rate"] = 1.0 - failed / attempted
    samples = {name: len(v) for name, v in values.items()}
    samples["pass_rate"] = attempted
    return metrics, samples


def per_layer(passes, setup):
    traced = [p for p in passes if p["traced"] and p["complete"]]
    plain = [p for p in passes if not p["traced"] and p["complete"]]
    if not traced:
        return {}, {}
    per_pass = [layers.layer_metrics([r["record"] for r in p["steps"]]) for p in traced]
    shared = set.intersection(*(set(v) for v in per_pass))
    metrics = {
        name: statistics.median(v[name] for v in per_pass)
        for name in layers.LAYER_METRICS if name in shared
    }
    metrics["python.teardown_s"] = statistics.median(
        sum(r["teardown"] for r in p["steps"]) for p in traced
    )
    if setup:
        metrics["trace.setup_s"] = statistics.median(setup)
    metrics["trace.wall_s"] = statistics.median(p["wall"] for p in traced)
    coverage = {
        f"{p['id']}.{r['name']}": layers.coverage(r["record"], r["teardown"], r["wall"])
        for p in traced for r in p["steps"]
    }
    metrics["trace.coverage"] = min(coverage.values())
    if plain:
        metrics["trace.overhead_s"] = (
            metrics["trace.wall_s"] - statistics.median(p["wall"] for p in plain)
        )
    absent = sorted(set().union(*(r["record"].get("absent", ()) for p in traced
                                  for r in p["steps"])))
    return metrics, {"traced_passes": len(traced), "absent_hooks": absent,
                     "coverage": coverage}


def fingerprint(deadline):
    try:
        found = json.loads(subprocess.run(
            [sys.executable, os.path.join(HERE, "fingerprint.py")], env=child_env(),
            capture_output=True, text=True, check=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        ).stdout)
    except (subprocess.SubprocessError, ValueError) as exc:
        found = {"error": repr(exc)}
    found["git_commit"] = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            found["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True, timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return found


def run_workload(name, seed, seconds, trace, deadline):
    """Run one workload; return its JSON result line and the full report."""
    work = os.path.join(WORK, name)
    os.makedirs(work)
    env = fingerprint(deadline)
    steps = WORKLOADS[name](seed)
    passes = run_passes(steps, work, seconds, trace, deadline)
    setup = setup_samples(passes, work, trace, deadline)
    results = [r for p in passes for r in p["steps"]]
    failed = sum(1 for r in results if r["failures"])
    if trace:
        metrics, detail = per_layer(passes, setup)
    else:
        metrics, samples = end_to_end(passes, setup, len(results), failed)
        detail = {"samples": samples}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    for r in results:
        for failure in r["failures"]:
            print(f"FAILED {name} {r['name']}: {failure}", file=sys.stderr)
    line = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared if m["name"] in metrics},
    }
    report = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "env": env,
        "passes": [
            {"id": p["id"], "traced": p["traced"], "wall_s": p["wall"], "cpu_s": p["cpu"],
             "peak_rss_mb": p["rss_mb"],
             "commands": {r["name"]: {"wall_s": r["wall"], "exit": r["exit"],
                                      "failures": r["failures"]} for r in p["steps"]}}
            for p in passes
        ],
        "setup_samples": setup,
        **detail,
        "result": line,
    }
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    return line, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gkpkit", "cli.py")):
        print(f"gkpkit sources not found under {SRC}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        deadline = time.monotonic() + HARD_LIMIT_S
        line, report = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        lines[name] = line
        print(f"{name}: env {json.dumps(report['env'], sort_keys=True)}")
        counts = report.get("samples", {})
        for key, metric in line["metrics"].items():
            count = f" (median of {counts[key]})" if key in counts else ""
            print(f"{name}: {key} = {metric['value']!r} {metric['unit']}{count}")
        if args.trace:
            print(f"{name}: absent hooks {report.get('absent_hooks')}, "
                  f"coverage by command {json.dumps(report.get('coverage'))}")
    if len(names) == 1:
        final = lines[names[0]]
    else:
        final = {
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {f"{name}.{key}": metric for name, line in lines.items()
                        for key, metric in line["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
