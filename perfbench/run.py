"""Stage-level benchmark of queryfilter as a batch job.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rules-io --seed 1 --seconds 35 --trace 0

Each workload is one job over a fixed, seeded input size (see
``workloads.py`` for what each one runs and why).  A run

1. generates the inputs from the seed three times (the copies must be
   byte-identical);
2. repeats the job, each repetition in a fresh child process running the
   real CLI stages through ``queryfilter.cli.main``, until ``--seconds`` is
   used up, and reports medians over the repetitions.  ``setup_s`` is the
   median generation time plus the median child start-up (interpreter
   start and imports, until the child is ready to run its first stage);
3. checks the outputs outside the timed stages: the first repetition against
   the benchmark's own oracles (``checks.py``), every later one for
   byte-identical outputs, and on the VAE workloads a seeded sample re-scored
   through ``score --jobs 1`` for bit-identical scores.

With ``--trace 1`` it also runs the job once more with every layer wrapped
(``layers.py``) and prints the per-layer metrics instead of the end-to-end
ones.  The last line of stdout is the result object; the lines before it
record the environment and each repetition.  Exit code 0 means every check
passed; 1 means a stage or a check failed; 2 means no queryfilter sources
were found under ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from workloads import WHY, WORKLOADS, Workload, generate  # noqa: E402

SETUP_TRIALS = 3
BLAS_THREADS = 1  # jobs x BLAS threads <= nproc for --jobs <= 2 on two cores
CHILD_TIMEOUT_S = 60  # a repetition takes seconds; a hung child must not outlive the run
RESCORE_SAMPLE = 40
STAGES_OF = {
    "rule-filter": ("rule_filter",), "partition": ("partition",), "bootstrap": ("bootstrap",),
    "train": ("train",), "score": ("score",),
    "run": ("rule_filter", "train", "score", "partition"),
}


class Child:
    """One fresh runner process: its spec, result and start-up time."""

    def __init__(self, root: str, wl: Workload, commands: list, tag: str, trace: bool = False):
        self.spec_path = wl.path(f"spec-{tag}.json")
        self.result_path = wl.path(f"result-{tag}.json")
        spec = {"cwd": wl.dir, "commands": commands, "trace": trace,
                "result": self.result_path, "spans": wl.path("spans.jsonl")}
        with open(self.spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(BLAS_THREADS)
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "runner.py"), self.spec_path],
            cwd=wl.dir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            err = b"timed out"
        finally:  # also on SIGTERM: the child and its pool workers go too
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        self.returncode = proc.returncode
        self.stderr = err.decode("utf-8", "replace")[-2000:]
        self.result = None
        if self.returncode == 0:
            with open(self.result_path, "r", encoding="utf-8") as fh:
                self.result = json.load(fh)
            self.startup_s = self.result["ready"] - spawned
        for path in (self.spec_path, self.result_path):
            if os.path.exists(path):
                os.remove(path)

    def wall_s(self) -> float:
        return sum(c["wall_s"] for c in self.result["commands"])


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def environment(wl: Workload) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "blas": blas, "blas_threads": BLAS_THREADS,
        "jobs": wl.jobs, "seed": wl.seed, "workload": wl.name, "sizes": wl.sizes,
    }


class Tally:
    """Attempted and failed operations plus the problems behind failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{name}: {p}" for p in problems]


def verify(wl: Workload, tally: Tally) -> dict:
    """Check one repetition's outputs against the oracles; returns quality figures."""
    try:
        return _verify(wl, tally)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        tally.check("outputs readable", [repr(exc)])
        return {}


def _verify(wl: Workload, tally: Tally) -> dict:
    read = checks.read_records
    figures = {}
    if "rule_filter" in wl.sizes:
        with open(wl.path("rule_stats.json"), "r", encoding="utf-8") as fh:
            stats = json.load(fh)
        tally.check("rule-filter", checks.check_rule_filter(
            wl, stats, read(wl.path("rule_retained.jsonl")), read(wl.path("rule_rejects.jsonl"))))
    if "bootstrap" in wl.sizes:
        with open(wl.path("bootstrap.txt"), "r", encoding="utf-8") as fh:
            tally.check("bootstrap", checks.check_bootstrap(wl, fh.read().splitlines()))
    scored = []
    if "score" in wl.sizes:
        with open(wl.path("vocab.txt"), "r", encoding="utf-8") as fh:
            tally.check("vocabulary", checks.check_vocabulary(wl, fh.read().splitlines()))
        scored = read(wl.path("scored.jsonl"))
        problems, bad = checks.check_scores(wl, scored)
        tally.check("scores", problems)
        tally.failed += bad
    if "partition" in wl.sizes:
        with open(wl.path("partition_report.json"), "r", encoding="utf-8") as fh:
            report = json.load(fh)
        if wl.scored_labels:
            scores = [(rid, score) for rid, (score, _) in wl.scored_labels.items()]
        else:
            scores = [(r["id"], r["score"]) for r in scored]
        retained, rejects = read(wl.path("retained.jsonl")), read(wl.path("semantic_rejects.jsonl"))
        tally.check("partition", checks.check_partition(scores, report, retained, rejects))
        figures["agreement"] = checks.agreement(wl, retained, rejects)
        if wl.scored_labels:
            tally.check("mixture", checks.check_mixture(wl, report))
        else:
            floor = checks.AGREEMENT_FLOOR
            tally.check("agreement", [] if figures["agreement"] >= floor else
                        [f"{figures['agreement']:.4f} below the floor {floor}"])
    return figures


def rescore(root: str, wl: Workload, tally: Tally) -> None:
    """Re-score a seeded sample with --jobs 1; scores must be bit-identical."""
    rows = {r["id"]: r for r in checks.read_records(wl.path("scored.jsonl"))}
    sample = random.Random(f"rescore:{wl.seed}").sample(sorted(rows), min(RESCORE_SAMPLE, len(rows)))
    with open(wl.path("rescore_in.jsonl"), "w", encoding="utf-8") as fh:
        for rid in sample:
            row = {k: v for k, v in rows[rid].items() if k not in ("score", "provenance")}
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
    child = Child(root, wl, [["score", "--config", "pipeline.ini", "--jobs", "1", "--quiet",
                              "--input", "rescore_in.jsonl", "--output", "rescore_out.jsonl"]], "rescore")
    if child.result is None or child.result["commands"][-1]["exit"] != 0:
        tally.check("rescore", [f"score --jobs 1 failed: {child.stderr}"])
        return
    reference = {rid: rows[rid]["score"] for rid in sample}
    tally.check("rescore", checks.check_rescored(reference, checks.read_records(wl.path("rescore_out.jsonl"))))


def run_job(root: str, wl: Workload, tally: Tally, tag: str, trace: bool = False) -> Child | None:
    """One repetition; counts its records as attempted and failed stages as failed."""
    for name in wl.outputs:
        if os.path.exists(wl.path(name)):
            os.remove(wl.path(name))
    child = Child(root, wl, wl.stages, tag, trace)
    tally.attempted += sum(wl.sizes.values())
    ran = {} if child.result is None else {c["argv"][0]: c["exit"] for c in child.result["commands"]}
    failed = [cmd[0] for cmd in wl.stages if ran.get(cmd[0]) != 0]
    if failed:
        tally.failed += sum(wl.sizes.get(s, 0) for cmd in failed for s in STAGES_OF[cmd])
        tally.problems.append(f"{tag}: commands {failed} failed (exit {child.returncode}) {child.stderr}")
        return None
    return child


def measure(root: str, wl: Workload, seconds: float, trace: bool, tally: Tally) -> dict:
    deadline = time.monotonic() + seconds
    reps: list[Child] = []
    durations = []
    reference = None
    figures = {}
    while True:
        started = time.monotonic()
        child = run_job(root, wl, tally, f"rep{len(reps)}")
        if child is None:
            return {"reps": reps}
        reps.append(child)
        outputs = digest([wl.path(name) for name in wl.outputs])
        if reference is None:
            reference = outputs
            figures = verify(wl, tally)
        else:
            tally.check(f"rep{len(reps) - 1} outputs byte-identical to rep0", [] if outputs == reference else
                        ["outputs differ from the first repetition"])
        durations.append(time.monotonic() - started)
        # A traced repetition costs up to twice an untraced one; leave room for it.
        if time.monotonic() + statistics.median(durations) * (3 if trace else 1) > deadline:
            break
    if "score" in wl.sizes:
        rescore(root, wl, tally)
    traced = None
    if trace:
        traced = run_job(root, wl, tally, "traced", trace=True)
        if traced is not None:
            tally.check("traced outputs byte-identical to rep0",
                        [] if digest([wl.path(n) for n in wl.outputs]) == reference else
                        ["tracing changed the outputs"])
    return {"reps": reps, "traced": traced, "figures": figures}


def setup(name: str, seed: int, work: str, tally: Tally) -> tuple[Workload, list[float]]:
    """Generate the inputs SETUP_TRIALS times; returns the first copy and the times."""
    times, digests, first = [], [], None
    for trial in range(SETUP_TRIALS):
        directory = os.path.join(work, f"setup{trial}")
        start = time.monotonic()
        wl = generate(name, seed, directory)
        times.append(time.monotonic() - start)
        digests.append(digest(sorted(os.path.join(directory, f) for f in os.listdir(directory))))
        if first is None:
            first = wl
        else:
            shutil.rmtree(directory)
    tally.check("same seed gives byte-identical inputs", [] if len(set(digests)) == 1 else
                ["generated inputs differ between set-up trials"])
    return first, times


def stage_rate(wl: Workload, reps: list[Child], stage: str) -> float:
    walls = [c.result["stages"][f"cli.{stage}"]["wall_s"] for c in reps if f"cli.{stage}" in c.result["stages"]]
    return wl.sizes[stage] / statistics.median(walls) if walls and stage in wl.sizes else 0.0


def layer_report(wl: Workload, run: dict) -> dict:
    reps, traced = run["reps"], run["traced"]
    metrics = {name: (value, unit) for name, (value, unit) in traced.result["layers"].items()}
    for stage, unit in (("rule_filter", "rec_per_s"), ("partition", "rec_per_s"),
                        ("train", "seq_per_s"), ("score", "rec_per_s")):
        metrics[f"{stage}_{unit}"] = (stage_rate(wl, reps, stage), "1/s")
    score = [c.result["stages"]["cli.score"] for c in reps if "cli.score" in c.result["stages"]]
    cpu = statistics.median([s["child_cpu_s"] for s in score]) if score else 0.0
    busy = statistics.median([s["child_cpu_s"] / (wl.jobs * s["wall_s"]) for s in score]) if score else 0.0
    metrics["cli.pool.child_cpu_s"] = (cpu, "s")
    metrics["cli.pool.busy_ratio"] = (busy, "ratio")
    metrics["cli.pool.worker_peak_rss_mb"] = (max(c.result["children_maxrss_mb"] for c in reps), "MB")
    metrics["partition.agreement"] = (run["figures"].get("agreement", 0.0), "ratio")
    metrics["trace.overhead_s"] = (traced.wall_s() - statistics.median(c.wall_s() for c in reps), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "queryfilter", "cli.py")):
        print("error: run from the root of a queryfilter checkout (src/queryfilter not found)",
              file=sys.stderr)
        return 2
    work = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    tally = Tally()
    metrics = {}
    try:
        wl, generation_s = setup(args.workload, args.seed, work, tally)
        run = measure(root, wl, args.seconds, bool(args.trace), tally)
        reps = run["reps"]
        print(json.dumps({"environment": environment(wl), "why": WHY[wl.name],
                          "quality": run.get("figures", {})}))
        for i, child in enumerate(reps):
            print(json.dumps({"rep": i, "wall_s": child.wall_s(), "startup_s": child.startup_s,
                              "peak_rss_mb": child.result["maxrss_mb"], "stages": child.result["stages"]}))
        if reps and args.trace and run.get("traced") is not None:
            spans = os.path.join(HERE, ".work", f"spans-{args.workload}-{args.seed}.jsonl")
            os.replace(wl.path("spans.jsonl"), spans)
            layers = layer_report(wl, run)
            metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
            print("per-layer metrics come from one traced repetition; stage rates, pool CPU and "
                  "agreement from the untraced ones; spans inside pool workers are not visible, "
                  f"so the pool is reported by CPU accounting; spans: {spans}")
        elif reps and not args.trace:
            # Set-up is generating the inputs plus starting a child that imports
            # queryfilter; each part is the median of its repeated measurements.
            setup_s = statistics.median(generation_s) + statistics.median(c.startup_s for c in reps)
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "wall_s": {"value": statistics.median(c.wall_s() for c in reps), "unit": "s"},
                "peak_rss_mb": {"value": statistics.median(c.result["maxrss_mb"] for c in reps), "unit": "MB"},
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = not tally.problems and tally.failed == 0 and bool(metrics)
    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": max(tally.attempted, 1),
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
