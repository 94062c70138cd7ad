"""Child process that runs one workload's CLI stages and reports what they cost.

Usage: ``python3 runner.py SPEC.json`` with ``queryfilter`` importable.  The
spec names the working directory, the CLI argument lists to pass to
``queryfilter.cli.main`` in order, whether to trace, and where to write the
result.  The result holds the moment imports finished (``time.monotonic``,
which is system-wide on Linux, so the parent can time start-up), the wall
time and exit code of each command, the wall and child CPU of each stage
(child CPU is the pool workers' user plus system time), and this process's
and its children's peak RSS.  Stages stop at the first
non-zero exit code.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    """High-water RSS of this process image.

    Linux carries ``ru_maxrss`` across exec from the image that spawned us (it
    keeps the old address space's high-water mark), so a large parent would
    inflate it; ``VmHWM`` belongs to the current address space only.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _clock_stages(cli, stages: dict) -> None:
    """Time each cli stage function; a handful of calls, so always on."""
    from layers import STAGES

    for attr, name in STAGES.items():
        fn = getattr(cli, attr)

        def clocked(*args, _fn=fn, _name=name, **kwargs):
            cpu0, start = _children_cpu(), time.perf_counter()
            try:
                return _fn(*args, **kwargs)
            finally:
                entry = stages.setdefault(_name, {"wall_s": 0.0, "child_cpu_s": 0.0})
                entry["wall_s"] += time.perf_counter() - start
                entry["child_cpu_s"] += _children_cpu() - cpu0

        setattr(cli, attr, clocked)


def main(spec_path: str) -> int:
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    import queryfilter.cli as cli

    ready = time.monotonic()
    os.chdir(spec["cwd"])
    tracer = None
    if spec.get("trace"):
        from layers import Tracer, install

        tracer = Tracer()
        install(tracer)
    stages: dict = {}
    _clock_stages(cli, stages)

    commands = []
    for argv in spec["commands"]:
        start = time.perf_counter()
        code = cli.main(argv)
        commands.append({"argv": argv, "exit": code, "wall_s": time.perf_counter() - start})
        if code != 0:
            break

    result = {
        "ready": ready,
        "commands": commands,
        "stages": stages,
        "maxrss_mb": _peak_rss_mb(),
        "children_maxrss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from layers import layer_metrics

        result["layers"] = layer_metrics(tracer)
        tracer.write_spans(spec["spans"])
        result["spans"] = len(tracer.spans)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
