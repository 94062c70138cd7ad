"""Golden outputs: every stage of the three benchmark workloads, small and seeded.

Each workload's inputs come from ``perfbench/workloads.py`` at a small scale.
Every stage runs in process through ``cli.main``, and the SHA-256 digest of
each output is compared with ``golden.json``; for ``model.ckpt`` only the
tensor payload after the header is hashed.  Two stages are added to the
benchmark's: ``rules-io`` also partitions a copy of its scored input, with
the scores rounded so that they tie, by the percentile strategy, and
``model-default`` scores again at ``--jobs 3``.

Model bits depend on the numpy and BLAS build, the BLAS thread count and the
CPU, so the table records that fingerprint.  On another fingerprint the test
compares a looser view: the rule-filter and bootstrap outputs, the
vocabulary and the partition membership exactly, and the scores and the
partition reports to a relative 1e-9.

Re-record the table after a change that is meant to move an output:
``PYTHONPATH=src python tests/test_golden.py``.
"""

import ctypes
import glob
import hashlib
import json
import math
import os
import struct
import sys

import numpy as np
import pytest

from queryfilter import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TABLE = os.path.join(ROOT, "tests", "golden.json")
SEED = 1
SCALES = {"rules-io": 0.004, "pipeline-small": 0.1, "model-default": 0.25}
PERCENTILE = ("retained_percentile.jsonl", "semantic_rejects_percentile.jsonl",
              "partition_report_percentile.json")


def _workloads():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


def fingerprint() -> dict:
    """What model bits depend on besides the program: numpy, its BLAS and the CPU."""
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.25 only prints its configuration
        blas = {}
    threads = os.environ.get("OPENBLAS_NUM_THREADS")
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            get = getattr(ctypes.CDLL(lib), name, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                threads = get()
                break
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "cpu_features": sorted(name for name, on in __cpu_features__.items() if on),
    }


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digest(name: str, data: bytes) -> str:
    if name == "model.ckpt":  # the tensor payload: the header may change its form
        (header_len,) = struct.unpack("<I", data[8:12])
        data = data[12 + header_len:]
    return _sha256(data)


def _loose(name: str, data: bytes):
    """The view of an output that holds on any fingerprint, or None for none."""
    if name == "model.ckpt":
        return None
    if name.startswith("partition_report"):
        return json.loads(data)
    rows = [json.loads(line) for line in data.splitlines()] if name.endswith(".jsonl") else None
    if name.startswith("scored"):
        return {row["id"]: row["score"] for row in rows}
    if name.startswith(("retained", "semantic_rejects")):
        return _sha256("\n".join(row["id"] for row in rows).encode())
    return _sha256(data)


def run_workload(name: str, directory: str) -> dict:
    """Generate ``name``'s inputs in ``directory``, run its stages there; return its outputs."""
    wl = _workloads().generate(name, SEED, directory, SCALES[name])
    stages, outputs = list(wl.stages), list(wl.outputs)
    if name == "rules-io":
        with open(wl.path("prescored.jsonl"), encoding="utf-8") as src, \
                open(wl.path("tied.jsonl"), "w", encoding="utf-8") as dst:
            for line in src:
                row = json.loads(line)
                row["score"] = round(row["score"] * 2) / 2
                dst.write(json.dumps(row) + "\n")
        stages.append(["partition", "--config", "pipeline.ini", "--quiet", "--input", "tied.jsonl",
                       "--strategy", "percentile", "--p", "0.5", "--retained", PERCENTILE[0],
                       "--rejects", PERCENTILE[1], "--report", PERCENTILE[2]])
        outputs += PERCENTILE
    if name == "model-default":
        stages.append(["score", "--config", "pipeline.ini", "--quiet", "--jobs", "3",
                       "--output", "scored_jobs3.jsonl"])
        outputs.append("scored_jobs3.jsonl")
    cwd = os.getcwd()
    os.chdir(wl.dir)  # the generated pipeline.ini names its files relative to it
    try:
        for argv in stages:
            assert cli.main(argv) == 0, argv
    finally:
        os.chdir(cwd)
    files = {}
    for output in outputs:
        with open(wl.path(output), "rb") as fh:
            files[output] = fh.read()
    return files


def table_entry(files: dict) -> dict:
    return {
        "sha256": {name: _digest(name, data) for name, data in sorted(files.items())},
        "loose": {name: _loose(name, data) for name, data in sorted(files.items())},
    }


def assert_close(actual, expected, where="") -> None:
    """``actual == expected``, but floats only to a relative 1e-9."""
    if isinstance(expected, float) and isinstance(actual, float):
        assert math.isclose(actual, expected, rel_tol=1e-9), where
    elif isinstance(expected, dict) and isinstance(actual, dict):
        assert actual.keys() == expected.keys(), where
        for key in expected:
            assert_close(actual[key], expected[key], f"{where}/{key}")
    elif isinstance(expected, list) and isinstance(actual, list):
        assert len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_close(a, e, f"{where}[{i}]")
    else:
        assert actual == expected, where


@pytest.fixture(scope="module")
def table():
    with open(TABLE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return {name: run_workload(name, str(tmp_path_factory.mktemp(name))) for name in SCALES}


@pytest.mark.parametrize("name", sorted(SCALES))
def test_outputs_match_the_golden_table(table, outputs, name):
    entry = table_entry(outputs[name])
    expected = table["workloads"][name]
    if fingerprint() == table["fingerprint"]:
        assert entry["sha256"] == expected["sha256"]
    else:
        assert_close(entry["loose"], expected["loose"], name)


def test_percentile_boundary_falls_in_a_tie(outputs):
    """The tied percentile partition splits a tie, or its order of ids would not show."""
    kept, rejected = ({json.loads(line)["score"] for line in outputs["rules-io"][name].splitlines()}
                      for name in PERCENTILE[:2])
    assert max(kept) in rejected


def test_scores_do_not_depend_on_jobs(outputs):
    files = outputs["model-default"]
    assert files["scored_jobs3.jsonl"] == files["scored.jsonl"]


def record(directory: str) -> None:
    workloads = {name: table_entry(run_workload(name, os.path.join(directory, name)))
                 for name in sorted(SCALES)}
    with open(TABLE, "w", encoding="utf-8") as fh:
        json.dump({"fingerprint": fingerprint(), "workloads": workloads}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        record(scratch)
    print(f"recorded {TABLE}")
