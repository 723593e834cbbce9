"""Seconds-long smoke test of the benchmark at toy sizes.

Runs every workload once measured and once traced, which exercises every
output check and the traced run's coverage guard. Run with

    python3 -m pytest bench/test_smoke.py      or      python3 bench/test_smoke.py

It lives outside tests/ so the package's own test suite does not run it.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_measured_run_checks_outputs(workload):
    result = run_bench(workload, 0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {"setup_s", "job_s", "peak_rss_mb", "accuracy"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_covers_its_layers(workload):
    result = run_bench(workload, 1)
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(tracing.metric_names())
    for name in workloads.WORKLOADS[workload].exercised:
        assert result["metrics"][name]["value"] > 0, name


def test_benchmark_json_names_what_the_benchmark_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "job_s", "peak_rss_mb", "accuracy"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_names()


def test_install_reaches_by_name_imports():
    """diffusion_map calls pairwise_sq_distances through its own by-name binding.

    A wrapper on the defining module alone records nothing for those calls,
    which the traced run's coverage guard would report; install() wraps
    every binding.
    """
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np
    from sklpdm import diffusion_map, sklp_projection

    name = "sklp_projection.pairwise_sq_distances"
    naive = tracing.Tracer()
    original = sklp_projection.pairwise_sq_distances
    sklp_projection.pairwise_sq_distances = naive._wrap(name, original)
    try:
        diffusion_map.affinity(np.eye(3), 1.0)
    finally:
        sklp_projection.pairwise_sq_distances = original
    assert naive.metrics()[name + "_s"] == 0

    tracer = tracing.Tracer()
    tracer.install()
    try:
        diffusion_map.affinity(np.eye(3), 1.0)
    finally:
        tracer.uninstall()
    assert tracer.calls[name] == 1 and tracer.metrics()[name + "_s"] > 0


def test_uninstall_reports_wrappers_it_cannot_restore():
    """A module imported after install() binds wrappers by name; uninstall() must say so."""
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import sklpdm, tracing\n"
        "t = tracing.Tracer(); t.install()\n"
        "import sklpdm.cli\n"
        "t.uninstall()\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, os.path.join(ROOT, "src"), HERE],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and "sklpdm.cli.load_csv" in proc.stderr


def test_refuses_to_run_without_sources():
    """In a directory that holds only the benchmark, it exits non-zero and prints no result."""
    scratch = os.path.join(ROOT, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(dir=scratch)
    try:
        shutil.copytree(HERE, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run([sys.executable, os.path.join("bench", "run.py"), "--workload", "cli-frames",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
