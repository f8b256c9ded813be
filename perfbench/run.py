"""Seeded end-to-end benchmark of the ``gnncert`` CLI.

Usage (from the repository root)::

    python3 perfbench/run.py --workload certify-gcn --seed 0 --seconds 30 --trace 0

One run generates the workload's inputs from ``--seed`` and sets up (writes
the files and, for model workloads, runs ``gnncert train``) at least three
times and until two seconds of set-up have been measured.  Then it repeats
the measured ``gnncert certify`` / ``gnncert derandomize`` call, each in a
fresh child process, until ``--seconds`` have passed.  Outputs are
checked after every call.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``.  A traced run alternates untraced
and traced calls, so the tracing overhead is measured in the same run.

The run pins itself and its children to one CPU, and every timed section
runs beside a host-speed probe (``probe.py``); the bounded timings are CPU
seconds rescaled to the probe's reference speed.

All files go to a temporary directory under ``.perfbench_tmp/`` in the
repository root, which is removed when the run ends.  The exit code is 0
when every output check passed, 1 when one failed, and 2 when the
benchmark could not run at all (for example without ``src/gnncert``).
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import checks
import probe as probing
import tracer as tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
DEFAULT_SEED = 0
SETUP_REPEATS = 3           # at least; cheap set-ups repeat until SETUP_MIN_S
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 20
DEADLINE_SLACK_S = 140.0    # set-up, the last call and the checks, past --seconds;
                            # a child still running then is killed
# One BLAS thread: with two on two shared cores, the threads' spin-waits and
# stalls made call times swing far more than the work did.
CHILD_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
OK_EXIT_CODES = (0, 3)      # 3: per-node failures recorded, outputs written


class BenchError(RuntimeError):
    """The benchmark could not produce a result at all."""


def _child(workdir: Path, cli_args: list[str], stats: str, deadline: float,
           trace: str | None = None) -> dict:
    """Run one CLI command in a fresh interpreter and return its stats."""
    cmd = [sys.executable, str(HERE / "child.py"), "--stats", stats]
    if trace:
        cmd += ["--trace", trace]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", TMPDIR=str(workdir),
               **CHILD_THREADS)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted before a child could start")
    try:
        proc = subprocess.run(cmd + ["--"] + cli_args, cwd=workdir, env=env,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{cli_args[0]} did not finish within the time budget") from None
    if proc.returncode != 0 or not (workdir / stats).exists():
        raise BenchError(f"child for {cli_args[0]} failed:\n{proc.stderr[-2000:]}")
    result = json.loads((workdir / stats).read_text(encoding="utf-8"))
    result["stderr"] = proc.stderr
    return result


def _cpu_s() -> float:
    """User plus system seconds of this process and of its ended children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    ended = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + ended.ru_utime + ended.ru_stime


class Setup(NamedTuple):
    """One set-up.  ``cpu_s`` is this process's and the train child's CPU
    time less the probes' own; ``ref_s`` rescales it by the probes' median
    sample."""

    inputs: object
    wall_s: float
    cpu_s: float
    ref_s: float
    train_trace: dict


def _setup(workload: str, seed: int, workdir: Path, deadline: float,
           trace: bool) -> Setup:
    """Generate inputs and, for model workloads, train."""
    workdir.mkdir()
    start, cpu_start = time.perf_counter(), _cpu_s()
    with probing.Probe() as probe:
        inputs = WORKLOADS[workload](seed, workdir)
    samples, probe_cpu_s = list(probe.samples), probe.cpu_s
    train_trace: dict = {}
    if inputs.train_config:
        stats = _child(workdir, ["train", "--config", inputs.train_config],
                       "train_stats.json", deadline,
                       trace="train_trace.json" if trace else None)
        if stats["rc"] != 0:
            raise BenchError(f"gnncert train exited {stats['rc']}:\n{stats['stderr'][-2000:]}")
        samples += stats["probe_samples"]
        probe_cpu_s += stats["probe_cpu_s"]
        inputs.files.append("train/model.json")
        if trace:
            train_trace = json.loads((workdir / "train_trace.json").read_text())
    cpu_s = _cpu_s() - cpu_start - probe_cpu_s
    return Setup(inputs, time.perf_counter() - start, cpu_s,
                 probing.reference_s(cpu_s, statistics.median(samples)), train_trace)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(inputs, workdir: Path, seed: int) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "pinned_cpus": (sorted(os.sched_getaffinity(0))
                        if hasattr(os, "sched_getaffinity") else None),
        "probe_reference_sample_ms": 1000 * probing.REFERENCE_SAMPLE_S,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas_threads": CHILD_THREADS["OPENBLAS_NUM_THREADS"],
        "workers": 1, "seed": seed, "nodes": inputs.n,
        "undirected_edges": inputs.undirected_edges, "targets": len(inputs.targets),
        "inputs_sha256": inputs.digests(workdir),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, spec: dict,
        record: bool, scratch: Path) -> tuple[dict, list[str]]:
    deadline = time.monotonic() + seconds + DEADLINE_SLACK_S
    problems: list[str] = []

    setups = [_setup(workload, seed, scratch / "setup0", deadline, trace)]
    while not trace and (len(setups) < SETUP_REPEATS or (
            sum(s.wall_s for s in setups) < SETUP_MIN_S
            and len(setups) < SETUP_MAX_REPEATS)):
        setups.append(_setup(workload, seed, scratch / f"setup{len(setups)}",
                             deadline, trace))
    inputs, train_trace = setups[0].inputs, setups[0].train_trace
    workdir = scratch / "setup0"
    digests = inputs.digests(workdir)
    for i, other in enumerate(setups[1:], start=1):
        if other.inputs.digests(scratch / f"setup{i}") != digests:
            problems.append(f"set-up {i} produced different input files than set-up 0")

    reference_path = REFERENCE / f"{workload}.csv"
    out_dir = workdir / "out"
    calls: list[dict] = []
    first_outputs = None
    start = time.perf_counter()
    while (not calls or time.perf_counter() - start < seconds
           or (trace and len(calls) < 2)):
        traced = trace and len(calls) % 2 == 1
        shutil.rmtree(out_dir, ignore_errors=True)
        stats = _child(workdir, [inputs.command, "--config", inputs.run_config,
                                 "--out", "out"], "stats.json", deadline,
                       trace="trace.json" if traced else None)
        stats["traced"] = traced
        stats["ref_s"] = probing.reference_s(stats["cpu_s"],
                                             statistics.median(stats["probe_samples"]))
        calls.append(stats)
        label = f"call {len(calls)}{' (traced)' if traced else ''}"
        if stats["rc"] not in OK_EXIT_CODES or not (out_dir / inputs.output).exists():
            problems.append(f"{label}: {inputs.command} exited {stats['rc']}: "
                            f"{stats['stderr'][-500:]}")
            stats["ok"] = 0
            continue
        outputs = checks.snapshot(out_dir)
        text = outputs[inputs.output].decode("utf-8")
        stats["ok"] = len(inputs.targets) - checks.error_rows(text)
        if traced:
            stats["layers"] = json.loads((workdir / "trace.json").read_text())
        if first_outputs is None:
            first_outputs = outputs
            scan = json.loads((workdir / inputs.run_config).read_text()).get("rho_max_scan")
            problems += checks.invariants(inputs.output, text, inputs.targets, scan)
            if seed == DEFAULT_SEED and reference_path.exists() and not record:
                problems += checks.against_reference(
                    inputs.output, text, reference_path.read_text(encoding="utf-8"))
        else:
            problems += checks.identical(label, first_outputs, outputs)

    if record:
        if first_outputs is None:
            raise BenchError("no successful call to record a reference from")
        reference_path.write_bytes(first_outputs[inputs.output])

    plain = [c for c in calls if not c["traced"]]
    n_targets = len(inputs.targets)
    run_s = [c["run_s"] for c in plain]
    run_ref_s = [c["ref_s"] for c in plain]
    series = {
        "run_ref_s": run_ref_s,
        "nodes_per_ref_s": [n_targets / r for r in run_ref_s],
        "peak_rss_mb": [c["peak_rss_mb"] for c in plain],
        "ok_ratio": [c["ok"] / n_targets for c in plain],
        "setup_s": [s.ref_s for s in setups],
        # printed, not bounded
        "run_cpu_s": [c["cpu_s"] for c in plain],
        "run_s": run_s,
        "probe_sample_ms": [1000 * statistics.median(c["probe_samples"]) for c in plain],
        "setup_cpu_s": [s.cpu_s for s in setups],
        "setup_wall_s": [s.wall_s for s in setups],
    }
    if trace:
        layer_runs = [tracing.layer_metrics(c["layers"], train_trace)
                      for c in calls if c.get("layers")]
        overhead = (statistics.median(c["ref_s"] for c in calls if c["traced"])
                    - statistics.median(run_ref_s))
        series = {m["name"]: [lr.get(m["name"], 0) for lr in layer_runs]
                  for m in spec["per_layer"] if m["name"] != "trace.overhead_s"}
        series["trace.overhead_s"] = [overhead]
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]

    print(f"workload {workload} seed {seed}: {inputs.n} nodes, "
          f"{inputs.undirected_edges} undirected edges, {n_targets} targets, "
          f"{len(plain)} untraced + {len(calls) - len(plain)} traced calls")
    print("call run_s " + " ".join(f"{c['run_s']:.3f}{'t' if c['traced'] else ''}"
                                   for c in calls))
    print("call cpu_s " + " ".join(f"{c['cpu_s']:.3f}{'t' if c['traced'] else ''}"
                                   for c in calls))
    print("call ref_s " + " ".join(f"{c['ref_s']:.3f}{'t' if c['traced'] else ''}"
                                   for c in calls))
    errors = n_targets - min((c["ok"] for c in plain), default=0)
    print(f"fail_ratio {errors}/{n_targets} (per-node error rows, worst call)")
    metrics = {}
    units = {m["name"]: m["unit"] for m in wanted}
    for name, values in series.items():
        q1, med, q3 = _quartiles([float(v) for v in values])
        if name in units:
            metrics[name] = {"value": med, "unit": units[name]}
        print(f"{name:>16} {med:.6g} {units.get(name, '')} "
              f"(median; q1 {q1:.6g}, q3 {q3:.6g}; n={len(values)})")
    print("env " + json.dumps(_environment(inputs, workdir, seed), sort_keys=True))
    failed = sum(1 for c in calls if c["rc"] not in OK_EXIT_CODES)
    return {"attempted": len(calls), "failed": failed, "metrics": metrics}, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help=f"store the output of seed {DEFAULT_SEED} as the reference")
    args = parser.parse_args(argv)
    if args.record_reference and args.seed != DEFAULT_SEED:
        parser.error(f"references are recorded for seed {DEFAULT_SEED} only")

    if not (ROOT / "src" / "gnncert" / "__init__.py").is_file():
        print(f"error: no gnncert package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    probing.pin_to_one_cpu()
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        result, problems = run(args.workload, args.seed, args.seconds,
                               bool(args.trace), spec, args.record_reference, scratch)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass                # another run still uses it
    for msg in problems:
        print(f"output check failed: {msg}", file=sys.stderr)
    print(json.dumps({"correct": not problems, **result}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
