"""Run one ``gnncert`` CLI command in this (fresh) process and record its cost.

Usage::

    python3 perfbench/child.py --stats STATS.json [--trace TRACE.json] -- ARGS...

``ARGS`` go to ``gnncert.cli.main`` unchanged.  The package is imported
from the repository's ``src/`` before the clock starts, so ``run_s`` is the
wall time of the command itself and ``cpu_s`` the user plus system seconds
that every thread of this process spent on it, less the host-speed probe
(``probe.py``) that runs beside it.  ``STATS.json`` receives the exit code,
``run_s``, ``cpu_s``, the probe's samples and the process's peak resident
memory.
With ``--trace`` the public functions of every package module are wrapped
first (see ``tracer.py``) and the span and counter summary goes to
``TRACE.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from probe import Probe         # this script's directory is on sys.path


def _peak_rss_mb(usage) -> float:
    """Peak resident memory of this process image, in MB.

    ``ru_maxrss`` also counts the image that ran before ``exec``: a child
    started by ``vfork`` inherits the benchmark process's own peak.  The
    kernel's ``VmHWM`` belongs to this image alone, so it is read first.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return usage.ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--stats", required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    import gnncert
    from gnncert import cli
    if Path(gnncert.__file__).resolve().parent != src / "gnncert":
        print(f"gnncert imported from {gnncert.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        import tracer as tracing    # this script's directory is on sys.path
        tracer = tracing.Tracer()
        for name in tracer.install():
            print(f"trace: {name} not found; its metrics read 0", file=sys.stderr)

    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    with Probe() as probe:
        try:
            rc = cli.main(cli_args)
        except Exception:       # a crash is a measured outcome, not a child failure
            traceback.print_exc()
            rc = -1
    run_s = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    cpu_s = ((after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
             - probe.cpu_s)

    if tracer is not None:
        tracer.uninstall()
        Path(args.trace).write_text(json.dumps(tracer.summary(run_s)), encoding="utf-8")
    Path(args.stats).write_text(json.dumps({
        "rc": rc, "run_s": run_s, "cpu_s": cpu_s, "probe_samples": probe.samples,
        "probe_cpu_s": probe.cpu_s, "peak_rss_mb": _peak_rss_mb(after),
    }), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
