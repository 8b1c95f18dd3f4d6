"""Run one workload of the Lethe benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ingest|lookup|serve --seed N \
        --seconds S --trace 0|1

The program under test is imported from ``src/`` of the same checkout.
With ``--trace 0`` the last line of standard output is one JSON object
whose ``metrics`` are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` the workload runs once untraced and once traced with the
same seed, and ``metrics`` are the per-layer ledger plus the tracing
overhead. The lines before it give every figure by name, unit and
sample count. A wrong result or a mechanism that did not run prints no
result line and exits 1; a checkout without ``src/repro`` exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ingest", "lookup", "serve")

# name -> unit, for the end-to-end metrics every workload reports.
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "p50_us": "us",
    "peak_rss_mb": "MB",
    "write_amp": "ratio",
    "space_amp": "ratio",
}


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and check that the
    engine imported from there, not from an installed copy."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program at {src / 'repro'}; run from a checkout", file=sys.stderr)
        raise SystemExit(2)
    for path in (str(HERE), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)


def _workload_module(name: str):
    import wl_ingest
    import wl_lookup
    import wl_serve

    return {"ingest": wl_ingest, "lookup": wl_lookup, "serve": wl_serve}[name]


def _print_report(workload: str, result: dict, metrics: dict, units: dict) -> None:
    print(f"# workload {workload}: attempted {result['attempted']}, failed {result['failed']}")
    for name, value in result["report"].items():
        if isinstance(value, tuple):
            print(f"#   {name} = {value[0]:.6g} (n={value[1]})")
        else:
            print(f"#   {name} = {value}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import pbload
    import pbtrace
    from pblayers import PER_LAYER

    module = _workload_module(args.workload)
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    out_dir = ROOT / ".perfbench-out"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result = module.run(args.seed, args.seconds, workdir)
        if args.trace:
            tracer = pbtrace.Tracer()
            if module.IN_PROCESS:
                installed = pbtrace.Installed(tracer).install()
                try:
                    traced = module.run(args.seed, args.seconds, workdir, tracer=tracer)
                finally:
                    installed.restore()
                missing = pbtrace.check_fired(tracer, args.workload)
                tracer.write(str(out_dir / f"spans-{args.workload}-{args.seed}.jsonl"))
            else:
                traced = module.run(args.seed, args.seconds, workdir, tracer=tracer)
                missing = traced["unfired"]
            if missing:
                raise pbload.OracleError(
                    f"traced run: expected boundaries recorded no call: {missing}"
                )
            base = result["cost_s"] / result["units"]
            with_trace = traced["cost_s"] / traced["units"]
            traced["layers"]["trace.overhead_pct"] = 100.0 * (with_trace / base - 1.0)
            result = traced
            metrics = traced["layers"]
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            metrics = result["e2e"]
            units = E2E_UNITS
    except pbload.OracleError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    _print_report(args.workload, result, metrics, units)
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


def _pin_hash_seed(argv: list[str]) -> None:
    """Re-execute under a ``PYTHONHASHSEED`` derived from ``--seed``.

    String hashing is randomised per process, and the engine's set and
    dict orders follow it into compaction choices; pinning it makes one
    seed mean one input, in this process and the server it starts.
    """
    if "--seed" not in argv or argv.index("--seed") + 1 >= len(argv):
        return
    wanted = argv[argv.index("--seed") + 1]
    if not wanted.isdigit() or os.environ.get("PYTHONHASHSEED") == wanted:
        return
    sys.stdout.flush()
    env = dict(os.environ, PYTHONHASHSEED=wanted)
    os.execve(sys.executable, [sys.executable, __file__, *argv], env)


if __name__ == "__main__":
    _pin_hash_seed(sys.argv[1:])
    sys.exit(main())
