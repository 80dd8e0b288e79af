"""Run the stagenet benchmark.

    python3 perfbench/run.py --workload train_multi_resnet --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace 1

The first line is the calling convention of benchmark runners, which pass
``run_seconds`` of BENCHMARK.json as ``--seconds``; by hand it may be left
out, and then takes that value.  Run it from the root of a checkout; it
imports ``stagenet`` from ``src/`` there and nowhere else, and fails with
exit code 2 when that is missing.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace
1`` its per-layer metrics from a traced run.  Every metric is printed by
name and unit, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The whole record
(checks, loss trajectory, samples, environment and, when traced, every
span) goes to ``.perfbench/<workload>-seed<n>-trace<t>.json``.

``--workload all`` runs each workload in a process of its own, one after
the other, so that ``peak_rss_mb`` is that workload's alone.
"""

from __future__ import annotations

import os

# BLAS runs one thread, set before numpy loads.  On a 2-vCPU VM, blocks of
# identical train steps alternating between one and two threads in one
# process spread less with one thread (IQR/median 6-11% against 9-15%),
# for about 3% less speed.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORKDIR = ROOT / ".perfbench"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured seconds; runners pass run_seconds of BENCHMARK.json, "
                        "which is also the default")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _import_workloads():
    """Import stagenet from this checkout's src/ only."""
    if not (SRC / "stagenet" / "__init__.py").is_file():
        raise ImportError(f"no stagenet package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import stagenet
    if SRC not in Path(stagenet.__file__).resolve().parents:
        raise ImportError(f"stagenet was imported from {stagenet.__file__}, not {SRC}")
    import workloads
    return workloads


def _run_all(args, spec, names_units) -> int:
    results = {}
    for wl in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            return _fail(f"workload {wl} exited with code {proc.returncode}")
        results[wl] = json.loads(lines[-1])
    print(f"\n{'metric':<36s} " + " ".join(f"{wl:>20s}" for wl in results))
    for name, unit in names_units:
        row = " ".join(f"{r['metrics'][name]['value']:>20.6g}" for r in results.values())
        print(f"{name:<36s} {row} {unit}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{wl}/{k}": v for wl, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        spec = json.loads(SPEC.read_text())
        workloads = _import_workloads()
    except (OSError, ValueError, ImportError) as exc:
        return _fail(str(exc))
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    names_units = [(m["name"], m["unit"]) for m in listed]
    if args.workload == "all":
        return _run_all(args, spec, names_units)
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        return _fail(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")

    record = workloads.run(wl, args.seed, args.seconds, bool(args.trace), str(WORKDIR))
    metrics = record["metrics"]
    missing = [name for name, _ in names_units if name not in metrics]
    if missing:
        return _fail(f"metrics not computed: {missing}")
    out_path = WORKDIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record))

    env = record["environment"]
    print(f"# {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"nproc={env['nproc']} blas_threads={env['blas_threads']} "
          f"python={env['python']} numpy={env['numpy']}")
    for c in record["checks"]:
        print(f"# check {c['name']:<20s} {'ok' if c['ok'] else 'FAILED'}  {c['detail']}")
    s = record["samples"]
    print(f"# {s['batches']} batches ({s['beyond_p90']} beyond p90), {s['epochs']} "
          f"{'epochs' if wl.phase == 'train' else 'passes'}, "
          f"{len(s['setup_s'])} set-ups; failed_share {record['failed_share']:.4g}; "
          f"test_accuracy {record['quality']['test_accuracy']}")
    for name, unit in names_units:
        print(f"{name:<36s} {metrics[name]:>16.6g} {unit}")
    if not args.trace:
        # per-batch and per-epoch percentiles flip with the host's fast and slow
        # phases and spread past any allowed bound, so BENCHMARK.json omits them
        print("# not in BENCHMARK.json: " + ", ".join(
            f"{name} {metrics[name]:.6g} {unit}" for name, unit in
            (("batch_ms_p50", "ms"), ("batch_ms_p90", "ms"), ("epoch_s", "s"))))
    print(f"# record: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names_units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
