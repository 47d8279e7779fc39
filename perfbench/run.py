#!/usr/bin/env python3
"""Run one benchmark workload against the program in ``src/``.

    python3 perfbench/run.py --workload adapt-cold --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Workloads (see README.md):

* ``adapt-cold``  - empty store and KB: build the upstream bundle, then
  adapt every registered downstream dataset once.
* ``adapt-warm``  - the same sweep against a filled store and KB, with
  in-process memos dropped so every artifact is read back.
* ``serve-mixed`` - ``python -m repro serve --preload`` over four adapted
  tenants under an open-loop mix of reads and ``stream_update`` writes.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` first runs
the untraced workload in a child process (for the tracing overhead),
then runs it again in-process with spans around each layer and prints
the per-layer metrics.  Each metric line gives its unit and sample
count; the last line of standard output is the JSON result.  A run
whose outputs do not match exits with code 1.

``--write-reference`` rebuilds the template store and pins its adapt
outputs (default seed) in reference.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402  (must pin the environment before numpy loads)

common.pin_environment()

WORKLOADS = ("adapt-cold", "adapt-warm", "serve-mixed")

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("adapt_p50_s", "s"),
    ("datasets_per_min", "1/min"),
    ("quality_mean", "score"),
    ("serve_p50_ms", "ms"),
    ("serve_p95_ms", "ms"),
    ("serve_goodput_rps", "1/s"),
    ("stream_update_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _run_workload(args, run_dir: Path, recorder=None):
    if args.workload == "serve-mixed":
        import serving

        return serving.run(args.seed, args.seconds, run_dir, recorder)
    import adapt

    return adapt.run(args.workload, args.seed, args.seconds, run_dir, recorder)


def _untraced_child(args) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"untraced run failed with code {proc.returncode}")
    return json.loads(lines[-1])


def _traced(args, run_dir: Path):
    from repro import obs

    import layers

    baseline = _untraced_child(args)
    layers.reset_perf_counters()
    recorder = layers.SpanRecorder().install()
    try:
        with obs.using_tracer(obs.Tracer()) as tracer:
            result = _run_workload(args, run_dir, recorder)
    finally:
        recorder.uninstall()
    values = layers.layer_metrics(recorder, tracer)
    values.update(result.get("layers", {}))
    key = "serve_p50_ms" if args.workload == "serve-mixed" else "adapt_p50_s"
    untraced = baseline["metrics"][key]["value"]
    values["trace.overhead_frac"] = result["metrics"][key][0] / untraced - 1.0
    metrics = {}
    for name, unit, __ in layers.PER_LAYER:
        metrics[name] = (float(values.get(name, 0.0)), 1, unit)
    return result, metrics


def _write_reference() -> int:
    import adapt
    import template

    for stale in common.WORK.glob("template-*"):
        shutil.rmtree(stale)
    meta = json.loads((template.ensure_template() / "meta.json").read_text())
    reference = {"order": meta["order"], "datasets": meta["datasets"]}
    adapt.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {adapt.REFERENCE}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not common.program_present():
        print(
            f"error: the program is missing ({common.SRC / 'repro'}); "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    if args.write_reference:
        return _write_reference()
    if args.workload is None:
        parser.error("--workload is required")

    run_dir = common.WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    started = time.perf_counter()
    try:
        if args.trace:
            result, metrics = _traced(args, run_dir)
        else:
            result = _run_workload(args, run_dir)
            units = dict(END_TO_END)
            metrics = {
                name: (float(value), samples, units[name])
                for name, (value, samples) in result["metrics"].items()
            }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    correct = result["failed"] == 0 and not result["checks"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"wall {time.perf_counter() - started:.1f}s")
    print("environment " + json.dumps(common.environment_record(), sort_keys=True))
    print("notes " + json.dumps(result.get("notes", {}), sort_keys=True))
    for name, (value, samples, unit) in metrics.items():
        print(f"  {name:32s} {value:14.4f} {unit:6s} n={samples}")
    fail_frac = result["failed"] / result["attempted"]
    print(f"  {'fail_frac':32s} {fail_frac:14.4f} {'ratio':6s} "
          f"n={result['attempted']}")
    for line in result["checks"]:
        print(f"MISMATCH {line}")
    print("correct" if correct else "INCORRECT")
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, __, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
