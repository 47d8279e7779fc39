"""Perf gate: a tenant switch in the serve daemon must cost ~nothing.

Drives the real :mod:`repro.serve` stack — TCP sockets, the asyncio
event loop, the scheduler — with one closed-loop client against a
``max_batch=1`` server and a two-tenant registry sharing one backbone.
The two arms serve the same requests and vary one thing, their order:

* grouped: sorted by tenant, so the stream swaps adapters once per
  tenant;
* alternating: consecutive requests alternate tenants, so nearly every
  dispatch swaps.

The registry keeps each tenant's materialised effective weights, so a
swap is an attach, not a rebuild of ``W0 + Σ λ·α·B·A``: the alternating
arm must be no more than 1.5x slower than the grouped one and must
materialise exactly tenants × targets dense weights (each tenant once,
from the dropped state both arms start in).

Results are written to ``BENCH_serve.json`` at the repo root and
appended to ``benchmarks/results/perf_trajectory.jsonl`` via the shared
:class:`repro.perf.Gate` protocol.

CI target::

    REPRO_BENCH_PRESET=quick python -m pytest benchmarks/bench_perf_serve.py

The assertion fails if the alternating arm is more than 1.5x slower
than the grouped arm, if it materialises any other number of weights,
if any served prediction (on any repeat) differs from the offline
``predict_batch`` oracle, if any request errored, or if the latency
percentiles are degenerate.
"""

import math
import pathlib

from repro.perf import Gate, render_serve_benchmark, run_serve_benchmark

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Ceiling on alternating / grouped wall time.  Free swaps put the
#: ratio near 1; rebuilding the fused weights on every swap puts it
#: far above (the arms then differ by one rebuild per request).
MAX_SLOWDOWN = 1.5


def test_adapter_swaps_are_free(record_result):
    gate = Gate("serve", {}, root=REPO_ROOT)
    requests = 64 if gate.preset == "quick" else 128
    repeats = 3 if gate.preset == "quick" else 5
    result = run_serve_benchmark(
        seed=0,
        requests=requests,
        n_patches=16,
        rank=8,
        repeats=repeats,
    )
    gate.result.update(result)
    gate.result["max_slowdown"] = MAX_SLOWDOWN
    grouped, alternating = result["grouped"], result["alternating"]
    gate.write(
        grouped_seconds=grouped["seconds"],
        alternating_seconds=alternating["seconds"],
        alternating_over_grouped=result["alternating_over_grouped"],
        alternating_swaps=alternating["adapter_swaps"],
        alternating_materializations=alternating["weight_materializations"],
        requests=result["requests"],
    )
    record_result("bench_perf_serve", render_serve_benchmark(gate.result))

    gate.require(
        grouped["all_ok"] and alternating["all_ok"],
        "at least one served request returned an error",
    )
    gate.require(
        result["predictions_identical"],
        "served predictions diverged from the offline predict_batch oracle",
    )
    gate.require(
        alternating["adapter_swaps"] > grouped["adapter_swaps"],
        f"the alternating arm did not swap more often "
        f"({alternating['adapter_swaps']} vs {grouped['adapter_swaps']})",
    )
    expected = result["tenants"] * result["targets"]
    gate.require(
        alternating["weight_materializations"] == expected,
        f"alternating arm materialised "
        f"{alternating['weight_materializations']} weights, expected "
        f"{expected} (tenants x targets)",
    )
    for arm in ("grouped", "alternating"):
        p50, p99 = result[arm]["p50_ms"], result[arm]["p99_ms"]
        gate.require(
            0.0 < p50 <= p99 and math.isfinite(p99),
            f"{arm} latency percentiles degenerate: "
            f"p50={p50:.3f} ms p99={p99:.3f} ms",
        )
    gate.require(
        result["alternating_over_grouped"] <= MAX_SLOWDOWN,
        f"alternating tenants is {result['alternating_over_grouped']:.2f}x "
        f"slower than grouped (limit {MAX_SLOWDOWN}x); see {gate.bench_json}",
    )
    gate.check()
