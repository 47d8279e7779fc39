"""serve-mixed: the serve daemon under an open-loop mix of reads and writes.

The daemon is ``python -m repro serve --preload`` in its own process,
started on a copy of the template store.  One asyncio generator in this
process sends a Poisson schedule at each of ``RATES`` in turn,
over at most ``nproc`` connections.  Reads are ``predict`` calls of
``PROMPTS_PER_READ`` test prompts (the hot tenant takes half of them);
every tenth op is a ``stream_update`` of ``ROWS_PER_WRITE`` labelled rows
to the writer tenant, always on the first connection so the daemon
applies the writes in schedule order.  Latency is timed from each op's
due time, so a stall counts against every op queued behind it.

Checks: reads of non-writer tenants must equal ``serve.offline_reference``
over an in-process registry built from another copy of the same store,
and after the load the writer's predictions on a fixed probe set must
equal an offline replay of the same update sequence through
``Trainer.fit_incremental``.

The traced run hosts the daemon in-process with ``ServerThread`` so the
recorder can wrap the daemon's layers; the timed runs never do.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import socket
import subprocess
import sys
import time
from collections import deque
from pathlib import Path
from typing import Dict, List

import common
from common import (
    HOT_TENANT,
    P95_LIMIT_MS,
    PROGRAM_SEED,
    PROMPTS_PER_READ,
    ROWS_PER_WRITE,
    SCALE,
    TENANTS,
    TIER,
    WRITER_TENANT,
)

#: Fixed open-loop arrival rates (ops/s), one load phase each: well
#: below capacity, nominal, and well above it.
RATES = (5.0, 15.0, 80.0)
#: The phase whose latencies are reported as serve_p50_ms/serve_p95_ms.
NOMINAL = 1
#: Share of --seconds each phase's schedule spans.  The nominal phase
#: gets nearly all of it: its p95 needs every sample it can get.
PHASE_SHARE = (0.05, 0.85, 0.1)
#: Seed of the arrival times and read tenants, shared by every run.
SCHEDULE_SEED = 0
#: Every WRITE_EVERY-th op is a stream_update.
WRITE_EVERY = 10
#: Daemon starts timed for setup_s; the last one serves the load.
DAEMON_STARTS = 3
#: Rounds of in-process tenant registration timed for adapt_p50_s, half
#: before the load and half after it: the host's speed drifts over
#: seconds, and two windows a run apart see more of that drift.
REGISTER_ROUNDS = 12
#: Writer probe: this many reads of the writer's first test prompts.
WRITER_PROBE_READS = 4
#: Seconds a phase may take to drain after its last op is due.
DRAIN_S = 30.0

TRAIN = {"learning_rate": 6e-3, "batch_size": 4, "epochs": 2, "seed": PROGRAM_SEED}


# ----------------------------------------------------------------------
# Tenants and the seeded op plan
# ----------------------------------------------------------------------
def register_tenants():
    """An in-process registry of the four tenants; per-tenant seconds.

    The shared bundle is restored first, untimed, the way
    ``register_adapted`` builds it, so each timing covers one tenant's
    adaptation only.
    """
    from repro.baselines import jellyfish
    from repro.core.config import KnowTransConfig
    from repro.serve import TenantRegistry

    jellyfish.get_bundle(
        TIER, seed=PROGRAM_SEED, scale=SCALE,
        skc_config=KnowTransConfig.fast().skc,
    ).ensure_patches()
    registry = TenantRegistry()
    seconds = []
    for tenant, dataset_id in TENANTS:
        start = time.perf_counter()
        registry.register_adapted(
            tenant, dataset_id, tier=TIER, seed=PROGRAM_SEED, scale=SCALE
        )
        seconds.append(time.perf_counter() - start)
    return registry, seconds


def register_rounds(rounds: int):
    """The last round's registry; each round's mean seconds per tenant.

    The four tenants' costs differ, so a median over single
    registrations would land in the gap between two of them; a round's
    mean does not.
    """
    import adapt

    means = []
    for __ in range(rounds):
        adapt.drop_memos()
        registry, seconds_each = register_tenants()
        means.append(sum(seconds_each) / len(seconds_each))
    return registry, means


def _tenant_views(registry) -> Dict[str, Dict]:
    """Per tenant: its entry, test examples with prompts/pools, train rows."""
    from repro.eval import harness
    from repro.tasks.base import get_task

    views = {}
    for tenant, dataset_id in TENANTS:
        entry = next(e for e in registry.entries.values() if e.tenant == tenant)
        splits = harness.load_splits(dataset_id, seed=PROGRAM_SEED, scale=SCALE)
        task = get_task(entry.task)
        dataset = splits.few_shot
        test = list(splits.test.examples)
        views[tenant] = {
            "entry": entry,
            "task": task,
            "test": test,
            "prompts": [task.prompt(ex, entry.knowledge) for ex in test],
            "pools": [list(task.candidates(ex, entry.knowledge, dataset)) for ex in test],
            "train": [
                task.training_example(ex, entry.knowledge, dataset)
                for ex in splits.train.examples
            ],
        }
    return views


def build_plan(views: Dict[str, Dict], seed: int, seconds: float) -> List[List[Dict]]:
    """One list of ops per phase: due time, kind, payload, bookkeeping.

    Each phase is a Poisson process conditioned on its count: exactly
    ``rate * span`` ops at sorted uniform times, so the op count and the
    read/write split do not vary between seeds.  The arrival times and
    each read's tenant come from ``SCHEDULE_SEED``, so every run offers
    the same traffic shape; ``seed`` picks the prompts and update rows.  With seeded arrivals the p95
    swung by a third between seeds: it sits where reads that queue
    behind a write join the tail, and how many do is down to chance.
    """
    clock = random.Random(SCHEDULE_SEED)
    rng = random.Random(seed)
    others = [t for t, __ in TENANTS if t != HOT_TENANT]
    # Reads deal each tenant's test prompts from a reshuffled deck, so a
    # run covers every test example and the served quality does not
    # depend on which prompts the seed happened to pick.
    decks = {tenant: [] for tenant in views}

    def deal(tenant: str) -> List[int]:
        deck = decks[tenant]
        if len(deck) < PROMPTS_PER_READ:
            fresh = list(range(len(views[tenant]["test"])))
            rng.shuffle(fresh)
            deck.extend(fresh)
        picks = deck[:PROMPTS_PER_READ]
        del deck[:PROMPTS_PER_READ]
        return picks

    phases = []
    index = 0
    for rate, share in zip(RATES, PHASE_SHARE):
        span = seconds * share
        ops = []
        for at in sorted(clock.uniform(0.0, span) for __ in range(round(rate * span))):
            index += 1
            if index % WRITE_EVERY == 0:
                view = views[WRITER_TENANT]
                rows = rng.sample(range(len(view["train"])), ROWS_PER_WRITE)
                examples = [view["train"][i] for i in rows]
                entry = view["entry"]
                payload = {
                    "op": "stream_update", "tenant": entry.tenant,
                    "dataset": entry.dataset, "task": entry.task,
                    "prompts": [ex.prompt for ex in examples],
                    "pools": [list(ex.candidates) for ex in examples],
                    "targets": [int(ex.target) for ex in examples],
                    **TRAIN,
                }
                ops.append({"at": at, "kind": "write", "tenant": entry.tenant,
                            "payload": payload, "picks": rows})
            else:
                tenant = HOT_TENANT if clock.random() < 0.5 else clock.choice(others)
                view = views[tenant]
                picks = deal(tenant)
                entry = view["entry"]
                payload = {
                    "op": "predict", "tenant": entry.tenant,
                    "dataset": entry.dataset, "task": entry.task,
                    "prompts": [view["prompts"][i] for i in picks],
                    "pools": [view["pools"][i] for i in picks],
                }
                ops.append({"at": at, "kind": "read", "tenant": tenant,
                            "payload": payload, "picks": picks})
        phases.append(ops)
    return phases


# ----------------------------------------------------------------------
# The open-loop generator
# ----------------------------------------------------------------------
async def _drive_phase(port: int, ops: List[Dict], connections: int) -> None:
    """Send ``ops`` on schedule; fills each op's result/done/lag fields."""
    links = [
        await asyncio.open_connection("127.0.0.1", port, limit=1 << 22)
        for __ in range(connections)
    ]
    pending = [deque() for __ in links]
    remaining = len(ops)
    finished = asyncio.Event()
    if not ops:
        finished.set()

    async def read_responses(i: int) -> None:
        nonlocal remaining
        reader = links[i][0]
        while remaining:
            line = await reader.readline()
            if not line:
                return
            op = pending[i].popleft()
            op["done"] = time.perf_counter()
            op["response"] = json.loads(line)
            remaining -= 1
            if not remaining:
                finished.set()

    readers = [asyncio.create_task(read_responses(i)) for i in range(len(links))]
    origin = time.perf_counter() + 0.05
    for op in ops:
        op["due"] = origin + op["at"]
        delay = op["due"] - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        link = 0 if op["kind"] == "write" else min(
            range(len(links)), key=lambda i: len(pending[i])
        )
        op["lag"] = time.perf_counter() - op["due"]
        pending[link].append(op)
        links[link][1].write(json.dumps(op["payload"]).encode("utf-8") + b"\n")
    try:
        await asyncio.wait_for(finished.wait(), DRAIN_S)
    except asyncio.TimeoutError:
        pass
    for task in readers:
        task.cancel()
    await asyncio.gather(*readers, return_exceptions=True)
    for __, writer in links:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def drive(port: int, phases: List[List[Dict]], recorder=None) -> None:
    connections = max(1, min(os.cpu_count() or 1, 4))
    for ops in phases:
        if recorder is not None:
            recorder.open("measure")
        try:
            asyncio.run(_drive_phase(port, ops, connections))
        finally:
            if recorder is not None:
                recorder.close()


# ----------------------------------------------------------------------
# The daemon
# ----------------------------------------------------------------------
def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _ping(port: int) -> bool:
    from repro.serve import ServeClient

    try:
        with ServeClient("127.0.0.1", port, timeout=5.0) as client:
            return client.ping()
    except (OSError, ValueError):
        return False


class Daemon:
    """``python -m repro serve --preload`` in a child process."""

    def __init__(self, store_dir: Path, log: Path):
        self.port = _free_port()
        env = dict(os.environ, PYTHONPATH=str(common.SRC),
                   REPRO_CACHE_DIR=str(store_dir))
        cmd = [sys.executable, "-m", "repro", "serve", "--kb", "--quiet",
               "--port", str(self.port), "--tier", TIER,
               "--seed", str(PROGRAM_SEED), "--scale", str(SCALE)]
        for tenant, dataset_id in TENANTS:
            cmd += ["--preload", f"{tenant}:{dataset_id}"]
        self._log = log.open("ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=str(common.ROOT), env=env,
                                     stdout=self._log, stderr=self._log)

    def wait_ready(self, timeout: float = 120.0) -> float:
        """Seconds from spawn until the first successful ping."""
        deadline = self.started + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"serve daemon exited with {self.proc.returncode}")
            if _ping(self.port):
                return time.perf_counter() - self.started
            time.sleep(0.01)
        raise RuntimeError("serve daemon did not answer ping in time")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return float("nan")

    def stop(self) -> None:
        from repro.serve import ServeClient

        if self.proc.poll() is None:
            try:
                with ServeClient("127.0.0.1", self.port, timeout=10.0) as client:
                    client.shutdown()
            except (OSError, ValueError):
                pass
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


class InProcessDaemon:
    """The traced run's daemon: ``ServerThread`` over an in-process registry."""

    def __init__(self, registry):
        from repro.serve import ServerThread

        self.started = time.perf_counter()
        self.thread = ServerThread(registry).start()
        self.port = self.thread.port

    def wait_ready(self, timeout: float = 120.0) -> float:
        while not _ping(self.port):
            time.sleep(0.01)
        return time.perf_counter() - self.started

    def peak_rss_mb(self) -> float:
        return common.peak_rss_mb()

    def stop(self) -> None:
        self.thread.stop()


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def _probe_payload(views) -> List[Dict]:
    view = views[WRITER_TENANT]
    entry = view["entry"]
    payloads = []
    for r in range(WRITER_PROBE_READS):
        picks = range(r * PROMPTS_PER_READ, (r + 1) * PROMPTS_PER_READ)
        payloads.append({
            "op": "predict", "tenant": entry.tenant, "dataset": entry.dataset,
            "task": entry.task,
            "prompts": [view["prompts"][i] for i in picks],
            "pools": [view["pools"][i] for i in picks],
        })
    return payloads


def replay_writer(registry, views, writes: List[Dict]) -> List[List[int]]:
    """Apply the update sequence offline; the writer's probe predictions."""
    from repro.serve import offline_reference
    from repro.tinylm.trainer import TrainConfig, Trainer, TrainingExample

    entry = views[WRITER_TENANT]["entry"]
    backbone = registry.backbones[entry.backbone]
    replica = backbone.clone()
    replica.attach(entry.adapter)
    trainer = Trainer(replica, TrainConfig(**TRAIN), train_base=False)
    for op in writes:
        payload = op["payload"]
        trainer.fit_incremental([
            TrainingExample(prompt, tuple(pool), target)
            for prompt, pool, target in zip(
                payload["prompts"], payload["pools"], payload["targets"])
        ])
    backbone.detach()
    return offline_reference(registry, _probe_payload(views))


def _ok(op) -> bool:
    response = op.get("response")
    return bool(response and response.get("ok"))


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def run(seed: int, seconds: float, run_dir: Path, recorder=None) -> Dict:
    from repro import store as artifact_store
    from repro.knowledge import kb
    from repro.serve import ServeClient, offline_reference
    from repro.tasks import metrics as task_metrics

    import adapt
    import template as template_store

    template = template_store.ensure_template()
    daemon_store = common.copy_store(template / "store", run_dir / "daemon-store")
    oracle_store = common.copy_store(template / "store", run_dir / "oracle-store")
    kb.configure(True)
    artifact_store.configure(cache_dir=str(oracle_store))
    oracle, register_s = register_rounds(REGISTER_ROUNDS // 2)
    views = _tenant_views(oracle)
    phases = build_plan(views, seed, seconds)
    reads = [op for ops in phases for op in ops if op["kind"] == "read"]
    checked = [op for op in reads if op["tenant"] != WRITER_TENANT]
    # Grouped by tenant, the oracle swaps adapters four times, not per read.
    by_tenant = sorted(range(len(checked)), key=lambda i: checked[i]["tenant"])
    grouped = offline_reference(oracle, [checked[i]["payload"] for i in by_tenant])
    expected: List[List[int]] = [[] for __ in checked]
    for i, predictions in zip(by_tenant, grouped):
        expected[i] = predictions

    setup: List[float] = []
    if recorder is None:
        for attempt in range(DAEMON_STARTS):
            daemon = Daemon(daemon_store, run_dir / "daemon.log")
            try:
                setup.append(daemon.wait_ready())
            except BaseException:
                daemon.stop()
                raise
            if attempt + 1 < DAEMON_STARTS:
                daemon.stop()
    else:
        adapt.drop_memos()
        artifact_store.configure(cache_dir=str(daemon_store))
        recorder.open("setup")
        start = time.perf_counter()
        served, __ = register_tenants()
        daemon = InProcessDaemon(served)
        daemon.wait_ready()
        setup.append(time.perf_counter() - start)
        recorder.close()

    try:
        drive(daemon.port, phases, recorder)
        with ServeClient("127.0.0.1", daemon.port) as client:
            stats = client.stats()
            probe = [client.request(p) for p in _probe_payload(views)]
        peak = daemon.peak_rss_mb()
    finally:
        daemon.stop()

    writes = [op for ops in phases for op in ops if op["kind"] == "write"]
    replayed = replay_writer(oracle, views, writes)

    checks: List[str] = []
    failed = 0
    for op in (op for ops in phases for op in ops):
        if not _ok(op):
            failed += 1
    if failed:
        checks.append(f"{failed} ops failed or got no response")
    wrong = sum(
        1 for op, want in zip(checked, expected)
        if _ok(op) and op["response"]["predictions"] != want
    )
    if wrong:
        checks.append(f"{wrong} non-writer reads differ from offline_reference")
    probe_wrong = sum(
        1 for got, want in zip(probe, replayed)
        if not got.get("ok") or got["predictions"] != want
    )
    if probe_wrong:
        checks.append(f"{probe_wrong} writer probe reads differ from the offline replay")
    failed += wrong + probe_wrong
    artifact_store.configure(cache_dir=str(oracle_store))
    register_s += register_rounds(REGISTER_ROUNDS - REGISTER_ROUNDS // 2)[1]

    # Quality: served non-writer reads scored against gold, per tenant.
    scores = []
    for tenant, __ in TENANTS:
        if tenant == WRITER_TENANT:
            continue
        view = views[tenant]
        served = {}
        for op in checked:
            if op["tenant"] == tenant and _ok(op):
                for i, answer in zip(op["picks"], op["response"]["answers"]):
                    served.setdefault(i, answer)
        examples = [view["test"][i] for i in sorted(served)]
        answers = [served[i] for i in sorted(served)]
        if examples:
            scores.append(task_metrics.score_predictions(
                view["task"].name, [ex.answer for ex in examples], answers, examples))

    def latencies(ops, kind):
        return [1000.0 * (op["done"] - op["due"])
                for op in ops if op["kind"] == kind and _ok(op)]

    phase_stats = []
    for rate, ops in zip(RATES, phases):
        lat = latencies(ops, "read")
        tail = common.hd_quantile(lat, common.tail_quantile(len(lat)))
        quarter = max(1, len(lat) // 4)
        growing = common.median(lat[-quarter:]) > common.median(lat[:quarter]) + P95_LIMIT_MS / 2
        within = sum(1 for op in ops if _ok(op)
                     and 1000.0 * (op["done"] - op["due"]) <= P95_LIMIT_MS)
        done = [op["done"] for op in ops if _ok(op)]
        elapsed = max(done) - min(op["due"] for op in ops) if done else math.inf
        phase_stats.append({
            "rate": rate, "ops": len(ops), "tail_ms": tail,
            "p50_ms": common.median(lat), "growing": bool(growing),
            "passed": bool(tail <= P95_LIMIT_MS and not growing
                           and all(_ok(op) for op in ops)),
            # Ops served within the limit per second from the first op's
            # due time to the last response.
            "goodput": within / elapsed,
            "sent": len(ops), "succeeded": sum(1 for op in ops if _ok(op)),
        })
    passing = [p for p in phase_stats if p["passed"]]
    goodput = (passing[-1] if passing else phase_stats[0])["goodput"]

    nominal = phases[NOMINAL]
    read_ms = latencies(nominal, "read")
    write_ms = latencies(nominal, "write")
    all_ops = [op for ops in phases for op in ops]
    responses = [op["response"] for op in all_ops if _ok(op) and op["kind"] == "read"]
    queue = [r["queue_ms"] for r in responses]
    lags = [1000.0 * op["lag"] for op in all_ops if "lag" in op]
    layer_values = {
        "serve.queue_wait_ms.p50": common.median(queue),
        "serve.queue_wait_ms.p95": common.percentile(queue, 0.95),
        "serve.batch_size": sum(r["batch_size"] for r in responses) / max(1, len(responses)),
        "serve.swap_ratio": stats["adapter_swaps"] / max(1, stats["requests"]),
        "serve.generator_lag_ms": common.percentile(lags, 0.95),
    }
    for i, p in enumerate(phase_stats, start=1):
        layer_values[f"serve.phase{i}.sent"] = p["sent"]
        layer_values[f"serve.phase{i}.succeeded"] = p["succeeded"]
        layer_values[f"serve.phase{i}.failed"] = p["sent"] - p["succeeded"]

    metrics = {
        "setup_s": (common.median(setup), len(setup)),
        "adapt_p50_s": (common.hd_quantile(register_s, 0.5), len(register_s)),
        # A median rate: a single slow round would swing a sum over so
        # few samples.
        "datasets_per_min": (
            60.0 / common.hd_quantile(register_s, 0.5), len(register_s)
        ),
        "quality_mean": (sum(scores) / len(scores), len(checked)),
        "serve_p50_ms": (common.median(read_ms), len(read_ms)),
        "serve_p95_ms": (
            common.hd_quantile(read_ms, common.tail_quantile(len(read_ms))),
            len(read_ms),
        ),
        "serve_goodput_rps": (goodput, sum(p["ops"] for p in phase_stats)),
        "stream_update_p50_ms": (common.median(write_ms), len(write_ms)),
        "peak_rss_mb": (peak, 1),
    }
    return {
        "metrics": metrics,
        "attempted": len(all_ops) + len(probe),
        "failed": failed,
        "checks": checks,
        "layers": layer_values,
        "notes": {
            "phases": [
                {k: (round(v, 2) if isinstance(v, float) else v) for k, v in p.items()}
                for p in phase_stats
            ],
            "p95_limit_ms": P95_LIMIT_MS,
            "nominal_rate": RATES[NOMINAL],
            "tail_quantile": common.tail_quantile(len(read_ms)),
            "nominal_read_ms": {
                f"p{int(q * 100)}": round(common.percentile(read_ms, q), 2)
                for q in (0.5, 0.75, 0.9, 0.95, 0.99)
            },
        },
    }
