"""The adapt sweep: load_splits -> KnowTrans.fit -> evaluate_method per dataset.

On a run's first sweep every adapted model is then served in-process
the way the serve daemon serves a tenant: ``PROBE_READS`` reads of
``PROMPTS_PER_READ`` test prompts through ``ScoringLM.predict_batch``,
dealt from reshuffled decks of the test set so every prompt is read
equally often, then ``PROBE_WRITES`` writes of ``ROWS_PER_WRITE``
labelled rows each through ``Trainer.fit_incremental``.  The probes run
after the dataset's timed adaptation, so they never count towards
``adapt_p50_s``.

The program modules are looked up by attribute at call time
(``harness.load_splits``, not a name bound at import), so the traced
run's wrappers see every call.
"""

from __future__ import annotations

import gc
import json
import math
import random
import time
from pathlib import Path
from typing import Dict, List

import common
from common import (
    COUNT,
    PROBE_READS,
    PROBE_WRITES,
    PROGRAM_SEED,
    PROMPTS_PER_READ,
    ROWS_PER_WRITE,
    SCALE,
    TIER,
    digest,
)

REFERENCE = common.BENCH_DIR / "reference.json"

#: Bundle restores timed before the first adapt-warm sweep.
SETUP_REPEATS = 5


class _Recorder:
    """Hands an adapted model to evaluate_method and keeps its predictions."""

    def __init__(self, adapted):
        self.adapted = adapted
        self.predictions: List[str] = []

    def predict_batch(self, examples):
        self.predictions = list(self.adapted.predict_batch(examples))
        return self.predictions


def drop_memos() -> None:
    """Forget every in-process memo so artifacts are read back."""
    from repro.baselines.jellyfish import clear_bundles
    from repro.eval.harness import clear_split_cache
    from repro.tinylm import registry
    from repro.tinylm.tokenizer import HashedFeaturizer

    clear_bundles()
    registry.clear_cache()
    clear_split_cache()
    HashedFeaturizer.clear_shared_caches()
    gc.collect()


def build_bundle():
    """Build (or restore from the store) the upstream bundle; timed."""
    from repro.baselines import jellyfish

    start = time.perf_counter()
    bundle = jellyfish.get_bundle(TIER, seed=PROGRAM_SEED, scale=SCALE)
    bundle.ensure_patches()
    return bundle, time.perf_counter() - start


def adapt_dataset(bundle, dataset_id: str, rng: random.Random, probe: bool = True) -> Dict:
    """Adapt one dataset, then (``probe``) serve it reads and writes."""
    from repro.core.config import KnowTransConfig
    from repro.core.knowtrans import KnowTrans
    from repro.eval import harness
    from repro.tinylm.trainer import TrainConfig, Trainer

    start = time.perf_counter()
    splits = harness.load_splits(dataset_id, count=COUNT, seed=PROGRAM_SEED)
    adapted = KnowTrans(bundle, config=KnowTransConfig.fast()).fit(splits)
    recorder = _Recorder(adapted)
    score = harness.evaluate_method(
        recorder, splits.test.examples, adapted.task.name
    )
    adapt_s = time.perf_counter() - start
    predictions = recorder.predictions
    record = {
        "dataset": dataset_id,
        "task": adapted.task.name,
        "score": float(score),
        "digest": digest(predictions),
        "adapt_s": adapt_s,
        "read_s": [],
        "read_mismatches": 0,
        "write_s": [],
    }
    if not probe:
        return record

    task, knowledge, dataset = adapted.task, adapted.knowledge, adapted.dataset
    test = splits.test.examples
    read_s: List[float] = []
    read_mismatches = 0
    # The cold sweep leaves a large heap behind; start every dataset's
    # probes from an empty young generation so collections fall alike.
    gc.collect()
    # A read's cost follows its prompts' pool sizes, which vary tenfold
    # on qa/*; dealing whole decks keeps the mix of prompts read the same
    # for every seed, so the seed moves only how they are grouped.
    deck: List[int] = []
    for __ in range(PROBE_READS):
        while len(deck) < PROMPTS_PER_READ:
            fresh = list(range(len(test)))
            rng.shuffle(fresh)
            deck.extend(fresh)
        picks, deck = deck[:PROMPTS_PER_READ], deck[PROMPTS_PER_READ:]
        prompts = [task.prompt(test[i], knowledge) for i in picks]
        pools = [list(task.candidates(test[i], knowledge, dataset)) for i in picks]
        begin = time.perf_counter()
        chosen = adapted.model.predict_batch(prompts, pools)
        read_s.append(time.perf_counter() - begin)
        answers = [pool[j] for pool, j in zip(pools, chosen)]
        if answers != [predictions[i] for i in picks]:
            read_mismatches += 1

    train = splits.train.examples
    trainer = Trainer(
        adapted.model,
        TrainConfig(learning_rate=6e-3, batch_size=4, epochs=2, seed=PROGRAM_SEED),
        train_base=False,
    )
    write_s: List[float] = []
    for __ in range(PROBE_WRITES):
        rows = rng.sample(range(len(train)), min(ROWS_PER_WRITE, len(train)))
        labelled = [task.training_example(train[i], knowledge, dataset) for i in rows]
        begin = time.perf_counter()
        trainer.fit_incremental(labelled)
        write_s.append(time.perf_counter() - begin)

    record.update(read_s=read_s, read_mismatches=read_mismatches, write_s=write_s)
    return record


def sweep(bundle, order: List[str], seed: int, probe: bool = True) -> List[Dict]:
    """Adapt every dataset of ``order``; probe picks come from ``seed``."""
    rng = random.Random(seed)
    return [adapt_dataset(bundle, dataset_id, rng, probe) for dataset_id in order]


def _first_of_task(dataset_id: str, task: str, order: List[str], tasks: Dict[str, str]) -> bool:
    """True when no dataset of the same task precedes ``dataset_id``."""
    for other in order:
        if other == dataset_id:
            return True
        if tasks.get(other) == task:
            return False
    return False


def run(workload: str, seed: int, seconds: float, run_dir: Path,
        recorder=None) -> Dict:
    """Run adapt-cold or adapt-warm; returns metrics, checks and counts."""
    from repro import store as artifact_store
    from repro.knowledge import kb

    import template as template_store

    cold = workload == "adapt-cold"
    store_dir = run_dir / "store"
    reference = json.loads(REFERENCE.read_text())
    meta = None
    if cold:
        store_dir.mkdir(parents=True)
    else:
        template = template_store.ensure_template()
        meta = json.loads((template / "meta.json").read_text())
        common.copy_store(template / "store", store_dir)
    artifact_store.configure(cache_dir=str(store_dir))
    kb.configure(True)

    setup: List[float] = []
    records: List[Dict] = []
    order = common.sweep_order(seed)
    with _window(recorder, "setup"):
        for __ in range(1 if cold else SETUP_REPEATS):
            drop_memos()
            bundle, elapsed = build_bundle()
            setup.append(elapsed)
    started = time.perf_counter()
    sweeps = 0
    while True:
        with _window(recorder, "measure"):
            # Only the first sweep is probed: the probes take most of a
            # warm sweep, and later sweeps add adapt_p50_s samples.
            records.extend(sweep(bundle, order, seed * 1000 + sweeps, probe=sweeps == 0))
        sweeps += 1
        if sweeps == 1:
            # Later sweeps add no new peak but retain garbage at random.
            peak = common.peak_rss_mb()
        # A second cold sweep would start with warm process memos, so
        # adapt-cold measures exactly one.
        if cold or time.perf_counter() - started >= seconds:
            break
        with _window(recorder, "setup"):
            drop_memos()
            bundle, elapsed = build_bundle()
            setup.append(elapsed)

    checks: List[str] = []
    failed = 0
    ref_sets = reference["datasets"]
    ref_tasks = {d: v["task"] for d, v in ref_sets.items()}
    if meta is not None and meta["datasets"] != ref_sets:
        bad = sorted(d for d in ref_sets if meta["datasets"].get(d) != ref_sets[d])
        checks.append(f"template cold pass differs from reference.json on {bad}")
        failed += len(bad)
    for record in records:
        failed += record["read_mismatches"]
        if record["read_mismatches"]:
            checks.append(
                f"{record['dataset']}: {record['read_mismatches']} probe reads "
                "differ from evaluate_method's predictions"
            )
        name = record["dataset"]
        expected = None
        if meta is not None:
            expected = meta["datasets"].get(name)
        elif seed == common.DEFAULT_SEED or (
            _first_of_task(name, record["task"], order, ref_tasks)
            and _first_of_task(name, record["task"], reference["order"], ref_tasks)
        ):
            expected = ref_sets.get(name)
        got = {"task": record["task"], "score": record["score"], "digest": record["digest"]}
        if expected is not None and got != expected:
            failed += 1
            checks.append(f"{name}: got {got}, expected {expected}")

    adapt_s = [r["adapt_s"] for r in records]
    reads = [x for r in records for x in r["read_s"]]
    writes = [x for r in records for x in r["write_s"]]

    def per_dataset(key: str, statistic) -> float:
        """Geometric mean over datasets of ``statistic`` of their samples.

        Read and write costs differ tenfold between datasets, so a
        quantile of the pooled samples falls between two datasets and
        jumps with either; each dataset's own quantile is steady.
        """
        samples: Dict[str, List[float]] = {}
        for r in records:
            samples.setdefault(r["dataset"], []).extend(r[key])
        logs = [math.log(statistic(v)) for v in samples.values()]
        return math.exp(sum(logs) / len(logs))

    def tail(values: List[float]) -> float:
        return common.hd_quantile(values, common.tail_quantile(len(values)))

    last = records[-len(order):]
    metrics = {
        "setup_s": (common.median(setup), len(setup)),
        "adapt_p50_s": (common.hd_quantile(adapt_s, 0.5), len(adapt_s)),
        "datasets_per_min": (60.0 * len(adapt_s) / sum(adapt_s), len(adapt_s)),
        "quality_mean": (
            sum(r["score"] for r in sorted(last, key=lambda r: r["dataset"])) / len(last),
            len(last),
        ),
        "serve_p50_ms": (1000.0 * per_dataset("read_s", common.median), len(reads)),
        "serve_p95_ms": (1000.0 * per_dataset("read_s", tail), len(reads)),
        "serve_goodput_rps": (
            sum(1 for x in reads if x * 1000.0 <= common.P95_LIMIT_MS) / sum(reads),
            len(reads),
        ),
        "stream_update_p50_ms": (
            1000.0 * per_dataset("write_s", common.median), len(writes)
        ),
        "peak_rss_mb": (peak, 1),
    }
    return {
        "metrics": metrics,
        "attempted": len(records) + len(reads) + len(writes),
        "failed": failed,
        "checks": checks,
        "notes": {"sweeps": sweeps, "order": order},
        "reads": len(reads),
        "writes": len(writes),
    }


class _window:
    """Marks a measured phase for the traced run (no-op untraced)."""

    def __init__(self, recorder, label: str):
        self.recorder, self.label = recorder, label

    def __enter__(self):
        if self.recorder is not None:
            self.recorder.open(self.label)

    def __exit__(self, *exc):
        if self.recorder is not None:
            self.recorder.close()
