"""Shared plumbing for the benchmark: environment, paths, workloads, stats.

Import this module before anything that imports numpy: ``pin_environment``
must run before the BLAS library reads its thread settings.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

# The `repro adapt` defaults every workload runs with.
TIER = "mistral-7b"
PROGRAM_SEED = 0
COUNT = 200
SCALE = 0.6

#: The workload seed whose adapt outputs are pinned by reference.json;
#: the template store is also filled in this seed's dataset order.
DEFAULT_SEED = 0

#: serve-mixed tenants: four tasks sharing one upstream backbone.
TENANTS = (
    ("t-em", "em/abt_buy"),
    ("t-ed", "ed/rayyan"),
    ("t-di", "di/phone"),
    ("t-cta", "cta/sotab"),
)
HOT_TENANT = "t-em"
WRITER_TENANT = "t-cta"

#: The p95 latency limit a read must meet to count towards goodput.
P95_LIMIT_MS = 250.0

#: Per-dataset read/write probes on the adapt workloads: 240 reads of 4
#: deal each 80-example test set out exactly 12 times.
PROBE_READS = 240
PROMPTS_PER_READ = 4
PROBE_WRITES = 6
ROWS_PER_WRITE = 8

#: Thread settings pinned for the program; BLAS threading alone moves
#: inference timings several-fold.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def pin_environment() -> None:
    """Drop every REPRO_* setting and pin BLAS threads to one."""
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]
    os.environ.update(PINNED_ENV)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def environment_record() -> Dict[str, object]:
    """What a reader needs to compare two results' machines."""
    import numpy as np

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):  # older numpy: no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "repro_jobs": os.environ.get("REPRO_JOBS", "unset"),
    }


def dataset_ids() -> List[str]:
    from repro.data import generators

    return list(generators.generator_names())


def sweep_order(seed: int) -> List[str]:
    """The seed's permutation of every registered downstream dataset."""
    ids = sorted(dataset_ids())
    random.Random(seed).shuffle(ids)
    return ids


def digest(values: Iterable[object]) -> str:
    blob = json.dumps(list(values), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def source_key() -> str:
    """Content hash of the program and of the template recipe."""
    hasher = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        hasher.update(str(path.relative_to(SRC)).encode())
        hasher.update(path.read_bytes())
    for name in ("common.py", "adapt.py", "template.py"):
        hasher.update((BENCH_DIR / name).read_bytes())
    return hasher.hexdigest()[:16]


def copy_store(template: Path, dest: Path) -> Path:
    if dest.exists():
        shutil.rmtree(dest)
    shutil.copytree(template, dest)
    return dest


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def hd_quantile(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile, ``q`` in (0, 1).

    A Beta(q(n+1), (1-q)(n+1))-weighted mean of every order statistic
    instead of the two ``percentile`` interpolates between.  A tail
    quantile then does not jump when one sample crosses it, so it
    spreads less from run to run on the same traffic.
    """
    import numpy as np

    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    if n == 0:
        return math.nan
    if n == 1:
        return float(ordered[0])
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    # The Beta CDF at i/n, by integrating the density on a fine grid.
    grid = np.linspace(0.0, 1.0, 200 * n + 1)[1:-1]
    log_pdf = (a - 1.0) * np.log(grid) + (b - 1.0) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0)))
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, grid, cdf)
    return float(np.dot(np.diff(edges), ordered))


def tail_quantile(count: int, wanted: float = 0.95) -> float:
    """The highest quantile up to ``wanted`` keeping >= 10 samples beyond."""
    if count <= 0:
        return 0.5
    return max(0.5, min(wanted, 1.0 - 10.0 / count))


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else math.nan
