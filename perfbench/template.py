"""The filled store that adapt-warm and serve-mixed start from.

The code under test builds it once per source tree, in a child process,
from an empty store: the adapt-cold pipeline in the default seed's
dataset order, then registration of the serve-mixed tenants.  The
template lives under ``.work/`` keyed by a hash of ``src/`` and of this
recipe, so a program change rebuilds it and no store bytes are
committed.  Every measured run works on its own copy.

    python3 perfbench/template.py OUT_DIR
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import common

common.pin_environment()


def template_dir() -> Path:
    return common.WORK / f"template-{common.source_key()}"


def ensure_template() -> Path:
    """Path of the template for this source tree, building it if absent."""
    final = template_dir()
    if (final / "meta.json").is_file():
        return final
    common.WORK.mkdir(parents=True, exist_ok=True)
    for stale in common.WORK.glob("template-*"):
        shutil.rmtree(stale, ignore_errors=True)
    building = common.WORK / f"building-{os.getpid()}"
    shutil.rmtree(building, ignore_errors=True)
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), str(building)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        shutil.rmtree(building, ignore_errors=True)
        raise RuntimeError(f"template build failed:\n{proc.stderr[-4000:]}")
    try:
        os.replace(building, final)
    except OSError:
        # Another run finished the same template first; keep theirs.
        shutil.rmtree(building, ignore_errors=True)
        if not (final / "meta.json").is_file():
            raise
    return final


def build(out: Path) -> None:
    from repro import store as artifact_store
    from repro.knowledge import kb
    from repro.serve import TenantRegistry

    import adapt

    out.mkdir(parents=True)
    artifact_store.configure(cache_dir=str(out / "store"))
    kb.configure(True)
    started = time.perf_counter()
    bundle, bundle_s = adapt.build_bundle()
    order = common.sweep_order(common.DEFAULT_SEED)
    records = adapt.sweep(bundle, order, common.DEFAULT_SEED, probe=False)
    # The daemon registers tenants in a fresh process, where
    # register_adapted builds the bundle with its own SKC config; drop
    # the memos so the store gets exactly the artifacts it will read.
    adapt.drop_memos()
    registry = TenantRegistry()
    for tenant, dataset_id in common.TENANTS:
        registry.register_adapted(
            tenant, dataset_id, tier=common.TIER,
            seed=common.PROGRAM_SEED, scale=common.SCALE,
        )
    meta = {
        "order": order,
        "bundle_s": bundle_s,
        "build_s": time.perf_counter() - started,
        "datasets": {
            r["dataset"]: {"task": r["task"], "score": r["score"], "digest": r["digest"]}
            for r in records
        },
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=1, sort_keys=True))


if __name__ == "__main__":
    build(Path(sys.argv[1]))
