"""Tests for repro.serve — registry, hot-swap parity, protocol, batching."""

import json
import socket

import numpy as np
import pytest

from repro import obs
from repro.perf import PERF
from repro.serve import (
    ServeClient,
    ServerThread,
    TenantRegistry,
    build_demo_registry,
    build_workload,
    drive_clients,
    offline_reference,
    run_smoke,
)
from repro.tinylm.model import ModelConfig, ScoringLM


@pytest.fixture(scope="module")
def registry():
    return build_demo_registry(tenants=2, seed=0, n_patches=3, rank=4)


@pytest.fixture(scope="module")
def workload(registry):
    return build_workload(registry, requests=8, prompts_per_request=3, seed=0)


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_duplicate_backbone_object_is_idempotent(self):
        registry = TenantRegistry()
        model = ScoringLM(ModelConfig(name="reg", feature_dim=64, hidden_dim=8))
        assert registry.add_backbone("b", model) is model
        assert registry.add_backbone("b", model) is model
        with pytest.raises(ValueError):
            registry.add_backbone("b", model.clone())

    def test_entry_requires_known_backbone(self):
        registry = TenantRegistry()
        with pytest.raises(KeyError):
            registry.add_entry("t", "d", "em", None, backbone="missing")

    def test_duplicate_entry_rejected(self, registry):
        entry = next(iter(registry.entries.values()))
        with pytest.raises(ValueError):
            registry.add_entry(
                entry.tenant, entry.dataset, entry.task, None, entry.backbone
            )

    def test_ensure_attached_skips_resident_adapter(self, registry):
        first, second = list(registry.entries.values())[:2]
        backbone, swapped = registry.ensure_attached(first)
        assert backbone.adapter is first.adapter
        version = backbone._adapter_version
        __, swapped = registry.ensure_attached(first)
        assert swapped is False
        # The no-op path must not bump the version: that would
        # invalidate the effective-weight memo and re-materialise the
        # fusion deltas on every same-tenant dispatch.
        assert backbone._adapter_version == version
        __, swapped = registry.ensure_attached(second)
        assert swapped is True
        assert backbone.adapter is second.adapter

    def test_load_tier_unknown_raises(self):
        with pytest.raises(KeyError):
            TenantRegistry().load_tier("not-a-tier")


# ----------------------------------------------------------------------
# Hot-swap correctness: shared backbone == isolated per-tenant models
# ----------------------------------------------------------------------
class TestHotSwapParity:
    def test_interleaved_swaps_match_isolated_models(self, registry, workload):
        """Interleaved attach/predict across two tenants on one shared
        backbone must be bit-identical to two fully isolated models."""
        entries = {e.tenant: e for e in registry.entries.values()}
        shared = registry.backbones["serve-demo"]
        isolated = {}
        for tenant, entry in entries.items():
            model = shared.clone()
            model.detach()
            model.attach(entry.adapter)
            isolated[tenant] = model
        for item in workload:  # tenant-alternating by construction
            entry = entries[item["tenant"]]
            backbone, __ = registry.ensure_attached(entry)
            got = backbone.predict_batch(item["prompts"], item["pools"])
            want = isolated[item["tenant"]].predict_batch(
                item["prompts"], item["pools"]
            )
            assert got == want

    def test_reattaching_unchanged_entry_materializes_nothing(self):
        registry = build_demo_registry(tenants=2, seed=5, n_patches=2)
        first, second = registry.entries.values()
        item = build_workload(registry, requests=1, seed=5)[0]
        for entry in (first, second):  # each tenant materialises once
            backbone, __ = registry.ensure_attached(entry)
            backbone.predict_batch(item["prompts"], item["pools"])
        before = PERF.counter("model.weight_materializations")
        for entry in (first, second, first):
            backbone, swapped = registry.ensure_attached(entry)
            assert swapped
            backbone.predict_batch(item["prompts"], item["pools"])
        assert PERF.counter("model.weight_materializations") == before

    def test_detach_restores_base_predictions(self):
        registry = build_demo_registry(tenants=1, seed=3, n_patches=2)
        backbone = registry.backbones["serve-demo"]
        base = backbone.clone()
        base.detach()
        entry = next(iter(registry.entries.values()))
        base_entry = registry.add_entry(
            "base-tenant", entry.dataset, entry.task, None, entry.backbone
        )
        workload = build_workload(registry, requests=2, seed=3)
        item = workload[0]
        registry.ensure_attached(entry)
        backbone.predict_batch(item["prompts"], item["pools"])
        registry.ensure_attached(base_entry)
        assert backbone.adapter is None
        got = backbone.predict_batch(item["prompts"], item["pools"])
        assert got == base.predict_batch(item["prompts"], item["pools"])


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_ping_stats_and_errors(self, registry, workload):
        with ServerThread(registry, max_batch=8, max_wait_ms=2.0) as server:
            with ServeClient("127.0.0.1", server.port) as client:
                assert client.ping()

                response = client.request({"op": "nonsense"})
                assert not response["ok"] and "unknown op" in response["error"]

                response = client.request(
                    {"op": "predict", "tenant": "nobody", "dataset": "x",
                     "task": "em", "prompts": ["p"], "pools": [["a"]]}
                )
                assert not response["ok"]
                assert "unknown entry" in response["error"]

                item = workload[0]
                response = client.request(
                    {"op": "predict", "tenant": item["tenant"],
                     "dataset": item["dataset"], "task": item["task"],
                     "prompts": item["prompts"], "pools": []}
                )
                assert not response["ok"]  # length mismatch

                response = client.predict(
                    item["tenant"], item["dataset"], item["task"],
                    item["prompts"], item["pools"],
                )
                assert response["ok"]
                assert len(response["predictions"]) == len(item["prompts"])
                assert response["answers"] == [
                    item["pools"][i][p]
                    for i, p in enumerate(response["predictions"])
                ]

                stats = client.stats()
                assert stats["requests"] == 1  # errors never reach the queue
                assert stats["batches"] == 1
                assert [e["tenant"] for e in stats["entries"]]

    def test_malformed_line_gets_error_not_disconnect(self, registry):
        with ServerThread(registry) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=30
            ) as raw:
                raw.sendall(b"this is not json\n")
                reply = json.loads(raw.makefile("rb").readline())
                assert not reply["ok"]
                assert "malformed" in reply["error"]

    def test_shutdown_op_stops_server(self, registry):
        server = ServerThread(registry).start()
        with ServeClient("127.0.0.1", server.port) as client:
            client.shutdown()
        server._thread.join(timeout=30)
        assert not server._thread.is_alive()

    def test_startup_failure_surfaces(self, registry):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        port = blocker.getsockname()[1]
        try:
            with pytest.raises(RuntimeError):
                ServerThread(registry, port=port).start()
        finally:
            blocker.close()


# ----------------------------------------------------------------------
# Continuous batching: coalesced results == offline oracle
# ----------------------------------------------------------------------
class TestBatching:
    def test_concurrent_load_matches_offline(self, registry, workload):
        offline = offline_reference(registry, workload)
        with ServerThread(registry, max_batch=16, max_wait_ms=15.0) as server:
            responses, latencies = drive_clients(
                "127.0.0.1", server.port, workload, clients=4
            )
            with ServeClient("127.0.0.1", server.port) as probe:
                stats = probe.stats()
        for i, response in enumerate(responses):
            assert response["ok"]
            assert response["predictions"] == offline[i]
        assert stats["requests"] == len(workload)
        assert stats["mean_batch_size"] > 1.0  # coalescing engaged
        assert all(lat > 0.0 for lat in latencies)

    def test_sequential_server_also_matches_offline(self, registry, workload):
        offline = offline_reference(registry, workload)
        with ServerThread(registry, max_batch=1, max_wait_ms=0.0) as server:
            responses, __ = drive_clients(
                "127.0.0.1", server.port, workload, clients=1
            )
        assert [r["predictions"] for r in responses] == offline

    def test_smoke_runner(self):
        result = run_smoke(clients=3, requests=6, prompts_per_request=2)
        assert result["ok"] and result["predictions_identical"]


# ----------------------------------------------------------------------
# Tracing through the request path
# ----------------------------------------------------------------------
class TestServeTracing:
    def test_spans_cover_the_request_path(self, tmp_path):
        registry = build_demo_registry(tenants=2, seed=1, n_patches=2)
        workload = build_workload(registry, requests=6, seed=1)
        tracer = obs.Tracer(tmp_path / "serve.jsonl")
        with obs.using_tracer(tracer):
            with ServerThread(
                registry, max_batch=8, max_wait_ms=10.0
            ) as server:
                drive_clients(
                    "127.0.0.1", server.port, workload, clients=3
                )
        spans = {s["name"]: s for s in tracer.spans}
        assert {"serve.run", "serve.batch", "serve.predict",
                "serve.request"} <= set(spans)
        by_id = {s["id"]: s for s in tracer.spans}
        run_id = spans["serve.run"]["id"]
        requests = [s for s in tracer.spans if s["name"] == "serve.request"]
        assert len(requests) == len(workload)
        for request in requests:
            batch = by_id[request["parent"]]
            assert batch["name"] == "serve.batch"
            assert batch["parent"] == run_id
        histograms = {name for name, __ in tracer.histograms}
        assert "serve.queue_wait_ms" in histograms
        assert "serve.batch_size" in histograms
        gauge_names = {name for name, __ in tracer.gauges}
        assert "model.cache_size" in gauge_names

    def test_untraced_serving_records_nothing(self, registry, workload):
        # obs disabled: record_span/new_span_id must no-op, not crash.
        assert obs.new_span_id() is None
        with ServerThread(registry) as server:
            responses, __ = drive_clients(
                "127.0.0.1", server.port, workload[:2], clients=1
            )
        assert all(r["ok"] for r in responses)


# ----------------------------------------------------------------------
# Streaming updates
# ----------------------------------------------------------------------
class TestStreamUpdate:
    """The stream_update op: in-place online training of live tenants."""

    def _fresh(self):
        # stream_update mutates adapters in place; never share the
        # module-scoped registry.
        return build_demo_registry(tenants=2, seed=7, n_patches=2, rank=4)

    @staticmethod
    def _workload(n=6):
        prompts = [f"match record {i} color red" for i in range(n)]
        pools = [["yes", "no"] for _ in range(n)]
        return prompts, pools

    def test_update_trains_resident_adapter_in_place(self):
        registry = self._fresh()
        prompts, pools = self._workload()
        with ServerThread(registry, max_batch=8) as server:
            client = ServeClient("127.0.0.1", server.port)
            client.predict("tenant0", "em/abt_buy", "em", prompts, pools)
            response = client.stream_update(
                "tenant0", "em/abt_buy", "em", prompts, pools, [0] * 6,
                epochs=4, learning_rate=5e-2,
            )
            assert response["resident_memo_invalidated"] is True
            assert response["stream_rows"] == 6
            assert response["stream_batches"] == 1
            after = client.predict(
                "tenant0", "em/abt_buy", "em", prompts, pools
            )["predictions"]
            assert after == [0] * 6
            assert client.stats()["stream_updates"] == 1
            client.shutdown()
            client.close()

    def test_non_resident_update_preserves_memo(self):
        registry = self._fresh()
        prompts, pools = self._workload()
        backbone = registry.backbones["serve-demo"]
        with ServerThread(registry, max_batch=8) as server:
            client = ServeClient("127.0.0.1", server.port)
            # make tenant1 resident, then train tenant0 behind its back
            before = client.predict(
                "tenant1", "em/abt_buy", "em", prompts, pools
            )["predictions"]
            version = backbone._adapter_version
            response = client.stream_update(
                "tenant0", "em/abt_buy", "em", prompts, pools, [0] * 6
            )
            assert response["resident_memo_invalidated"] is False
            assert backbone._adapter_version == version
            assert backbone.adapter is registry.entries[
                ("tenant1", "em/abt_buy", "em")
            ].adapter
            again = client.predict(
                "tenant1", "em/abt_buy", "em", prompts, pools
            )["predictions"]
            assert again == before
            client.shutdown()
            client.close()

    def test_update_behind_resident_tenant_drops_its_weights(self):
        """Swapping back to a tenant trained while another was resident
        must serve the trained adapter, not its pre-update weights."""
        registry = self._fresh()
        prompts, pools = self._workload()
        backbone = registry.backbones["serve-demo"]
        trained = registry.entries[("tenant0", "em/abt_buy", "em")]
        with ServerThread(registry, max_batch=8) as server:
            client = ServeClient("127.0.0.1", server.port)
            # tenant0's weights get kept, then tenant1 becomes resident
            client.predict("tenant0", "em/abt_buy", "em", prompts, pools)
            client.predict("tenant1", "em/abt_buy", "em", prompts, pools)
            response = client.stream_update(
                "tenant0", "em/abt_buy", "em", prompts, pools, [0] * 6,
                epochs=4, learning_rate=5e-2,
            )
            assert response["resident_memo_invalidated"] is False
            client.predict("tenant0", "em/abt_buy", "em", prompts, pools)
            assert backbone.adapter is trained.adapter
            served = backbone.logits_batch(prompts, pools)
            client.shutdown()
            client.close()
        isolated = backbone.clone()
        isolated.attach(trained.adapter)
        want = isolated.logits_batch(prompts, pools)
        assert len(served) == len(want)
        for got, expected in zip(served, want):
            assert np.array_equal(got, expected)

    def test_updates_accumulate_stream_state(self):
        registry = self._fresh()
        prompts, pools = self._workload()
        with ServerThread(registry, max_batch=8) as server:
            client = ServeClient("127.0.0.1", server.port)
            first = client.stream_update(
                "tenant0", "em/abt_buy", "em", prompts, pools, [0] * 6
            )
            second = client.stream_update(
                "tenant0", "em/abt_buy", "em",
                prompts[:3], pools[:3], [1, 1, 1],
            )
            assert (first["stream_rows"], first["stream_batches"]) == (6, 1)
            assert (second["stream_rows"], second["stream_batches"]) == (9, 2)
            assert client.stats()["stream_updates"] == 2
            client.shutdown()
            client.close()

    def test_error_paths(self):
        registry = self._fresh()
        registry.add_entry(
            tenant="base", dataset="d", task="t",
            adapter=None, backbone="serve-demo",
        )
        prompts, pools = self._workload(2)
        with ServerThread(registry, max_batch=8) as server:
            client = ServeClient("127.0.0.1", server.port)
            unknown = client.request({
                "op": "stream_update", "tenant": "nope", "dataset": "d",
                "task": "t", "prompts": prompts, "pools": pools,
                "targets": [0, 0],
            })
            assert not unknown["ok"] and "unknown entry" in unknown["error"]
            base_tier = client.request({
                "op": "stream_update", "tenant": "base", "dataset": "d",
                "task": "t", "prompts": prompts, "pools": pools,
                "targets": [0, 0],
            })
            assert not base_tier["ok"]
            assert "no adapter" in base_tier["error"]
            ragged = client.request({
                "op": "stream_update", "tenant": "tenant0",
                "dataset": "em/abt_buy", "task": "em",
                "prompts": prompts, "pools": pools, "targets": [0],
            })
            assert not ragged["ok"] and "parallel" in ragged["error"]
            out_of_range = client.request({
                "op": "stream_update", "tenant": "tenant0",
                "dataset": "em/abt_buy", "task": "em",
                "prompts": prompts, "pools": pools, "targets": [0, 9],
            })
            assert not out_of_range["ok"]
            assert "out of range" in out_of_range["error"]
            client.shutdown()
            client.close()
