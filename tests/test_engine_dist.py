"""Distributed backend: wire protocol framing, work-unit serialization,
2-worker parity with the serial backend, and fault tolerance — a worker
killed mid-run is requeued onto the survivors with an identical table,
and exhausting the attempt cap raises an error naming the unit."""

import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.engine import (
    DistRunError,
    ExperimentRunner,
    ExperimentSpec,
    ExperimentTable,
    RunManifest,
    RunObserver,
    SimResult,
    Simulator,
    TraceCache,
    Worker,
    register_simulator,
)
from repro.engine.dist import (
    ConnectionClosed,
    ProtocolError,
    build_units,
    execute_unit,
    message,
    parse_address,
    recv_message,
    send_message,
)
from repro.engine.dist import protocol as protocol_module
from repro.engine.dist.coordinator import DistBackend
from repro.engine.registry import SIMULATORS
from repro.engine.runner import FrameProvider
from repro.engine.settings import BACKEND_ENV_VAR

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def start_worker_thread(port: int, **kwargs) -> Worker:
    kwargs.setdefault("retry_seconds", 30.0)
    worker = Worker(("127.0.0.1", port), **kwargs)
    threading.Thread(target=worker.run, daemon=True).start()
    return worker


def dist_spec(**overrides) -> ExperimentSpec:
    fields = dict(
        name="dist-test",
        simulators=["spade-he", "dense-he"],
        models=["SPP2", "SPP3"],
        scenarios=[{"name": "a", "seed": 0}, {"name": "b", "seed": 9}],
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


def serial_projection(spec: ExperimentSpec) -> ExperimentTable:
    """The serial table as the JSON wire schema projects it — the
    distributed backend's documented row contract."""
    table = spec.build_runner().run(backend="serial")
    return ExperimentTable.from_json(table.to_json())


class TestProtocol:
    def test_round_trip(self):
        left, right = socket.socketpair()
        try:
            payload = message("unit", unit=3,
                              groups=[{"index": 0, "spec": {"a": [1, 2]}}])
            send_message(left, payload)
            send_message(left, message("heartbeat"))
            assert recv_message(right) == payload
            assert recv_message(right) == {"type": "heartbeat"}
        finally:
            left.close()
            right.close()

    def test_closed_connection(self):
        left, right = socket.socketpair()
        left.close()
        with pytest.raises(ConnectionClosed):
            recv_message(right)
        right.close()

    def test_truncated_frame(self):
        left, right = socket.socketpair()
        left.sendall(struct.pack(">I", 100) + b"short")
        left.close()
        with pytest.raises(ConnectionClosed):
            recv_message(right)
        right.close()

    def test_oversized_frame_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(
                ">I", protocol_module.MAX_MESSAGE_BYTES + 1
            ))
            with pytest.raises(ProtocolError, match="byte"):
                recv_message(right)
        finally:
            left.close()
            right.close()

    def test_non_object_payload_rejected(self):
        left, right = socket.socketpair()
        try:
            body = b"[1, 2, 3]"
            left.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(ProtocolError, match="type"):
                recv_message(right)
        finally:
            left.close()
            right.close()

    def test_parse_address(self):
        assert parse_address("example.com:7463") == ("example.com", 7463)
        assert parse_address("127.0.0.1:80") == ("127.0.0.1", 80)
        for bad in ("no-port", ":7463", "host:", "host:x", "host:0"):
            with pytest.raises(ValueError, match="HOST:PORT|port"):
                parse_address(bad)

    def test_malformed_json_frame_rejected(self):
        left, right = socket.socketpair()
        try:
            body = b'{"type": "hello",'
            left.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(ProtocolError, match="malformed"):
                recv_message(right)
        finally:
            left.close()
            right.close()


class TestAuthDigest:
    """The HMAC helpers behind the coordinator's ``challenge``."""

    def test_nonces_are_fresh_hex(self):
        nonces = {protocol_module.auth_nonce() for _ in range(16)}
        assert len(nonces) == 16
        for nonce in nonces:
            assert len(nonce) == 32
            int(nonce, 16)

    def test_matching_digest_verifies(self):
        digest = protocol_module.auth_digest("hush", "abc123")
        assert protocol_module.verify_digest("hush", "abc123", digest)

    @pytest.mark.parametrize("digest", [
        protocol_module.auth_digest("wrong-token", "abc123"),
        protocol_module.auth_digest("hush", "other-nonce"),
        protocol_module.auth_digest("hush", "abc123")[:-1],
        None,
        "",
        12345,
    ], ids=["wrong-token", "wrong-nonce", "truncated", "none", "empty",
            "not-text"])
    def test_bad_digest_is_refused(self, digest):
        assert not protocol_module.verify_digest("hush", "abc123", digest)


class TestUnitSerialization:
    def test_units_are_valid_specs(self):
        spec = dist_spec()
        runner = spec.build_runner()
        units = build_units(runner, runner.plan(), chunksize=1)
        assert len(units) == 4                     # 2 scenarios x 2 models
        for unit in units:
            assert len(unit["groups"]) == 1
            rebuilt = ExperimentSpec.from_dict(unit["groups"][0]["spec"])
            assert rebuilt.backend == "serial"
            assert [str(s) for s in rebuilt.simulators] \
                == ["spade-he", "dense-he"]
        labels = [unit["label"] for unit in units]
        assert labels == ["a/SPP2", "a/SPP3", "b/SPP2", "b/SPP3"]

    def test_cell_filter_is_baked_into_units(self):
        spec = dist_spec(
            cells=[{"model": "SPP2", "simulator": "SPADE*"},
                   {"model": "SPP3"}],
        )
        runner = spec.build_runner()
        units = build_units(runner, runner.plan(), chunksize=1)
        by_model = {
            unit["groups"][0]["spec"]["models"][0]:
                unit["groups"][0]["spec"]["simulators"]
            for unit in units
        }
        assert by_model["SPP2"] == ["spade-he"]
        assert by_model["SPP3"] == ["spade-he", "dense-he"]
        for unit in units:
            assert unit["groups"][0]["spec"]["cells"] == []

    def test_chunksize_groups_units(self):
        spec = dist_spec()
        runner = spec.build_runner()
        units = build_units(runner, runner.plan(), chunksize=3)
        assert [len(unit["groups"]) for unit in units] == [3, 1]
        assert units[0]["label"] == "a/SPP2, a/SPP3, b/SPP2"

    def test_execute_unit_matches_serial(self):
        spec = dist_spec(models=["SPP3"], scenarios=[{"name": "a",
                                                      "seed": 0}])
        runner = spec.build_runner()
        units = build_units(runner, runner.plan(), chunksize=1)
        out = execute_unit(units[0]["groups"], TraceCache(),
                           {"synthetic": FrameProvider()})
        rows = [
            # The wire records round-trip through the table schema.
            row for row in ExperimentTable.from_json(
                {"schema": "repro.ExperimentTable", "version": 1,
                 "results": out["0"]}
            )
        ]
        expected = serial_projection(spec).results
        assert rows == expected


class TestDistParity:
    def test_two_workers_match_serial_row_for_row(self):
        """Acceptance: a 2-worker dist run reproduces the serial table
        row for row (and byte for byte in CSV/JSON form)."""
        spec = dist_spec()
        port = free_port()
        for index in range(2):
            start_worker_thread(port, worker_id=f"w{index}")
        backend = DistBackend(port=port, start_timeout=30)
        events = []
        table = spec.build_runner().run(
            backend=backend,
            progress=lambda done, total, elapsed:
                events.append((done, total)),
        )
        expected = serial_projection(spec)
        assert len(table) == len(expected) == 8
        for left, right in zip(expected, table):
            assert left == right
        assert table.to_csv() == spec.build_runner().run(
            backend="serial").to_csv()
        # Progress reported through the same seam as every backend.
        assert events[-1] == (4, 4)
        stats = backend.last_coordinator.stats
        assert stats["units"] == 4
        assert stats["worker_failures"] == 0

    def test_batched_scenarios_match_serial(self):
        spec = dist_spec(
            models=["SPP3"],
            scenarios=[{"name": "drive", "seed": 3, "frames": 2}],
        )
        port = free_port()
        start_worker_thread(port)
        table = spec.build_runner().run(
            backend=DistBackend(port=port, start_timeout=30))
        expected = serial_projection(spec)
        assert len(table) == len(expected) == 6   # 2 sims x (2 + mean)
        for left, right in zip(expected, table):
            assert left == right

    def test_delta_trace_matches_serial(self, tmp_path, monkeypatch):
        """With delta tracing on, the dist CSV is byte-identical to the
        serial run's — the worker traces each sequential chain (frame 0
        full, frame 1 patched) into the shared disk tier under the same
        content keys the serial run uses."""
        monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path))
        spec = dist_spec(
            models=["SPP3"],
            scenarios=[{"name": "drive", "seed": 3, "frames": 2}],
            delta_trace=True,
        )
        expected = spec.build_runner().run(backend="serial").to_csv()
        port = free_port()
        start_worker_thread(port)
        table = spec.build_runner().run(
            backend=DistBackend(port=port, start_timeout=30))
        assert table.to_csv() == expected
        # One artifact per chain frame, under the unchanged content keys.
        assert len(list(tmp_path.glob("*.trace.pkl"))) == 2

    @pytest.mark.parametrize("source", ["env", "cache-dir"])
    def test_workers_write_the_runs_cache_tier(self, tmp_path,
                                               monkeypatch, source):
        """The run's cache tier reaches the workers through the
        welcome, whether REPRO_TRACE_CACHE_DIR or the runner's
        ``cache_dir`` names it: the workers trace one artifact per
        unique frame into it."""
        monkeypatch.delenv("REPRO_TRACE_CACHE_DIR", raising=False)
        overrides = {}
        if source == "env":
            monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path))
        else:
            overrides["cache_dir"] = str(tmp_path)
        spec = dist_spec(
            models=["SPP3"],
            scenarios=[{"name": "a", "seed": 0, "frames": 2},
                       {"name": "b", "seed": 9}],
        )
        port = free_port()
        worker = start_worker_thread(port)
        table = spec.build_runner(**overrides).run(
            backend=DistBackend(port=port, start_timeout=30))
        assert worker.units_done == 2
        assert len(list(tmp_path.glob("*.trace.pkl"))) == 3
        assert table.to_csv() == serial_projection(spec).to_csv()


class TestManifestCacheCounters:
    """Process and dist manifests count the trace lookups, misses and
    layers their workers did, exactly as a serial run counts its own."""

    @staticmethod
    def _cache(spec, backend):
        runner = spec.build_runner(cache_dir=None, workers=2)
        observer = RunObserver()
        table = runner.run(backend=backend, observer=observer)
        return RunManifest.collect(runner, table,
                                   observer=observer).cache

    @pytest.mark.parametrize("delta_trace", [False, True],
                             ids=["full", "delta"])
    @pytest.mark.parametrize("backend", ["process", "dist"])
    def test_counters_match_serial(self, monkeypatch, backend,
                                   delta_trace):
        monkeypatch.delenv("REPRO_TRACE_CACHE_DIR", raising=False)
        # Two groups of two sequential frames: a two-process pool, or
        # one loopback worker serving both units.
        spec = dist_spec(
            models=["SPP3"], delta_trace=delta_trace,
            scenarios=[{"name": "a", "seed": 0, "frames": 2},
                       {"name": "b", "seed": 9, "frames": 2}],
        )
        expected = self._cache(spec, "serial")
        if backend == "dist":
            port = free_port()
            start_worker_thread(port)
            backend = DistBackend(port=port, start_timeout=30)
        got = self._cache(spec, backend)

        def lookups(cache):
            return cache["hits"] + cache["disk_hits"] + cache["misses"]

        assert lookups(expected) == 4
        assert lookups(got) == lookups(expected)
        for key in ("full_layers", "delta_layers"):
            assert got[key] == expected[key], key
        assert (expected["delta_layers"] > 0) == delta_trace


class _FailSim(Simulator):
    name = "FailSim"

    def run(self, trace):
        raise RuntimeError("injected simulator failure")


class _SleepSim(Simulator):
    name = "SleepSim"

    def run(self, trace):
        time.sleep(2.0)
        return SimResult(simulator=self.name, model=trace.spec.name)


@pytest.fixture
def fail_family():
    register_simulator("failsim", lambda: _FailSim(), overwrite=True)
    yield
    SIMULATORS.unregister("failsim")


@pytest.fixture
def sleep_family():
    register_simulator("sleepsim", lambda: _SleepSim(), overwrite=True)
    yield
    SIMULATORS.unregister("sleepsim")


class TestFaultTolerance:
    def test_worker_killed_mid_run_is_requeued(self):
        """Acceptance: SIGKILLing a worker mid-sweep requeues its unit
        onto the survivor and the table still matches serial."""
        spec = dist_spec(
            scenarios=[{"name": "a", "seed": 0, "frames": 2},
                       {"name": "b", "seed": 9, "frames": 2}],
        )
        port = free_port()
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH",
                                                           "")
        command = [sys.executable, "-m", "repro", "worker",
                   "--connect", f"127.0.0.1:{port}",
                   "--retry-seconds", "60"]
        workers = [
            subprocess.Popen(command, env=env,
                             stderr=subprocess.DEVNULL)
            for _ in range(2)
        ]
        # Workers trace their own units, so every unit is long enough
        # to be killed mid-flight.
        backend = DistBackend(port=port, start_timeout=60,
                              max_attempts=5)
        killed = []

        def kill_first_busy_worker():
            while not killed:
                coordinator = backend.last_coordinator
                if coordinator is not None:
                    for snap in coordinator.worker_snapshot():
                        if snap["inflight"] is not None and snap["pid"]:
                            os.kill(snap["pid"], signal.SIGKILL)
                            killed.append(snap["pid"])
                            return
                time.sleep(0.005)

        threading.Thread(target=kill_first_busy_worker,
                         daemon=True).start()
        observer = RunObserver()
        runner = spec.build_runner()
        try:
            table = runner.run(backend=backend, observer=observer)
        finally:
            for worker in workers:
                worker.kill()
                worker.wait()
        assert killed, "the watcher never saw a busy worker"
        expected = serial_projection(spec)
        # 4 groups x 2 simulators x (2 frames + the mean row)
        assert len(table) == len(expected) == 24
        for left, right in zip(expected, table):
            assert left == right
        stats = backend.last_coordinator.stats
        assert stats["worker_failures"] >= 1
        assert stats["requeues"] >= 1
        # Manifest parity: per-unit stats stay complete through the
        # kill/requeue — exactly one record per group (the first
        # accepted result), each timed, attributed and row-counted.
        manifest = RunManifest.collect(runner, table,
                                       observer=observer,
                                       backend="dist")
        assert sorted((unit["scenario"], unit["model"])
                      for unit in manifest.units) == [
            ("a", "SPP2"), ("a", "SPP3"),
            ("b", "SPP2"), ("b", "SPP3"),
        ]
        for unit in manifest.units:
            assert unit["seconds"] > 0
            assert unit["worker"]
        assert sum(unit["rows"] for unit in manifest.units) \
            == len(table)
        assert manifest.backend == "dist"
        assert manifest.dist["stats"]["requeues"] >= 1
        assert manifest.dist["workers"], "worker roster missing"
        assert manifest.analysis["rows_ingested"] == len(table)

    def test_attempt_cap_names_the_failing_unit(self, fail_family):
        """Acceptance: a unit that fails on every attempt surfaces a
        DistRunError naming the unit, not a hang or a silent gap."""
        spec = dist_spec(simulators=["failsim"], models=["SPP3"],
                         scenarios=[{"name": "doomed", "seed": 0}])
        port = free_port()
        start_worker_thread(port)
        backend = DistBackend(port=port, start_timeout=30,
                              max_attempts=2)
        with pytest.raises(DistRunError) as caught:
            spec.build_runner().run(backend=backend)
        text = str(caught.value)
        assert "doomed/SPP3" in text
        assert "2 attempt(s)" in text
        assert "injected simulator failure" in text

    def test_unit_timeout_requeues_then_fails(self, sleep_family):
        spec = dist_spec(simulators=["sleepsim"], models=["SPP3"],
                         scenarios=[{"name": "slow", "seed": 0}])
        port = free_port()
        start_worker_thread(port)
        backend = DistBackend(port=port, start_timeout=30,
                              unit_timeout=0.5, max_attempts=1)
        with pytest.raises(DistRunError, match="timed out"):
            spec.build_runner().run(backend=backend)

    def test_slow_unit_does_not_kill_its_worker(self, sleep_family):
        """A unit blowing its timeout is requeued, but its healthy,
        heartbeating worker survives — and when the original execution
        finishes first anyway, its (deterministic) result is accepted
        and the run completes."""
        spec = dist_spec(simulators=["sleepsim"], models=["SPP3"],
                         scenarios=[{"name": "slow", "seed": 0}])
        port = free_port()
        start_worker_thread(port)
        backend = DistBackend(port=port, start_timeout=30,
                              unit_timeout=0.4, max_attempts=5)
        table = spec.build_runner().run(backend=backend)
        assert len(table) == 1
        stats = backend.last_coordinator.stats
        assert stats["requeues"] >= 1          # the timeout fired
        assert stats["worker_failures"] == 0   # ...but nobody was shot

    def test_silent_idle_worker_is_reaped_not_hung(self):
        """An idle worker whose host vanishes without FIN/RST must be
        reaped on heartbeat silence, arming the no-worker timeout —
        never leaving the run hung with units pending forever."""
        spec = dist_spec(models=["SPP3"],
                         scenarios=[{"name": "a", "seed": 0}])
        port = free_port()
        backend = DistBackend(port=port, start_timeout=2.0,
                              worker_timeout=0.5,
                              heartbeat_interval=0.2)

        def ghost_worker():
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                try:
                    sock = socket.create_connection(
                        ("127.0.0.1", port), timeout=1.0)
                    break
                except OSError:
                    time.sleep(0.05)
            else:
                return
            send_message(sock, message("hello", worker="ghost", pid=0))
            recv_message(sock)            # welcome
            time.sleep(30)                # ...then total silence

        threading.Thread(target=ghost_worker, daemon=True).start()
        with pytest.raises(DistRunError, match="no connected workers"):
            spec.build_runner().run(backend=backend)

    def test_no_workers_fails_after_start_timeout(self):
        spec = dist_spec(models=["SPP3"],
                         scenarios=[{"name": "a", "seed": 0}])
        backend = DistBackend(port=free_port(), start_timeout=0.5)
        with pytest.raises(DistRunError, match="no connected workers"):
            spec.build_runner().run(backend=backend)


class TestAuth:
    def _handshake(self, port: int, token: str):
        """Open a raw worker connection and answer the challenge."""
        sock = socket.create_connection(("127.0.0.1", port),
                                        timeout=5.0)
        sock.settimeout(5.0)
        send_message(sock, message("hello", worker="probe", pid=0))
        challenge = recv_message(sock)
        assert challenge["type"] == "challenge"
        send_message(sock, message(
            "auth",
            digest=protocol_module.auth_digest(token,
                                               challenge["nonce"]),
        ))
        return sock

    def test_worker_socket_challenges_and_verifies(self):
        from repro.engine.dist import Coordinator
        from repro.engine.settings import DistSettings

        spec = dist_spec(models=["SPP3"],
                         scenarios=[{"name": "a", "seed": 0}])
        runner = spec.build_runner()
        units = build_units(runner, runner.plan(), 1)
        coordinator = Coordinator(
            units, settings=DistSettings.resolve(port=0, token="hush"),
        )
        coordinator.start()
        try:
            good = self._handshake(coordinator.port, "hush")
            assert recv_message(good)["type"] == "welcome"
            good.close()
            bad = self._handshake(coordinator.port, "wrong-token")
            # Dropped without a welcome: the failed digest closes the
            # socket before any protocol state is reachable.
            with pytest.raises(ConnectionClosed):
                recv_message(bad)
            bad.close()
        finally:
            coordinator.shutdown()

    def test_authenticated_run_matches_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_DIST_TOKEN", "hush")
        spec = dist_spec(models=["SPP3"],
                         scenarios=[{"name": "a", "seed": 0}])
        port = free_port()
        start_worker_thread(port)       # reads the token from the env
        table = spec.build_runner().run(
            backend=DistBackend(port=port, start_timeout=30))
        assert table.to_csv() == serial_projection(spec).to_csv()


def _run_after_peer(spec, peer_action):
    """Start a coordinator for ``spec``, let ``peer_action(port)`` poke
    its socket, then finish the run on one real worker thread."""
    from repro.engine.dist import Coordinator
    from repro.engine.settings import DistSettings

    runner = spec.build_runner()
    units = build_units(runner, runner.plan(), 1)
    coordinator = Coordinator(
        units, settings=DistSettings.resolve(port=0), start_timeout=30,
    )
    coordinator.start()
    try:
        peer_action(coordinator.port)
        start_worker_thread(coordinator.port)  # token from the env
        rows = coordinator.serve()
    finally:
        coordinator.shutdown()
    table = [row for index in sorted(rows) for row in rows[index]]
    expected = serial_projection(spec)
    assert len(table) == len(expected) == 2
    for left, right in zip(expected, table):
        assert left == right
    assert coordinator.stats["workers_seen"] == 1
    assert coordinator.stats["worker_failures"] == 0


class TestNonWorkerPeer:
    @pytest.mark.parametrize("token", [None, "hush"])
    def test_peer_is_dropped_and_run_completes(self, monkeypatch, token):
        """A peer whose first message is not ``hello`` (here the
        ``submit`` a client of a run service would send) is closed
        without a ``welcome``; the run then finishes on real workers
        with the serial rows."""
        from repro.engine.settings import DIST_TOKEN_ENV_VAR

        if token is None:
            monkeypatch.delenv(DIST_TOKEN_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(DIST_TOKEN_ENV_VAR, token)
        spec = dist_spec(models=["SPP3"],
                         scenarios=[{"name": "a", "seed": 0}])

        def submit_and_expect_drop(port):
            peer = socket.create_connection(("127.0.0.1", port),
                                            timeout=5.0)
            peer.settimeout(5.0)
            submit = message("submit", spec=spec.to_dict(), priority=0,
                             submitter="anon")
            send_message(peer, submit)
            if token is not None:
                # Challenged like any peer; a client that answers with
                # anything but ``auth`` is dropped at the challenge.
                assert recv_message(peer)["type"] == "challenge"
                send_message(peer, submit)
            with pytest.raises(ConnectionClosed):
                recv_message(peer)
            peer.close()

        _run_after_peer(spec, submit_and_expect_drop)

    @pytest.mark.parametrize("first_bytes", [
        b"",
        b"\x00\x00\x00\x05hello",
        struct.pack(">I", 9) + b"[1, 2, 3]",
        struct.pack(">I", protocol_module.MAX_MESSAGE_BYTES + 1),
    ], ids=["closed", "not-json", "not-an-object", "oversized"])
    def test_broken_first_frame_is_dropped(self, monkeypatch,
                                           first_bytes):
        """A peer that hangs up or opens with an unreadable frame is
        closed without a ``welcome`` and leaves the run untouched."""
        from repro.engine.settings import DIST_TOKEN_ENV_VAR

        monkeypatch.delenv(DIST_TOKEN_ENV_VAR, raising=False)
        spec = dist_spec(models=["SPP3"],
                         scenarios=[{"name": "a", "seed": 0}])

        def send_garbage(port):
            peer = socket.create_connection(("127.0.0.1", port),
                                            timeout=5.0)
            peer.settimeout(5.0)
            if not first_bytes:
                peer.close()
                return
            peer.sendall(first_bytes)
            with pytest.raises(ConnectionClosed):
                recv_message(peer)
            peer.close()

        _run_after_peer(spec, send_garbage)


class TestOneResultPerUnit:
    def test_chunked_run_matches_serial(self):
        """A unit of several groups comes back as one result frame; the
        assembled table is still byte-identical to the serial run."""
        spec = dist_spec()
        port = free_port()
        start_worker_thread(port)
        backend = DistBackend(port=port, start_timeout=30, chunksize=4)
        table = spec.build_runner().run(backend=backend)
        assert backend.last_coordinator.stats["units"] == 1
        assert table.to_csv() == serial_projection(spec).to_csv()

    def test_multi_group_unit_is_one_frame(self):
        spec = dist_spec(models=["SPP3"])
        runner = spec.build_runner()
        units = build_units(runner, runner.plan(), chunksize=2)
        entries = units[0]["groups"]
        assert len(entries) == 2
        worker = Worker(("127.0.0.1", 0))
        final = worker._run_unit("u7", entries, TraceCache(),
                                 {"synthetic": FrameProvider()})
        assert final["type"] == "result"
        assert final["unit"] == "u7"
        assert "done" not in final
        assert set(final["groups"]) == {"0", "1"}
        assert final["groups"]["0"] and final["groups"]["1"]


class TestDistSelection:
    def test_dist_requires_a_spec_built_runner(self):
        runner = ExperimentRunner(simulators=["spade-he"],
                                  models=["SPP3"])
        with pytest.raises(ValueError, match="ExperimentSpec"):
            runner.run(backend="dist")

    def test_env_default_dist_falls_back_for_plain_runners(
        self, monkeypatch
    ):
        # REPRO_ENGINE_BACKEND=dist must not break programmatic runners
        # that cannot serialize work units: the env default falls back
        # to threads (no coordinator, no workers, still a table).
        monkeypatch.setenv(BACKEND_ENV_VAR, "dist")
        runner = ExperimentRunner(simulators=["spade-he"],
                                  models=["SPP3"], cache=TraceCache())
        table = runner.run()
        assert len(table) == 1

    def test_duplicate_worker_ids_survive_a_reap(self):
        # Two workers announcing the same id (identical container
        # hostnames and pids happen in practice) must be tracked
        # independently: one draining and disconnecting must not reap
        # the live clone's registration.
        spec = dist_spec()
        port = free_port()
        start_worker_thread(port, worker_id="clone", max_units=1)
        start_worker_thread(port, worker_id="clone")
        backend = DistBackend(port=port, start_timeout=30)
        table = spec.build_runner().run(backend=backend)
        expected = serial_projection(spec)
        assert len(table) == len(expected)
        for left, right in zip(expected, table):
            assert left == right
        assert backend.last_coordinator.stats["workers_seen"] == 2

    def test_worker_drain_mode_is_not_a_failure(self):
        spec = dist_spec()
        port = free_port()
        drained = start_worker_thread(port, worker_id="drain",
                                      max_units=1)
        start_worker_thread(port, worker_id="rest")
        backend = DistBackend(port=port, start_timeout=30)
        table = spec.build_runner().run(backend=backend)
        assert len(table) == len(serial_projection(spec))
        assert drained.units_done == 1
        # The drain announced itself (goodbye): no phantom failure.
        assert backend.last_coordinator.stats["worker_failures"] == 0

    def test_explicit_provider_instance_rejected(self):
        # Even under a registered non-default name, a caller-supplied
        # provider *instance* cannot ship — workers recreate providers
        # from the registry name, so the instance would be silently
        # ignored remotely.
        from repro.engine.registry import (
            FRAME_PROVIDERS,
            register_frame_provider,
        )

        class TweakedFrames(FrameProvider):
            pass

        register_frame_provider("tweaked", TweakedFrames,
                                overwrite=True)
        try:
            spec = dist_spec(frame_provider="tweaked")
            runner = spec.build_runner(frame_provider=TweakedFrames())
            with pytest.raises(ValueError, match="registry name"):
                runner.run(backend="dist")
            # The same spec without the instance is fine to build units
            # for — workers recreate "tweaked" themselves.
            assert DistBackend.incompatibility(
                spec.build_runner()) is None
        finally:
            FRAME_PROVIDERS.unregister("tweaked")
