"""Acceptance suite for the diagnosis-as-a-service layer.

The load-bearing contract (ISSUE 8 acceptance criteria): warm-service
batch answers are **bit-identical** to the one-shot
:func:`repro.core.diagnose` path on the same artifacts — across compute
planes, across the mmap store, across batching and client interleaving.
Plus the operational contracts of the JSON-lines server: typed wire
errors, bounded-queue backpressure, and request timeouts.
"""

import asyncio
import dataclasses
import json
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import by_name, diagnose
from repro.core.cache import DictionaryStore
from repro.service import (
    BadRequestError,
    DiagnosisRequest,
    DiagnosisServer,
    DiagnosisService,
    RequestTimeoutError,
    ServerConfig,
    ServiceClient,
    UnknownWorkloadError,
    draw_query_behaviors,
    standard_workload,
)

WORKLOAD = "s27"


@pytest.fixture(scope="module")
def workload_and_model():
    """One deterministic standard workload, compiled once per module."""
    return standard_workload(WORKLOAD, samples=100, seed=1)


@pytest.fixture(scope="module")
def behaviors(workload_and_model):
    workload, model = workload_and_model
    return draw_query_behaviors(workload, model, 6, seed=50)


def _fresh(workload):
    """A cold copy of a workload (shared artifacts, no dictionary)."""
    return dataclasses.replace(workload, dictionary=None)


def _service(workload, **kwargs) -> DiagnosisService:
    service = DiagnosisService(**kwargs)
    service.register(_fresh(workload))
    return service


def _reference_rankings(dictionary, behaviors, function_name="alg_rev"):
    """One-shot answers in the wire format ([str(edge), score] pairs)."""
    return [
        [[str(edge), score] for edge, score in
         diagnose(dictionary, behavior, by_name(function_name)).ranking]
        for behavior in behaviors
    ]


# ----------------------------------------------------------------------
# engine: warm batches == one-shot diagnosis
# ----------------------------------------------------------------------
class TestEngineBitIdentity:
    def test_workload_shape_matches_dictionary(self, workload_and_model):
        workload, _model = workload_and_model
        service = _service(workload)
        dictionary = service.warm(WORKLOAD)
        assert workload.behavior_shape == dictionary.m_crt.shape

    @pytest.mark.parametrize(
        "function_name",
        ["method_I", "method_II", "method_III", "alg_rev",
         "log_likelihood", "euclidean_sb"],
    )
    def test_batch_equals_one_shot(
        self, workload_and_model, behaviors, function_name
    ):
        workload, _model = workload_and_model
        service = _service(workload)
        answers = service.diagnose_batch([
            DiagnosisRequest(WORKLOAD, behavior, function_name)
            for behavior in behaviors
        ])
        dictionary = service.warm(WORKLOAD)
        for behavior, answer in zip(behaviors, answers):
            reference = diagnose(dictionary, behavior, by_name(function_name))
            assert answer.method == reference.method
            # == on (Edge, float) tuples: same edges, same score bits.
            assert answer.ranking == reference.ranking

    def test_mixed_function_batch_preserves_request_order(
        self, workload_and_model, behaviors
    ):
        workload, _model = workload_and_model
        service = _service(workload)
        functions = ["alg_rev", "method_I", "alg_rev", "method_II",
                     "method_I", "alg_rev"]
        answers = service.diagnose_batch([
            DiagnosisRequest(WORKLOAD, behavior, name)
            for behavior, name in zip(behaviors, functions)
        ])
        dictionary = service.warm(WORKLOAD)
        for behavior, name, answer in zip(behaviors, functions, answers):
            reference = diagnose(dictionary, behavior, by_name(name))
            assert answer.method == name
            assert answer.ranking == reference.ranking

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_compute_planes_identical(
        self, workload_and_model, behaviors, backend
    ):
        """The compute plane building the dictionary never changes answers."""
        workload, _model = workload_and_model
        reference_service = _service(workload)
        reference = reference_service.diagnose_batch([
            DiagnosisRequest(WORKLOAD, behavior) for behavior in behaviors
        ])
        service = _service(workload, parallel=backend)
        answers = service.diagnose_batch([
            DiagnosisRequest(WORKLOAD, behavior) for behavior in behaviors
        ])
        for got, want in zip(answers, reference):
            assert got.ranking == want.ranking

    def test_single_query_wrapper(self, workload_and_model, behaviors):
        workload, _model = workload_and_model
        service = _service(workload)
        answer = service.diagnose(WORKLOAD, behaviors[0])
        reference = diagnose(service.warm(WORKLOAD), behaviors[0])
        assert answer.ranking == reference.ranking
        assert answer.top(3) == reference.top(3)


# ----------------------------------------------------------------------
# engine: API contracts
# ----------------------------------------------------------------------
class TestEngineContracts:
    def test_unknown_workload(self, workload_and_model, behaviors):
        workload, _model = workload_and_model
        service = _service(workload)
        with pytest.raises(UnknownWorkloadError):
            service.diagnose("nope", behaviors[0])

    def test_unknown_error_function(self, workload_and_model, behaviors):
        workload, _model = workload_and_model
        service = _service(workload)
        with pytest.raises(BadRequestError):
            service.diagnose(WORKLOAD, behaviors[0], "not_a_function")

    def test_bad_behavior_shape(self, workload_and_model):
        workload, _model = workload_and_model
        service = _service(workload)
        with pytest.raises(BadRequestError):
            service.diagnose(WORKLOAD, np.zeros((1, 1)))

    def test_warm_is_idempotent(self, workload_and_model):
        workload, _model = workload_and_model
        service = _service(workload)
        first = service.warm(WORKLOAD)
        assert service.warm(WORKLOAD) is first

    def test_stats_counters(self, workload_and_model, behaviors):
        workload, _model = workload_and_model
        service = _service(workload)
        stats = service.stats()
        assert stats["workloads"][WORKLOAD]["warm"] is False
        service.diagnose_batch([
            DiagnosisRequest(WORKLOAD, behavior) for behavior in behaviors
        ])
        stats = service.stats()
        assert stats["queries_served"] == len(behaviors)
        assert stats["batches_served"] == 1
        assert stats["workloads"][WORKLOAD]["warm"] is True

    def test_stats_report_live_rows(self, workload_and_model):
        workload, _model = workload_and_model
        service = _service(workload)
        rows = workload.behavior_shape[0]
        cold = service.stats()["workloads"][WORKLOAD]
        assert (cold["live_rows"], cold["rows"]) == (None, rows)
        live = service.warm(WORKLOAD).live_rows()
        warm = service.stats()["workloads"][WORKLOAD]
        assert warm["live_rows"] == int(live.sum())
        assert 0 < warm["live_rows"] <= warm["rows"] == rows


# ----------------------------------------------------------------------
# mmap store behind the service
# ----------------------------------------------------------------------
class TestStoreBackedService:
    def test_store_roundtrip_serves_identical_answers(
        self, tmp_path, workload_and_model, behaviors
    ):
        workload, _model = workload_and_model
        store = DictionaryStore(tmp_path / "store")
        builder = _service(workload, cache=store)
        built = builder.warm(WORKLOAD)
        assert store.stats.stores == 1

        served_store = DictionaryStore(tmp_path / "store")
        served = _service(workload, cache=served_store)
        dictionary = served.warm(WORKLOAD)
        assert served_store.stats.hits == 1
        # Zero-copy contract: the served signature stack IS the mmap.
        stack = dictionary.signature_stack()
        assert isinstance(stack, np.memmap)
        assert not stack.flags.writeable
        np.testing.assert_array_equal(built.m_crt, dictionary.m_crt)

        requests = [
            DiagnosisRequest(WORKLOAD, behavior) for behavior in behaviors
        ]
        warm_answers = served.diagnose_batch(requests)
        for behavior, answer in zip(behaviors, warm_answers):
            reference = diagnose(built, behavior)
            assert answer.ranking == reference.ranking


# ----------------------------------------------------------------------
# asyncio server
# ----------------------------------------------------------------------
class _ThreadedServer:
    """A running server on a background event loop (for sync clients)."""

    def __init__(self, server, loop):
        self.server = server
        self.loop = loop
        self.port = server.port

    def freeze_dispatcher(self):
        """Stop the queue from draining (deterministic timeout tests)."""
        done = threading.Event()

        def _cancel():
            self.server._dispatcher.cancel()
            done.set()

        self.loop.call_soon_threadsafe(_cancel)
        assert done.wait(timeout=10)


@contextmanager
def _threaded_server(service, **config_kwargs):
    """Run a DiagnosisServer on a background event loop."""
    loop = asyncio.new_event_loop()
    started = threading.Event()
    stop = loop.create_future()
    server = DiagnosisServer(service, ServerConfig(port=0, **config_kwargs))

    async def _run():
        await server.start()
        started.set()
        await stop
        await server.stop()

    thread = threading.Thread(
        target=loop.run_until_complete, args=(_run(),), daemon=True
    )
    thread.start()
    assert started.wait(timeout=30), "server failed to start"
    try:
        yield _ThreadedServer(server, loop)
    finally:
        loop.call_soon_threadsafe(stop.set_result, None)
        thread.join(timeout=30)
        loop.close()


class TestServer:
    def test_concurrent_clients_stable_rankings(
        self, workload_and_model, behaviors
    ):
        """N asyncio clients, interleaved batches — every answer equals the
        one-shot reference, whatever the micro-batching grouped together."""
        workload, _model = workload_and_model
        service = _service(workload)
        reference = _reference_rankings(service.warm(WORKLOAD), behaviors)
        orders = [
            list(range(len(behaviors))),
            list(reversed(range(len(behaviors)))),
            [2, 0, 4, 1, 5, 3],
            [5, 5, 0, 0, 3, 3],
        ]

        async def scenario():
            server = DiagnosisServer(
                service, ServerConfig(port=0, max_batch=4, queue_limit=64)
            )
            await server.start()
            try:
                async def client(order):
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.port
                    )
                    try:
                        got = []
                        for index in order:
                            writer.write(json.dumps({
                                "op": "diagnose", "id": index,
                                "workload": WORKLOAD,
                                "behavior": behaviors[index].tolist(),
                            }).encode() + b"\n")
                            await writer.drain()
                            response = json.loads(await reader.readline())
                            assert response["ok"], response
                            assert response["id"] == index
                            got.append(
                                (index, response["result"]["ranking"])
                            )
                        return got
                    finally:
                        writer.close()
                return await asyncio.gather(
                    *(client(order) for order in orders)
                )
            finally:
                await server.stop()

        for per_client in asyncio.run(scenario()):
            for index, ranking in per_client:
                assert ranking == reference[index]

    def test_wire_roundtrip_and_typed_errors(
        self, workload_and_model, behaviors
    ):
        workload, _model = workload_and_model
        service = _service(workload)
        service.warm_all()
        with _threaded_server(service) as running:
            with ServiceClient("127.0.0.1", running.port) as client:
                assert client.ping()
                assert client.workloads() == [WORKLOAD]
                answer = client.diagnose(WORKLOAD, behaviors[0], top_k=3)
                reference = diagnose(service.warm(WORKLOAD), behaviors[0])
                assert answer.top(3) == [str(e) for e in reference.top(3)]
                assert [score for _e, score in answer.ranking] == [
                    score for _e, score in reference.ranking[:3]
                ]
                with pytest.raises(UnknownWorkloadError):
                    client.diagnose("nope", behaviors[0])
                with pytest.raises(BadRequestError):
                    client.diagnose(WORKLOAD, np.zeros((1, 1)))
                with pytest.raises(BadRequestError):
                    client.diagnose(WORKLOAD, behaviors[0], "not_a_function")
                stats = client.stats()
                assert stats["queries_served"] >= 1
                # The connection survived every error response.
                assert client.ping()

    def test_malformed_lines_get_bad_request(self, workload_and_model):
        workload, _model = workload_and_model
        service = _service(workload)
        with _threaded_server(service) as running:
            import socket

            with socket.create_connection(
                ("127.0.0.1", running.port), 10
            ) as sock:
                reader = sock.makefile("rb")
                for line in (b"not json\n", b'["a","list"]\n',
                             b'{"op": "explode"}\n'):
                    sock.sendall(line)
                    response = json.loads(reader.readline())
                    assert response["ok"] is False
                    assert response["error"]["type"] == "bad_request"

    def test_malformed_behaviors_get_bad_request(
        self, workload_and_model, behaviors
    ):
        """Every malformed behavior or ``top_k`` gets a typed
        ``bad_request``, and the connection keeps serving."""
        workload, _model = workload_and_model
        service = _service(workload)
        n_rows, n_cols = workload.behavior_shape
        good = behaviors[0].tolist()
        cases = {
            "ragged": [[0] * n_cols] * (n_rows - 1) + [[0] * (n_cols + 1)],
            "1-D": [0] * n_cols,
            "3-D": [[[0] * n_cols] * n_rows],
            "3-D entries": [[[0]] * n_cols] * n_rows,
            "string element": [["x"] + [0] * (n_cols - 1)] * n_rows,
            "string rows": ["0" * n_cols] * n_rows,
            "null element": [[None] + [0] * (n_cols - 1)] * n_rows,
            # JSON's NaN literal decodes to a float NumPy would accept.
            "NaN element": [[float("nan")] + [0] * (n_cols - 1)] * n_rows,
            "empty": [],
            "empty rows": [[]] * n_rows,
            "wrong shape": [[0] * n_cols] * (n_rows + 1),
            "scalar": 1,
            "object": {"rows": good},
        }
        messages = [
            ({"op": "diagnose", "id": name, "workload": WORKLOAD,
              "behavior": behavior}, name)
            for name, behavior in cases.items()
        ] + [
            ({"op": "diagnose", "id": f"top_k={top_k!r}",
              "workload": WORKLOAD, "behavior": good, "top_k": top_k},
             f"top_k={top_k!r}")
            for top_k in (True, False, 0, -1, 1.5, "2")
        ]
        with _threaded_server(service) as running:
            import socket

            with socket.create_connection(
                ("127.0.0.1", running.port), 10
            ) as sock:
                reader = sock.makefile("rb")
                for message, name in messages:
                    sock.sendall(json.dumps(message).encode() + b"\n")
                    response = json.loads(reader.readline())
                    assert response["id"] == name
                    assert response["ok"] is False, name
                    assert response["error"]["type"] == "bad_request", name
                sock.sendall(json.dumps({
                    "op": "diagnose", "id": "ok", "workload": WORKLOAD,
                    "behavior": good, "top_k": 2,
                }).encode() + b"\n")
                response = json.loads(reader.readline())
                assert response["ok"] is True
                reference = _reference_rankings(
                    service.warm(WORKLOAD), behaviors[:1]
                )[0]
                assert response["result"]["ranking"] == reference[:2]

    def test_backpressure_and_timeout(self, workload_and_model, behaviors):
        """queue_limit bounds pending work: overflow answers `overloaded`
        immediately; queued requests that never get served time out."""
        workload, _model = workload_and_model
        service = _service(workload)
        service.warm_all()
        behavior = behaviors[0].tolist()

        async def scenario():
            server = DiagnosisServer(service, ServerConfig(
                port=0, queue_limit=2, request_timeout=0.5,
            ))
            await server.start()
            # Freeze the dispatcher: nothing drains the queue, so the
            # backpressure and timeout paths are deterministic.
            server._dispatcher.cancel()
            try:
                async def submit():
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.port
                    )
                    writer.write(json.dumps({
                        "op": "diagnose", "workload": WORKLOAD,
                        "behavior": behavior,
                    }).encode() + b"\n")
                    await writer.drain()
                    return reader, writer
                connections = []
                for _ in range(2):  # fill the queue
                    connections.append(await submit())
                    await asyncio.sleep(0.05)
                overflow_reader, overflow_writer = await submit()
                overflow = json.loads(await asyncio.wait_for(
                    overflow_reader.readline(), timeout=5
                ))
                assert overflow["ok"] is False
                assert overflow["error"]["type"] == "overloaded"
                timeouts = []
                for reader, _writer in connections:
                    response = json.loads(await asyncio.wait_for(
                        reader.readline(), timeout=5
                    ))
                    timeouts.append(response["error"]["type"])
                assert timeouts == ["timeout", "timeout"]
                for _reader, writer in connections + [
                    (overflow_reader, overflow_writer)
                ]:
                    writer.close()
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_client_timeout_error_type(self, workload_and_model, behaviors):
        """Queue-side timeouts surface as RequestTimeoutError in clients."""
        workload, _model = workload_and_model
        service = _service(workload)
        service.warm_all()
        with _threaded_server(
            service, queue_limit=4, request_timeout=0.2
        ) as running:
            running.freeze_dispatcher()  # queued requests never get served
            with ServiceClient("127.0.0.1", running.port) as client:
                started = time.monotonic()
                with pytest.raises(RequestTimeoutError):
                    client.diagnose(WORKLOAD, behaviors[0])
                assert time.monotonic() - started < 10


class TestQueryCommand:
    """``repro query --behavior FILE`` checks the matrix before it connects."""

    @pytest.mark.parametrize("content", [
        "[[0, 1], [1]]",          # ragged
        "{}",                     # object without "behavior"
        '{"behaviour": [[0]]}',   # misspelt key
        "[1, 0]",                 # 1-D
        "[]",                     # empty
        '[[0, "x"]]',             # not a number
        "[[0, null]]",            # null is no number either
        "not json",
    ])
    def test_malformed_behavior_file_is_usage_error(
        self, tmp_path, capsys, content
    ):
        from repro.__main__ import EXIT_USAGE, main

        path = tmp_path / "behavior.json"
        path.write_text(content)
        # port 1: nothing listens there, so a connection attempt would
        # exit with a transient-failure code, not a usage error
        assert main(["query", WORKLOAD, "--behavior", str(path),
                     "--port", "1"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: --behavior {path}: ")
        assert err.count("\n") == 1

    def test_missing_behavior_file_is_usage_error(self, tmp_path, capsys):
        from repro.__main__ import EXIT_USAGE, main

        path = tmp_path / "absent.json"
        assert main(["query", WORKLOAD, "--behavior", str(path),
                     "--port", "1"]) == EXIT_USAGE
        assert capsys.readouterr().err.count("\n") == 1

    def test_well_formed_file_gets_an_answer(
        self, tmp_path, capsys, workload_and_model, behaviors
    ):
        from repro.__main__ import main

        workload, _model = workload_and_model
        service = _service(workload)
        service.warm_all()
        path = tmp_path / "behavior.json"
        path.write_text(json.dumps({"behavior": behaviors[0].tolist()}))
        with _threaded_server(service) as running:
            assert main(["query", WORKLOAD, "--behavior", str(path),
                         "--port", str(running.port), "--top-k", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"workload {WORKLOAD}  method alg_rev")
        assert len(out.splitlines()) == 4
