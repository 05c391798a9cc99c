"""``serve``: the JSON-lines diagnosis service, measured over the wire.

Set-up: ``python -m repro serve s1196 s15850 --port 0`` (the fixed
production pattern sets of program seed ``PRODUCTION_SEED``) runs as a
subprocess, and the benchmark waits for its ``ready`` op.  It starts
:data:`SETUP_ROUNDS` times; ``setup_s`` is the median start-to-ready time
and the last server takes the traffic.  ``peak_rss_mb`` is the largest
peak RSS of the servers, read before each is stopped: the load
generator, which holds its own copy of both dictionaries, is not counted.  The benchmark builds the same
standard workloads in-process, draws :data:`QUERIES` failing behaviours
per workload from ``--seed`` and computes the serial reference ranking of each.

Traffic: request ``i`` goes to the workload and behaviour a seeded
schedule picks, over ``nproc`` connections.  Two phases split
``--seconds``, two thirds and one third:

* ``saturate``: a closed loop, each connection sending its next request
  when the previous answer arrives.  It gives the gated metrics:
  ``ops_per_s`` (the median rate over one-second slices), ``op_p50_ms``
  (the mean of the two workloads' median round trips) and ``op_tail_ms``
  (the median over one-second slices of each slice's p90 round trip);
* ``paced``: an open loop at the fixed rate recorded in
  ``reference.json`` (:data:`PACED_SHARE` of the default seed's saturate
  rate), pipelined over the same connections.  Each request is timed
  from when it was due, and the p50 and p99 of that latency are
  printed and saved, not gated: on a shared 2-CPU host, stretches of
  lost CPU lasting tens of seconds queue an open loop up, and moved its
  p90 by 2-3x between runs (interquartile spread / median 0.41 over ten
  seeds, against 0.1 to 0.2 for the saturate rate).

Why this workload: dictionaries are built once in set-up, so only the
service and the batched scoring kernel are timed.  s15850's 684x6
behaviours make JSON and wire cost dominate; s1196's 32x8 give the
kernel a larger share.
"""

from __future__ import annotations

import collections
import contextlib
import json
import os
import queue
import random
import resource
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.core import ALG_REV, build_dictionary, diagnose
from repro.service import (
    DiagnosisRequest,
    DiagnosisService,
    ServiceClient,
    draw_query_behaviors,
    standard_workload,
)

from helpers import (
    LayerTimer,
    OpenLoopSchedule,
    layer_metrics,
    percentile,
    slices,
    summarize,
)
from replica import PRODUCTION_SEED, behavior_seed, check_set_up

ROOT = Path(__file__).resolve().parent.parent
CIRCUITS = ("s1196", "s15850")
SAMPLES = 300
N_PATHS = 8  # repro serve's default
QUERIES = 32
SETUP_ROUNDS = 3
#: p90 per one-second slice, not p99: on a shared 2-CPU host, p99 is set
#: by episodes of lost CPU that come and go between runs.  p99 is still in
#: the saved record.
TAIL = 90.0
START_TIMEOUT = 120.0
REPLY_TIMEOUT = 30.0
SLICE_SECONDS = 1.0
#: The paced rate as a share of the saturate rate: a quarter, not a half,
#: so that a host running 25% slow for a while does not make the server
#: 65% busy and its queue long.
PACED_SHARE = 0.25
ALIASES = {"ops_per_s": "serve_qps", "op_p50_ms": "serve_p50_ms",
           "op_tail_ms": "serve_p90_ms"}


class Server:
    """One ``repro serve`` subprocess, started and waited for until ready."""

    def __init__(self, seed: int, out_dir: Path) -> None:
        out_dir.mkdir(exist_ok=True)
        command = [
            sys.executable, "-m", "repro", "serve", *CIRCUITS, "--port", "0",
            "--samples", str(SAMPLES), "--seed", str(seed), "--paths", str(N_PATHS),
        ]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self._stderr = open(out_dir / "serve-stderr.log", "w")
        self.peak_rss_mb = None
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=self._stderr, text=True,
        )
        self._lines: "queue.Queue" = queue.Queue()
        self._reader = threading.Thread(target=self._drain_stdout, daemon=True)
        self._reader.start()
        try:
            self.port = self._wait_for_port(started + START_TIMEOUT)
            self._wait_until_ready(started + START_TIMEOUT)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - started

    def _drain_stdout(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _wait_for_port(self, deadline: float) -> int:
        while True:
            try:
                line = self._lines.get(timeout=max(deadline - time.perf_counter(), 0.01))
            except queue.Empty:
                raise RuntimeError("server did not report its port in time") from None
            if line is None:
                raise RuntimeError(f"server exited with {self.proc.wait()} before serving")
            if line.startswith("serving on "):
                return int(line.rsplit(":", 1)[1])

    def _wait_until_ready(self, deadline: float) -> None:
        with ServiceClient(port=self.port, timeout=REPLY_TIMEOUT) as client:
            while not client.ready()["ready"]:
                if time.perf_counter() > deadline:
                    raise RuntimeError("server never became ready")
                time.sleep(0.01)

    def stats(self) -> dict:
        with ServiceClient(port=self.port, timeout=REPLY_TIMEOUT) as client:
            return client.stats()

    def stop(self) -> None:
        """SIGTERM drains the server; kill it if the drain overruns.  Its
        peak RSS is read first, while the process still exists."""
        if self.proc.poll() is None:
            self.peak_rss_mb = vm_hwm_mb(self.proc.pid)
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=30)
        self.proc.stdout.close()
        self._stderr.close()


def vm_hwm_mb(pid: int):
    """Peak RSS (``VmHWM``) of a live process in MiB; ``None`` where
    ``/proc`` does not give it."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def servers_peak_rss_mb(servers) -> float:
    """The largest peak RSS of the stopped servers, not the load
    generator's.  Without ``/proc``, the peak of the reaped children,
    which in an untraced run are the servers alone."""
    peaks = [server.peak_rss_mb for server in servers]
    if None in peaks:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return max(peaks)


class Connection:
    """One JSON-lines connection; requests may be pipelined."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=REPLY_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def send(self, line: bytes) -> None:
        self.sock.sendall(line)

    def read_lines(self) -> list:
        """The reply lines completed by one read (call when readable)."""
        data = self.sock.recv(1 << 16)
        if not data:
            raise ConnectionError("server closed the connection")
        *lines, self._buffer = (self._buffer + data).split(b"\n")
        return lines

    def recv(self) -> bytes:
        """Block until one whole reply line arrives (nothing pipelined)."""
        lines = []
        while not lines:
            lines = self.read_lines()
        return lines[0]

    def close(self) -> None:
        self.sock.close()


def encode_behavior(behavior) -> str:
    """The behaviour matrix as ``ServiceClient.diagnose`` puts it on the wire."""
    return json.dumps(np.asarray(behavior).tolist())


def request_line(request_id: int, workload: str, behavior_json: str) -> bytes:
    return (
        f'{{"op": "diagnose", "id": {request_id}, "workload": "{workload}", '
        f'"error_function": "alg_rev", "behavior": {behavior_json}}}\n'
    ).encode()


class Traffic:
    """The distinct queries, their reference answers and the schedule."""

    def __init__(self, seed: int, timer: LayerTimer) -> None:
        self.keys, self.workloads, self.behaviors = [], [], []
        self.service = DiagnosisService()
        for circuit in CIRCUITS:
            workload, model = standard_workload(
                circuit, samples=SAMPLES, seed=PRODUCTION_SEED, n_paths=N_PATHS
            )
            self.service.register(workload)
            for index, behavior in enumerate(
                draw_query_behaviors(workload, model, QUERIES, seed=behavior_seed(seed))
            ):
                self.keys.append(f"{circuit}/q{index}")
                self.workloads.append(circuit)
                self.behaviors.append(behavior)
        self.encoded = [encode_behavior(behavior) for behavior in self.behaviors]
        # The serial reference: a serial dictionary build, one-shot ranking.
        dictionaries = {}
        for circuit in CIRCUITS:
            workload = self.service.workload(circuit)
            with timer("core.dictionary"):
                dictionaries[circuit] = self.service.warm(circuit)
            timer.counts["core.dictionary.units"] += (
                len(workload.suspects) * len(workload.patterns) * len(workload.size_samples)
            )
        self.reference = []
        for circuit, behavior in zip(self.workloads, self.behaviors):
            with timer("core.diagnosis"):
                result = diagnose(dictionaries[circuit], behavior, ALG_REV)
            self.reference.append([[str(edge), score] for edge, score in result.ranking])
        rng = random.Random(seed)
        self._order = [rng.randrange(len(self.keys)) for _ in range(1 << 16)]

    def query(self, request_id: int) -> int:
        return self._order[request_id % len(self._order)]

    def line(self, request_id: int, query: int) -> bytes:
        return request_line(request_id, self.workloads[query], self.encoded[query])


class Checker:
    """Checks each reply as it arrives, so no reply is kept; counts typed
    rejections and timeouts by type."""

    def __init__(self, ctx, traffic: Traffic) -> None:
        self.ledger = ctx.ledger
        self.traffic = traffic
        self.rejected = {}

    def _reject(self, key: str, kind: str, reason: str) -> bool:
        self.ledger.attempted += 1
        self.ledger.fail(key, reason)
        self.rejected[kind] = self.rejected.get(kind, 0) + 1
        return False

    def reply(self, request_id: int, query: int, raw: bytes) -> bool:
        """Whether the reply is the reference ranking for its query."""
        key = f"{self.traffic.keys[query]}#{request_id}"
        reply = json.loads(raw)
        if not reply.get("ok"):
            kind = reply.get("error", {}).get("type", "internal")
            return self._reject(key, kind, f"typed error {kind}")
        return self.ledger.check(
            key, reply["result"]["ranking"], self.traffic.reference[query]
        )

    def timeout(self, request_id: int, query: int) -> None:
        key = f"{self.traffic.keys[query]}#{request_id}"
        self._reject(key, "timeout", "no reply (timeout)")


def probe(traffic: Traffic, connection: Connection) -> dict:
    """Every distinct query once: the answers the digest covers."""
    answers = {}
    for query, key in enumerate(traffic.keys):
        connection.send(traffic.line(query, query))
        reply = json.loads(connection.recv())
        answers[key] = reply["result"]["ranking"] if reply.get("ok") else reply.get("error")
    return answers


def saturate(traffic: Traffic, checker: Checker, connections, seconds: float,
             first_id: int):
    """Closed loop: each connection sends its next request when the last
    reply arrives, and the reply is checked after that send.  Returns
    ``(replies, queries per second)``, each reply as ``(id, query, sent,
    done)``, the rate being the median over :data:`SLICE_SECONDS` slices."""
    replies = []
    selector = selectors.DefaultSelector()
    in_flight = {}
    next_id = first_id
    started = time.perf_counter()
    deadline = started + seconds

    def send(connection: Connection) -> None:
        nonlocal next_id
        query = traffic.query(next_id)
        in_flight[connection] = (next_id, query, time.perf_counter())
        connection.send(traffic.line(next_id, query))
        next_id += 1

    for connection in connections:
        selector.register(connection.sock, selectors.EVENT_READ, connection)
        send(connection)
    finished = started
    try:
        while in_flight:
            events = selector.select(timeout=REPLY_TIMEOUT)
            if not events:
                break
            for key, _mask in events:
                connection = key.data
                for line in connection.read_lines():
                    request_id, query, sent = in_flight.pop(connection)
                    finished = time.perf_counter()
                    replies.append((request_id, query, sent, finished))
                    if finished < deadline:
                        send(connection)
                    checker.reply(request_id, query, line)
    finally:
        selector.close()
    for request_id, query, _sent in in_flight.values():
        checker.timeout(request_id, query)
    answered = [done for _i, _q, _sent, done in replies]
    per_slice = [len(group) for group in slices(answered, started, seconds, SLICE_SECONDS)]
    return replies, statistics.median(per_slice) / SLICE_SECONDS


def paced(traffic: Traffic, checker: Checker, connections, seconds: float,
          rate: float, first_id: int):
    """Open loop at ``rate``: request ``i`` goes out at its due time on
    connection ``i % len(connections)``, whatever is still in flight.
    One thread sends and receives, so the generator's own lateness is
    only the time it spends reading and checking replies.  Returns the
    answered replies as ``(id, query, sent, done)`` and the schedule."""
    count = max(int(seconds * rate), 1)
    schedule = OpenLoopSchedule(rate, time.perf_counter() + 0.05)
    sent_at = [0.0] * count
    pending = {connection: collections.deque() for connection in connections}
    replies = []
    selector = selectors.DefaultSelector()
    for connection in connections:
        selector.register(connection.sock, selectors.EVENT_READ, connection)
    index = 0
    try:
        while len(replies) < count:
            now = time.perf_counter()
            while index < count and schedule.due(index) <= now:
                connection = connections[index % len(connections)]
                request_id = first_id + index
                query = traffic.query(request_id)
                sent_at[index] = time.perf_counter()
                connection.send(traffic.line(request_id, query))
                pending[connection].append((index, query))
                index += 1
                now = time.perf_counter()
            wait = schedule.due(index) - now if index < count else REPLY_TIMEOUT
            # select() sleeps in whole milliseconds: sleep short of the
            # due time, then poll, so requests go out on time.
            events = selector.select(timeout=wait - 0.001 if wait > 0.002 else 0.0)
            if not events and index >= count and wait > 0.002:
                break  # the rest never came back
            for key, _mask in events:
                connection = key.data
                lines = connection.read_lines()
                done = time.perf_counter()
                for line in lines:
                    position, query = pending[connection].popleft()
                    replies.append((first_id + position, query, sent_at[position], done))
                    schedule.record(position, sent_at[position], done)
                    checker.reply(first_id + position, query, line)
    finally:
        selector.close()
    for queue_ in pending.values():
        for position, query in queue_:
            checker.timeout(first_id + position, query)
    return replies, schedule


def run(ctx) -> dict:
    # The obs snapshot of a traced run is this process's: the server's own
    # (``repro serve --metrics``) cannot be written after concurrent
    # traffic, because interleaved request spans nest without bound.
    recorder = obs.Recorder()
    with obs.use_recorder(recorder) if ctx.trace else contextlib.nullcontext():
        outcome = serve(ctx)
    if ctx.trace:
        outcome["obs"] = recorder.snapshot()
    return outcome


def serve(ctx) -> dict:
    ctx.set_backend("serial")
    timer = LayerTimer()
    setup_wall = 0.0
    if ctx.trace:
        setup_wall = check_set_up(ctx, CIRCUITS, SAMPLES, N_PATHS, timer)
    started = time.perf_counter()
    traffic = Traffic(ctx.seed, timer)
    reference_wall = time.perf_counter() - started

    servers = []
    try:
        for _round in range(1 if ctx.trace else SETUP_ROUNDS):
            if servers:
                servers[-1].stop()
            servers.append(Server(PRODUCTION_SEED, ctx.out_dir))
        server = servers[-1]
        connections = [Connection(server.port) for _ in range(ctx.workers)]
        try:
            answers = probe(traffic, connections[0])
            outcome = (run_traced if ctx.trace else run_untraced)(
                ctx, traffic, server, connections, timer
            )
        finally:
            for connection in connections:
                connection.close()
    finally:
        if servers:
            servers[-1].stop()

    reference = {key: traffic.reference[query] for query, key in enumerate(traffic.keys)}
    outcome.update(answers=answers, reference_answers=reference)
    if ctx.trace:
        outcome["layers"].update(layer_metrics(timer, setup_wall + reference_wall))
    else:
        outcome["end_to_end"]["setup_s"] = statistics.median(s.ready_s for s in servers)
        outcome["end_to_end"]["peak_rss_mb"] = servers_peak_rss_mb(servers)
        outcome["details"]["setup_rounds_s"] = [s.ready_s for s in servers]
    return outcome


def paced_rate(ctx, saturate_qps: float) -> float:
    """The recorded open-loop rate; :data:`PACED_SHARE` of this run's
    saturate rate when none is recorded yet (``--record``)."""
    return float(ctx.reference.get("paced_rate_qps") or saturate_qps * PACED_SHARE)


def run_untraced(ctx, traffic, server, connections, _timer) -> dict:
    checker = Checker(ctx, traffic)
    # The gated metrics come from saturate, so it gets two thirds of the
    # time: a longer window averages more of the host's slow stretches.
    loaded_s = ctx.seconds * 2 / 3
    loaded, qps = saturate(traffic, checker, connections, loaded_s, first_id=1 << 20)
    rate = paced_rate(ctx, qps)
    open_loop, schedule = paced(
        traffic, checker, connections, ctx.seconds - loaded_s, rate, first_id=1 << 30
    )

    rtt_ms = [1000.0 * (done - sent) for _id, _query, sent, done in loaded]
    groups = slices([reply[3] for reply in loaded],
                    min(reply[2] for reply in loaded), loaded_s, SLICE_SECONDS)
    # schedule.latencies holds one latency per open_loop reply, in order.
    latency_ms = [1000.0 * value for value in schedule.latencies]
    return {
        "end_to_end": {
            "ops_per_s": qps,
            "op_p50_ms": mean_of_medians(traffic, loaded, rtt_ms),
            "op_tail_ms": statistics.median(
                percentile([rtt_ms[index] for index in group], TAIL)
                for group in groups if group
            ),
        },
        "details": {
            "aliases": ALIASES,
            "connections": len(connections),
            "saturate_requests": len(loaded),
            "saturate_rtt_ms": summarize(rtt_ms, 99.0),
            "paced_rate_qps": rate,
            "paced_latency_ms": summarize(latency_ms, 99.0),
            "paced_p50_ms": mean_of_medians(traffic, open_loop, latency_ms),
            "lag_ms": summarize([1000.0 * value for value in schedule.lags], 99.0),
            "rejected_by_type": checker.rejected,
            "server_stats": server.stats(),
        },
    }


def mean_of_medians(traffic, replies, values) -> float:
    """The mean of the two workloads' median ``values``.

    s1196 queries (about 0.6 ms) and s15850 queries (about 1.8 ms) form
    two modes, so a pooled median sits in the gap between them and jumps
    with the mix; the mean of the per-workload medians does not.
    """
    by_workload = {}
    for (_id, query, *_rest), value in zip(replies, values):
        by_workload.setdefault(traffic.workloads[query], []).append(value)
    return statistics.mean(percentile(group, 50.0) for group in by_workload.values())


def engine_batch_ms(traffic) -> list:
    """In-process ``DiagnosisService.diagnose_batch`` time per behaviour."""
    times = []
    for workload, behavior in zip(traffic.workloads, traffic.behaviors):
        started = time.perf_counter()
        traffic.service.diagnose_batch([DiagnosisRequest(workload, behavior)])
        times.append(1000.0 * (time.perf_counter() - started))
    return times


def run_traced(ctx, traffic, server, connections, timer) -> dict:
    encode_ms = []
    for behavior in traffic.behaviors:
        started = time.perf_counter()
        request_line(0, "w", encode_behavior(behavior))
        encode_ms.append(1000.0 * (time.perf_counter() - started))
    # The wire phases carry no timers beyond the untraced run's, so the
    # tracing overhead is measured where the recorder is live: on the
    # in-process engine, with it (as installed by run) and without it.
    engine_batch_ms(traffic)  # first calls stack each dictionary's signatures
    traced_engine_ms = engine_batch_ms(traffic)
    with obs.use_recorder(obs.NullRecorder()):
        engine_ms = engine_batch_ms(traffic)

    # Dictionary builds on the process backend, against the serial
    # warm-up the reference used.
    ctx.set_backend("process")
    process_busy = 0.0
    for circuit in CIRCUITS:
        workload = traffic.service.workload(circuit)
        started = time.perf_counter()
        build_dictionary(
            workload.timing, workload.patterns, workload.clk, workload.suspects,
            workload.size_samples, base_simulations=workload.base_simulations,
            size_distribution=workload.size_distribution,
        )
        process_busy += time.perf_counter() - started
    ctx.set_backend("serial")

    checker = Checker(ctx, traffic)
    half = ctx.seconds / 2
    loaded, qps = saturate(traffic, checker, connections, half, first_id=1 << 20)
    _open_loop, schedule = paced(
        traffic, checker, connections, half, paced_rate(ctx, qps), first_id=1 << 30
    )
    rtt_ms = [1000.0 * (done - sent) for _i, _q, sent, done in loaded]
    stats = server.stats()
    engine_p50 = percentile(engine_ms, 50.0)
    rtt_p50 = percentile(rtt_ms, 50.0)
    return {
        "layers": {
            "core.parallel.speedup": timer.busy("core.dictionary") / process_busy,
            "service.engine_batch_p50_ms": engine_p50,
            "service.client_encode_p50_ms": percentile(encode_ms, 50.0),
            "service.rtt_p50_ms": rtt_p50,
            "service.wire_p50_ms": rtt_p50 - engine_p50,
            "service.batch_mean": stats["queries_served"] / max(stats["batches_served"], 1),
            "service.rejected": sum(checker.rejected.values()),
            "loadgen.lag_p99_ms": 1000.0 * percentile(schedule.lags, 99.0),
            "trace.overhead": percentile(traced_engine_ms, 50.0) / engine_p50,
        },
        "details": {
            "rejected_by_type": checker.rejected,
            "saturate_qps": qps,
            "rtt_ms": summarize(rtt_ms, 99.0),
            "engine_batch_ms": summarize(engine_ms, 50.0),
            "server_stats": stats,
        },
    }
