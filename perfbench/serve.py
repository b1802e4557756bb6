"""The live-server workload: ``serve_http``.

Starts ``python -m repro serve`` in its own process at a fixed dilation
and sends it seeded open-loop Poisson arrivals — three GETs to each PUT —
over two keep-alive connections. Each request is timed from when it was
due, so a stall on the client or the server shows in every request queued
behind it. The traced pass starts the same server through
``serve_traced.py``, which installs span hooks before handing over to the
CLI, so both passes have the same process layout.

Host figures here are not probe-scaled (see :func:`common.probe_scale`):
the probe would run in the client process, while the server's threads run
on whichever core is free, and its speed does not track theirs.

Before the timed window the client PUTs a small preload so the first GETs
have objects to read; after it, the client GETs every acknowledged object
once more and reads ``/status`` to check that nothing went wrong.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from common import OUT, ROOT, BenchError, Outcome, check, child_env, median, percentile

DILATION = 3600.0
RATE_PER_S = 40.0
PUT_SHARE = 0.25
PRELOAD = 16
CONNECTIONS = 2
#: A request without a response by then has failed; it counts at this latency.
REQUEST_TIMEOUT_S = 5.0
#: Server processes started per clean run; ``setup_s`` is their median.
SETUP_SPAWNS = 3
#: Logical object sizes (``X-Size-Bytes``): lognormal around 64 MB.
SIZE_MEDIAN_BYTES = 64e6
SERVER_ARGS = ("--platters", "1200", "--drives", "20", "--shuttles", "20")
READY_TIMEOUT_S = 60.0


# ------------------------------------------------------------------ #
# Server process
# ------------------------------------------------------------------ #


class Server:
    """One server process: started, waited for, measured, stopped."""

    def __init__(self, seed: int, spans_path: Optional[Path] = None):
        repro_args = [
            "--seed", str(seed), "serve", "--port", "0", "--dilation", str(DILATION), *SERVER_ARGS
        ]
        if spans_path is None:
            argv = [sys.executable, "-m", "repro", *repro_args]
        else:
            launcher = Path(__file__).resolve().parent / "serve_traced.py"
            argv = [sys.executable, str(launcher), str(spans_path), *repro_args]
        OUT.mkdir(parents=True, exist_ok=True)
        # The server's own diagnostics (a shutdown traceback, a failed
        # start) go to a log beside the spans, not into the result stream.
        self.log = open(OUT / "serve_http-server.log", "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=self.log, text=True
        )
        try:
            self.port = self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - start

    def _wait_ready(self) -> int:
        """Block until the server prints its ``serving`` line; its port."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        assert self.proc.stdout is not None
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                raise BenchError(
                    f"server exited with {self.proc.wait()} before serving; see {self.log.name}"
                )
            try:
                info = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(info, dict) and "serving" in info:
                return int(info["serving"].rsplit(":", 1)[1])
        raise BenchError("server did not start serving in time")

    def cpu_seconds(self) -> float:
        """CPU time of every live server thread (nanosecond schedstat)."""
        total = 0
        task_dir = Path(f"/proc/{self.proc.pid}/task")
        for task in task_dir.iterdir():
            try:
                total += int((task / "schedstat").read_text().split()[0])
            except (OSError, ValueError, IndexError):
                continue  # a thread that exited between listing and reading
        return total / 1e9

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``) in MB."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
        raise BenchError("no VmHWM in /proc status")

    def stop(self) -> int:
        """SIGTERM (the CLI's clean shutdown), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.log.close()
        return self.proc.returncode


# ------------------------------------------------------------------ #
# Load plan and client
# ------------------------------------------------------------------ #


def plan(seed: int, seconds: float) -> List[Tuple[float, str, float]]:
    """Seeded open-loop arrivals: ``(due_offset_s, kind, draw)``.

    A Poisson process at :data:`RATE_PER_S` conditioned on its count:
    exactly ``RATE_PER_S * seconds`` arrivals at uniform random times, a
    :data:`PUT_SHARE` of them PUTs at random positions, so every seed
    offers the same load. For a PUT ``draw`` is the logical size in bytes;
    for a GET it picks, in [0, 1), which acknowledged object is read.
    """
    rng = np.random.default_rng([seed, 7])
    count = max(1, int(round(RATE_PER_S * seconds)))
    times = np.sort(rng.uniform(0.0, seconds, count))
    is_put = np.zeros(count, dtype=bool)
    is_put[rng.choice(count, size=int(round(PUT_SHARE * count)), replace=False)] = True
    sizes = np.maximum(1, rng.lognormal(np.log(SIZE_MEDIAN_BYTES), 1.0, count).astype(np.int64))
    picks = rng.random(count)
    return [
        (float(t), "PUT", float(size)) if put else (float(t), "GET", float(pick))
        for t, put, size, pick in zip(times, is_put, sizes, picks)
    ]


def plan_digest(arrivals) -> str:
    return hashlib.sha256(repr(arrivals).encode()).hexdigest()[:16]


class Connection:
    """One keep-alive HTTP/1.1 connection; one request in flight."""

    def __init__(self, port: int):
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def request(self, method: str, path: str, headers: Dict[str, str]) -> Tuple[int, dict]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection("127.0.0.1", self.port)
        lines = [f"{method} {path} HTTP/1.1", "Host: bench"]
        lines += [f"{k}: {v}" for k, v in headers.items()]
        self.writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        body = await self.reader.readexactly(length) if length else b""
        return status, json.loads(body) if body else {}

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
            self.reader = self.writer = None


class Client:
    """Drives one server: preload, timed open loop, verification."""

    def __init__(self, port: int):
        self.port = port
        self.sizes: Dict[str, int] = {}  # acknowledged object -> size
        self.acked: List[str] = []
        self.records: List[dict] = []  # timed window only
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    async def _send(
        self, conn: Connection, method: str, oid: str, size: int = 0
    ) -> Tuple[Optional[int], dict]:
        """One request; ``(None, {})`` when it timed out or the link broke."""
        headers = {"X-Size-Bytes": str(size), "Content-Length": "0"} if method == "PUT" else {}
        self.attempted += 1
        try:
            status, body = await asyncio.wait_for(
                conn.request(method, f"/archive/{oid}", headers), REQUEST_TIMEOUT_S
            )
        except (asyncio.TimeoutError, ConnectionError, OSError, asyncio.IncompleteReadError):
            await conn.close()
            self.failed += 1
            return None, {}
        if status >= 500 and status != 503:
            self.errors.append(f"{method} {oid}: HTTP {status}")
        if method == "PUT" and status == 201:
            self.sizes[oid] = size
            self.acked.append(oid)
        elif method == "GET" and status == 200:
            if body.get("size_bytes") != self.sizes.get(oid):
                self.errors.append(
                    f"GET {oid}: size {body.get('size_bytes')} != {self.sizes.get(oid)}"
                )
        else:
            self.failed += 1
        return status, body

    async def preload(self, seed: int) -> None:
        conn = Connection(self.port)
        rng = np.random.default_rng([seed, 8])
        for k in range(PRELOAD):
            size = max(1, int(rng.lognormal(np.log(SIZE_MEDIAN_BYTES), 1.0)))
            await self._send(conn, "PUT", f"pre{seed}-{k}", size)
        await conn.close()
        if len(self.acked) < PRELOAD:
            self.errors.append(f"only {len(self.acked)} of {PRELOAD} preload PUTs acknowledged")

    async def open_loop(self, seed: int, arrivals) -> None:
        queue: asyncio.Queue = asyncio.Queue()
        origin = time.perf_counter() + 0.05

        async def worker() -> None:
            conn = Connection(self.port)
            try:
                while True:
                    item = await queue.get()
                    if item is None:
                        return
                    index, due, kind, draw = item
                    sent = time.perf_counter()
                    if kind == "PUT":
                        oid = f"obj{seed}-{index}"
                        status, body = await self._send(conn, "PUT", oid, int(draw))
                    else:
                        oid = self.acked[int(draw * len(self.acked))]
                        status, body = await self._send(conn, "GET", oid)
                    done = time.perf_counter()
                    self.records.append(
                        {
                            "kind": kind,
                            "due": due,
                            "sent": sent,
                            "done": done,
                            "status": status,
                            "latency_s": body.get("latency_s"),
                        }
                    )
            finally:
                await conn.close()

        workers = [asyncio.create_task(worker()) for _ in range(CONNECTIONS)]
        for index, (offset, kind, draw) in enumerate(arrivals):
            due = origin + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait((index, due, kind, draw))
        for _ in workers:
            queue.put_nowait(None)
        for task in workers:
            await task

    async def verify(self) -> dict:
        """GET every acknowledged object once, then read ``/status``."""
        conn = Connection(self.port)
        for oid in list(self.acked):
            status, _body = await self._send(conn, "GET", oid)
            if status != 200:
                self.errors.append(f"acknowledged object {oid} not readable: {status}")
        status, payload = await asyncio.wait_for(
            conn.request("GET", "/status", {}), REQUEST_TIMEOUT_S
        )
        await conn.close()
        if status != 200:
            self.errors.append(f"/status answered {status}")
        return payload


def latency_ms(record: dict) -> float:
    """Wall latency from due time; a failed request counts at the timeout."""
    if record["status"] not in (200, 201):
        return REQUEST_TIMEOUT_S * 1e3
    return (record["done"] - record["due"]) * 1e3


def session(seed: int, seconds: float, server: Server) -> Outcome:
    """Preload, drive the open loop for ``seconds``, verify; then stop."""
    arrivals = plan(seed, seconds)
    client = Client(server.port)
    try:
        asyncio.run(client.preload(seed))
        cpu_before = server.cpu_seconds()
        asyncio.run(client.open_loop(seed, arrivals))
        cpu = server.cpu_seconds() - cpu_before
        status = asyncio.run(client.verify())
        rss = server.peak_rss_mb()
    finally:
        code = server.stop()
    check(code == 0, f"server exited with code {code}")
    check(not client.errors, "; ".join(client.errors[:5]))
    counters = status.get("counters", {})
    errors = counters.get("server_errors")
    check(errors == 0, f"/status server_errors = {errors}")
    records = client.records
    check(
        len(records) == len(arrivals),
        f"{len(records)} of {len(arrivals)} planned requests recorded",
    )
    gets = [r for r in records if r["kind"] == "GET"]
    puts = [r for r in records if r["kind"] == "PUT"]
    ok_gets = [r for r in gets if r["status"] == 200]
    out = Outcome(attempted=client.attempted, failed=client.failed, host_seconds=[cpu])
    out.counts = {"plan": plan_digest(arrivals), "requests": len(arrivals)}
    out.metrics = {
        "peak_rss_mb": rss,
        "ok_share": (client.attempted - client.failed) / client.attempted,
        "host_ms_per_op": cpu / len(records) * 1e3,
        "op_p50_ms": percentile([latency_ms(r) for r in records], 50),
        "http.get_p50_ms": percentile([latency_ms(r) for r in gets], 50),
        "http.get_p99_ms": percentile([latency_ms(r) for r in gets], 99),
        "http.put_p50_ms": percentile([latency_ms(r) for r in puts], 50),
        "http.put_p99_ms": percentile([latency_ms(r) for r in puts], 99),
        "loadgen.late_p99_ms": percentile([(r["sent"] - r["due"]) * 1e3 for r in records], 99),
        # Simulated read latency at the dilation, minus the wall time the
        # GET took on the wire: positive when admissions are stamped at a
        # sim clock that lags the wall clock.
        "serve.sim_minus_wall_ms": median(
            [r["latency_s"] / DILATION * 1e3 - (r["done"] - r["sent"]) * 1e3 for r in ok_gets]
        )
        if ok_gets
        else 0.0,
        "paced_engine.refused": status.get("injections", {}).get("refused", 0),
    }
    return out


class ServeWorkload:
    """``serve_http``: the live server under seeded open-loop HTTP load."""

    name = "serve_http"

    def clean(self, seed: int, seconds: float, spawns: int = SETUP_SPAWNS) -> Outcome:
        ready = []
        for _ in range(spawns - 1):
            server = Server(seed)
            ready.append(server.ready_s)
            check(server.stop() == 0, "server did not shut down cleanly")
        server = Server(seed)
        ready.append(server.ready_s)
        out = session(seed, seconds, server)
        out.metrics["setup_s"] = median(ready)
        return out

    def traced(self, seed: int, seconds: float) -> Tuple[Outcome, dict]:
        """A session against a server started through the span launcher."""
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / f"{self.name}-seed{seed}-spans.jsonl"
        summary_path = spans_path.with_suffix(".summary.json")
        if summary_path.exists():
            os.unlink(summary_path)
        out = session(seed, seconds, Server(seed, spans_path=spans_path))
        check(summary_path.exists(), "traced server wrote no span summary")
        summary = json.loads(summary_path.read_text())
        table = summary["table"]
        requests = max(1.0, table.get("http.dispatch", {}).get("calls", 0.0))

        def per_call(name: str) -> float:
            row = table.get(name)
            return row["self_s"] / row["calls"] if row and row["calls"] else 0.0

        # The engine thread's busy share: its serve loop's time in child
        # spans (Simulation.run, injected callbacks) over the loop's life.
        serve_row = table.get("engine.serve", {"total_s": 0.0, "self_s": 0.0})
        life = serve_row["total_s"]
        busy_share = (life - serve_row["self_s"]) / life if life else 0.0
        waits = summary["fifo_waits_s"]
        out.metrics.update(
            {
                "http.parse_s": table.get("http.parse", {}).get("self_s", 0.0) / requests,
                "http.render_s": table.get("http.render", {}).get("self_s", 0.0) / requests,
                "paced_engine.fifo_wait_p50_ms": percentile(waits, 50) * 1e3 if waits else 0.0,
                "paced_engine.busy_share": busy_share,
                "serve_core.begin_read_s": per_call("serve_core.begin_read"),
                "serve_core.put_s": per_call("serve_core.put"),
            }
        )
        out.notes["spans"] = summary["spans"]
        return out, summary
