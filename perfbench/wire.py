"""Black-box plumbing: child processes, CPU pinning, the NDJSON client.

The program is only ever started as ``python -m repro ...`` from the
checkout's ``src`` directory and spoken to over TCP, so nothing here
depends on how the service is built inside.
"""

from __future__ import annotations

import contextlib
import json
import os
import select
import selectors
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Sequence, Set, Tuple

#: Server pool size; fixed so the program's configuration does not
#: change with the host.
SERVER_WORKERS = 2
BOOT_TIMEOUT_S = 60.0
IO_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


def cpu_split() -> Tuple[Optional[Set[int]], Optional[Set[int]]]:
    """Disjoint (client, server) CPU sets, or (None, None) on one CPU.

    Pinning keeps the scheduler from migrating the client and the
    server across the same cores, one of the larger noise sources on
    a small host.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, set(cpus[1:])


def pin(cpus: Optional[Set[int]]) -> None:
    """Pin the calling process (and what it forks later) to ``cpus``."""
    if cpus is not None:
        os.sched_setaffinity(0, cpus)


def host_yardstick_ms(cpus: Optional[Set[int]]) -> float:
    """Median time of a fixed pure-Python loop on ``cpus``.

    The program never runs it; it is printed next to each run's
    metrics so that drift in the host's own speed (other tenants on
    shared cores) can be told apart from a change in the program.
    """
    previous = os.sched_getaffinity(0)
    pin(cpus)
    samples = []
    for _ in range(7):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        samples.append(time.perf_counter() - start)
    os.sched_setaffinity(0, previous)
    return sorted(samples)[len(samples) // 2] * 1e3


def child_env(root: Path, workdir: Path) -> dict:
    """Environment for program children: this checkout's sources,
    single-threaded numeric libraries, temp files inside the workdir."""
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONUNBUFFERED="1",
        TMPDIR=str(workdir),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def repro_command(*args: str) -> List[str]:
    """Command line of a ``python -m repro`` child."""
    return [sys.executable, "-m", "repro", *args]


def children_of(pid: int) -> List[int]:
    """Direct children of ``pid`` (from /proc)."""
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            kids.append(int(entry))
    return kids


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Sum of the peak resident sets (VmHWM) of live processes."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def reap(pids: Sequence[int], timeout_s: float = 10.0) -> None:
    """Wait for processes we do not parent to end; kill stragglers."""
    deadline = time.monotonic() + timeout_s
    for pid in pids:
        while _alive(pid):
            if time.monotonic() > deadline:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                deadline = time.monotonic() + timeout_s
            time.sleep(0.01)


def encode(request_id: int, request: dict) -> bytes:
    """One protocol-v2 NDJSON request line."""
    body = {
        "id": str(request_id),
        "v": 2,
        "kind": request["kind"],
        "params": request["params"],
    }
    return json.dumps(body, separators=(",", ":")).encode() + b"\n"


class Connection:
    """One NDJSON connection with at most one request outstanding."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(
            ("127.0.0.1", port), timeout=IO_TIMEOUT_S
        )
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")
        self.pending: Optional[Tuple[int, dict, float]] = None

    def send(self, request_id: int, request: dict) -> None:
        """Send one request and note when it left."""
        line = encode(request_id, request)
        self.pending = (request_id, request, time.perf_counter())
        self.sock.sendall(line)

    def receive(self) -> bytes:
        """The next raw answer line."""
        line = self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return line

    def call(self, request: dict, request_id: int = 0) -> dict:
        """Send one request and return its decoded answer."""
        self.send(request_id, request)
        return json.loads(self.receive())

    def close(self) -> None:
        """Close the connection."""
        self.reader.close()
        self.sock.close()


class Exchange:
    """One timed request: what was sent, the raw answer, its latency."""

    __slots__ = ("request_id", "request", "raw", "latency_s")

    def __init__(self, request_id, request, raw, latency_s) -> None:
        self.request_id = request_id
        self.request = request
        self.raw = raw
        self.latency_s = latency_s


def closed_loop(
    port: int,
    requests: Iterator[dict],
    connections: int,
    seconds: float,
    first_id: int = 1,
) -> Tuple[List[Exchange], float]:
    """Drive ``connections`` closed-loop clients for ``seconds``.

    Each connection sends its next request only after its previous
    answer arrived; no request is sent after the deadline and every
    request sent is awaited.

    Returns:
        The exchanges in completion order and the elapsed seconds
        from the first send to the last answer.
    """
    conns = [Connection(port) for _ in range(connections)]
    selector = selectors.DefaultSelector()
    done: List[Exchange] = []
    next_id = first_id
    try:
        start = time.perf_counter()
        deadline = start + seconds
        for conn in conns:
            conn.send(next_id, next(requests))
            next_id += 1
            selector.register(conn.sock, selectors.EVENT_READ, conn)
        open_conns = len(conns)
        while open_conns:
            ready = selector.select(timeout=IO_TIMEOUT_S)
            if not ready:
                raise TimeoutError("no answer within the I/O timeout")
            for key, _ in ready:
                conn = key.data
                raw = conn.receive()
                now = time.perf_counter()
                request_id, request, sent = conn.pending
                done.append(Exchange(request_id, request, raw, now - sent))
                if now < deadline:
                    conn.send(next_id, next(requests))
                    next_id += 1
                else:
                    selector.unregister(conn.sock)
                    open_conns -= 1
        elapsed = time.perf_counter() - start
    finally:
        selector.close()
        for conn in conns:
            conn.close()
    return done, elapsed


class Server:
    """A running ``repro serve`` child and the set-up time it took."""

    def __init__(
        self,
        root: Path,
        workdir: Path,
        artifact: Path,
        tag: str,
        cpus: Optional[Set[int]],
        probe: dict,
    ) -> None:
        self.log_path = workdir / f"serve-{tag}.log"
        command = repro_command(
            "serve",
            "--port", "0",
            "--workers", str(SERVER_WORKERS),
            "--cache-dir", str(workdir / f"cache-{tag}"),
            "--surrogate-root", str(artifact),
        )
        self._log = open(self.log_path, "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            cwd=root,
            env=child_env(root, workdir),
            stdout=subprocess.PIPE,
            stderr=self._log,
            preexec_fn=pinner(cpus),
        )
        try:
            self.port = self._read_port()
            probe_conn = Connection(self.port)
            try:
                answer = probe_conn.call(probe)
            finally:
                probe_conn.close()
            self.setup_s = time.perf_counter() - started
            if not answer.get("ok"):
                raise RuntimeError(f"set-up probe failed: {answer}")
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], BOOT_TIMEOUT_S)
        line = self.proc.stdout.readline().decode() if ready else ""
        prefix = "repro service listening on "
        if not line.startswith(prefix):
            raise RuntimeError(
                f"server did not start (banner {line!r});"
                f" see {self.log_path}"
            )
        return int(line.strip().rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        """Peak RSS of the server plus its pool workers."""
        pids = [self.proc.pid, *children_of(self.proc.pid)]
        return peak_rss_mb(pids)

    def stop(self) -> None:
        """SIGTERM, wait for the drain, make sure the pool is gone."""
        workers = children_of(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        reap(workers)


def pinner(cpus: Optional[Set[int]]) -> Optional[Callable[[], None]]:
    """A ``preexec_fn`` that pins a child to ``cpus`` (None: no pinning)."""
    if cpus is None:
        return None
    return lambda: os.sched_setaffinity(0, cpus)
