"""Wire-level benchmark of the FIT service and the studies CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload surrogate-cold --seed 1 \
        --seconds 10 --trace 0

``--trace 0`` is the timed pass: the program runs as child processes
(``repro serve``, ``repro studies run``) and is driven over real
sockets; it prints the end-to-end metrics.  ``--trace 1`` replays the
same inputs in-process with spans around each layer's public
functions and prints the per-layer metrics (see ``traced.py``).
``--workload all`` runs every workload in turn, one process each.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

# Leave nothing behind in the benchmark's own directory.
sys.dont_write_bytecode = True

import checks  # noqa: E402
import wire  # noqa: E402
import workloads  # noqa: E402
from workloads import (  # noqa: E402
    PROBE,
    SERVICE_STREAMS,
    WORKLOADS,
    request_key,
    study_points,
    study_spec,
)

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"

#: Servers booted per service run; each serves an equal slice of the
#: timed run, and ``setup_s`` / ``peak_rss_mb`` are medians over them.
BOOTS = 5
#: Surfaces the benchmark's surrogate artifact holds.
ARTIFACT_SHIELDS = ("cadmium", "borated-poly")
LEDGER_POLL_S = 0.001


def source_digest(root: Path) -> str:
    """Content hash of the program's sources (artifact cache key)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    digest.update(repr(ARTIFACT_SHIELDS).encode())
    return digest.hexdigest()[:16]


def surrogate_artifact(root: Path) -> Path:
    """The certified surrogate store, built by the code under test.

    Built once per source tree with ``repro surrogate build`` and
    reused by later runs in the same checkout; never timed.
    """
    final = WORK / f"artifact-{source_digest(root)}"
    if any(final.glob("*.json")):
        return final
    staging = WORK / f"artifact-staging-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    command = wire.repro_command(
        "surrogate", "build", "--out", str(staging), "--name", "bench"
    )
    for shield in ARTIFACT_SHIELDS:
        command += ["--shield", shield]
    subprocess.run(
        command,
        cwd=root,
        env=wire.child_env(root, WORK),
        check=True,
        stdout=subprocess.DEVNULL,
    )
    shutil.rmtree(final, ignore_errors=True)
    os.replace(staging, final)
    return final


def percentiles(latencies_s: List[float]) -> Tuple[float, float]:
    """(p50, p90) in milliseconds."""
    if len(latencies_s) < 2:
        return latencies_s[0] * 1e3, latencies_s[0] * 1e3
    deciles = statistics.quantiles(latencies_s, n=10)
    return statistics.median(latencies_s) * 1e3, deciles[8] * 1e3


# -- service workloads --------------------------------------------------


def service_pass(
    workload: str, seed: int, seconds: float, workdir: Path, artifact: Path
) -> checks.Outcome:
    """Timed pass of a service workload against ``repro serve``."""
    outcome = checks.Outcome()
    client_cpus, server_cpus = wire.cpu_split()
    wire.pin(client_cpus)
    yardstick_ms = [wire.host_yardstick_ms(server_cpus)]
    warm, stream = SERVICE_STREAMS[workload](seed)
    setups, rss_mb, exchanges, segment_pcts = [], [], [], []
    elapsed_s = 0.0
    first: Dict[tuple, dict] = {}
    # The timed run is split over BOOTS fresh servers: each boot gives
    # a set-up sample, and each server its own percentiles (below).
    for boot in range(BOOTS):
        server = wire.Server(
            ROOT, workdir, artifact, f"boot{boot}", server_cpus, PROBE
        )
        try:
            setups.append(server.setup_s)
            conn = wire.Connection(server.port)
            try:
                for request in warm:
                    response = conn.call(request)
                    if not response.get("ok"):
                        raise RuntimeError(f"warm-up failed: {response}")
                    first.setdefault(request_key(request), response["result"])
            finally:
                conn.close()
            done, took_s = wire.closed_loop(
                server.port,
                stream,
                workloads.CONNECTIONS[workload],
                seconds / BOOTS,
                first_id=len(exchanges) + 1,
            )
            exchanges += done
            elapsed_s += took_s
            segment_pcts.append(percentiles([e.latency_s for e in done]))
            rss_mb.append(server.peak_rss_mb())
        finally:
            server.stop()

    yardstick_ms.append(wire.host_yardstick_ms(server_cpus))
    outcome.attempted = len(exchanges)
    checked = []
    hits = 0
    for exchange in exchanges:
        response = json.loads(exchange.raw)
        if not response.get("ok") or response.get("id") != str(
            exchange.request_id
        ):
            outcome.failed += 1
            if len(outcome.problems) < 20:
                outcome.problems.append(f"failed: {response}")
            continue
        hits += bool(response.get("cached"))
        result = checks.check_answer(
            workload, exchange.request, response, outcome, first
        )
        if result is not None:
            checked.append((exchange.request, result))
    for problem in checks.exact_mismatches(
        checks.sample(checked, seed), str(artifact)
    ):
        outcome.wrong_answer(problem)

    # Per-server percentiles, averaged over the servers.  The host's
    # speed drifts in phases of seconds; over a pooled sample the
    # median jumps whole phases whenever the fast share crosses one
    # half, while the mean over servers moves in proportion to it.
    p50, p90 = (statistics.fmean(pcts) for pcts in zip(*segment_pcts))
    outcome.metrics = {
        "p50_ms": (p50, "ms"),
        "p90_ms": (p90, "ms"),
        "throughput_ops_s": (len(exchanges) / elapsed_s, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss_mb), "MB"),
    }
    outcome.notes.append(
        f"requests={len(exchanges)} cache_hit_share="
        f"{hits / max(1, len(exchanges)):.3f}"
        f" setups_s={[round(s, 3) for s in setups]}"
    )
    outcome.notes.append(_yardstick_note(yardstick_ms))
    return outcome


def _yardstick_note(yardstick_ms: List[float]) -> str:
    return (
        "host yardstick before/after (ms, lower is a faster host): "
        + " / ".join(f"{v:.2f}" for v in yardstick_ms)
    )


# -- study-grid ----------------------------------------------------------


def _watch_ledger(proc, ledger: Path) -> Tuple[List[Tuple[str, float]], int, int]:
    """Poll the ledger until the CLI exits.

    Returns:
        (record type, arrival time) for every ledger record, the exit
        code, and the child's peak RSS in KiB.
    """
    records: List[Tuple[str, float]] = []
    offset = 0
    partial = b""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        now = time.perf_counter()
        try:
            size = ledger.stat().st_size
        except FileNotFoundError:
            size = 0
        if size > offset:
            with open(ledger, "rb") as handle:
                handle.seek(offset)
                chunk = handle.read(size - offset)
            offset += len(chunk)
            lines = (partial + chunk).split(b"\n")
            partial = lines.pop()
            for line in lines:
                records.append((json.loads(line)["type"], now))
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return records, proc.returncode, usage.ru_maxrss
        time.sleep(LEDGER_POLL_S)


def study_pass(seed: int, seconds: float, workdir: Path) -> checks.Outcome:
    """Timed pass of ``study-grid``: ``repro studies run`` back to back."""
    outcome = checks.Outcome()
    client_cpus, server_cpus = wire.cpu_split()
    wire.pin(client_cpus)
    yardstick_ms = [wire.host_yardstick_ms(server_cpus)]
    spec = study_spec(seed)
    points = study_points(spec)
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    setups, shard_s, rss_kb = [], [], []
    reports: List[bytes] = []
    done_points = 0
    start = time.perf_counter()
    deadline = start + seconds
    while not reports or time.perf_counter() < deadline:
        run_dir = workdir / f"study{len(reports)}"
        run_dir.mkdir()
        ledger = run_dir / "study.ledger"
        report = run_dir / "report.json"
        launched = time.perf_counter()
        with open(run_dir / "cli.log", "wb") as log:
            proc = subprocess.Popen(
                wire.repro_command(
                    "studies", "run",
                    "--spec", str(spec_path),
                    "--ledger", str(ledger),
                    "--store", str(run_dir / "store"),
                    "--json", str(report),
                ),
                cwd=ROOT,
                env=wire.child_env(ROOT, workdir),
                stdout=log,
                stderr=subprocess.STDOUT,
                preexec_fn=wire.pinner(server_cpus),
            )
            records, code, maxrss_kb = _watch_ledger(proc, ledger)
        outcome.attempted += points
        if code != 0 or not records or records[0][0] != "study-started":
            outcome.failed += points
            outcome.problems.append(
                f"studies run exited {code}; see {run_dir / 'cli.log'}"
            )
            break
        setups.append(records[0][1] - launched)
        commits = [t for kind, t in records if kind == "shard-committed"]
        previous = records[0][1]
        for t in commits:
            shard_s.append(t - previous)
            previous = t
        rss_kb.append(maxrss_kb)
        reports.append(report.read_bytes())
        done_points += points
    elapsed_s = time.perf_counter() - start
    yardstick_ms.append(wire.host_yardstick_ms(server_cpus))
    if outcome.failed:
        return outcome
    for problem in checks.study_mismatches(
        json.loads(reports[0]), points, seed
    ):
        outcome.wrong_answer(problem)
    for index, body in enumerate(reports[1:], 1):
        if body != reports[0]:
            outcome.wrong_answer(f"study report {index} differs from run 0")
    p50, p90 = percentiles(shard_s)
    outcome.metrics = {
        "p50_ms": (p50, "ms"),
        "p90_ms": (p90, "ms"),
        "throughput_ops_s": (done_points / elapsed_s, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss_kb) / 1024.0, "MB"),
    }
    outcome.notes.append(
        f"studies={len(reports)} points={done_points}"
        f" shards={len(shard_s)} setups_s={[round(s, 3) for s in setups]}"
    )
    outcome.notes.append(_yardstick_note(yardstick_ms))
    return outcome


# -- entry point ----------------------------------------------------------


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool
) -> checks.Outcome:
    """One pass of one workload in a fresh work directory."""
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        artifact = (
            surrogate_artifact(ROOT) if workload != "study-grid" else None
        )
        if trace:
            import traced

            return traced.run(workload, seed, seconds, workdir, artifact)
        if workload == "study-grid":
            return study_pass(seed, seconds, workdir)
        return service_pass(workload, seed, seconds, workdir, artifact)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(workload: str, outcome: checks.Outcome) -> None:
    """Print one workload's metrics and counts for people."""
    print(f"== {workload}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:<34} {value:14.4f} {unit}")
    print(
        f"  attempted={outcome.attempted} failed={outcome.failed}"
        f" wrong={outcome.wrong}"
    )
    for note in outcome.notes:
        print(f"  {note}")
    for problem in outcome.problems:
        print(f"  PROBLEM: {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    """Command-line entry point; see the module docstring."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOADS + ("all",)
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: no program sources under {ROOT / 'src' / 'repro'};"
            " run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    # The in-process parts (answer checks, the traced pass) must load
    # this checkout's program, never an installed copy, and run under
    # the same environment as the program's child processes.
    sys.path.insert(0, str(ROOT / "src"))
    WORK.mkdir(exist_ok=True)
    os.environ.update(wire.child_env(ROOT, WORK))
    if args.workload == "all":
        # One process per workload: the traced pass rebinds program
        # functions for the rest of its process.
        codes = [
            subprocess.run(
                [
                    sys.executable, __file__,
                    "--workload", workload,
                    "--seed", str(args.seed),
                    "--seconds", str(args.seconds),
                    "--trace", str(args.trace),
                ],
                check=False,
            ).returncode
            for workload in WORKLOADS
        ]
        return max(codes)
    outcome = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    report(args.workload, outcome)
    print(json.dumps(outcome.result()))
    return 0

if __name__ == "__main__":
    sys.exit(main())
