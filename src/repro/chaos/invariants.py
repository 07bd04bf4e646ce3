"""Replay chaos runs against clean runs and check recovery invariants.

Every (site, action) cell of the chaos matrix runs a small workload
under an injected fault and compares it with the same workload's
clean run (cached per subsystem).  :data:`SITES` holds one row per
declared fault site: its fire-position horizon, the :data:`WORKLOADS`
entry it drives, and the function that runs its in-process
actions.  Four shared scaffolds run every cell:

* **fire** (:meth:`_Trial.fire`) — arm a ``ChaosController``, run the
  workload under it, and require the fault to have fired;
* **kill** (:func:`_kill`) — SIGKILL a forked run at the fault, then
  resume it through the workload's ``recover``;
* **delay** (:func:`_delay`) — jump the injected clock past the
  wall-clock budget, then resume the checkpointed remainder;
* **serve, then recover** (:func:`_serve`) — answer a FIT-service
  query under the fault, then require the next query clean.

The :class:`InvariantChecker` asserts the runtime's recovery
*contract*, not merely survival:

* **Byte-identical recovery.**  A retried, resumed, or
  shard-recomputed run produces exactly the clean run's data (the
  ``SeedSequence`` discipline makes this checkable as string
  equality on canonical JSON).
* **No observable invalid checkpoint.**  After a SIGKILL at any
  instrumented instant, the checkpoint file is either absent or
  loads cleanly; a stale ``*.tmp`` is swept on runner startup; a
  checkpoint corrupted at rest raises ``CheckpointError`` rather
  than resuming silently.
* **Budgets hold under delay.**  After an injected clock jump, no
  further step runs, a DEADLINE event is recorded, and the
  checkpointed remainder resumes byte-identically.
* **Worker death degrades, flagged.**  A killed pool worker's shards
  are recomputed in-process with ``degraded_shards`` set and tallies
  unchanged.
* **The FIT service stays correct under failure.**  A corrupt or
  torn cache entry is quarantined and recomputed, never served; a
  thundering herd of identical queries costs one computation and
  every waiter gets byte-identical bytes — or one clean shared
  error; a SIGKILL'd service worker yields a degraded-flagged
  response rather than a hang or an unhandled exception.
* **The study ledger never lies.**  After a SIGKILL, a torn append,
  or a duplicate delivery at any study fault point, replaying the
  write-ahead ledger and resuming yields the clean run's report
  byte-for-byte with every shard committed exactly once; a ledger
  corrupted or truncated at rest is detected (``LedgerError``) or
  recovered identically — never resumed silently wrong.
* **A bad surrogate artifact never answers.**  A truncated or
  corrupted artifact is quarantined and the query falls back to a
  live engine with honest provenance; a transient read error is a
  miss, and the artifact serves again afterwards.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import signal
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import serde
from repro.chaos import actions as chaos_actions
from repro.chaos import trials
from repro.chaos.faultpoints import FAULT_POINTS, activated, site_names
from repro.chaos.schedule import (
    ChaosClock,
    ChaosController,
    ChaosSchedule,
    ChaosSpec,
)
from repro.durable import QUARANTINE_SUFFIX
from repro.memory.errors import DDR_SENSITIVITIES
from repro.memory.tester import CorrectLoopTester, DdrTestResult
from repro.runtime.checkpoint import CampaignCheckpoint, FleetCheckpoint
from repro.runtime.errors import CheckpointError, ConfigurationError
from repro.runtime.events import EventKind, EventLog
from repro.runtime.supervisor import (
    Supervisor,
    SupervisedCampaignResult,
    SupervisedFleetResult,
)
from repro.spectra import ROTAX_THERMAL_FLUX
from repro.studies.ledger import LedgerError
from repro.studies.report import StudyReport
from repro.transport import api as transport_api
from repro.transport.batch import BatchTransportEngine
from repro.transport.materials import WATER
from repro.transport.montecarlo import Layer, SlabGeometry
from repro.transport.surrogate.store import SurrogateStore
from repro.transport.tallies import TransportResult

#: Transport trial sizing: 2 seed streams, 2 single-stream shards.
TRANSPORT_N_NEUTRONS = 8192
TRANSPORT_BATCH_SIZE = 4096
TRANSPORT_SOURCE_EV = 1.0e6
TRANSPORT_SEED = 7

#: DDR correct-loop trial sizing.
DDR_GENERATION = 4
DDR_CAPACITY_GBIT = 16.0
DDR_DURATION_S = 600.0
DDR_N_PASSES = 8
DDR_SEED = 2020

#: Max |fallback - surrogate| on the trial query's headline value.
#: Both sides sit near zero for the cadmium trial slab; the slack
#: absorbs the live engine's MC noise at trial history counts.
SURROGATE_TRIAL_TOL = 0.05


# ----------------------------------------------------------------------
# Canonical forms (string equality == byte-identical data)
# ----------------------------------------------------------------------


def canon_exposures(outcome: SupervisedCampaignResult) -> str:
    """Canonical JSON of a campaign run's exposure data."""
    return json.dumps(
        [e.to_dict() for e in outcome.result.exposures],
        sort_keys=True,
    )


def canon_days(outcome: SupervisedFleetResult) -> str:
    """Canonical JSON of a fleet run's per-day data."""
    return json.dumps(
        [d.to_dict() for d in outcome.result.days], sort_keys=True
    )


def canon_transport(result: TransportResult) -> str:
    """Canonical JSON of transport tallies (degradation excluded —
    a degraded run must still produce identical physics)."""
    return json.dumps(
        {
            "source": result.source,
            "transmitted": [
                result.transmitted_thermal,
                result.transmitted_epithermal,
                result.transmitted_fast,
            ],
            "reflected": [
                result.reflected_thermal,
                result.reflected_epithermal,
                result.reflected_fast,
            ],
            "absorbed": result.absorbed,
            "collisions": result.collisions,
            "by_material": dict(
                sorted(result.absorbed_by_material.items())
            ),
        },
        sort_keys=True,
    )


def canon_service(line: str) -> str:
    """Canonical JSON of a service response's data-bearing fields.

    ``cached`` is deliberately excluded: a hit and a miss must carry
    identical *data*, which is exactly what this canon compares.
    """
    data = json.loads(line)
    return json.dumps(
        {
            "ok": data.get("ok"),
            "result": data.get("result"),
            "degraded": data.get("degraded"),
        },
        sort_keys=True,
    )


def canon_study(report: StudyReport) -> str:
    """Canonical JSON of a study's merged report.

    Built purely from durable state, so a kill-and-resume run must
    reproduce it byte-for-byte.
    """
    return json.dumps(report.to_dict(), sort_keys=True)


def canon_ddr(result: DdrTestResult) -> str:
    """Canonical JSON of a DDR correct-loop run's classified errors."""
    rows = sorted(
        (
            e.address,
            e.category.value,
            e.direction.value,
            e.corrupted_bits,
            e.first_pass,
        )
        for e in result.errors
    )
    return json.dumps(
        {"fluence": result.fluence_per_cm2, "errors": rows},
        sort_keys=True,
    )


# ----------------------------------------------------------------------
# Verdicts
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TrialOutcome:
    """One chaos trial's result.

    Attributes:
        fire_at: the site-crossing index the schedule targeted.
        fired: the fault verifiably fired.
        violations: invariant violations observed (empty = pass).
    """

    fire_at: int
    fired: bool
    violations: Tuple[str, ...] = ()

    def to_dict(self) -> dict:
        """Plain-dict form (JSON verdict matrix)."""
        return {
            "fire_at": self.fire_at,
            "fired": self.fired,
            "violations": list(self.violations),
        }


@dataclass
class CellVerdict:
    """All trials of one (site, action) matrix cell."""

    site: str
    action: str
    outcomes: List[TrialOutcome] = field(default_factory=list)

    def violations(self) -> List[str]:
        """Every violation across the cell's trials."""
        out: List[str] = []
        for outcome in self.outcomes:
            out.extend(outcome.violations)
        return out

    def ok(self) -> bool:
        """True when every trial upheld every invariant."""
        return not self.violations()

    def to_dict(self) -> dict:
        """Plain-dict form (JSON verdict matrix)."""
        return {
            "site": self.site,
            "action": self.action,
            "ok": self.ok(),
            "trials": [o.to_dict() for o in self.outcomes],
        }


@dataclass
class ChaosReport:
    """The full verdict matrix of one chaos sweep."""

    seed: int
    n_trials: int
    cells: List[CellVerdict] = field(default_factory=list)

    def ok(self) -> bool:
        """True when no cell violated any invariant."""
        return all(cell.ok() for cell in self.cells)

    def n_violations(self) -> int:
        """Total violations across the matrix."""
        return sum(len(cell.violations()) for cell in self.cells)

    def to_dict(self) -> dict:
        """Plain-dict form (the CLI's JSON output).

        Tagged with the ``chaos-report`` schema via
        :func:`repro.serde.tag`.
        """
        return serde.tag(
            "chaos-report",
            {
                "seed": self.seed,
                "n_trials": self.n_trials,
                "ok": self.ok(),
                "n_violations": self.n_violations(),
                "cells": [cell.to_dict() for cell in self.cells],
            },
        )

    def to_text(self) -> str:
        """Human-readable verdict matrix."""
        lines = [
            f"chaos sweep: seed {self.seed},"
            f" {self.n_trials} trial(s)/cell,"
            f" {len(self.cells)} cell(s)"
        ]
        for cell in self.cells:
            mark = "PASS" if cell.ok() else "FAIL"
            fired = sum(1 for o in cell.outcomes if o.fired)
            lines.append(
                f"  [{mark}] {cell.site:18s} x {cell.action:15s}"
                f" fired {fired}/{len(cell.outcomes)}"
            )
            for violation in cell.violations():
                lines.append(f"         !! {violation}")
        verdict = (
            "all invariants held"
            if self.ok()
            else f"{self.n_violations()} invariant violation(s)"
        )
        lines.append(f"verdict: {verdict}")
        return "\n".join(lines)




# ----------------------------------------------------------------------
# Workloads (one per subsystem; the clean run of each is the baseline)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One subsystem the chaos matrix drives.

    Attributes:
        start: ``start(checker, where=None, **options)`` builds the
            trial-sized runner; ``where`` roots its durable state.
        finish: ``finish(runner, resume)`` runs it to an outcome.
        canon: canonical JSON of an outcome's data.
        state: name of the durable state (checkpoint file or study
            directory) under a trial's scratch directory.
        snapshot: the checkpoint class a supervised run writes.
        recover: ``recover(trial, where)`` resumes a SIGKILL'd run
            and compares it with the clean run.
    """

    start: Callable[..., Any]
    finish: Callable[[Any, bool], Any]
    canon: Callable[[Any], str]
    state: str = ""
    snapshot: Optional[type] = None
    recover: Optional[Callable[["_Trial", Path], None]] = None

    def run(
        self,
        checker: "InvariantChecker",
        where: Optional[Path] = None,
        resume: bool = False,
        **options,
    ) -> Any:
        """Start and finish one run."""
        return self.finish(
            self.start(checker, where, **options), resume
        )


def _study(checker, where=None, poison=False):
    # A study cannot run without a directory; the clean run keeps its
    # own beside the trial directories.
    if where is None:
        name = "clean-study-poison" if poison else "clean-study"
        where = checker.workdir / name
    return trials.make_study_scheduler(where, poison=poison)


def _transport_sweep(checker, where=None, n_workers=1):
    del checker, where
    engine = BatchTransportEngine(SlabGeometry([Layer(WATER, 4.0)]))
    return functools.partial(
        engine.run,
        TRANSPORT_N_NEUTRONS,
        source_energy_ev=TRANSPORT_SOURCE_EV,
        seed=TRANSPORT_SEED,
        batch_size=TRANSPORT_BATCH_SIZE,
        n_workers=n_workers,
    )


def _query(service) -> str:
    """One trial request line answered by ``service``."""
    return trials.run_service_lines(
        service, [trials.service_request_line()]
    )[0]


def _query_once(service, resume: bool) -> str:
    del resume
    try:
        return _query(service)
    finally:
        service.close()


def _recover_checkpoint(t: "_Trial", checkpoint: Path) -> None:
    """Resume a killed supervised run from whatever it left on disk."""
    resumable = _require_checkpoint(t, checkpoint)
    # Constructing the recovery runner sweeps stale tmp files.
    runner = t.workload.start(t.checker, checkpoint)
    _no_stale_tmp(t, "stale tmp not cleaned on startup")
    recovered = t.workload.finish(runner, resumable)
    t.expect(
        t.canon(recovered) == t.clean,
        "recovered result diverged from clean run",
    )
    t.expect(
        not resumable or _has_event(recovered.events, EventKind.RESUME),
        "no RESUME event after resume",
    )


def _recover_study(t: "_Trial", workdir: Path) -> None:
    """Resume a killed study: byte-exact, each shard committed once."""
    scheduler = t.workload.start(t.checker, workdir)
    try:
        resumed = scheduler.run()
    except LedgerError as exc:
        t.violations.append(f"ledger observable invalid after kill: {exc}")
        return
    _study_settled(t, resumed, "resumed result diverged from clean run")
    _no_stale_tmp(t, "stale shard tmp survived resume")
    # replay() raises on any double-committed shard, so a clean
    # replay plus the exact committed count proves each shard was
    # counted exactly once.
    committed = len(scheduler.ledger.replay().committed)
    expected = scheduler.spec.n_shards - (1 if _poisoned(t) else 0)
    t.expect(
        committed == expected,
        f"{committed} shards committed, expected {expected}",
    )


#: The subsystems chaos cells drive, by name.  Names double as the
#: :data:`trials.CHILD_TARGETS` a ``kill-process`` cell forks.
WORKLOADS: Dict[str, Workload] = {
    "campaign": Workload(
        lambda checker, where=None, **options: (
            trials.make_campaign_runner(where, plan=checker.plan, **options)
        ),
        lambda runner, resume: runner.run(resume=resume),
        canon_exposures,
        "ck.json",
        CampaignCheckpoint,
        _recover_checkpoint,
    ),
    "fleet": Workload(
        lambda checker, where=None, **options: (
            trials.make_fleet_runner(where, **options)
        ),
        lambda runner, resume: runner.run(
            n_days=trials.FLEET_N_DAYS, resume=resume
        ),
        canon_days,
        "ck.json",
        FleetCheckpoint,
        _recover_checkpoint,
    ),
    # An existing ledger always resumes.
    "study": Workload(
        _study,
        lambda scheduler, resume: scheduler.run(),
        lambda outcome: canon_study(outcome.report),
        "study",
        recover=_recover_study,
    ),
    "study-poison": Workload(
        functools.partial(_study, poison=True),
        lambda scheduler, resume: scheduler.run(),
        lambda outcome: canon_study(outcome.report),
        "study",
        recover=_recover_study,
    ),
    "transport": Workload(
        _transport_sweep, lambda sweep, resume: sweep(), canon_transport
    ),
    "ddr": Workload(
        lambda checker, where=None: CorrectLoopTester(
            DDR_SENSITIVITIES[DDR_GENERATION],
            DDR_CAPACITY_GBIT,
            seed=DDR_SEED,
        ),
        lambda tester, resume: tester.run(
            ROTAX_THERMAL_FLUX,
            duration_s=DDR_DURATION_S,
            n_passes=DDR_N_PASSES,
        ),
        canon_ddr,
    ),
    "service": Workload(
        lambda checker, where=None, **options: (
            trials.make_service(cache_dir=where, **options)
        ),
        _query_once,
        canon_service,
    ),
}


# ----------------------------------------------------------------------
# One trial in flight, and the checks cells share
# ----------------------------------------------------------------------


@dataclass
class _Trial:
    """One chaos trial: the injection, its scratch directory, the
    workload it drives, and the violations found so far."""

    checker: "InvariantChecker"
    spec: ChaosSpec
    tmpdir: Path
    name: Optional[str]
    violations: List[str] = field(default_factory=list)
    fired: bool = False

    @property
    def workload(self) -> Workload:
        return WORKLOADS[self.name]

    @property
    def clean(self) -> str:
        return self.checker.clean(self.name)

    @property
    def where(self) -> Path:
        return self.tmpdir / self.workload.state

    def canon(self, outcome) -> str:
        return self.workload.canon(outcome)

    def run(self, where: Optional[Path] = None, **options):
        return self.workload.run(self.checker, where, **options)

    def expect(self, ok: bool, violation: str) -> None:
        if not ok:
            self.violations.append(violation)

    def fire(
        self,
        run: Callable[[], Any],
        clock: Optional[ChaosClock] = None,
        proof: Optional[Callable[[Any], bool]] = None,
        unfired: str = "fault never fired",
    ) -> Any:
        """The fire scaffold: run ``run()`` under the armed fault.

        ``proof(result)`` replaces the controller's own record when
        the fault fires in another process (a killed pool worker).
        """
        controller = ChaosController(self.spec, clock=clock)
        with activated(controller):
            result = run()
        self.fired = (
            proof(result) if proof is not None else controller.fired()
        )
        self.expect(self.fired, unfired)
        return result


def _has_event(events, kind: str) -> bool:
    return any(e.kind == kind for e in events)


def _poisoned(t: _Trial) -> bool:
    return t.name == "study-poison"


def _require_checkpoint(
    t: _Trial, path: Path, expect_exists: bool = False
) -> bool:
    """A checkpoint file, if observable, must always load.

    Returns:
        True when a valid checkpoint is there to resume from.
    """
    if not path.exists():
        t.expect(
            not expect_exists,
            f"expected checkpoint at {path.name}, found none",
        )
        return False
    try:
        t.workload.snapshot.load(path)
    except CheckpointError as exc:
        t.violations.append(f"checkpoint observable invalid: {exc}")
        return False
    return True


def _no_stale_tmp(t: _Trial, violation: str) -> None:
    """No ``*.tmp`` may survive anywhere under the trial directory."""
    stale = sorted(p.name for p in t.tmpdir.rglob("*.tmp"))
    t.expect(not stale, f"{violation}: {stale}")


def _study_settled(t: _Trial, outcome, diverged: str) -> None:
    """The study ended as its clean run did, with the same report."""
    expected = "degraded" if _poisoned(t) else "complete"
    t.expect(
        outcome.status == expected,
        f"study ended {outcome.status!r}, expected {expected}",
    )
    t.expect(t.canon(outcome) == t.clean, diverged)


def _internal_error(t: _Trial, line: str, what: str) -> None:
    """``line`` must be a structured ``internal`` error response."""
    try:
        data = json.loads(line)
    except ValueError:
        t.violations.append(f"{what} produced an unparsable line")
        return
    if data.get("ok") is not False:
        t.violations.append(f"{what} did not surface as an error")
    elif data["error"]["code"] != "internal":
        t.violations.append(
            f"{what} surfaced with code {data['error']['code']!r}"
        )


# ----------------------------------------------------------------------
# Shared scaffolds (fire is _Trial.fire)
# ----------------------------------------------------------------------


def _kill(t: _Trial) -> None:
    """The kill scaffold: SIGKILL a forked run at the fault, recover."""
    where = t.where
    armed = dataclasses.replace(
        t.spec, marker_path=str(t.tmpdir / "marker")
    )
    outcome = trials.run_kill_trial(
        t.name, armed, where, plan=t.checker.plan
    )
    t.fired = outcome.fired
    t.expect(not outcome.hung, "chaos child hung past timeout")
    if not t.fired:
        t.violations.append("fault never fired (no marker)")
    elif outcome.exit_code != -signal.SIGKILL:
        t.violations.append(
            f"child exited {outcome.exit_code},"
            f" expected -{int(signal.SIGKILL)}"
        )
    t.workload.recover(t, where)


def _delay(t: _Trial) -> None:
    """The delay scaffold: the deadline stops the run right after the
    clock jump, and the checkpointed remainder resumes exactly."""
    checkpoint = t.where
    clock = ChaosClock()
    outcome = t.fire(
        lambda: t.run(
            checkpoint,
            clock=clock.monotonic,
            wall_clock_budget_s=trials.DELAY_TRIAL_BUDGET_S,
        ),
        clock=clock,
    )
    n_steps = len(json.loads(t.clean))
    if outcome.completed:
        t.expect(
            t.spec.fire_at >= n_steps - 1,
            "deadline not enforced after injected delay",
        )
        t.expect(
            t.canon(outcome) == t.clean, "delayed run diverged from clean"
        )
        return
    t.expect(
        _has_event(outcome.events, EventKind.DEADLINE),
        "no DEADLINE event after delay",
    )
    ran = len(json.loads(t.canon(outcome)))
    t.expect(
        ran == t.spec.fire_at + 1,
        f"budget not respected: {ran} steps ran,"
        f" expected {t.spec.fire_at + 1}",
    )
    _require_checkpoint(t, checkpoint, expect_exists=True)
    resumed = t.run(checkpoint, resume=True)
    t.expect(
        t.canon(resumed) == t.clean,
        "resume after deadline diverged from clean run",
    )
    t.expect(
        _has_event(resumed.events, EventKind.RESUME),
        "no RESUME event on resume",
    )


def _serve(
    t: _Trial,
    serve: Callable[[Any], Any],
    check: Callable[[_Trial, Any, Any], None],
    restart: bool = False,
    n_workers: int = 1,
    **proof,
) -> str:
    """The serve-then-recover scaffold (every ``service.*`` site).

    Answers ``serve(service)`` under the fault and hands its output to
    ``check(t, service, out)``.  The next query must then come back
    clean — on the same service or, with ``restart``, on a fresh one
    over the same cache directory.

    Returns:
        The next query's response line.
    """
    cache_dir = t.tmpdir / "cache" if restart else None
    service = t.workload.start(t.checker, cache_dir, n_workers=n_workers)
    try:
        out = t.fire(lambda: serve(service), **proof)
        check(t, service, out)
        if restart:
            # Its init sweeps stale tmp files, and its first answer
            # proves the cache holds a complete entry or none.
            service.close()
            service = t.workload.start(t.checker, cache_dir)
            _no_stale_tmp(t, "stale cache tmp not swept on startup")
        after = _query(service)
    finally:
        service.close()
    t.expect(
        canon_service(after) == t.clean,
        f"service did not recover after {t.spec.action}",
    )
    return after


# ----------------------------------------------------------------------
# Per-site cells (in-process actions)
# ----------------------------------------------------------------------


def _supervised_fault(t: _Trial) -> None:
    """A transient fault or a failed checkpoint write is ridden out; a
    crash skips exactly one step.  The checkpoint left behind loads
    and no tmp file survives."""
    checkpoint = t.where
    outcome = t.fire(lambda: t.run(checkpoint))
    _require_checkpoint(t, checkpoint, expect_exists=True)
    _no_stale_tmp(t, "tmp file left behind after recovered write")
    if t.spec.action == chaos_actions.CRASH:
        _isolated_crash(t, outcome)
        return
    t.expect(
        outcome.completed,
        f"{t.spec.action} fault was not ridden out (incomplete)",
    )
    t.expect(
        t.canon(outcome) == t.clean, "retried run diverged from clean run"
    )
    t.expect(
        t.spec.action == chaos_actions.DUPLICATE
        or _has_event(outcome.events, EventKind.RETRY),
        "no RETRY event recorded",
    )


def _isolated_crash(t: _Trial, outcome) -> None:
    """Crash isolation: skip exactly one step, keep the prefix, and
    be reproducible under replay."""
    got = t.canon(outcome)
    t.expect(outcome.completed, "crash was not isolated (run incomplete)")
    isolations = sum(
        1 for e in outcome.events if e.kind == EventKind.ISOLATION
    )
    t.expect(
        isolations == 1,
        f"expected exactly 1 isolation, saw {isolations}",
    )
    clean_rows = json.loads(t.clean)
    got_rows = json.loads(got)
    k = t.spec.fire_at
    t.expect(
        got_rows[:k] == clean_rows[:k],
        "pre-fault prefix diverged from clean run",
    )
    t.expect(
        len(got_rows) == len(clean_rows) - 1,
        "isolated step was not exactly skipped"
        f" ({len(got_rows)} vs {len(clean_rows)} exposures)",
    )
    # Replay determinism: the same chaos seed must reproduce the same
    # degraded-but-valid result, or no violation report is ever
    # debuggable.
    replay = t.fire(t.run)
    t.expect(
        t.canon(replay) == got, "chaos run is not reproducible under replay"
    )


def _checkpoint_load(t: _Trial) -> None:
    """A double read resumes exactly; a truncated or corrupted
    checkpoint must be refused."""
    checkpoint = t.where
    # Produce a genuine mid-run checkpoint to attack.
    t.workload.start(t.checker, checkpoint).run(max_steps=2)

    def resume():
        try:
            return t.run(checkpoint, resume=True)
        except CheckpointError:
            return None

    outcome = t.fire(resume)
    if t.spec.action == chaos_actions.DUPLICATE:
        t.expect(
            outcome is not None and t.canon(outcome) == t.clean,
            "double-read resume diverged from clean run",
        )
    else:
        t.expect(
            outcome is None,
            f"{t.spec.action} checkpoint resumed silently"
            " (expected CheckpointError)",
        )


def _transport_fault(t: _Trial) -> None:
    """A failed or duplicated shard is retried and flagged; a killed
    worker's shards are recomputed.  Tallies never change."""
    if t.spec.action == chaos_actions.KILL_WORKER:
        # The kill fires in forked workers; the parent-side proof is
        # the degradation flag plus unchanged tallies.
        result = t.fire(
            lambda: t.run(n_workers=2),
            proof=lambda r: r.degraded_shards > 0,
            unfired="worker kill produced no degraded shard",
        )
    else:
        result = t.fire(lambda: t.run(n_workers=1))
        expected = 0 if t.spec.action == chaos_actions.DUPLICATE else 1
        t.expect(
            result.degraded_shards == expected,
            f"expected degraded_shards={expected},"
            f" got {result.degraded_shards}",
        )
    t.expect(
        t.canon(result) == t.clean, "faulted tallies diverged from clean"
    )


def _memory_fault(t: _Trial) -> None:
    """A transient pass fault retries on a fresh tester; a crash is
    isolated and a clean attempt still matches."""
    events = EventLog()
    supervisor = Supervisor(events=events, sleep=trials._no_sleep)
    if t.spec.action == chaos_actions.RAISE_TRANSIENT:
        result = t.fire(lambda: supervisor.call("ddr", t.run))
        t.expect(
            events.count(EventKind.RETRY) >= 1, "no RETRY event recorded"
        )
    else:
        isolated = t.fire(lambda: supervisor.isolate("ddr", t.run))
        t.expect(isolated is None, "crash was not isolated")
        t.expect(
            events.count(EventKind.ISOLATION) == 1,
            "no ISOLATION event recorded",
        )
        result = t.run()
    t.expect(
        t.canon(result) == t.clean, "DDR run diverged from clean run"
    )


def _same_as_clean(t: _Trial, service, out: str) -> None:
    del service
    t.expect(
        canon_service(out) == t.clean,
        "faulted response diverged from clean run",
    )


def _service_cache(t: _Trial) -> None:
    """Cache-write faults: responses unharmed, no torn entry."""
    after = _serve(t, _query, _same_as_clean, restart=True)
    cached = json.loads(after).get("cached")
    if t.spec.action == chaos_actions.CRASH:
        # The one write attempt crashed; no entry may exist.
        t.expect(not cached, "crashed cache write left a served entry")
    else:
        # Transient/torn faults are retried to success.
        t.expect(cached, "retried cache write did not produce a hit")


def _warm_then_query(service) -> str:
    # Fork the pool inside activation so workers inherit the armed
    # controller.
    service.executor.warm()
    return _query(service)


def _worker_retried(t: _Trial, service, out: str) -> None:
    del service
    data = json.loads(out)
    t.expect(
        data.get("ok") is True, "worker kill surfaced as an error response"
    )
    t.expect(
        data.get("degraded_reason") == "worker-retry",
        f"degraded_reason is {data.get('degraded_reason')!r},"
        " expected 'worker-retry'",
    )
    # Only the top-level flag changes.  The nested provenance flag
    # means "a different engine than requested", and a retry on a
    # fresh worker keeps the engine.
    t.expect(
        json.loads(canon_service(out))
        == dict(json.loads(t.clean), degraded=True),
        "post-worker-death result diverged from clean",
    )


def _dispatch_retried(t: _Trial, service, out: str) -> None:
    _same_as_clean(t, service, out)
    t.expect(
        service.executor.events.count(EventKind.RETRY) >= 1,
        "no RETRY event recorded",
    )


def _service_dispatch(t: _Trial) -> None:
    """Dispatch faults: retry, isolate, or degrade — never wedge."""
    if t.spec.action == chaos_actions.KILL_WORKER:
        # The kill fires inside a forked worker; the parent-side
        # proof is the degradation flag.
        _serve(
            t,
            _warm_then_query,
            _worker_retried,
            n_workers=2,
            proof=lambda out: bool(json.loads(out).get("degraded")),
            unfired="worker kill produced no degraded response",
        )
    elif t.spec.action == chaos_actions.RAISE_TRANSIENT:
        _serve(t, _query, _dispatch_retried)
    else:
        _serve(
            t,
            _query,
            lambda t, s, out: _internal_error(t, out, "dispatch crash"),
        )


def _herd(service, n_clients: int) -> List[str]:
    return trials.run_service_storm(
        service, trials.service_request_line(), n_clients
    )


def _herd_recovers(t: _Trial, service, faulted: List[str]) -> None:
    t.expect(
        len(set(faulted)) == 1,
        "coalesced waiters saw different handoff failures",
    )
    for response in set(faulted):
        _internal_error(t, response, "handoff fault")
    t.expect(
        service.executor.compute_count == 1,
        "faulted storm was not coalesced"
        f" ({service.executor.compute_count} computations)",
    )
    # Fires exhausted: the full storm must now succeed with
    # byte-identical payloads from a single computation.
    before = service.executor.compute_count
    storm = _herd(service, trials.SERVICE_STORM_CLIENTS)
    t.expect(
        len(set(storm)) == 1,
        "storm responses were not byte-identical"
        f" ({len(set(storm))} distinct)",
    )
    t.expect(
        canon_service(storm[0]) == t.clean,
        "storm response diverged from clean run",
    )
    computed = service.executor.compute_count - before
    t.expect(
        computed == 1,
        f"storm of {trials.SERVICE_STORM_CLIENTS} cost"
        f" {computed} computations, expected 1",
    )


def _service_handoff(t: _Trial) -> None:
    """Coalescer handoff faults: one shared clean error, then a full
    thundering herd resolved by one computation."""
    _serve(t, lambda service: _herd(service, 8), _herd_recovers)


def _service_respond(t: _Trial) -> None:
    """Serialization faults: a structured error line, then clean."""
    _serve(
        t, _query, lambda t, s, out: _internal_error(t, out, "respond fault")
    )


def _study_or_refusal(t: _Trial):
    """Run (or resume) the trial's study; a refusal is returned."""
    try:
        return t.run(t.where)
    except LedgerError as exc:
        return exc


def _ledger_fault(t: _Trial) -> None:
    """Ledger-append faults: healed, skipped, or refused — the
    replayed state is never silently wrong."""
    outcome = t.fire(lambda: _study_or_refusal(t))
    if t.spec.action in (
        chaos_actions.RAISE_TRANSIENT,
        chaos_actions.TORN_WRITE,
        chaos_actions.DUPLICATE,
    ):
        if isinstance(outcome, LedgerError):
            t.violations.append(
                f"{t.spec.action} ledger append was not ridden out"
            )
            return
        _study_settled(t, outcome, "faulted run diverged from clean run")
        resumed = _study_or_refusal(t)
        if isinstance(resumed, LedgerError):
            t.violations.append(
                f"recovered ledger refused replay: {resumed}"
            )
        else:
            t.expect(
                t.canon(resumed) == t.clean,
                "resume diverged from clean run",
            )
        return
    # truncate / corrupt (storage rot): either every subsequent
    # replay refuses with LedgerError, or — for a truncation that
    # merely looks like a torn tail — resume recovers the clean
    # report exactly.  Silent divergence is the only violation.
    if not isinstance(outcome, LedgerError):
        resumed = _study_or_refusal(t)
        if not isinstance(resumed, LedgerError):
            if t.spec.action == chaos_actions.CORRUPT:
                t.violations.append(
                    "corrupt ledger record resumed silently"
                )
            else:
                t.expect(
                    t.canon(resumed) == t.clean,
                    "truncated ledger resumed to a wrong report",
                )
            return
    # The refusal must be durable: a later resume attempt must keep
    # raising rather than append onto a corrupt ledger.
    t.expect(
        isinstance(_study_or_refusal(t), LedgerError),
        f"{t.spec.action} ledger refusal was not durable",
    )


def _study_fault(t: _Trial):
    """Run the study under the fault: it settles as the clean run did
    and leaves no torn shard tmp (a failed publish is retried
    idempotently).  Returns the scheduler for site-specific checks."""
    scheduler = t.workload.start(t.checker, t.where)
    outcome = t.fire(scheduler.run)
    _study_settled(t, outcome, "faulted run diverged from clean run")
    _no_stale_tmp(t, "torn shard tmp left behind")
    return scheduler


def _study_dispatch(t: _Trial) -> None:
    """Dispatch faults: retried or failure-counted, never wedged,
    tallies unchanged."""
    scheduler = _study_fault(t)
    failures = dict(scheduler.ledger.replay().failures)
    if t.spec.action == chaos_actions.RAISE_TRANSIENT:
        t.expect(
            scheduler.events.count(EventKind.RETRY) >= 1,
            "no RETRY event recorded",
        )
        t.expect(
            not failures,
            "transient dispatch fault recorded a deterministic"
            f" failure: {failures}",
        )
    else:
        t.expect(
            sum(failures.values()) == 1,
            f"expected exactly 1 ledgered failure, saw {failures}",
        )


def _study_quarantine(t: _Trial) -> None:
    """The poison shard lands in quarantine exactly once and the
    study degrades instead of wedging."""
    scheduler = _study_fault(t)
    quarantined = sorted(scheduler.ledger.replay().quarantined)
    t.expect(
        quarantined == [trials.STUDY_POISON_SHARD],
        f"quarantined {quarantined},"
        f" expected {[trials.STUDY_POISON_SHARD]}",
    )


def _surrogate_load(t: _Trial) -> None:
    """Artifact-load faults: the facade always answers.

    A truncated or corrupted artifact is quarantined on first read
    and the query falls back to a live engine with honest provenance
    (no surrogate digest); a transient read error is a miss, not a
    quarantine — the artifact survives and a fresh store serves it
    again.
    """
    root = t.tmpdir / "surrogate"
    digest = trials.make_surrogate_root(root)
    query = trials.surrogate_query()

    def answer():
        # The helper's query carries the trial workload's documented
        # constant seed; taint cannot see through its return value.
        return transport_api.answer(
            query, store=SurrogateStore(root)  # repro: noqa REP101
        )

    clean = answer()
    t.expect(
        clean.provenance.engine == "surrogate",
        "clean pass did not serve from the surrogate"
        f" ({clean.provenance.engine!r})",
    )
    chaos = t.fire(answer)
    t.expect(
        0.0 <= chaos.value <= 1.0,
        f"chaos answer is not a fraction: {chaos.value}",
    )
    t.expect(
        abs(chaos.value - clean.value) <= SURROGATE_TRIAL_TOL,
        "fallback answer diverged from the certified one:"
        f" {chaos.value} vs {clean.value}",
    )
    served = chaos.provenance.engine == "surrogate"
    quarantined = list(root.glob("*" + QUARANTINE_SUFFIX))
    if t.spec.action == chaos_actions.RAISE_TRANSIENT:
        t.expect(
            not served, "transient load fault did not miss the surrogate"
        )
        t.expect(
            not quarantined,
            "transient fault quarantined a healthy artifact",
        )
        retry = answer()
        if retry.provenance.engine != "surrogate":
            t.violations.append(
                "artifact not served again after transient fault"
            )
        else:
            t.expect(
                retry.provenance.artifact_digest == digest,
                "retry served a different artifact",
            )
        return
    t.expect(not served, f"{t.spec.action}d artifact still served the query")
    t.expect(
        not chaos.provenance.artifact_digest,
        "fallback answer claims an artifact digest",
    )
    t.expect(
        bool(quarantined), f"{t.spec.action}d artifact was not quarantined"
    )


# ----------------------------------------------------------------------
# The cell table
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Site:
    """Everything the matrix needs to run one fault site's cells.

    Attributes:
        horizon: fire-position range (rough crossings per trial run);
            ``None`` means one per campaign plan step.
        workload: the :data:`WORKLOADS` entry the site's cells drive
            (``None`` for the surrogate site's own artifact).
        trial: runs the in-process actions; ``kill-process`` and
            ``delay`` go to the shared kill and delay scaffolds.
    """

    horizon: Optional[int]
    workload: Optional[str]
    trial: Callable[[_Trial], None]


#: One row per declared fault site.
SITES: Dict[str, Site] = {
    "supervisor.step": Site(None, "campaign", _supervised_fault),
    "campaign.exposure": Site(None, "campaign", _supervised_fault),
    "checkpoint.write": Site(None, "campaign", _supervised_fault),
    "checkpoint.load": Site(1, "campaign", _checkpoint_load),
    "fleet.day": Site(trials.FLEET_N_DAYS, "fleet", _supervised_fault),
    "batch.worker": Site(2, "transport", _transport_fault),
    "batch.merge": Site(2, "transport", _transport_fault),
    "memory.pass": Site(DDR_N_PASSES, "ddr", _memory_fault),
    # One crossing per trial request for every service site.
    "service.cache_write": Site(1, "service", _service_cache),
    "service.dispatch": Site(1, "service", _service_dispatch),
    "service.handoff": Site(1, "service", _service_handoff),
    "service.respond": Site(1, "service", _service_respond),
    # Study: started + 4 shard commits + finished = 6 appends;
    # 4 dispatches; 4 store publishes; 1 quarantine (the poison
    # trial's single poison shard).
    "studies.ledger_append": Site(6, "study", _ledger_fault),
    "studies.shard_dispatch": Site(4, "study", _study_dispatch),
    "studies.shard_commit": Site(4, "study", _study_fault),
    "studies.quarantine": Site(1, "study-poison", _study_quarantine),
    # One artifact load per fresh store.
    "surrogate.artifact_load": Site(1, None, _surrogate_load),
}

#: Actions whose scaffold is shared by every site that declares them.
_ACTION_SCAFFOLDS: Dict[str, Callable[[_Trial], None]] = {
    chaos_actions.KILL_PROCESS: _kill,
    chaos_actions.DELAY: _delay,
}


def _site(name: str) -> Site:
    if name not in SITES:
        raise ConfigurationError(f"no trial harness for {name!r}")
    return SITES[name]


# ----------------------------------------------------------------------
# The checker
# ----------------------------------------------------------------------


class InvariantChecker:
    """Runs the chaos matrix and verifies recovery invariants.

    Args:
        seed: chaos seed (drives fire positions; independent of all
            workload seeds).
        n_trials: trials per matrix cell.
        plan: campaign plan name trials execute.
        workdir: scratch directory for checkpoints/markers (a fresh
            temporary directory by default).
    """

    def __init__(
        self,
        seed: int = 2020,
        n_trials: int = 2,
        plan: str = "heterogeneous",
        workdir: Optional[Union[str, Path]] = None,
    ) -> None:
        if n_trials < 1:
            raise ConfigurationError(
                f"n_trials must be >= 1, got {n_trials}"
            )
        self.schedule = ChaosSchedule(seed)
        self.seed = int(seed)
        self.n_trials = int(n_trials)
        self.plan = plan
        self.plan_len = len(trials.build_campaign_plan(plan))
        self.workdir = Path(
            workdir
            if workdir is not None
            else tempfile.mkdtemp(prefix="repro-chaos-")
        )
        self._clean: Dict[str, str] = {}

    def clean(self, name: str) -> str:
        """Canonical data of workload ``name``'s clean run (cached)."""
        if name not in self._clean:
            workload = WORKLOADS[name]
            self._clean[name] = workload.canon(workload.run(self))
        return self._clean[name]

    def horizon(self, site: str, action: str) -> int:
        """Fire-position range for one cell (rough crossings/run)."""
        if action == chaos_actions.KILL_WORKER:
            # Each pool worker sees only its own crossings; firing at
            # the first guarantees the kill lands in every worker.
            return 1
        horizon = _site(site).horizon
        return self.plan_len if horizon is None else horizon

    def run_matrix(
        self,
        sites: Optional[Sequence[str]] = None,
        actions: Optional[Sequence[str]] = None,
    ) -> ChaosReport:
        """Sweep the (site, action) matrix and collect verdicts.

        Args:
            sites: restrict to these sites (default: all declared).
            actions: restrict to these actions (default: each site's
                full declared set).
        """
        report = ChaosReport(seed=self.seed, n_trials=self.n_trials)
        for site in site_names():
            if sites and site not in sites:
                continue
            for action in FAULT_POINTS[site].actions:
                if actions and action not in actions:
                    continue
                report.cells.append(self.check_cell(site, action))
        return report

    def check_cell(self, site: str, action: str) -> CellVerdict:
        """Run every trial of one (site, action) cell."""
        specs = self.schedule.trials(
            site,
            action,
            self.n_trials,
            self.horizon(site, action),
            worker_only=(action == chaos_actions.KILL_WORKER),
        )
        verdict = CellVerdict(site=site, action=action)
        for index, spec in enumerate(specs):
            slug = f"{site.replace('.', '_')}-{action}-{index}"
            tmpdir = self.workdir / slug
            tmpdir.mkdir(parents=True, exist_ok=True)
            violations, fired = self._run_trial(spec, tmpdir)
            verdict.outcomes.append(
                TrialOutcome(
                    fire_at=spec.fire_at,
                    fired=fired,
                    violations=tuple(violations),
                )
            )
        return verdict

    def _run_trial(
        self, spec: ChaosSpec, tmpdir: Path
    ) -> Tuple[List[str], bool]:
        site = _site(spec.site)
        trial = _Trial(self, spec, tmpdir, site.workload)
        _ACTION_SCAFFOLDS.get(spec.action, site.trial)(trial)
        return trial.violations, trial.fired


__all__ = [
    "ChaosReport",
    "InvariantChecker",
]
