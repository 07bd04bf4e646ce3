"""The invariant checker: matrix cells pass, broken invariants fail.

TestFullMatrix runs every declared (site, action) cell once.  The
second half is the suite's reason to exist: when a recovery fix is
(deliberately) reverted — checksum verification disabled, the atomic
tmp-rename write replaced with an in-place write, or the wall-clock
deadline never enforced — the chaos matrix must FAIL the corresponding
cell, proving the harness actually exercises the invariant rather than
vacuously passing.
"""

import json
import multiprocessing

import pytest

from repro.chaos.faultpoints import FAULT_POINTS
from repro.chaos.invariants import ChaosReport, InvariantChecker
from repro.chaos.schedule import ChaosSpec
from repro.runtime import checkpoint as checkpoint_module
from repro.runtime.budget import BudgetTracker


@pytest.fixture()
def checker(tmp_path):
    return InvariantChecker(
        seed=2020, n_trials=1, workdir=tmp_path / "chaos"
    )


class TestCheapCells:
    def test_batch_merge_cells_pass(self, checker):
        report = checker.run_matrix(sites=["batch.merge"])
        assert report.ok(), report.to_text()
        assert len(report.cells) == 2
        assert all(
            outcome.fired
            for cell in report.cells
            for outcome in cell.outcomes
        )

    def test_checkpoint_load_cells_pass(self, checker):
        report = checker.run_matrix(sites=["checkpoint.load"])
        assert report.ok(), report.to_text()
        assert {c.action for c in report.cells} == {
            "truncate",
            "corrupt",
            "duplicate",
        }

    def test_memory_pass_cells_pass(self, checker):
        report = checker.run_matrix(sites=["memory.pass"])
        assert report.ok(), report.to_text()

    def test_campaign_transient_cell_passes(self, checker):
        report = checker.run_matrix(
            sites=["supervisor.step"], actions=["raise-transient"]
        )
        assert report.ok(), report.to_text()

    def test_campaign_crash_cell_passes(self, checker):
        report = checker.run_matrix(
            sites=["campaign.exposure"], actions=["crash"]
        )
        assert report.ok(), report.to_text()


class TestFullMatrix:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="kill cells fork their workload",
    )
    def test_every_declared_cell_holds(self, checker):
        report = checker.run_matrix()
        assert report.ok(), report.to_text()
        declared = [
            (site, action)
            for site, point in FAULT_POINTS.items()
            for action in point.actions
        ]
        cells = [(cell.site, cell.action) for cell in report.cells]
        assert sorted(cells) == sorted(declared)
        assert len(cells) == len(set(cells))


class TestReport:
    def test_json_round_trips(self, checker):
        report = checker.run_matrix(
            sites=["batch.merge"], actions=["duplicate"]
        )
        data = json.loads(json.dumps(report.to_dict()))
        assert data["ok"] is True
        assert data["n_violations"] == 0
        assert data["cells"][0]["site"] == "batch.merge"

    def test_text_matrix_shows_verdicts(self, checker):
        report = checker.run_matrix(
            sites=["batch.merge"], actions=["duplicate"]
        )
        text = report.to_text()
        assert "[PASS]" in text
        assert "all invariants held" in text

    def test_empty_report_is_ok(self):
        assert ChaosReport(seed=1, n_trials=1).ok()


class TestBrokenInvariantsAreCaught:
    def test_disabled_checksum_verification_is_flagged(
        self, checker, monkeypatch
    ):
        # Revert satellite (b): loading no longer verifies payload
        # checksums.  The corrupt cell must now FAIL, because the
        # altered checkpoint resumes silently instead of raising.
        monkeypatch.setattr(
            checkpoint_module,
            "verify_checksum",
            lambda data, path: None,
        )
        spec = ChaosSpec("checkpoint.load", "corrupt", fire_at=0)
        tmpdir = checker.workdir / "broken-checksum"
        tmpdir.mkdir(parents=True)
        violations, fired = checker._run_trial(spec, tmpdir)
        assert fired
        assert any("resumed silently" in v for v in violations)

    def test_non_atomic_write_is_flagged(self, checker, monkeypatch):
        # Revert satellite (a): write the checkpoint in place instead
        # of tmp-fsync-rename.  A SIGKILL mid-write now leaves a torn
        # file on disk, and the kill cell must FAIL with an
        # observable-invalid-checkpoint violation.
        def _non_atomic_write_json(path, payload):
            text = json.dumps(payload, indent=2, sort_keys=True)
            path.write_text(text[: len(text) // 2])
            checkpoint_module.fault_point(
                "checkpoint.write",
                path=str(path),
                tmp=str(path.with_suffix(path.suffix + ".tmp")),
                text=text,
            )
            path.write_text(text)

        monkeypatch.setattr(
            checkpoint_module, "_write_json", _non_atomic_write_json
        )
        # Fire at the second write so a (torn) file already exists.
        spec = ChaosSpec(
            "checkpoint.write", "kill-process", fire_at=1
        )
        tmpdir = checker.workdir / "broken-atomic"
        tmpdir.mkdir(parents=True)
        violations, fired = checker._run_trial(spec, tmpdir)
        assert fired
        assert any("observable invalid" in v for v in violations), (
            violations
        )

    def test_unenforced_deadline_is_flagged(self, checker, monkeypatch):
        # Break budget enforcement: the deadline never trips.  Both
        # delay cells must now FAIL, because the run carries on past
        # the injected clock jump.
        monkeypatch.setattr(
            BudgetTracker, "deadline_exceeded", lambda self: False
        )
        for site in ("supervisor.step", "fleet.day"):
            spec = ChaosSpec(site, "delay", fire_at=1)
            tmpdir = checker.workdir / f"broken-deadline-{site}"
            tmpdir.mkdir(parents=True)
            violations, fired = checker._run_trial(spec, tmpdir)
            assert fired
            assert (
                "deadline not enforced after injected delay" in violations
            ), violations
