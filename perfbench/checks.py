"""Answer checks: every wire answer is validated, a seeded sample exactly.

The exact check recomputes a sample of answers in-process through the
program's public functions (``transport.api.answer``,
``FitCalculator.report``) from the same inputs and requires the wire
answer to equal it bit for bit (JSON floats round-trip exactly).
The mapping from wire names to program objects is written out here
rather than borrowed from the service, so a service that mislabels
an input is caught.
"""

from __future__ import annotations

import json
import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from workloads import request_key

SAMPLE = 6
#: Kinds the exact check recomputes in-process.
CHECKED_KINDS = ("fit", "transmission")

#: Engine every transmission answer must name, per service workload.
EXPECTED_ENGINE = {
    "surrogate-cold": "surrogate",
    "repeat-hot": "surrogate",
    "live-batch": "batch",
}
#: Workloads whose every timed request must miss the cache.
ALL_MISSES = ("surrogate-cold", "live-batch")

#: Default thickness of each shield (the study grid uses these).
SHIELD_CM = {"cadmium": 0.1, "borated-poly": 5.0, "water": 10.0, "concrete": 30.0}


class Outcome:
    """What one pass measured and how many of its answers were bad."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.notes: List[str] = []

    def wrong_answer(self, message: str) -> None:
        """Count one wrong answer and keep the first few messages."""
        self.wrong += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def result(self) -> dict:
        """The JSON result line's object."""
        return {
            "correct": self.failed == 0 and self.wrong == 0,
            "attempted": self.attempted,
            "failed": self.failed + self.wrong,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def check_answer(
    workload: str,
    request: dict,
    response: dict,
    outcome: Outcome,
    first: Dict[tuple, dict],
) -> Optional[dict]:
    """Validate one answer; returns its result when it is right."""
    result = response.get("result")
    if not isinstance(result, dict):
        outcome.wrong_answer(f"answer without a result: {response}")
        return None
    if request["kind"] == "transmission":
        engine = result.get("engine")
        stamp = (response.get("provenance") or {}).get("engine")
        if engine != EXPECTED_ENGINE[workload] or stamp != engine:
            outcome.wrong_answer(
                f"{request['params']} answered by {engine!r}"
                f" (provenance {stamp!r})"
            )
            return None
    if workload in ALL_MISSES and response.get("cached"):
        outcome.wrong_answer(f"{request['params']} was served from cache")
        return None
    reference = first.setdefault(request_key(request), result)
    if reference != result:
        outcome.wrong_answer(f"{request['params']} changed between answers")
        return None
    return result


def normalised(value):
    """The value as it reads after a JSON round trip."""
    return json.loads(json.dumps(value))


def _material(shield: str):
    from repro.transport import materials

    return {
        "cadmium": materials.CADMIUM,
        "borated-poly": materials.BORATED_POLYETHYLENE,
        "water": materials.WATER,
        "concrete": materials.CONCRETE,
    }[shield]


def _site(name: str):
    from repro import environment

    return {
        "nyc": environment.NEW_YORK,
        "leadville": environment.LEADVILLE,
        "lanl": environment.LOS_ALAMOS,
        "isis": environment.ISIS,
    }[name]


def _scenario(site: str, cooling: str, weather: str):
    from repro.environment import (
        WeatherCondition,
        datacenter_scenario,
        outdoor_scenario,
    )

    condition = WeatherCondition[weather.upper()]
    if cooling == "outdoor":
        return outdoor_scenario(_site(site), weather=condition)
    return datacenter_scenario(
        _site(site), liquid_cooled=cooling == "liquid", weather=condition
    )


def _fit_report(device: str, scenario, code: Optional[str] = None):
    from repro.core.fit import FitCalculator
    from repro.devices import get_device

    return FitCalculator().report(get_device(device), scenario, code)


def _transmission(params: dict, store) -> dict:
    from repro.spectra.beamlines import rotax_spectrum
    from repro.transport.api import TransportQuery, answer

    served = answer(
        TransportQuery(
            mode="transmission",
            material=_material(params["shield"]),
            thickness_cm=params["thickness_cm"],
            source_spectrum=rotax_spectrum(),
            n_neutrons=params["n_neutrons"],
            seed=params["seed"],
            engine=params["engine"],
        ),
        store=store,
    )
    return normalised(
        {
            "engine": served.provenance.engine,
            "thermal_transmission": (
                served.result.thermal_transmission_fraction()
            ),
            "transport": served.result.to_dict(),
            "provenance": served.provenance.to_dict(),
        }
    )


def _fit(params: dict) -> dict:
    cooling = (
        "outdoor"
        if not params["room"]
        else ("air" if params["air_cooled"] else "liquid")
    )
    weather = "rain" if params["rain"] else "sunny"
    report = _fit_report(
        params["device"],
        _scenario(params["site"], cooling, weather),
        params.get("code") or None,
    )
    return normalised(
        {
            "total_fit": report.total_fit,
            "sdc": _decomposition(report.sdc),
            "due": _decomposition(report.due),
        }
    )


def _decomposition(decomp) -> dict:
    return {
        "fit_high_energy": decomp.fit_high_energy,
        "fit_thermal": decomp.fit_thermal,
        "total": decomp.total,
    }


def _project(result: dict, reference: dict) -> dict:
    """The wire result restricted to the reference's fields."""
    out = {}
    for name, value in reference.items():
        got = result.get(name)
        if isinstance(value, dict) and isinstance(got, dict):
            got = {k: got.get(k) for k in value}
        out[name] = got
    return out


def exact_mismatches(
    samples: Iterable[Tuple[dict, dict]], artifact: str
) -> List[str]:
    """Recompute sampled (request, wire result) pairs in-process.

    ``samples`` come from :func:`sample`, so every kind is one of
    CHECKED_KINDS; other kinds are covered by the repeat-consistency
    check.
    """
    from repro.transport.surrogate.store import SurrogateStore

    store = SurrogateStore(artifact)
    problems = []
    for request, result in samples:
        if request["kind"] == "transmission":
            reference = _transmission(request["params"], store)
        else:
            reference = _fit(request["params"])
        if _project(result, reference) != reference:
            problems.append(
                f"{request['kind']} {request['params']}: wire answer"
                " differs from the in-process reference"
            )
    return problems


def sample(items: Sequence, seed: int) -> list:
    """A seeded sample of (request, result) pairs of checkable kinds."""
    pool = [item for item in items if item[0]["kind"] in CHECKED_KINDS]
    return random.Random(f"check/{seed}").sample(
        pool, min(SAMPLE, len(pool))
    )


def study_mismatches(report: dict, points: int, seed: int) -> List[str]:
    """Row count, status, and a seeded sample of rows recomputed."""
    rows = report.get("rows", [])
    problems = []
    if report.get("status") != "complete":
        problems.append(f"study status {report.get('status')!r}")
    if len(rows) != points:
        problems.append(f"{len(rows)} report rows for {points} points")
    seen = {json.dumps(row["point"], sort_keys=True) for row in rows}
    if len(seen) != len(rows):
        problems.append("report rows repeat a grid point")
    for row in random.Random(f"study/{seed}").sample(
        rows, min(SAMPLE, len(rows))
    ):
        point = row["point"]
        report_fit = _fit_report(
            point["device"],
            _scenario(point["site"], point["cooling"], point["weather"]),
        )
        expected: Dict[str, object] = {"total_fit": report_fit.total_fit}
        if point["shield"] != "none":
            expected["shield_transmission"] = _transmission(
                {
                    "shield": point["shield"],
                    "thickness_cm": SHIELD_CM[point["shield"]],
                    "n_neutrons": 1,
                    "seed": 0,
                    "engine": "deterministic",
                },
                None,
            )["thermal_transmission"]
            expected["engine"] = "deterministic"
        got = {name: row.get(name) for name in expected}
        if got != normalised(expected):
            problems.append(
                f"study row {point} differs from the in-process"
                f" reference: {got} != {expected}"
            )
    return problems
