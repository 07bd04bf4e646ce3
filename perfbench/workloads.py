"""Seeded input generators for the four benchmark workloads.

Everything here is pure standard library: the generators know the
service's wire vocabulary (kinds, parameter names, shield names) but
never import the program, so the program under test sees only the
inputs.  The same seed always yields the same inputs.

Costs that differ between inputs (shield thickness, query kind) are
drawn by stratified sampling: every block of draws covers each
stratum exactly once, in a seeded order.  Any run that consumes whole
blocks therefore sees the same cost distribution whatever the seed,
which keeps seed-to-seed spread of the latency percentiles small
while every input stays distinct.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from typing import Dict, Iterator, List, Tuple

WORKLOADS = ("surrogate-cold", "repeat-hot", "live-batch", "study-grid")

#: Certified envelopes of the artifact the benchmark builds
#: (``repro surrogate build`` centres a [t/4, 4t] envelope on each
#: shield's reference thickness).  Draws stay a further 10 % inside.
ENVELOPE_CM = {"cadmium": (0.025, 0.4), "borated-poly": (1.25, 20.0)}
ENVELOPE_MARGIN = 1.1
SURROGATE_SHIELDS = tuple(sorted(ENVELOPE_CM))

#: Water thickness range of ``live-batch``: batch cost grows with the
#: number of collisions, so a log-uniform thickness gives a
#: continuous, single-peaked cost spread.
WATER_CM = (2.0, 20.0)
N_NEUTRONS = 4096
MC_SEED = 2020

#: Strata per stratified block.
STRATA = 32

#: The set-up probe: the first query each booted server answers.  It
#: goes through the pool worker and loads the surrogate store.
PROBE = {
    "kind": "transmission",
    "params": {
        "shield": "cadmium",
        "thickness_cm": 0.1,
        "engine": "auto",
        "n_neutrons": N_NEUTRONS,
        "seed": MC_SEED,
    },
}

SITES = ("isis", "lanl", "leadville", "nyc")
#: Device catalog names and the workload codes each supports ("" is
#: the whole-device figure).
DEVICE_CODES = {
    "APU-CPU": ("", "SC", "CED", "BFS"),
    "APU-CPU+GPU": ("", "SC", "CED", "BFS"),
    "APU-GPU": ("", "SC", "CED", "BFS"),
    "FPGA": ("", "MNIST", "YOLO"),
    "K20": ("", "MxM", "LUD", "LavaMD", "HotSpot", "YOLO"),
    "TitanV": ("", "MxM"),
    "TitanX": ("", "MxM", "LUD", "LavaMD", "HotSpot", "YOLO"),
    "XeonPhi": ("", "MxM", "LUD", "LavaMD", "HotSpot"),
}
DEVICES = tuple(DEVICE_CODES)
STUDY_SHIELDS = ("none", "borated-poly", "cadmium", "concrete", "water")
STUDY_COOLING = ("liquid", "air", "outdoor")
WEATHERS = ("sunny", "overcast", "rain")

#: ``repeat-hot``: size of the pre-warmed hot set, Zipf exponent over
#: it, and the period of fresh (cache-missing) keys in the stream.
HOT_KEYS = 64
ZIPF_S = 1.0
MISS_PERIOD = 40
#: Kind of each hot rank, cycled so the kind mix by popularity does
#: not depend on the seed.
HOT_KIND_CYCLE = ("fit", "transmission", "cross-section", "flux")
#: Kind of each fresh key, cycled.  Fresh keys are computed in the
#: server process; a fresh transmission key would occupy the shared
#: server CPU in a pool worker for ~10 ms and put every concurrent hit
#: behind it, which makes the tail depend on scheduling luck.
MISS_KIND_CYCLE = ("fit", "cross-section")

#: Closed-loop client connections per service workload.
CONNECTIONS = {"surrogate-cold": 1, "repeat-hot": 2, "live-batch": 1}
#: Warm-up requests sent before timing (service workloads).
WARMUP = {"surrogate-cold": 16, "live-batch": 4}


def request_key(request: dict) -> Tuple[str, str]:
    """Identity of a request's computation (kind plus sorted params)."""
    params = ",".join(
        f"{name}={request['params'][name]!r}"
        for name in sorted(request["params"])
    )
    return request["kind"], params


def _stratified(rng: random.Random) -> Iterator[float]:
    """Uniform draws in [0, 1); each block of STRATA hits every stratum."""
    while True:
        order = list(range(STRATA))
        rng.shuffle(order)
        for stratum in order:
            yield (stratum + rng.random()) / STRATA


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _inner(shield: str) -> Tuple[float, float]:
    lo, hi = ENVELOPE_CM[shield]
    return lo * ENVELOPE_MARGIN, hi / ENVELOPE_MARGIN


def _surrogate_query(shield: str, u: float) -> dict:
    return {
        "kind": "transmission",
        "params": {
            "shield": shield,
            "thickness_cm": _log_uniform(u, *_inner(shield)),
            "engine": "auto",
            "n_neutrons": N_NEUTRONS,
            "seed": MC_SEED,
        },
    }


def _surrogate_stream(rng: random.Random) -> Iterator[dict]:
    """Alternating-shield, stratified in-envelope ``auto`` queries."""
    draws = {shield: _stratified(rng) for shield in SURROGATE_SHIELDS}
    for shield in itertools.cycle(SURROGATE_SHIELDS):
        yield _surrogate_query(shield, next(draws[shield]))


def surrogate_cold(seed: int) -> Tuple[List[dict], Iterator[dict]]:
    """Warm-up list and endless timed stream of distinct surrogate hits."""
    warm = _surrogate_stream(random.Random(f"surrogate-cold/{seed}/warm"))
    timed = _surrogate_stream(random.Random(f"surrogate-cold/{seed}"))
    return list(itertools.islice(warm, WARMUP["surrogate-cold"])), timed


def _batch_stream(rng: random.Random) -> Iterator[dict]:
    for u in _stratified(rng):
        yield {
            "kind": "transmission",
            "params": {
                "shield": "water",
                "thickness_cm": _log_uniform(u, *WATER_CM),
                "engine": "batch",
                "n_neutrons": N_NEUTRONS,
                "seed": MC_SEED,
            },
        }


def live_batch(seed: int) -> Tuple[List[dict], Iterator[dict]]:
    """Warm-up list and endless timed stream of distinct batch queries."""
    warm = _batch_stream(random.Random(f"live-batch/{seed}/warm"))
    timed = _batch_stream(random.Random(f"live-batch/{seed}"))
    return list(itertools.islice(warm, WARMUP["live-batch"])), timed


def _scenario_params(
    rng: random.Random, kind: str
) -> Iterator[Dict[str, object]]:
    """Every distinct parameter set of a non-transport kind, shuffled."""
    flags = list(itertools.product((False, True), repeat=3))
    targets = [(None, "")] if kind == "flux" else [
        (device, code)
        for device, codes in DEVICE_CODES.items()
        for code in codes
    ]
    grid = [(t, site, f) for t in targets for site in SITES for f in flags]
    rng.shuffle(grid)
    for (device, code), site, (room, rain, air_cooled) in grid:
        params: Dict[str, object] = {
            "site": site,
            "room": room,
            "rain": rain,
            "air_cooled": air_cooled,
        }
        if device is not None:
            params["device"] = device
        if code:
            params["code"] = code
        yield params


def repeat_hot(seed: int) -> Tuple[List[dict], Iterator[dict]]:
    """The hot set (the warm-up) and the endless timed stream.

    The stream draws Zipf-ranked keys from the hot set, except every
    MISS_PERIOD-th request, which is a fresh key never seen before, so
    exactly 1 - 1/MISS_PERIOD of the stream repeats a cached key.
    Fresh ``fit``/``cross-section`` keys come from a finite universe
    (1088 each, enough for runs of over 80 000 requests); once one is
    used up its turns go to fresh transmission keys.
    """
    rng = random.Random(f"repeat-hot/{seed}")
    universes = {
        kind: _scenario_params(rng, kind)
        for kind in ("fit", "cross-section", "flux")
    }
    thickness = _surrogate_stream(random.Random(f"repeat-hot/{seed}/t"))

    def fresh(kind: str) -> dict:
        if kind != "transmission":
            params = next(universes[kind], None)
            if params is not None:
                return {"kind": kind, "params": params}
        return next(thickness)

    hot = [
        fresh(HOT_KIND_CYCLE[rank % len(HOT_KIND_CYCLE)])
        for rank in range(HOT_KEYS)
    ]
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(HOT_KEYS)]
    cdf = list(itertools.accumulate(weights))

    def stream() -> Iterator[dict]:
        misses = itertools.cycle(MISS_KIND_CYCLE)
        for i in itertools.count():
            if i % MISS_PERIOD == MISS_PERIOD - 1:
                yield fresh(next(misses))
            else:
                rank = bisect.bisect_left(cdf, rng.random() * cdf[-1])
                yield hot[min(rank, HOT_KEYS - 1)]

    return hot, stream()


def study_spec(seed: int) -> dict:
    """A site x shield x cooling grid on the deterministic engine."""
    rng = random.Random(f"study-grid/{seed}")
    return {
        "name": f"bench-grid-{seed}",
        "axes": {
            "site": list(SITES),
            "shield": list(STUDY_SHIELDS),
            "cooling": list(STUDY_COOLING),
            "device": [rng.choice(DEVICES)],
            "weather": [rng.choice(WEATHERS)],
        },
        "engine": "deterministic",
        "shard_size": 20,
        "seed": seed,
    }


def study_points(spec: dict) -> int:
    """Grid points of a study spec."""
    return math.prod(len(values) for values in spec["axes"].values())


SERVICE_STREAMS = {
    "surrogate-cold": surrogate_cold,
    "repeat-hot": repeat_hot,
    "live-batch": live_batch,
}
