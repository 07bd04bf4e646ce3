"""Self-tests of the benchmark's input generators.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import workloads  # noqa: E402
from workloads import (  # noqa: E402
    ENVELOPE_CM,
    MISS_PERIOD,
    request_key,
)

#: Enough requests for a long run of each workload.
LONG = {"surrogate-cold": 4000, "repeat-hot": 20000, "live-batch": 1000}


def _take(workload, seed, n):
    warm, stream = workloads.SERVICE_STREAMS[workload](seed)
    return warm, list(itertools.islice(stream, n))


def test_same_seed_same_inputs():
    for workload, n in LONG.items():
        assert _take(workload, 7, n) == _take(workload, 7, n)
    assert workloads.study_spec(7) == workloads.study_spec(7)


def test_other_seed_other_inputs():
    for workload in LONG:
        assert _take(workload, 7, 100) != _take(workload, 8, 100)


def test_surrogate_cold_keys_distinct_and_in_envelope():
    warm, timed = _take("surrogate-cold", 3, LONG["surrogate-cold"])
    requests = warm + timed + [workloads.PROBE]
    keys = [request_key(r) for r in requests]
    assert len(set(keys)) == len(keys)
    for request in warm + timed:
        params = request["params"]
        assert params["engine"] == "auto"
        lo, hi = ENVELOPE_CM[params["shield"]]
        assert lo < params["thickness_cm"] < hi


def test_repeat_hot_repeat_share():
    hot, timed = _take("repeat-hot", 5, LONG["repeat-hot"])
    seen = {request_key(r) for r in hot}
    assert len(seen) == len(hot)
    repeats = 0
    for request in timed:
        key = request_key(request)
        repeats += key in seen
        seen.add(key)
    assert repeats / len(timed) >= 0.9
    assert repeats == len(timed) - len(timed) // MISS_PERIOD
    kinds = {r["kind"] for r in timed}
    assert kinds == {"fit", "flux", "cross-section", "transmission"}
    fresh = timed[MISS_PERIOD - 1::MISS_PERIOD]
    assert {r["kind"] for r in fresh} == {"fit", "cross-section"}


def test_live_batch_inputs_distinct():
    warm, timed = _take("live-batch", 9, LONG["live-batch"])
    keys = [request_key(r) for r in warm + timed]
    assert len(set(keys)) == len(keys)
    assert {r["params"]["engine"] for r in timed} == {"batch"}


def test_stratified_blocks_cover_every_stratum():
    _, timed = _take("live-batch", 11, 4 * workloads.STRATA)
    lo, hi = workloads.WATER_CM
    for block in range(4):
        chunk = timed[block * workloads.STRATA:(block + 1) * workloads.STRATA]
        strata = sorted(
            int(
                workloads.STRATA
                * _unit(r["params"]["thickness_cm"], lo, hi)
            )
            for r in chunk
        )
        assert strata == list(range(workloads.STRATA))


def _unit(x, lo, hi):
    import math

    return math.log(x / lo) / math.log(hi / lo)


def test_study_grid_shape():
    spec = workloads.study_spec(4)
    assert workloads.study_points(spec) == 60
    assert spec["engine"] == "deterministic"
