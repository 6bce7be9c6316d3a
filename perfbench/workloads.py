"""The benchmark's workloads: inputs drawn from the seed, the closed loop that
drives them through the public flagcodes API, and the correctness gate.

Library functions are looked up on the `flagcodes` package at call time, so
that a traced run (see tracer.py) sees every call the benchmark makes.
"""

from __future__ import annotations

import bisect
import contextlib
import random
import signal
import statistics
import time
from dataclasses import dataclass, field

import flagcodes
from flagcodes.decoder import DECODED, AmbiguousDecodeError
from flagcodes.verify import PASS

# The north-star grid: name -> (p, m, k1, r), over F_{p^m}.
GRID = {
    "2-3-2": (2, 1, 3, 2),
    "2-4-2": (2, 1, 4, 2),
    "3-3-1": (3, 1, 3, 1),
    "4-3-0": (2, 2, 3, 0),
}

# The only grid code whose spread-maximality check passes in seconds; on
# 2-4-2 it is SKIPPED (over the enumeration cap) and on 3-3-1 and 4-3-0 it
# takes minutes.
VERIFY_CODE = "2-3-2"

SETUP_REPEATS = 3


@dataclass
class Prepared:
    """A built grid code with what a `simulate` run derives from it."""

    name: str
    code: object
    text: str
    budget: int


@dataclass
class Gate:
    """Operations checked against the paper and the ones that missed."""

    attempted: int = 0
    failed: int = 0
    misses: list = field(default_factory=list)

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.misses) < 20:
                self.misses.append(what)


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _shape(name):
    p, m, k1, r = GRID[name]
    q = p**m
    n = 2 * k1 + r
    return q, n, k1, r


def expected_cardinality(name) -> int:
    q, _, k1, r = _shape(name)
    return q ** (k1 + r) + 1


def expected_distance(name) -> int:
    """d_f = (n^2 - r^2) / 2."""
    _, n, _, r = _shape(name)
    return (n * n - r * r) // 2


def expected_class(name) -> str:
    return "QODFC" if _shape(name)[3] == 2 else "ODFC"


def setup(names, gate: Gate, tracer=None) -> list:
    """Build, serialize and budget each named code, as `construct` followed
    by `simulate` does, and check |C| and the budget against the paper."""
    out = []
    for name in names:
        p, m, k1, r = GRID[name]
        with _span(tracer, "construction.params"):
            params = flagcodes.SandwichParams(flagcodes.field_new(p, m), k1, r)
        code = flagcodes.build_code(params)
        text = flagcodes.code_to_json(code)
        budget = flagcodes.correctable_budget(code)
        gate.check(len(code) == expected_cardinality(name), f"{name}: |C| = {len(code)}")
        want = (expected_distance(name) - 1) // 2
        gate.check(budget == want, f"{name}: budget {budget}, want {want}")
        out.append(Prepared(name, code, text, budget))
    return out


def timed_setups(names, gate: Gate):
    """SETUP_REPEATS fresh set-ups; returns (last prepared codes, intervals)."""
    intervals = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        prepared = setup(names, gate)
        intervals.append((t0, time.perf_counter()))
    return prepared, intervals


# -- machine speed -------------------------------------------------------------

_REF_RNG = random.Random(0)
_REF_MATRICES = [
    [[_REF_RNG.randrange(3) for _ in range(7)] for _ in range(6)] for _ in range(8)
]


def _reference_work():
    """Gauss-Jordan elimination over F_3 on fixed 6 x 7 matrices: frozen
    Python work with the same mix of list building and small-int arithmetic
    as the library's generic kernel, independent of the library's code."""
    rank = 0
    for matrix in _REF_MATRICES:
        rows = [list(r) for r in matrix]
        r = 0
        for c in range(7):
            piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            inv = rows[r][c]  # 1 and 2 are their own inverses mod 3
            rows[r] = [(inv * x) % 3 for x in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [(x - f * y) % 3 for x, y in zip(rows[i], rows[r])]
            r += 1
        rank += r
    return rank


class Yardstick:
    """The speed of the machine while an interval was measured, from fixed
    reference work that a SIGALRM timer runs every EVERY_S inside the block.

    On a shared machine the same work can take up to twice as long from one
    minute to the next. An interval, less the reference work run inside it,
    scaled by NOMINAL_S / (median reference time around it) is its duration
    at one nominal machine speed, so runs made at different times compare.
    """

    EVERY_S = 0.02
    # Median reference time on the machine the benchmark was defined on
    # (2 shared cores, CPython 3.11.7).
    NOMINAL_S = 0.0005
    # Samples taken on each side of an interval, besides those inside it.
    NEIGHBOURS = 8

    def __init__(self):
        self.times = []
        self.samples = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        _reference_work()
        self.samples.append(time.perf_counter() - t0)
        self.times.append(t0)
        # One-shot timer, re-armed after the sample: samples never nest.
        signal.setitimer(signal.ITIMER_REAL, self.EVERY_S)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _inside(self, interval):
        lo = bisect.bisect_left(self.times, interval[0])
        hi = bisect.bisect_right(self.times, interval[1])
        return lo, hi

    def raw(self, interval) -> float:
        """The interval's length less the reference work run inside it."""
        lo, hi = self._inside(interval)
        return interval[1] - interval[0] - sum(self.samples[lo:hi])

    def duration(self, interval) -> float:
        """The interval's length at nominal machine speed."""
        lo, hi = self._inside(interval)
        near = self.samples[max(lo - self.NEIGHBOURS, 0):hi + self.NEIGHBOURS]
        return self.raw(interval) * self.NOMINAL_S / statistics.median(near)


# -- erasure samplers ----------------------------------------------------------
# Both draw e_1..e_{n-1} with e_i <= i and total within the budget.


def _spread(e, levels, total, rng):
    """Add `total` single erasures, each at a random unsaturated level."""
    for _ in range(total):
        open_levels = [i for i in levels if e[i - 1] < i]
        if not open_levels:
            break
        e[rng.choice(open_levels) - 1] += 1
    return e


def simulate_erasures(n, k1, budget, rng):
    """`simulate`'s distribution: a uniform total in [0, budget], spread one
    erasure at a time over all unsaturated shots."""
    return _spread([0] * (n - 1), range(1, n), rng.randint(0, budget), rng)


def deep_erasures(n, k1, budget, rng):
    """Levels 1..k1 wiped out, so decoding step 1 can never fire; the rest
    of the budget falls at random on the levels above k1."""
    e = [i if i <= k1 else 0 for i in range(1, n)]
    rest = budget - k1 * (k1 + 1) // 2
    return _spread(e, range(k1 + 1, n), rng.randint(0, rest), rng)


# -- channel trials ------------------------------------------------------------


@dataclass
class Trials:
    intervals: list = field(default_factory=list)  # (start, end) per trial
    steps: dict = field(default_factory=dict)


def run_trials(prepared, sampler, rng, gate: Gate, *, seconds=None, count=None,
               forbid_step1=False) -> Trials:
    """Closed loop with one caller: each trial (erase + decode of one
    codeword) starts when the previous one returns. Trials cycle through the
    prepared codes. Runs for `seconds`, or for exactly `count` trials."""
    out = Trials()
    deadline = time.perf_counter() + seconds if seconds is not None else None
    t = 0
    while (count is None or t < count) and (
        deadline is None or time.perf_counter() < deadline
    ):
        prep = prepared[t % len(prepared)]
        p = prep.code.params
        idx = rng.randrange(len(prep.code))
        erasures = sampler(p.n, p.k1, prep.budget, rng)
        erase_seed = rng.getrandbits(64)
        outcome = None
        t0 = time.perf_counter()
        try:
            received = flagcodes.erase(prep.code.flags[idx], erasures, erase_seed)
            outcome = flagcodes.decode(prep.code, received)
        except AmbiguousDecodeError:
            pass
        out.intervals.append((t0, time.perf_counter()))
        step = outcome.step if outcome is not None else "ambiguous"
        key = f"{prep.name}/step{step}"
        out.steps[key] = out.steps.get(key, 0) + 1
        ok = (
            outcome is not None
            and outcome.status == DECODED
            and outcome.flag_index == idx + 1
            and not (forbid_step1 and outcome.step == 1)
        )
        gate.check(ok, f"{prep.name} trial {t}: sent {idx + 1}, got {outcome}")
        t += 1
    return out


# -- report and verify ---------------------------------------------------------


def analyze_pass(prepared, gate: Gate):
    """One `report` of every code and one `verify` of VERIFY_CODE, each from
    freshly loaded code objects as the CLI commands load them. Returns the
    (start, end) intervals of the report commands and of the verify command."""
    reports = []
    for prep in prepared:
        t0 = time.perf_counter()
        rep = flagcodes.classify(flagcodes.code_from_json(prep.text))
        reports.append((t0, time.perf_counter()))
        name = prep.name
        gate.check(
            (rep.cardinality, rep.d_f, rep.classification)
            == (expected_cardinality(name), expected_distance(name), expected_class(name)),
            f"{name}: report {rep.cardinality}, {rep.d_f}, {rep.classification}",
        )
    text = next(prep.text for prep in prepared if prep.name == VERIFY_CODE)
    t0 = time.perf_counter()
    results = flagcodes.verify_code(flagcodes.code_from_json(text))
    verify = (t0, time.perf_counter())
    for res in results:
        gate.check(res.status == PASS, f"{VERIFY_CODE}: {res.name} {res.status}")
    return reports, verify


def run_passes(prepared, gate: Gate, *, seconds=None, count=None):
    """Closed loop of analyze passes; at least one pass."""
    parts = []
    deadline = time.perf_counter() + seconds if seconds is not None else None
    while not parts or (
        (count is None or len(parts) < count)
        and (deadline is None or time.perf_counter() < deadline)
    ):
        parts.append(analyze_pass(prepared, gate))
    return parts


# -- workloads -----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    codes: tuple
    sampler: object = None  # None: report-and-verify passes instead of trials
    forbid_step1: bool = False
    traced_count: int = 1  # fixed work of a traced run, so its counts repeat


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sim-gf2", ("2-4-2",), simulate_erasures, traced_count=1000),
        Workload("sim-gf3", ("3-3-1",), simulate_erasures, traced_count=600),
        Workload("decode-deep", ("3-3-1", "4-3-0"), deep_erasures, True, traced_count=400),
        Workload("analyze", tuple(GRID)),
    )
}


def trial_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def rate(latencies, chunks=5) -> float:
    """Operations per second of busy time: the median over `chunks`
    consecutive groups, so a burst of outside load moves one group only."""
    k = min(chunks, len(latencies))
    bounds = [len(latencies) * i // k for i in range(k + 1)]
    return statistics.median(
        (b - a) / sum(latencies[a:b]) for a, b in zip(bounds, bounds[1:])
    )


def percentiles_ms(latencies):
    """(p50, p90) in milliseconds."""
    if len(latencies) == 1:
        return latencies[0] * 1e3, latencies[0] * 1e3
    q = statistics.quantiles(latencies, n=10, method="inclusive")
    return q[4] * 1e3, q[8] * 1e3
