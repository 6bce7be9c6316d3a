"""Erasure-channel model and the three-step decoder for sandwich codes.

The channel is abstracted per shot: the receiver of shot i holds a random
subspace X_i of the sent flag's i-dimensional subspace. Decoding exploits
that the first k1 projected codes form a partial spread (step 1), that the
middle band has pairwise intersections of dimension at most i - k1 (step 2),
and that above the middle band intersections are at most 2i - n (step 3).

Every step looks its trigger subspace Y up in the point table of its
level ℓ (`construction.level_points`), keyed by the point integers of
`linalg.points`, instead of testing all |C| codewords. A codeword c has
V_ℓ(c) ⊇ Y iff V_ℓ(c) holds every RREF row of Y, and each such row, with
its pivot entry 1, is a point key. So the codewords holding Y's rows read
so far are a superset of the matches, and ANDing in the masks of Y's rows
until at most one codeword is left, then testing it with `contains`,
gives the matches of the full scan, for any FlagCode and any dim Y. An
ambiguous Y keeps every match through every row.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass

from .construction import Flag, FlagCode, level_points
from .fields import FiniteField
from .linalg import (
    Subspace,
    contains,
    dump_matrix,
    parse_matrices,
    rowspace,
    subspace_from_draw,
    subspace_sum,
)
from .metrics import min_flag_distance

DECODED = "DECODED"
FAILURE = "FAILURE"


class ChannelError(ValueError):
    pass


class AmbiguousDecodeError(RuntimeError):
    """More than one codeword contains the trigger subspace.

    Cannot happen for sandwich codes within the correctable budget; loud by
    design since it signals a threshold violation or a bug.
    """


class ReceivedSequence:
    """Per-shot received subspaces X_1 .. X_{n-1} with dim(X_i) <= i."""

    __slots__ = ("ambient", "shots")

    def __init__(self, ambient: int, shots):
        if not isinstance(ambient, int) or isinstance(ambient, bool):
            raise ChannelError(f"ambient {ambient!r} is not an integer")
        shots = tuple(shots)
        if len(shots) != ambient - 1:
            raise ChannelError(f"need {ambient - 1} shots for ambient {ambient}")
        for i, x in enumerate(shots, start=1):
            if x.ambient != ambient:
                raise ChannelError(f"shot {i} has ambient {x.ambient}, want {ambient}")
            if x.dim > i:
                raise ChannelError(f"shot {i} has dim {x.dim} > {i}")
        self.ambient = ambient
        self.shots = shots

    @classmethod
    def _trusted(cls, ambient: int, shots: tuple) -> "ReceivedSequence":
        """Unchecked, as `Flag._nested`: for `erase`, which checks each shot."""
        received = cls.__new__(cls)
        received.ambient, received.shots = ambient, shots
        return received

    def __getitem__(self, i: int) -> Subspace:
        return self.shots[i - 1]

    def __len__(self):
        return len(self.shots)


@dataclass(frozen=True)
class DecodeOutcome:
    status: str  # DECODED or FAILURE
    flag_index: int | None = None  # 1-based codeword index when decoded
    step: int | None = None
    shot_index: int | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SimulationReport:
    trials: int
    successes: int
    failures: int  # trials - successes
    misdecodes: int  # DECODED with another codeword's index; 0 within the budget
    step_histogram: dict
    seed: int
    error_budget: int

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "successes": self.successes,
            "failures": self.failures,
            "misdecodes": self.misdecodes,
            "step_histogram": {str(k): v for k, v in sorted(self.step_histogram.items())},
            "seed": self.seed,
            "error_budget": self.error_budget,
        }


def _check_shot_fields(space, received: ReceivedSequence):
    """A shot of the code's ambient is over its field iff its `space` is `space`."""
    for x in received.shots:
        if x.space is not space:
            raise ChannelError("received shots are not over the code's field")


def error_count(sent: Flag, received: ReceivedSequence) -> int:
    """Total erasures: sum over shots of i - dim(X_i).

    Each X_i must lie inside the sent subspace (erasure channel only).
    """
    if sent.ambient != received.ambient:
        raise ChannelError("ambient mismatch")
    _check_shot_fields(sent[1].space, received)
    total = 0
    for i in range(1, sent.ambient):
        if not contains(sent[i], received[i]):
            raise ChannelError(f"shot {i} is not an erasure of the sent subspace")
        total += i - received[i].dim
    return total


def correctable_budget(code: FlagCode) -> int:
    """floor((d_f - 1) / 2), the unique-decoding guarantee threshold."""
    d = min_flag_distance(code)
    return max(0, (d - 1) // 2)


def random_subspace_of(sub: Subspace, dim: int, rng: random.Random) -> Subspace:
    """Uniformly random dim-dimensional subspace of sub.

    An unerased shot (dim == sub.dim) is sub itself, its only subspace of
    that dimension, so it takes no draw. Otherwise each draw is one
    `randrange(q ** (dim * sub.dim))`, read as the base-q digits of a
    dim x sub.dim coefficient matrix, low digit first, and draws are
    rejected until the matrix has full rank. Every digit string is equally
    likely, and every target subspace has the same number |GL(dim, q)| of
    full-rank coefficient matrices, so the result is exactly uniform.

    `linalg.subspace_from_draw` owns that digit format: the coefficients
    are the coordinates of the target's basis in sub's RREF rows B, so it
    forms the rows of C·B from sub's cached chunk tables (`sub.chunks`),
    one lookup per group of digits, and runs the rank test on them. That
    test is the draw's one elimination: an accepted draw's RREF is the
    back-substitution of the echelon rows it leaves (`_Space.reduce`), so
    the shot carries packed rows and builds no `rows`.
    """
    if not (0 <= dim <= sub.dim):
        raise ChannelError(f"cannot take a {dim}-dim subspace of a {sub.dim}-dim one")
    if dim == sub.dim:
        return sub
    if dim == 0:
        return Subspace.zero(sub.field, sub.ambient)
    draws = sub.field.q ** (dim * sub.dim)
    while True:
        target = subspace_from_draw(sub, dim, rng.randrange(draws))
        if target is not None:
            return target


def erase(sent: Flag, erasures, seed: int | random.Random = 0) -> ReceivedSequence:
    """Apply per-shot erasures: X_i is a random (i - e_i)-dim subspace of the
    sent i-th subspace. Reproducible for a fixed seed. Only 0 < e_i < i
    draws; each count is checked here, so the sequence is `_trusted`."""
    erasures = list(erasures)
    n = sent.ambient
    if len(erasures) != n - 1:
        raise ChannelError(f"need {n - 1} erasure counts, got {len(erasures)}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    shots, zero = [], None
    for i, (e, sub) in enumerate(zip(erasures, sent.subspaces), start=1):
        if not (0 <= e <= i):
            raise ChannelError(f"erasure count e_{i} = {e} outside [0, {i}]")
        if e == i:
            sub = zero = zero or Subspace.zero(sub.field, n)
        elif e:
            sub = random_subspace_of(sub, i - e, rng)
        shots.append(sub)
    return ReceivedSequence._trusted(n, tuple(shots))


def accumulate(received: ReceivedSequence, k1: int):
    """Y_1, ..., Y_{n-1}, one at a time: {0} up to k1, then the running span
    of X_{k1+1}..X_i. A generator, so a caller that stops at Y_i never reads
    a shot above i; `tuple(accumulate(...))` gives them all."""
    current = Subspace.zero(received.shots[0].field, received.ambient)
    for i in range(1, received.ambient):
        if i > k1:
            current = subspace_sum(current, received[i])
        yield current


def _row_filter(table: dict, sub: Subspace, candidates: int) -> int:
    """The `candidates` bitmask narrowed to the codewords whose subspace in
    the point `table` holds each RREF row of `sub`, one row at a time,
    until at most one is left."""
    for row in sub.packed:
        if not candidates & (candidates - 1):
            break
        candidates &= table.get(row, 0)
    return candidates


def _unique_containing(code: FlagCode, level: int, sub: Subspace, step: int) -> DecodeOutcome:
    """The codeword whose level-`level` subspace contains `sub`, if exactly one.

    Only the codewords that `_row_filter` keeps from the level's point table
    are tested with `contains` (see the module docstring), so the matches
    are those of a scan over all of C. The filter starts from every
    codeword, so a zero `sub`, which no trigger passes, keeps them all.
    """
    table = level_points(code, level)
    candidates = _row_filter(table, sub, (1 << len(code.flags)) - 1)
    matches = []
    while candidates:
        low = candidates & -candidates
        candidates ^= low
        idx = low.bit_length()
        if contains(code.flags[idx - 1][level], sub):
            matches.append(idx)
    if len(matches) > 1:
        raise AmbiguousDecodeError(
            f"step {step}: {len(matches)} codewords contain the shot-{level} subspace"
        )
    if not matches:
        return DecodeOutcome(FAILURE)
    return DecodeOutcome(DECODED, flag_index=matches[0], step=step, shot_index=level)


def decode(code: FlagCode, received: ReceivedSequence) -> DecodeOutcome:
    """Three-step decoder; returns FAILURE when no step triggers.

    Step 1: smallest i <= k1 with a nonzero X_i identifies the codeword via
    the partial-spread property. Step 2: smallest i in (k1, k1+r] where the
    accumulated Y_i exceeds dimension i - k1. Step 3: smallest i above the
    middle band where Y_i exceeds dimension 2i - n. Y_i is built only up to
    the level that triggers, so no shot above it is read.
    """
    p = code.params
    n, k1, r = p.n, p.k1, p.r
    if received.ambient != n:
        raise ChannelError("received sequence has wrong ambient dimension")
    _check_shot_fields(code.flags[0].subspaces[0].space, received)
    for i in range(1, k1 + 1):
        if received[i].dim > 0:
            return _unique_containing(code, i, received[i], step=1)
    for i, Y in enumerate(accumulate(received, k1), start=1):
        if i <= k1:
            continue
        step, threshold = (2, i - k1) if i <= k1 + r else (3, 2 * i - n)
        if Y.dim > threshold:
            return _unique_containing(code, i, Y, step=step)
    return DecodeOutcome(FAILURE)


def _trial_rng(seed: int, trial: int) -> random.Random:
    # Counter construction: per-trial streams depend only on (seed, trial),
    # so trials are order-independent.
    return random.Random(((seed & 0xFFFFFFFFFFFFFFFF) << 64) | trial)


def random_erasure_vector(n: int, budget: int, rng: random.Random):
    """Random erasure counts (e_1..e_{n-1}) with e_i <= i and sum <= budget:
    a random target total, then single increments at random unsaturated shots."""
    e = [0] * (n - 1)
    target = rng.randint(0, budget)
    for _ in range(target):
        open_shots = [i for i in range(n - 1) if e[i] < i + 1]
        if not open_shots:
            break
        e[rng.choice(open_shots)] += 1
    return e


def simulate(
    code: FlagCode, trials: int, seed: int = 0, budget: int | None = None
) -> SimulationReport:
    """Monte-Carlo round-trips: random codeword, random erasures within the
    budget, decode, compare. Deterministic for a fixed seed."""
    if trials < 1:
        raise ChannelError(f"trials = {trials} must be >= 1")
    if budget is None:
        budget = correctable_budget(code)
    elif budget < 0:
        raise ChannelError(f"budget = {budget} must be >= 0")
    n = code.ambient
    successes = misdecodes = 0
    step_histogram: dict = {}
    for trial in range(trials):
        rng = _trial_rng(seed, trial)
        sent_idx = rng.randrange(len(code.flags))
        erasures = random_erasure_vector(n, budget, rng)
        received = erase(code.flags[sent_idx], erasures, rng)
        outcome = decode(code, received)
        if outcome.status != DECODED:
            continue
        if outcome.flag_index == sent_idx + 1:
            successes += 1
            step_histogram[outcome.step] = step_histogram.get(outcome.step, 0) + 1
        else:
            misdecodes += 1
    return SimulationReport(
        trials=trials,
        successes=successes,
        failures=trials - successes,
        misdecodes=misdecodes,
        step_histogram=step_histogram,
        seed=seed,
        error_budget=budget,
    )


# -- received-sequence serialization -------------------------------------------
# JSON document: {"ambient": n, "field": FiniteField.spec(), "shots":
# [matrix-text, ...]} with each shot's basis in the shared matrix text format.


def received_to_json(received: ReceivedSequence) -> str:
    return json.dumps(
        {
            "ambient": received.ambient,
            "field": received.shots[0].field.spec(),
            "shots": [dump_matrix(x.basis) for x in received.shots],
        },
        indent=2,
    )


def received_from_json(text: str, field: FiniteField) -> ReceivedSequence:
    """Shots are parsed over `field`: the file's q does not fix a modulus.

    A file that records its field must record `field`; one without the
    "field" key is read over `field` as it is.
    """
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise TypeError("the top level is not a JSON object")
        ambient = doc["ambient"]
        spec = doc.get("field")
        if spec is not None and str(spec).split() != field.spec().split():
            raise ChannelError(
                f"received file is over the field {spec!r}, not {field.spec()!r}"
            )
        if not isinstance(doc["shots"], list):
            raise TypeError("shots is not a list")
        shots = list(map(rowspace, parse_matrices(doc["shots"], field, "shot")))
    except ChannelError:
        raise
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ChannelError(f"malformed received-sequence file: {exc}") from exc
    return ReceivedSequence(ambient, shots)
