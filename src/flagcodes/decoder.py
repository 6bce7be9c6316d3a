"""Erasure-channel model and the three-step decoder for sandwich codes.

Public entry points: `erase`, `decode`, `simulate`, `ReceivedSequence`,
`accumulate`, `error_count`, `correctable_budget`, `random_subspace_of`,
`random_erasure_vector`, `received_to_json` and `received_from_json`.

The channel is abstracted per shot: the receiver of shot i holds a random
subspace X_i of the sent flag's i-dimensional subspace. Decoding exploits
that the first k1 projected codes form a partial spread (step 1), that the
middle band has pairwise intersections of dimension at most i - k1 (step 2),
and that above the middle band intersections are at most 2i - n (step 3).

The channel. `erase` keeps an unerased shot as the sent subspace itself and
a wiped one as {0}, with no random draw, and samples every other shot
exactly uniformly, from one `randrange` per coefficient matrix, rejected
until it has full rank. `linalg.accepted_draw` owns the digit format: it
forms the draw's rows from the sent subspace's cached chunk tables
(`Subspace.chunks`) and runs the one `rank` test on them; the channel forms
no `matmul` product and calls no `rref`. That part fixes the seeded stream
and the number of rejections, so `erase` runs it for every shot and
consumes all of its rng. The back-substitution of an accepted draw into its
RREF (`linalg.reduce_draw`) is deferred: the sequence keeps the drawn
matrix and reduces it into a `Subspace` the first time the shot is read, so
a decode that stops at step 1 reduces at most one shot. `random_subspace_of`
is the same draw, reduced at once. `erase` checks every count and builds
every shot with ambient n and dim i - e_i, so it returns its sequence
through the unchecked `ReceivedSequence._trusted`; the public
`ReceivedSequence(n, shots)` keeps every check, for `received_from_json`
and other callers.

The field check. A `ReceivedSequence` holds the `_Space` its shots share;
`linalg._space` keeps one per field (by equality) and n, so `decode` and
`error_count` check the field by the identity of that one object against
the code's, and read no shot for it: shots over another field, such as the
same q with another modulus, raise `ChannelError`. `erase` takes the space
of the sent flag; the public constructor refuses shots over different
fields.

The lookup. `accumulate` is a generator of Y_1, Y_2, ..., so `decode` builds
Y_i only up to the level that triggers and reads no shot above it. Every
step looks its trigger subspace Y up in the point table of its level ℓ
(`construction.level_points`), keyed by the point integers of
`linalg.points`, instead of testing all |C| codewords. A codeword c has
V_ℓ(c) ⊇ Y iff V_ℓ(c) holds every RREF row of Y, and each such row, with
its pivot entry 1, is a point key. So the codewords holding Y's rows read
so far are a superset of the matches, and ANDing in the masks of Y's rows
until at most one codeword is left, then testing it with `contains`,
gives the matches of the full scan, for any FlagCode and any dim Y. An
ambiguous Y keeps every match through every row and raises
`AmbiguousDecodeError`.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass

from .construction import Flag, FlagCode, level_points
from .fields import FiniteField
from .linalg import (
    MatrixFq,
    Subspace,
    accepted_draw,
    contains,
    dump_matrix,
    parse_matrices,
    reduce_draw,
    rowspace,
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
    """Per-shot received subspaces X_1 .. X_{n-1} with dim(X_i) <= i, all over
    the one `space`.

    A shot that `erase` drew is kept as its `accepted_draw` until it is
    read: `received[i]` reduces it into a `Subspace` once and keeps that, and
    `shots` reduces every shot not read yet.
    """

    __slots__ = ("ambient", "space", "_shots")

    def __init__(self, ambient: int, shots):
        if not isinstance(ambient, int) or isinstance(ambient, bool):
            raise ChannelError(f"ambient {ambient!r} is not an integer")
        shots = list(shots)
        if len(shots) != ambient - 1:
            raise ChannelError(f"need {ambient - 1} shots for ambient {ambient}")
        space = shots[0].space if shots else None
        for i, x in enumerate(shots, start=1):
            if x.ambient != ambient:
                raise ChannelError(f"shot {i} has ambient {x.ambient}, want {ambient}")
            if x.dim > i:
                raise ChannelError(f"shot {i} has dim {x.dim} > {i}")
            if x.space is not space:
                raise ChannelError(f"shot {i} is not over the field of shot 1")
        self.ambient, self.space, self._shots = ambient, space, shots

    @classmethod
    def _trusted(cls, ambient: int, space, shots: list) -> "ReceivedSequence":
        """Unchecked, as `Flag._nested`: for `erase`, which checks each shot,
        and whose draws stay unreduced until read."""
        received = cls.__new__(cls)
        received.ambient, received.space, received._shots = ambient, space, shots
        return received

    def _read(self, j: int) -> Subspace:
        shot = self._shots[j]
        if shot.__class__ is MatrixFq:
            shot = self._shots[j] = reduce_draw(shot)
        return shot

    @property
    def shots(self) -> tuple:
        """Every shot as a `Subspace`, reducing each draw not read yet."""
        return tuple(map(self._read, range(len(self._shots))))

    def __getitem__(self, i: int) -> Subspace:
        return self._read(i - 1)

    def __len__(self):
        return len(self._shots)


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


def _check_field(space, received: ReceivedSequence):
    """The shots are over the code's field iff their `space` is `space`."""
    if received.space is not space:
        raise ChannelError("received shots are not over the code's field")


def error_count(sent: Flag, received: ReceivedSequence) -> int:
    """Total erasures: sum over shots of i - dim(X_i).

    Each X_i must lie inside the sent subspace (erasure channel only).
    """
    if sent.ambient != received.ambient:
        raise ChannelError("ambient mismatch")
    _check_field(sent[1].space, received)
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


def _draw(sub: Subspace, dim: int, rng: random.Random):
    """A uniformly random dim-dimensional subspace of sub, as the shot that
    `erase` keeps: sub itself or {0}, which take no draw, or else the
    `accepted_draw` that spans it, not yet reduced (see the module
    docstring)."""
    if not (0 <= dim <= sub.dim):
        raise ChannelError(f"cannot take a {dim}-dim subspace of a {sub.dim}-dim one")
    if dim == sub.dim:
        return sub
    if dim == 0:
        return Subspace.zero(sub.field, sub.ambient)
    draws = sub.field.q ** (dim * sub.dim)
    while True:
        drawn = accepted_draw(sub, dim, rng.randrange(draws))
        if drawn is not None:
            return drawn


def random_subspace_of(sub: Subspace, dim: int, rng: random.Random) -> Subspace:
    """Uniformly random dim-dimensional subspace of sub.

    An unerased shot (dim == sub.dim) is sub itself, its only subspace of
    that dimension, so it takes no draw. Otherwise each draw is one
    `randrange(q ** (dim * sub.dim))`, read as the base-q digits of a
    dim x sub.dim coefficient matrix, low digit first, and draws are
    rejected until the matrix has full rank. Every digit string is equally
    likely, and every target subspace has the same number |GL(dim, q)| of
    full-rank coefficient matrices, so the result is exactly uniform.

    `linalg.accepted_draw` owns that digit format and runs the rank test,
    the draw's one elimination, and `linalg.reduce_draw` back-substitutes
    the echelon rows it leaves into the RREF. This is the draw that `erase`
    keeps for each shot, reduced at once.
    """
    shot = _draw(sub, dim, rng)
    return reduce_draw(shot) if shot.__class__ is MatrixFq else shot


def erase(sent: Flag, erasures, seed: int | random.Random = 0) -> ReceivedSequence:
    """Apply per-shot erasures: X_i is a random (i - e_i)-dim subspace of the
    sent i-th subspace. Reproducible for a fixed seed, and every draw is
    made here, so a passed `random.Random` ends as if every shot were built.
    Only 0 < e_i < i draws, and such a shot is kept as its accepted draw
    until it is read (see `ReceivedSequence`). Each count is checked here,
    so the sequence is `_trusted`, over the sent flag's space."""
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
            sub = _draw(sub, i - e, rng)
        shots.append(sub)
    return ReceivedSequence._trusted(n, sent[1].space, shots)


def accumulate(received: ReceivedSequence, k1: int):
    """Y_1, ..., Y_{n-1}, one at a time: {0} up to k1, then the running span
    of X_{k1+1}..X_i. A generator, so a caller that stops at Y_i never reads
    a shot above i; `tuple(accumulate(...))` gives them all."""
    current = Subspace.zero(received.space.field, received.ambient)
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
    _check_field(code.flags[0].subspaces[0].space, received)
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
            "field": received.space.field.spec(),
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
