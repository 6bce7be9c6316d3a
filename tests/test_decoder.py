import collections
import dataclasses
import hashlib
import itertools
import json
import math
import random

import pytest

from flagcodes import SandwichParams, build_code, decoder, field_new
from flagcodes.construction import FlagCode, level_points
from flagcodes.decoder import (
    DECODED,
    FAILURE,
    AmbiguousDecodeError,
    ChannelError,
    DecodeOutcome,
    ReceivedSequence,
    accumulate,
    correctable_budget,
    decode,
    erase,
    error_count,
    random_subspace_of,
    received_from_json,
    received_to_json,
    simulate,
)
from flagcodes.fields import FieldError
from flagcodes.linalg import (
    MatrixFq,
    Subspace,
    contains,
    dump_matrix,
    enumerate_subspaces,
    gaussian_binomial,
    intersect_dim,
    parse_matrix,
    points,
    rank,
    rowspace,
)
from conftest import ORDERS, oracle_rref_rows, point_int


def _zero_received(code):
    field = code.params.field
    n = code.ambient
    return ReceivedSequence(n, [Subspace.zero(field, n)] * (n - 1))


def test_error_count_exact_copy(code_221):
    flag = code_221.flags[0]
    received = erase(flag, [0, 0, 0, 0], seed=1)
    assert error_count(flag, received) == 0


def test_error_count_all_erased(code_221):
    assert error_count(code_221.flags[0], _zero_received(code_221)) == 10


def test_error_count_single_shot(code_221):
    flag = code_221.flags[2]
    received = erase(flag, [0, 0, 2, 0], seed=5)
    assert error_count(flag, received) == 2


def test_error_count_rejects_non_erasure(code_221):
    sent = code_221.flags[0]
    other = code_221.flags[1]
    n = code_221.ambient
    shots = [other[i] for i in range(1, n)]
    with pytest.raises(ChannelError):
        error_count(sent, ReceivedSequence(n, shots))


def test_correctable_budget(code_221, code_232):
    assert correctable_budget(code_221) == 5  # d_f = 12
    assert correctable_budget(code_232) == 14  # d_f = 30


def test_random_subspace_uniform_dim(code_221):
    rng = random.Random(9)
    sub = code_221.flags[0][3]
    for d in range(4):
        sample = random_subspace_of(sub, d, rng)
        assert sample.dim == d
        assert contains(sub, sample)


def _first_full_rank_draw(field, dim, k, rng):
    """The channel's draw replayed: base-q digits of one randrange, low
    digit first, row by row, until the coefficient matrix has full rank."""
    while True:
        x = rng.randrange(field.q ** (dim * k))
        digits = []
        for _ in range(dim * k):
            x, digit = divmod(x, field.q)
            digits.append(digit)
        coeffs = MatrixFq(field, dim, k, digits)
        if rank(coeffs) == dim:
            return coeffs


def _seeded_groups(field, n=6):
    """Three groups of seeded random subspaces of F^n, spanned by 2..n random
    vectors each."""
    rng = random.Random(f"groups:{field.spec()}")
    return [
        [rowspace(MatrixFq(field, k, n, [rng.randrange(field.q) for _ in range(k * n)]))
         for k in range(2, n + 1)]
        for _ in range(3)
    ]


# Each field of ORDERS, and F_8 by x^3 + x + 1 rather than the default modulus.
CHANNEL_FIELDS = [(p, m, None) for p, m in ORDERS] + [(2, 3, (1, 1, 0, 1))]


def _source_id(source):
    if isinstance(source, str):
        return source
    p, m, modulus = source
    return f"F{p ** m}" + ("" if modulus is None else "-" + "".join(map(str, modulus)))


@pytest.mark.parametrize(
    "source", ["code_221", "code_321", "code_f4_21", *CHANNEL_FIELDS], ids=_source_id
)
def test_random_subspace_is_the_dense_product_of_the_draw(source, request):
    # The channel's result is the rowspace of coeffs·B for the first
    # full-rank draw of a replayed stream, B the member's RREF basis, and
    # the channel reads exactly the draws the replay reads. The subspaces are
    # the first flags of a code, or seeded random subspaces over a field;
    # the result is built from packed rows, so its `packed` must also be the
    # fold of its rows.
    if isinstance(source, str):
        code = request.getfixturevalue(source)
        field, groups = code.params.field, [flag.subspaces for flag in code.flags[:6]]
    else:
        field = field_new(*source)
        groups = _seeded_groups(field)
    for seed, group in enumerate(groups):
        for sub in group:
            for dim in range(1, sub.dim):
                replay, rng = random.Random(seed), random.Random(seed)
                coeffs = _first_full_rank_draw(field, dim, sub.dim, replay)
                want = rowspace(coeffs.matmul(sub.basis))
                got = random_subspace_of(sub, dim, rng)
                assert (got, got.pivots) == (want, want.pivots)
                assert got.packed == tuple(point_int(row, field.q) for row in got.rows)
                assert rng.getstate() == replay.getstate()


def _chi_square_bound(df, z=4.0):
    """Wilson-Hilferty approximation of the chi-square quantile with df
    degrees of freedom at the standard normal quantile z (z = 4: an upper
    tail of about 3e-5)."""
    h = 2 / (9 * df)
    return df * (1 - h + z * math.sqrt(h)) ** 3


# Gr_q(d, k) sampled inside a d-dim flag member of a code over F_q, by fixture.
UNIFORMITY_CASES = [
    ("code_221", 4, 2),
    ("code_321", 3, 1),
    ("code_f4_21", 3, 2),
    ("code_221", 4, 3),
]


@pytest.mark.parametrize("name, d, k", UNIFORMITY_CASES)
def test_random_subspace_is_uniform(name, d, k, request):
    # Every k-subspace of the d-dim member is hit, with frequencies whose
    # chi-square statistic against the uniform law is below the bound. The
    # member is not spanned by unit vectors, so its basis mixes coordinates.
    code = request.getfixturevalue(name)
    field = code.params.field
    sub = next(flag[d] for flag in code.flags if sum(map(bool, flag[d].basis.entries)) > d)
    expected = {
        rowspace(coeffs.basis.matmul(sub.basis)) for coeffs in enumerate_subspaces(field, d, k)
    }
    cells = gaussian_binomial(d, k, field.q)
    assert len(expected) == cells
    rng = random.Random(f"uniform:{name}:{d}:{k}")
    counts = collections.Counter(
        random_subspace_of(sub, k, rng) for _ in range(300 * cells)
    )
    assert set(counts) == expected
    chi_square = sum((c - 300) ** 2 / 300 for c in counts.values())
    assert chi_square < _chi_square_bound(cells - 1)


def test_unerased_shot_takes_no_draw(code_321):
    rng = random.Random(4)
    state = rng.getstate()
    for sub in code_321.flags[7].subspaces:
        assert random_subspace_of(sub, sub.dim, rng) is sub
    assert rng.getstate() == state


def test_erase_deterministic(code_221):
    flag = code_221.flags[4]
    a = erase(flag, [1, 0, 2, 1], seed=123)
    b = erase(flag, [1, 0, 2, 1], seed=123)
    assert a.shots == b.shots


def test_erase_identity_and_total(code_221):
    flag = code_221.flags[1]
    full = erase(flag, [0, 0, 0, 0], seed=0)
    assert full.shots == tuple(flag[i] for i in range(1, 5))
    wiped = erase(flag, [1, 2, 3, 4], seed=0)
    assert all(x.dim == 0 for x in wiped.shots)


def test_erase_rejects_out_of_range(code_221):
    with pytest.raises(ChannelError):
        erase(code_221.flags[0], [2, 0, 0, 0], seed=0)


def test_accumulate_zero(code_221):
    acc = tuple(accumulate(_zero_received(code_221), code_221.params.k1))
    assert all(acc[i - 1].dim == 0 for i in range(1, 5))


def test_accumulate_nested(code_232):
    flag = code_232.flags[7]
    received = erase(flag, [1, 2, 3, 1, 1, 2, 3], seed=21)
    acc = tuple(accumulate(received, code_232.params.k1))
    for i in range(1, code_232.ambient - 1):
        assert contains(acc[i], acc[i - 1])
    for i in range(1, code_232.params.k1 + 1):
        assert acc[i - 1].dim == 0


def test_accumulate_sum_dims(code_232):
    # two distinct lines at shots 4 and 5 accumulate to a plane
    k1 = code_232.params.k1
    flag = code_232.flags[3]
    rng = random.Random(2)
    while True:
        x4 = random_subspace_of(flag[4], 1, rng)
        x5 = random_subspace_of(flag[5], 1, rng)
        if intersect_dim(x4, x5) == 0:
            break
    field = code_232.params.field
    n = code_232.ambient
    shots = [Subspace.zero(field, n)] * (n - 1)
    shots[3], shots[4] = x4, x5
    acc = tuple(accumulate(ReceivedSequence(n, shots), k1))
    assert acc[4].dim == 2


def test_decode_exact_copy_step1(code_221):
    for idx, flag in enumerate(code_221.flags, start=1):
        outcome = decode(code_221, erase(flag, [0, 0, 0, 0], seed=idx))
        assert outcome.status == DECODED
        assert outcome.flag_index == idx
        assert outcome.step == 1 and outcome.shot_index == 1


def test_decode_step2_pattern(code_232):
    # X_1..X_3 erased, one dimension lost at shot 4: dim(Y_4) = 3 > 1
    flag = code_232.flags[10]
    received = erase(flag, [1, 2, 3, 1, 0, 0, 0], seed=77)
    outcome = decode(code_232, received)
    assert outcome.status == DECODED
    assert outcome.flag_index == 11
    assert outcome.step == 2


def test_decode_step3_pattern(code_221):
    # everything through the middle band erased: step 3 must fire
    flag = code_221.flags[5]
    received = erase(flag, [1, 2, 3, 0], seed=3)
    outcome = decode(code_221, received)
    assert outcome.status == DECODED
    assert outcome.flag_index == 6
    assert outcome.step == 3


def test_decode_all_zero_fails(code_221):
    outcome = decode(code_221, _zero_received(code_221))
    assert outcome.status == FAILURE
    assert outcome.flag_index is None


def test_exhaustive_round_trip_221(code_221):
    budget = correctable_budget(code_221)
    vectors = [
        e
        for e in itertools.product(range(2), range(3), range(4), range(5))
        if sum(e) <= budget
    ]
    for idx, flag in enumerate(code_221.flags, start=1):
        for vec in vectors:
            received = erase(flag, vec, seed=idx * 1000 + sum(vec))
            outcome = decode(code_221, received)
            assert outcome.status == DECODED and outcome.flag_index == idx


def test_exhaustive_round_trip_220(code_220):
    budget = correctable_budget(code_220)
    vectors = [
        e for e in itertools.product(range(2), range(3), range(4)) if sum(e) <= budget
    ]
    for idx, flag in enumerate(code_220.flags, start=1):
        for vec in vectors:
            received = erase(flag, vec, seed=idx)
            outcome = decode(code_220, received)
            assert outcome.status == DECODED and outcome.flag_index == idx
            assert outcome.step != 2  # no middle band when r = 0


def _erasures_of_weight(n, weight, rng):
    """e_1..e_{n-1} with e_i <= i summing to exactly `weight`."""
    e = [0] * (n - 1)
    for _ in range(weight):
        e[rng.choice([i for i in range(n - 1) if e[i] <= i])] += 1
    return e


@pytest.mark.parametrize("name", ["code_221", "code_232", "code_321"])
def test_decoder_safety_at_every_erasure_weight(name, request):
    # Beyond the budget decoding may fail, but it never returns a codeword
    # other than the one sent.
    code = request.getfixturevalue(name)
    n = code.ambient
    rng = random.Random(name)
    seen = set()
    for weight in range(n * (n - 1) // 2 + 1):
        for _ in range(12):
            sent = rng.randrange(len(code))
            received = erase(code.flags[sent], _erasures_of_weight(n, weight, rng), rng)
            outcome = decode(code, received)
            result = (outcome.status, outcome.flag_index)
            assert result in {(DECODED, sent + 1), (FAILURE, None)}
            seen.add(outcome.status)
    assert seen == {DECODED, FAILURE}


def test_step2_threshold_soundness(code_232):
    # distinct codewords share at most dimension j - k1 in the middle band
    p = code_232.params
    for j in range(p.k1 + 1, p.k2 + 1):
        subs = [flag[j] for flag in code_232.flags]
        for a in range(len(subs)):
            for b in range(a + 1, len(subs)):
                assert intersect_dim(subs[a], subs[b]) <= j - p.k1


def test_step3_threshold_soundness(code_221):
    p = code_221.params
    for j in range(p.k2 + 1, p.n):
        subs = [flag[j] for flag in code_221.flags]
        for a in range(len(subs)):
            for b in range(a + 1, len(subs)):
                assert intersect_dim(subs[a], subs[b]) <= 2 * j - p.n


def test_step1_uniqueness_over_lines(code_221):
    # every line inside a codeword's spread subspace identifies it uniquely
    from flagcodes.linalg import enumerate_subspaces

    p = code_221.params
    members = [flag[p.k1] for flag in code_221.flags]
    for line in enumerate_subspaces(p.field, p.n, 1):
        owners = [m for m in members if contains(m, line)]
        assert len(owners) <= 1


def test_simulate_all_successes(code_221):
    report = simulate(code_221, trials=300, seed=7)
    assert report.successes == 300
    assert report.failures == 0
    assert sum(report.step_histogram.values()) == 300


def test_simulate_deterministic(code_221):
    a = simulate(code_221, trials=100, seed=42)
    b = simulate(code_221, trials=100, seed=42)
    assert a == b


def test_simulate_rejects_zero_trials(code_221):
    with pytest.raises(ChannelError):
        simulate(code_221, trials=0, seed=1)


def test_simulate_rejects_a_negative_budget(code_221):
    with pytest.raises(ChannelError, match="budget = -1"):
        simulate(code_221, trials=5, seed=1, budget=-1)


def test_simulate_budget_override(code_221):
    # budget 0 means no erasures ever: trivially all step-1 decodes
    report = simulate(code_221, trials=50, seed=1, budget=0)
    assert report.successes == 50
    assert report.step_histogram == {1: 50}
    assert report.error_budget == 0


def test_simulate_counts_misdecodes_apart_from_failures(code_221, monkeypatch):
    assert simulate(code_221, trials=60, seed=3).misdecodes == 0
    real = decoder.decode

    def off_by_one(code, received):
        # every DECODED outcome names the next codeword instead of the sent one
        outcome = real(code, received)
        return dataclasses.replace(outcome, flag_index=outcome.flag_index % len(code) + 1)

    monkeypatch.setattr(decoder, "decode", off_by_one)
    report = simulate(code_221, trials=60, seed=3)
    assert (report.successes, report.failures, report.misdecodes) == (0, 60, 60)
    assert report.step_histogram == {}
    assert report.to_dict()["misdecodes"] == 60


def test_received_sequence_serialization(code_232):
    flag = code_232.flags[12]
    received = erase(flag, [1, 0, 2, 1, 0, 3, 2], seed=9)
    round_tripped = received_from_json(received_to_json(received), code_232.params.field)
    assert round_tripped.ambient == received.ambient
    assert round_tripped.shots == received.shots


def test_received_from_json_rejects_garbage(F2):
    with pytest.raises(ChannelError):
        received_from_json("{}", F2)
    with pytest.raises(ChannelError):
        received_from_json("not json", F2)
    for ambient in ("x", None, 3.0):
        doc = {"ambient": ambient, "shots": ["2 0 3", "2 0 3"]}
        with pytest.raises(ChannelError, match="not an integer"):
            received_from_json(json.dumps(doc), F2)


def _every_modulus(p, m):
    """F_{p^m} over each monic irreducible modulus of degree m."""
    fields = []
    for low in itertools.product(range(p), repeat=m):
        try:
            fields.append(field_new(p, m, (*low, 1)))
        except FieldError:
            pass  # reducible
    return fields


@pytest.mark.parametrize("p, m, count", [(2, 3, 2), (3, 2, 3)])
def test_received_file_carries_its_field(p, m, count):
    fields = _every_modulus(p, m)
    assert len(fields) == count
    for field in fields:
        code = build_code(SandwichParams(field, 2, 0))
        received = erase(code.flags[5], [0, 1, 2], seed=3)
        text = received_to_json(received)
        assert json.loads(text)["field"] == field.spec()
        back = received_from_json(text, field)
        assert back.shots == received.shots
        assert all(x.field == field for x in back.shots)
        for other in fields:
            if other != field:
                with pytest.raises(ChannelError, match="field"):
                    received_from_json(text, other)


def test_received_file_without_a_field_is_read_over_the_given_field(code_f4_21):
    received = erase(code_f4_21.flags[9], [1, 0, 2, 1], seed=2)
    doc = json.loads(received_to_json(received))
    del doc["field"]
    back = received_from_json(json.dumps(doc), code_f4_21.params.field)
    assert back.shots == received.shots


def _over(field, received):
    """The received shots with their entries read as elements of `field`."""
    return ReceivedSequence(
        received.ambient,
        [rowspace(parse_matrix(dump_matrix(x.basis), field)) for x in received.shots],
    )


def _doubled(code):
    """The code with its first codeword appended again."""
    return FlagCode(
        code.params, code.generators + code.generators[:1], code.flags + code.flags[:1]
    )


@pytest.mark.parametrize("name", ["code_221", "code_321", "code_f4_21", "doubled"])
def test_level_points_match_containment(name, request):
    # Brute force over PG(n-1, q), each point folded here, not by `points`:
    # at every level, a point's mask has the bit of every codeword whose
    # subspace at that level contains it. The doubled code repeats codeword
    # 1, so at level k1 its points carry two bits and no other point does.
    if name == "doubled":
        code = _doubled(request.getfixturevalue("code_221"))
    else:
        code = request.getfixturevalue(name)
    field, k1 = code.params.field, code.params.k1
    pg = enumerate_subspaces(field, code.ambient, 1)
    pg = [(point_int(P.basis.entries, field.q), P) for P in pg]
    for level in range(1, code.ambient):
        expected = {}
        for x, P in pg:
            mask = 0
            for bit, flag in enumerate(code.flags):
                if contains(flag[level], P):
                    mask |= 1 << bit
            if mask:
                expected[x] = mask
        assert level_points(code, level) == expected, level
        if level == k1:
            two_bits = [m for m in expected.values() if m & (m - 1)]
            assert len(two_bits) == (gaussian_binomial(k1, 1, field.q) if name == "doubled" else 0)
        for flag in code.flags:
            assert set(flag[level].packed) <= set(points(flag[level]))


def test_ambiguous_decode_is_loud(code_221):
    # a duplicated codeword makes step-1 containment non-unique
    received = erase(code_221.flags[0], [0, 0, 0, 0], seed=2)
    with pytest.raises(AmbiguousDecodeError):
        decode(_doubled(code_221), received)


def test_decode_rejects_shots_over_another_modulus():
    # Same q = 8, other modulus: the shots' entries mean other field elements.
    code = build_code(SandwichParams(field_new(2, 3), 2, 0))
    other = field_new(2, 3, (1, 1, 0, 1))
    assert other != code.params.field
    received = erase(code.flags[3], [0, 1, 2], seed=1)
    foreign = _over(other, received)
    with pytest.raises(ChannelError, match="field"):
        decode(code, foreign)


def test_error_count_rejects_shots_over_another_modulus():
    code = build_code(SandwichParams(field_new(2, 3), 2, 0))
    other = field_new(2, 3, (1, 1, 0, 1))
    received = erase(code.flags[3], [0, 1, 2], seed=1)
    foreign = _over(other, received)
    with pytest.raises(ChannelError, match="field"):
        error_count(code.flags[3], foreign)


def test_shots_over_an_equal_field_object_are_accepted():
    # A code over one F_2 object and shots over another, equal one, as in a
    # process that builds the field twice: the shots decode and count.
    first, second = field_new(2), field_new(2)
    assert first is not second and first == second
    for code_field, shot_field in ((first, second), (second, first)):
        code = build_code(SandwichParams(code_field, 2, 1))
        received = _over(shot_field, erase(code.flags[3], [1, 0, 1, 2], seed=3))
        outcome = decode(code, received)
        assert (outcome.status, outcome.flag_index) == (DECODED, 4)
        assert error_count(code.flags[3], received) == 4


@pytest.mark.parametrize("name", ["code_221", "code_321", "code_f4_21", "F5"])
def test_the_public_constructor_accepts_every_erased_sequence(name, request):
    # `erase` builds its sequence without re-running the checks of
    # `ReceivedSequence(n, shots)`; each level kept whole (e_i = 0) or wiped
    # (e_i = i), and seeded random counts, give a sequence that the checked
    # constructor accepts as it is.
    if name == "F5":
        code = build_code(SandwichParams(field_new(5), 2, 1))
    else:
        code = request.getfixturevalue(name)
    n = code.ambient
    rng = random.Random(f"trusted:{name}")
    vectors = [
        [i * wiped for i, wiped in enumerate(pattern, start=1)]
        for pattern in itertools.product((0, 1), repeat=n - 1)
    ]
    vectors += [[rng.randint(0, i) for i in range(1, n)] for _ in range(40)]
    for k, vec in enumerate(vectors):
        flag = code.flags[rng.randrange(len(code))]
        received = erase(flag, vec, seed=k)
        checked = ReceivedSequence(n, received.shots)
        assert (checked.ambient, checked.shots) == (received.ambient, received.shots)
        for i, (e, shot) in enumerate(zip(vec, received.shots), start=1):
            assert shot.space is flag[i].space and shot.dim == i - e
            if e == 0:
                assert shot is flag[i]
            assert contains(flag[i], shot)


# -- the decoder against the codeword scan ---------------------------------------


def scan_decode(code, received):
    """The three-step decoder with every step testing `contains` against all
    |C| codewords: the oracle for the per-level point tables."""
    p = code.params
    n, k1, r = p.n, p.k1, p.r

    def scan(level, sub, step):
        matches = [
            idx for idx, flag in enumerate(code.flags, start=1) if contains(flag[level], sub)
        ]
        if len(matches) > 1:
            raise AmbiguousDecodeError(
                f"step {step}: {len(matches)} codewords contain the shot-{level} subspace"
            )
        if not matches:
            return DecodeOutcome(FAILURE)
        return DecodeOutcome(DECODED, flag_index=matches[0], step=step, shot_index=level)

    for i in range(1, k1 + 1):
        if received[i].dim > 0:
            return scan(i, received[i], 1)
    # Y_i by the old path, a scalar elimination of the stacked bases, so
    # that the decoder's `accumulate` is checked against it.
    acc, Y = [], Subspace.zero(p.field, n)
    for i in range(1, n):
        if i > k1:
            rows, dim, _ = oracle_rref_rows(
                p.field, Y.basis.row_lists() + received[i].basis.row_lists()
            )
            Y = Subspace(MatrixFq(p.field, dim, n, itertools.chain.from_iterable(rows[:dim])))
        acc.append(Y)
    for i in range(k1 + 1, k1 + r + 1):
        if acc[i - 1].dim > i - k1:
            return scan(i, acc[i - 1], 2)
    for i in range(k1 + r + 1, n):
        if acc[i - 1].dim > 2 * i - n:
            return scan(i, acc[i - 1], 3)
    return DecodeOutcome(FAILURE)


def _outcome(decoder_fn, code, received):
    try:
        return decoder_fn(code, received)
    except AmbiguousDecodeError as exc:
        return str(exc)


@pytest.mark.parametrize("doubled", [False, True])
def test_decode_matches_the_scan_on_every_erasure_vector_221(code_221, doubled):
    # Every vector with e_i <= i, beyond the budget too.
    code = _doubled(code_221) if doubled else code_221
    outcomes = set()
    for idx, flag in enumerate(code.flags, start=1):
        for vec in itertools.product(range(2), range(3), range(4), range(5)):
            received = erase(flag, vec, seed=idx * 1000 + sum(vec))
            outcome = _outcome(decode, code, received)
            assert outcome == _outcome(scan_decode, code, received), (idx, vec)
            outcomes.add(AmbiguousDecodeError if isinstance(outcome, str) else outcome.status)
    assert {DECODED, FAILURE} <= outcomes
    assert (AmbiguousDecodeError in outcomes) == doubled


@pytest.mark.parametrize("name", ["code_321", "code_f4_21"])
def test_decode_matches_the_scan_off_the_channel(name, request):
    # Shots that are random subspaces of F^n, not erasures of a codeword:
    # the one codeword left by the first rows of a trigger often lacks a
    # later row, and only `contains` turns it away.
    code = request.getfixturevalue(name)
    field, n, k1 = code.params.field, code.ambient, code.params.k1
    rng = random.Random(name)
    statuses = collections.Counter()
    for _ in range(300):
        wiped = rng.random() < 0.5
        shots = []
        for i in range(1, n):
            d = 0 if wiped and i <= k1 else rng.randint(0, i)
            entries = [rng.randrange(field.q) for _ in range(d * n)]
            shots.append(rowspace(MatrixFq(field, d, n, entries)))
        received = ReceivedSequence(n, shots)
        outcome = decode(code, received)
        assert outcome == scan_decode(code, received), shots
        statuses[outcome.status, outcome.step] += 1
    assert statuses[FAILURE, None] > 0
    assert {(DECODED, 1), (DECODED, 2)} <= set(statuses)


@pytest.mark.parametrize("name", ["code_232", "code_321", "code_f4_21"])
def test_decode_matches_the_scan_on_random_erasures(name, request):
    code = request.getfixturevalue(name)
    n = code.ambient
    rng = random.Random(name)
    for _ in range(150):
        sent = rng.randrange(len(code))
        weight = rng.randint(0, n * (n - 1) // 2)
        received = erase(code.flags[sent], _erasures_of_weight(n, weight, rng), rng)
        assert decode(code, received) == scan_decode(code, received)


def test_deep_erasure_decode_tests_fewer_codewords_than_the_scan(code_321, monkeypatch):
    calls = []

    def counting_contains(U, V):
        calls.append(1)
        return contains(U, V)

    monkeypatch.setattr(decoder, "contains", counting_contains)
    received = erase(code_321.flags[5], [1, 2, 1, 0], seed=4)
    outcome = decode(code_321, received)
    assert (outcome.status, outcome.flag_index) == (DECODED, 6)
    assert outcome.step in (2, 3)
    assert 0 < len(calls) < len(code_321)


def _deep_vectors(code):
    """Erasure vectors that wipe levels 1..k1 and spend at most the rest of
    the budget on the levels above k1."""
    p = code.params
    wiped = tuple(range(1, p.k1 + 1))
    rest = correctable_budget(code) - sum(wiped)
    above = itertools.product(*(range(i + 1) for i in range(p.k1 + 1, p.n)))
    return [wiped + e for e in above if sum(e) <= rest]


@pytest.mark.parametrize("name, sent", [("code_221", None), ("code_232", (1, 12, 33))])
def test_deep_erasures_decode_at_step_2_or_3(name, sent, request):
    code = request.getfixturevalue(name)
    vectors = _deep_vectors(code)
    for idx in sent or range(1, len(code) + 1):
        for k, vec in enumerate(vectors):
            outcome = decode(code, erase(code.flags[idx - 1], vec, seed=idx * 1000 + k))
            assert (outcome.status, outcome.flag_index) == (DECODED, idx), vec
            assert outcome.step in (2, 3)


def _deep_random_vector(code, rng):
    """Levels 1..k1 wiped, and each level above at random, beyond the budget
    too."""
    k1 = code.params.k1
    return [i if i <= k1 else rng.randint(0, i) for i in range(1, code.ambient)]


@pytest.mark.parametrize("name", ["code_321", "code_f4_21", "code_232", "doubled"])
def test_decode_matches_the_scan_on_deep_erasures(name, request, monkeypatch):
    # Step 1 never fires, so every decode that triggers filters the
    # codewords by the rows of an accumulated Y: some filters are left with
    # at most one codeword before Y's last row and stop there, and some read
    # every row.
    if name == "doubled":
        code = _doubled(request.getfixturevalue("code_221"))
    else:
        code = request.getfixturevalue(name)
    triggers = []
    unique_containing = decoder._unique_containing

    class CountingTable(dict):
        def get(self, key, default=None):
            triggers[-1][1] += 1
            return super().get(key, default)

    tables = {level: CountingTable(level_points(code, level)) for level in range(1, code.ambient)}

    def recording(code, level, sub, step):
        triggers.append([sub.dim, 0])
        return unique_containing(code, level, sub, step)

    monkeypatch.setattr(decoder, "_unique_containing", recording)
    monkeypatch.setattr(decoder, "level_points", lambda code, level: tables[level])
    rng = random.Random(name)
    outcomes = set()
    for _ in range(200):
        sent = rng.randrange(len(code))
        received = erase(code.flags[sent], _deep_random_vector(code, rng), rng)
        outcome = _outcome(decode, code, received)
        assert outcome == _outcome(scan_decode, code, received), (sent, received.shots)
        outcomes.add(AmbiguousDecodeError if isinstance(outcome, str) else outcome.status)
    assert all(0 < read <= dim for dim, read in triggers)
    assert any(read < dim for dim, read in triggers)
    assert any(read == dim for dim, read in triggers)
    assert DECODED in outcomes
    assert (AmbiguousDecodeError in outcomes) == (name == "doubled")


def test_deep_decodes_test_one_codeword_each(code_321, monkeypatch):
    # The row filter leaves exactly the sent codeword for `contains` to
    # confirm: one call a decode.
    calls = []

    def counting_contains(U, V):
        calls.append(1)
        return contains(U, V)

    monkeypatch.setattr(decoder, "contains", counting_contains)
    vectors = _deep_vectors(code_321)
    for idx in range(1, len(code_321) + 1):
        for k, vec in enumerate(vectors):
            outcome = decode(code_321, erase(code_321.flags[idx - 1], vec, seed=idx * 1000 + k))
            assert (outcome.status, outcome.flag_index) == (DECODED, idx), vec
    decodes = len(code_321) * len(vectors)
    assert decodes == 168
    assert len(calls) == decodes


class _RecordingSequence(ReceivedSequence):
    """A received sequence that records every level it is asked for."""

    def __init__(self, received):
        super().__init__(received.ambient, received.shots)
        self.read = set()

    def __getitem__(self, i):
        self.read.add(i)
        return super().__getitem__(i)


@pytest.fixture(scope="module")
def code_331():
    return build_code(SandwichParams(field_new(3), 3, 1))


@pytest.mark.parametrize("name", ["code_232", "code_331"])
def test_decode_reads_no_shot_above_its_trigger(name, request):
    code = request.getfixturevalue(name)
    rng = random.Random(name)
    steps = set()
    for k, vec in enumerate(_deep_vectors(code)):
        sent = rng.randrange(len(code))
        received = _RecordingSequence(erase(code.flags[sent], vec, seed=k))
        outcome = decode(code, received)
        assert (outcome.status, outcome.flag_index) == (DECODED, sent + 1), vec
        assert max(received.read) == outcome.shot_index, vec
        steps.add(outcome.step)
    assert steps == {2, 3}
    received = _RecordingSequence(_zero_received(code))
    assert decode(code, received).status == FAILURE
    assert received.read == set(range(1, code.ambient))


# -- the pinned channel stream -----------------------------------------------------

# sha256 of received_to_json(erase(flags[5], [min(i, 3i mod 4) for i < n],
# seed=11)) and of json.dumps(simulate(code, 200, seed=5).to_dict()) for the
# code over F_{p^m} with (k1, r): (2,3,2), (2,4,2) (the code the sim-gf2
# benchmark runs), (3,3,1), F_4 (3,0), and F_9 and F_5 (2,1), whose odd-p
# draws hold several digit slots an entry or wide slots. Every digest comes
# out under CPython 3.10, 3.11, 3.12 and 3.13.
CHANNEL_SHA256 = {
    (2, 1, 3, 2): (
        "815e1f5ea1251a22044aa2471d4445b53946e80f16ef1544a7b30dbb6f18c7ce",
        "444b7c812355f5506148dff7ae98ecadca4e3d750ac9c9be05940c06910fd058",
    ),
    (2, 1, 4, 2): (
        "6e0ed815ed8037fc3f7408d3d09364de326dbc54efd93db535c934327fd5db45",
        "cde0653fb241dc6ef48126db890edb6adf82d14554d766e2b19c65a7a7ed3459",
    ),
    (3, 1, 3, 1): (
        "970e4611f3e5f85d31a8ebd98da3d09e7cc764ec790353ddd4f8ff91aefb69ee",
        "1b9114df974d8b80af3be84823bfeadf42866874a66e4ff81f0861625c0e0418",
    ),
    (2, 2, 3, 0): (
        "8dd87d2453cfde7f1b4ab3bbfd06ee30e875b41d52f31f75828f45cc7d797ab4",
        "f36542ca1bcad3cf4b7a6384c1829caea4be64427344633b01a8a3cf351d2bc1",
    ),
    (3, 2, 2, 1): (
        "bbb5dbee9168ea528852dc71fd371908ea9e6c23acdf4a93767cc439ca5c7a22",
        "fdd399473ff77be0f46e36f2b97908f29f3be54e3b271672b6202b1a339d854b",
    ),
    (5, 1, 2, 1): (
        "a04682d681681ff80ccb29a727b8cb6a3a40e31004ffccce401134414406f58f",
        "404980e33e69fc0fe90de31a4162e3712a54eda020345add2ced80c76875eac8",
    ),
    (5, 2, 2, 0): (
        "632d79b2d88c42036901ee2539fea4f5528681575c1b5786c8a6490aec8cd370",
        "64038a91f2bd533527465439a1693874600e7a1e0203c452664f26f5616fced7",
    ),
    (2, 3, 2, 1): (
        "c95addf8fce890f8e28ce71e6d372fb799e39d65c2027b33e74413693674e60b",
        "97b6d2dc512cf9a089d208c096eeea36242d3b91949d6115c247ed210d2bfb2f",
    ),
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("p, m, k1, r", list(CHANNEL_SHA256))
def test_channel_stream_is_pinned(p, m, k1, r):
    code = build_code(SandwichParams(field_new(p, m), k1, r))
    erasures = [min(i, 3 * i % 4) for i in range(1, code.ambient)]
    received = erase(code.flags[5], erasures, seed=11)
    report = simulate(code, 200, seed=5)
    assert report.successes == 200
    digests = (
        _sha256(received_to_json(received)),
        _sha256(json.dumps(report.to_dict())),
    )
    assert digests == CHANNEL_SHA256[p, m, k1, r]
