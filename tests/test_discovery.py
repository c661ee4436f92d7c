import copy
import math
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evalanche import (
    CONSTRAINT_EXACTLY_J_MISSING,
    CONSTRAINT_GE2_IN_TOP_R,
    CONSTRAINT_INTERSECTS_TOP_R,
    ColorBucket,
    LogValue,
    MergeSpec,
    RankedValues,
    U1,
    U1_U2_HALF,
    U2,
    brute_force_bound,
    colorize,
    confidence_region,
    diagonal_row,
    discovery_matrix,
    regularize,
    subdiagonal_row,
)
from evalanche import discovery, formats, merging, oracles
from evalanche.discovery import DiagonalSeries, DiscoveryMatrix, RowTracker
from evalanche.errors import DomainError
from evalanche.formats import bucket_indexes
from evalanche.logvalue import MAX_ABS_LOG
from oracles import full_kernel_oracle, subset_min_oracle, suffix_logsums_oracle, tail_merges_oracle


def lv(*xs):
    return [LogValue.of(float(x)) for x in xs]


def ranked(*xs):
    return RankedValues.from_values(lv(*xs))


SPECS = (U1, U2, U1_U2_HALF)
# U_0 alone, top degree 0, merges every set to 1, one holding +inf included
_U0 = MergeSpec.mixture((1.0,))


# ---------------------------------------------------------------------------
# worked values


def test_diagonal_worked_values():
    r = ranked(8, 4, 1)
    assert diagonal_row(r, 2, U1).value == pytest.approx(2.5, rel=1e-12)
    assert diagonal_row(r, 1, U1).value == pytest.approx(13.0 / 3.0, rel=1e-12)
    ones = ranked(1, 1, 1, 1)
    for row in range(1, 5):
        for spec in SPECS:
            assert diagonal_row(ones, row, spec).value == pytest.approx(1.0, abs=1e-12)


def test_subdiagonal_worked_values():
    r = ranked(8, 4, 1)
    assert subdiagonal_row(r, 2, U2).value == pytest.approx(44.0 / 3.0, rel=1e-12)
    # row 1 keeps a singleton base, so degree 2 falls back to the mean
    assert subdiagonal_row(r, 1, U2).value == pytest.approx(8.0, rel=1e-12)
    ones = ranked(1, 1, 1)
    assert subdiagonal_row(ones, 2, U2).value == pytest.approx(1.0, abs=1e-12)


def test_matrix_worked_values():
    m = discovery_matrix(ranked(8, 4, 1), U1)
    expected = {
        (1, 0): 13 / 3, (1, 1): 1.0,
        (2, 0): 13 / 3, (2, 1): 2.5, (2, 2): 1.0,
        (3, 0): 13 / 3, (3, 1): 2.5, (3, 2): 1.0, (3, 3): 1.0,
    }
    for (row, col), want in expected.items():
        assert m.entry(row, col).value == pytest.approx(want, rel=1e-12)


def test_matrix_all_ones_and_single_value():
    m = discovery_matrix(ranked(1, 1, 1), U1_U2_HALF)
    for row in range(1, 4):
        for col in range(row + 1):
            assert m.entry(row, col).value == pytest.approx(1.0, abs=1e-12)
    m1 = discovery_matrix(ranked(7), U2)
    assert m1.entry(1, 0).value == pytest.approx(7.0)
    assert m1.entry(1, 1).value == 1.0


def test_brute_force_worked_values():
    vals = lv(8, 4, 1)
    assert brute_force_bound(vals, CONSTRAINT_INTERSECTS_TOP_R, 2, U1).value == pytest.approx(2.5)
    assert brute_force_bound(vals, CONSTRAINT_GE2_IN_TOP_R, 2, U2).value == pytest.approx(44 / 3)
    assert brute_force_bound(lv(9), CONSTRAINT_EXACTLY_J_MISSING, 1, U1, j=1).value == 1.0
    # no subset can put two members in a one-element top set
    assert brute_force_bound(lv(9, 3), CONSTRAINT_GE2_IN_TOP_R, 1, U1).is_infinite


def test_brute_force_guards():
    vals = lv(*range(1, 18))
    with pytest.raises(DomainError):
        brute_force_bound(vals, CONSTRAINT_INTERSECTS_TOP_R, 1, U1)
    with pytest.raises(DomainError):
        brute_force_bound(lv(1, 2), "bogus", 1, U1)
    with pytest.raises(DomainError):
        brute_force_bound(lv(1, 2), CONSTRAINT_EXACTLY_J_MISSING, 1, U1)  # j missing


# ---------------------------------------------------------------------------
# oracle self-check (the acceptance suite runs the full battery, oracles.certify)


def test_brute_force_itself_matches_independent_enumeration():
    rng = np.random.default_rng(17)
    for _ in range(8):
        k = int(rng.integers(2, 7))
        vals = [LogValue.of(v) for v in 10.0 ** rng.uniform(-2, 2, size=k)]
        srt = sorted(range(k), key=lambda i: (-vals[i].log_e, i))
        for row in (1, k // 2 + 1):
            want = subset_min_oracle(
                [vals[i] for i in srt], U1_U2_HALF,
                lambda s, row=row: bool(s & set(range(row))),
            )
            got = brute_force_bound(vals, CONSTRAINT_INTERSECTS_TOP_R, row, U1_U2_HALF).log_e
            assert got == pytest.approx(want, abs=1e-9)


def test_diagonal_consistency_is_exact():
    """Row scans equal regularized matrix cells bit for bit."""
    rng = np.random.default_rng(88)
    for _ in range(25):
        k = int(rng.integers(2, 12))
        vals = [LogValue.of(v) for v in 10.0 ** rng.uniform(-8, 8, size=k)]
        rk = RankedValues.from_values(vals)
        for spec in SPECS:
            reg = regularize(discovery_matrix(rk, spec))
            for row in range(1, k + 1):
                assert diagonal_row(rk, row, spec).log10 == reg.log10_entry(row, row - 1)
                if row >= 2:
                    assert subdiagonal_row(rk, row, spec).log10 == reg.log10_entry(row, row - 2)


def test_diagonal_full_row_covers_small_pairs():
    """At r = K a pair of small values can undercut the single smallest."""
    rk = ranked(8, 0.5, 0.1)
    got = diagonal_row(rk, 3, U2)
    assert got.value == pytest.approx(0.05, rel=1e-12)
    want = brute_force_bound(lv(8, 0.5, 0.1), CONSTRAINT_INTERSECTS_TOP_R, 3, U2)
    assert got.log_e == pytest.approx(want.log_e, abs=1e-12)


def _assert_tracked_match_brute_force(values, rows, d, s, diag_spec, sub_spec):
    """Tracked values against ``brute_force_bound``: the diagonal over sets that
    meet the top r, the subdiagonal over sets holding two of them (r >= 2)."""
    pairs = []
    for n, r in enumerate(rows):
        sub = CONSTRAINT_GE2_IN_TOP_R if r >= 2 else CONSTRAINT_INTERSECTS_TOP_R
        pairs += [(d[n], brute_force_bound(values, CONSTRAINT_INTERSECTS_TOP_R, r, diag_spec).log_e),
                  (s[n], brute_force_bound(values, sub, r, sub_spec).log_e)]
    assert oracles._worst_error(pairs) <= 1e-9  # equal infinities score 0


def test_row_tracker_matches_row_bounds():
    """The tracker's per-cell bases reach the same minima as the matrix rows,
    and the brute-force subset minima; the last 60 steps are led by +inf
    values, half of them over tied values, and may merge under U_0."""
    rng = np.random.default_rng(21)
    for trial in range(120):
        k = int(rng.integers(1, 13))
        logs = rng.normal(0.0, 6.0, size=k)
        logs[k - int(rng.integers(0, 3)):] = -math.inf  # some values are exactly 0
        specs = SPECS
        if trial >= 60:
            if trial % 2:  # ties of +-0.0, and zeros
                logs = rng.choice([-math.inf, -2.0, -0.0, 0.0, 1.5], size=k)
            logs[: int(rng.integers(1, k + 1))] = math.inf
            specs = SPECS + (_U0,)
        rk = RankedValues.from_logs(logs)
        rows = sorted({1, k, *(int(x) for x in rng.integers(1, k + 1, size=2))})
        diag_spec, sub_spec = specs[trial % len(specs)], specs[(trial // len(specs)) % len(specs)]
        d, s = RowTracker(k, rows, diag_spec, sub_spec).step(rk.sorted_logs[None])[:, 0]
        for n, r in enumerate(rows):
            assert d[n] == pytest.approx(diagonal_row(rk, r, diag_spec).log_e, abs=1e-12)
            assert s[n] == pytest.approx(subdiagonal_row(rk, r, sub_spec).log_e, abs=1e-12)
        _assert_tracked_match_brute_force([LogValue(x) for x in logs], rows, d, s, diag_spec, sub_spec)


def test_row_tracker_with_leading_infinite_values():
    values = [LogValue(math.inf)] * 2 + lv(3, 0.5, 0.2, 0.1)
    rk = RankedValues.from_values(values)
    rows = [1, 2, 3, 4, 6]
    for spec in SPECS:
        d, s = RowTracker(rk.k, rows, spec, spec).step(rk.sorted_logs[None])[:, 0]
        _assert_tracked_match_brute_force(values, rows, d, s, spec, spec)
        assert list(d) == [diagonal_row(rk, r, spec).log_e for r in rows]
        assert list(s) == [subdiagonal_row(rk, r, spec).log_e for r in rows]
        assert np.isinf(d[:2]).all() and np.isfinite(d[2:]).all()
        assert np.isinf(s[:3]).all() and np.isfinite(s[3:]).all()
    with pytest.raises(DomainError):
        RowTracker(3, [0, 2], U1, U2)


# a few repeated values make ties; -inf is a value of exactly zero
_TRACKED_LOGS = st.one_of(
    st.sampled_from([-math.inf, -2.0, 0.0, 1.5]),
    st.floats(min_value=-700.0, max_value=700.0),
)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_row_tracker_block_equals_single_steps(data):
    """A (B, K) block scores each of its rows exactly as a one-row block does."""
    k = data.draw(st.integers(1, 12), label="k")
    spread = data.draw(st.lists(st.integers(1, k), max_size=3), label="spread")
    rows = sorted({r for r in (1, 2, k - 1, k) if 1 <= r <= k} | set(spread))
    block = np.array(data.draw(
        st.lists(st.lists(_TRACKED_LOGS, min_size=k, max_size=k), min_size=1, max_size=6),
        label="block",
    ))
    block = np.sort(block, axis=1)[:, ::-1]
    if data.draw(st.booleans(), label="infinite row"):
        block[len(block) // 2, : data.draw(st.integers(1, k), label="n_inf")] = math.inf
    specs = data.draw(st.tuples(st.sampled_from(SPECS), st.sampled_from(SPECS)), label="specs")
    tracker = RowTracker(k, rows, *specs)
    got = tracker.step(block)
    want = np.concatenate([tracker.step(row[None]) for row in block], axis=1)
    assert got.shape == (2, len(block), len(rows))
    assert np.array_equal(got, want)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_row_tracker_reuse_equals_single_steps(data):
    """Steps that leave the values from position c = lo - 2 on alone, lo the
    smallest tracked row, take the anchored minima of the step before them and
    still carry the bits, sign bits included, of one-row blocks.  Each step
    after the first repeats its predecessor, changes in order the values
    before position c (or through c, a fresh step), flips the sign of a zero
    at or after c, or draws new values; one step may be +inf-led."""
    k = data.draw(st.integers(3, 12), label="k")
    lo = data.draw(st.integers(3, k), label="lo")
    c = lo - 2
    rows = sorted({lo} | set(data.draw(st.lists(st.integers(lo, k), max_size=3), label="more")))
    row = np.sort(np.array(data.draw(st.lists(_ZERO_LOGS | _TRACKED_LOGS, min_size=k,
                                              max_size=k), label="row")))[::-1]
    steps = [row]
    for _ in range(data.draw(st.integers(0, 7), label="steps")):
        row = row.copy()
        move = data.draw(st.sampled_from(["repeat", "head", "zero", "new"]), label="move")
        if move == "head":
            n = c + data.draw(st.integers(0, 1), label="through c")
            head = np.array(data.draw(st.lists(_TRACKED_LOGS, min_size=n, max_size=n),
                                      label="head"))
            row[:n] = np.sort(np.maximum(head, row[n]))[::-1]
        if move == "new":
            row = np.sort(np.array(data.draw(st.lists(_ZERO_LOGS | _TRACKED_LOGS, min_size=k,
                                                      max_size=k), label="new")))[::-1]
        zeros = c + np.flatnonzero(row[c:] == 0.0)
        if move == "zero" and zeros.size:
            z = zeros[data.draw(st.integers(0, zeros.size - 1), label="zero")]
            row[z] = -row[z]
        steps.append(row)
    block = np.array(steps)
    if data.draw(st.booleans(), label="infinite row"):
        block[len(block) // 2, : data.draw(st.integers(1, k), label="n_inf")] = math.inf
    spec_pool = st.sampled_from(SPECS + (_U0,))
    specs = data.draw(st.tuples(spec_pool, spec_pool), label="specs")
    tracker = RowTracker(k, rows, *specs)
    got = tracker.step(block)
    want = np.concatenate([tracker.step(step[None]) for step in block], axis=1)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_row_tracker_scores_only_fresh_steps():
    """The anchored call scores only the steps whose values from position c
    on differ in their bits from the step before them; a flip of 0.0 to -0.0
    is such a step."""
    x = np.array([5.0, 4.0, 2.0, 1.0, 0.0, -1.0])
    rows = (4, 6)  # c = 2
    block = np.array([
        x,
        x,  # a repeat
        [6.0, 4.5, *x[2:]],  # new values before c only
        [6.0, 4.5, 2.0, 1.0, -0.0, -1.0],  # the flip, scored
        [6.0, 4.5, 2.0, 1.0, -0.0, -1.0],  # a repeat
        [6.0, 4.5, 2.0, 1.5, -0.0, -1.0],
    ])
    for specs in ((U1, U2), (U1_U2_HALF, U1)):
        tracker = RowTracker(x.size, rows, *specs)
        with mock.patch.object(discovery, "tail_merges", wraps=discovery.tail_merges) as spy:
            got = tracker.step(block)
        anchored = [c.args[0] for c in spy.call_args_list if isinstance(c.args[1], int)]
        assert [S.shape[0] for S in anchored] == [3, 3]  # steps 0, 3 and 5
        want = np.concatenate([tracker.step(step[None]) for step in block], axis=1)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


_U5 = MergeSpec.nesp(5)


def _suffix_start(tracker, a):
    """The same tracker with its table starting at column a."""
    forced = copy.copy(tracker)
    forced._a = a
    return forced


def test_row_tracker_suffix_start_keeps_every_bit():
    """The tracker carries the bits, sign bits included, of the same tracker
    at a = 0, which scores every whole-suffix cell from column 0, and its
    values match brute force; both certified steps and steps the certificate
    leaves open are exercised."""
    seen = {"certified": 0, "open": 0}
    step_logs = {
        "ties": st.lists(_ZERO_LOGS, min_size=1),
        "equal": st.one_of(_ZERO_LOGS, st.floats(-700.0, 700.0)).map(lambda x: [x]),
        "wide": st.lists(st.floats(-700.0, 700.0), min_size=1),
    }

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def check(data):
        k = data.draw(st.integers(1, 12), label="k")
        rows = data.draw(st.lists(st.sampled_from(sorted({1, 2, k // 2, k // 2 + 1, k - 1, k}
                                                         & set(range(1, k + 1)))),
                                  min_size=1, max_size=4), label="rows")
        rows = sorted(set(rows))
        block = []
        for _ in range(data.draw(st.integers(1, 5), label="steps")):
            pool = data.draw(step_logs[data.draw(st.sampled_from(sorted(step_logs)), label="kind")],
                             label="pool")
            block.append(sorted(data.draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k),
                                          label="step"), reverse=True))
        block = np.array(block)
        if data.draw(st.booleans(), label="infinite row"):
            block[len(block) // 2, : data.draw(st.integers(1, k), label="n_inf")] = math.inf
        spec_pool = st.sampled_from(SPECS + (_U5, _U0))
        specs = data.draw(st.tuples(spec_pool, spec_pool), label="specs")
        tracker = RowTracker(k, rows, *specs)
        with mock.patch.object(RowTracker, "_empty_base", autospec=True,
                               side_effect=RowTracker._empty_base) as spy:
            got = tracker.step(block)
        want = _suffix_start(tracker, 0).step(block)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        if tracker._a:  # the steps scored again from column 0
            opened = sum(len(c.args[2]) for c in spy.call_args_list if c.args[3] == 0)
            seen["open"] += opened
            seen["certified"] += len(block) - opened
        for b, logs in enumerate(block):
            _assert_tracked_match_brute_force([LogValue(x) for x in logs], rows, *got[:, b], *specs)

    check()
    assert seen["certified"] > 0 and seen["open"] > 0, seen


def test_row_tracker_whole_suffix_minima_under_u0_stay_finite():
    """U_0 merges a set holding +inf to 1 too, so a +inf-led step's
    empty-base minima under U_0 read 0.0, though its tails before n_inf hold
    +inf values (stood in for by 0.0); the anchored cells, all 0.0, would
    hide a +inf there from the row values."""
    block = np.array([[0.0, 0.0, 0.0, 1.0, 0.5, -1.0]])  # three leading +inf values stood in for
    tracker = RowTracker(6, [4, 6], _U0, _U0)  # cuts 2 and 4, then 1 and 3
    lows, _ = tracker._empty_base(merging.suffix_esp_levels(block, 0), block, 0, np.array([[3]]))
    assert (lows == 0.0).all()


def test_row_tracker_builds_its_table_from_column_a():
    """A finite K = 200 step tracking rows 98-101 builds one table of suffix
    levels, over the values from column a = 94 on (K - a + 1 = 107 columns),
    and a block builds it over its fresh steps only, +inf-led steps as
    finite ones; an all-tied block, one fresh step, builds it too, then the
    whole table of every step for its whole-suffix cells, with the bits of
    the tracker at a = 0, but U_0's cells, all tied, need no second table.
    Rows whose smallest cut is at most 0 build the whole table at once."""
    k = 200
    logs = np.sort(np.random.default_rng(5).normal(0.0, 3.0, k))[::-1]
    real = discovery.suffix_esp_levels

    def tables(rows, block, diag_spec=U1):
        shapes = []

        def spy(logs, n_max):
            out = real(logs, n_max)
            shapes.append(out.shape)
            return out

        tracker = RowTracker(k, rows, diag_spec, U2)
        with mock.patch.object(discovery, "suffix_esp_levels", spy):
            got = tracker.step(block)
        want = _suffix_start(tracker, 0).step(block)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        return shapes

    assert tables(range(98, 102), logs[None]) == [(1, 3, 107)]
    # a repeat and a step that moves only the values before c = 96 reuse step 0
    head = logs.copy()
    head[:3] += 1.0
    other = np.sort(np.random.default_rng(6).normal(0.0, 3.0, k))[::-1]
    assert tables(range(98, 102), np.array([logs, logs, head, other])) == [(2, 3, 107)]
    assert tables(range(98, 102), np.zeros((3, k))) == [(1, 3, 107), (3, 3, k + 1)]
    # +inf-led steps, 3 values before a and 150 past every row, and a repeat,
    # build the same one table over their fresh steps, the +inf values stood in for
    lead, past = logs.copy(), logs.copy()
    lead[:3], past[:150] = math.inf, math.inf
    assert tables(range(98, 102), np.array([lead, past, past])) == [(2, 3, 107)]
    # U_0 alone merges every nonempty set to 1: its tied cells need no certificate
    assert tables(range(98, 102), logs[None], _U0) == [(1, 3, 107)]
    assert tables((2, 100), logs[None]) == [(1, 3, k + 1)]  # row 2's diagonal cut is 0
    assert tables((3, 100), logs[None]) == [(1, 3, k + 1)]  # row 3's subdiagonal cut is 0


def test_step_levels_carry_the_bits_of_the_whole_table():
    """``RowTracker._step_levels`` builds the table of the fresh steps only: a
    reused step takes its fresh step's row from column c on and computes its
    columns a..c-1 itself.  Every step's row, cut to the columns that the
    empty-base call and the reused steps read, carries the int64 bits of
    those columns of ``suffix_esp_levels(block[:, a:], top)``, and the
    tracker over such blocks matches brute force and, bit for bit, the same
    tracker at a = 0.  Steps
    repeat their tails while the values before c move, flip zeros on either
    side of c and hold -inf values; the rows reach a == c (rows 1 and 2) and
    K, where a top degree above K - a (U_5 or U_9) puts a at 0, far below c."""
    seen = {"a == c": 0, "a < c": 0, "c - a > 2": 0}

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def check(data):
        k = data.draw(st.integers(3, 12), label="k")
        lo = data.draw(st.integers(1, k) | st.integers(max(k - 4, 1), k), label="lo")  # often near K
        rows = sorted({lo} | set(data.draw(st.lists(st.integers(lo, k), max_size=2), label="more")))
        pool = st.sampled_from(SPECS + (_U5, MergeSpec.nesp(9)))
        specs = data.draw(st.tuples(pool, pool), label="specs")
        tracker = RowTracker(k, rows, *specs)
        a, c = tracker._a, tracker._c
        values = st.lists(_ZERO_LOGS | _TRACKED_LOGS, min_size=k, max_size=k)
        row = np.sort(np.array(data.draw(values, label="row")))[::-1]
        steps = [row]
        for _ in range(data.draw(st.integers(1, 6), label="steps")):
            row = row.copy()
            move = data.draw(st.sampled_from(["repeat", "head", "zero", "new"]), label="move")
            if move == "head":  # new values before c, in order, over the same tail
                head = np.array(data.draw(values, label="head"))[:c]
                row[:c] = np.sort(np.maximum(head, row[c]))[::-1]
            zeros = np.flatnonzero(row == 0.0)
            if move == "zero" and zeros.size:  # before c a reused step, from c on a fresh one
                z = zeros[data.draw(st.integers(0, zeros.size - 1), label="zero")]
                row[z] = -row[z]
            if move == "new":
                row = np.sort(np.array(data.draw(values, label="new")))[::-1]
            steps.append(row)
        block = np.array(steps)
        bits = block[:, c:].view(np.int64)
        fresh = np.ones(len(block), dtype=bool)
        fresh[1:] = (bits[1:] != bits[:-1]).any(axis=1)
        S_fresh, S = tracker._step_levels(block, fresh)
        want = discovery.suffix_esp_levels(block[:, a:], tracker._top)
        # every step's table holds only the columns the empty-base call and the reused steps read
        width = max(max(stop for *_, stop, _ in tracker._specs) - a, c - a + 1)
        assert S.shape == want.shape[:-1] + (width,)
        assert np.array_equal(S.view(np.int64), want[..., :width].view(np.int64))
        assert np.array_equal(S_fresh.view(np.int64), want[fresh].view(np.int64))
        got = tracker.step(block)
        assert np.array_equal(got.view(np.int64), _suffix_start(tracker, 0).step(block).view(np.int64))
        for b, logs in enumerate(block):
            _assert_tracked_match_brute_force([LogValue(x) for x in logs], rows, *got[:, b], *specs)
        if not fresh.all():
            seen["a == c" if a == c else "a < c"] += 1
            seen["c - a > 2"] += c - a > 2

    check()
    assert min(seen.values()) > 0, seen


# ---------------------------------------------------------------------------
# the read set: tail products of the product-term columns, runs that stop early

_READ_SPECS = (U1, U2, U1_U2_HALF, MergeSpec.nesp(5), MergeSpec.mixture((0.25, 0.0, 0.25, 0.5)))


_ZERO_LOGS = st.sampled_from([-math.inf, -2.0, -0.0, 0.0, 1.5])  # ties of +-0.0, zeros


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_tail_merges_carries_the_two_table_bits(data):
    """The kernel carries the bits of the two-table reference, which read each
    tail's product from a separate table of suffix log products, on int,
    slice and gathered calls, over batches of values and of bases.

    The product of a tail of s values is its top suffix level ``S[..., s,
    K-s]``, equal as a value to the reference's table entry; the two differ
    only in the sign of a zero (``np.logaddexp(-inf, -0.0)`` and ``-0.0 +
    0.0`` give +0.0 where the reference's sum keeps -0.0), and likewise a
    base's product read off its own top level.  The kernel reads a product
    only as ``log_tail[m] + (Psum + product)``, and ``log_tail`` is never
    -0.0, so that sign never reaches a cell."""
    k = data.draw(st.integers(1, 12), label="k")
    spec = data.draw(st.sampled_from(_READ_SPECS), label="spec")
    top = spec.max_degree
    values = data.draw(st.sampled_from([_TRACKED_LOGS, _ZERO_LOGS]), label="values")
    # the values' batch shape and the bases' (nb of them, on axis -2 of the result)
    batch, nb = data.draw(st.sampled_from([((), 0), ((), 3), ((3,), 0), ((3, 1), 2)]),
                          label="batch")
    logs = np.array(data.draw(st.lists(values, min_size=k * math.prod(batch),
                                       max_size=k * math.prod(batch)), label="logs"))
    logs = np.sort(logs.reshape(batch + (k,)), axis=-1)[..., ::-1]
    S = discovery.suffix_esp_levels(logs, top)
    for s in range(min(top, k) + 1):
        assert np.array_equal(S[..., s, k - s], suffix_logsums_oracle(logs)[..., k - s])
    start = data.draw(st.integers(0, k), label="start")
    # bases of at most `start` values of their own: levels, log product and size
    bases = [np.sort(np.array(data.draw(st.lists(values, max_size=min(start, 4)),
                                        label="base")))[::-1] for _ in range(max(nb, 1))]
    levels = [discovery.suffix_esp_levels(base, top)[:, 0] for base in bases]
    prod = [lev[min(base.size, top)] for base, lev in zip(bases, levels)]  # as the callers read it
    sums = [suffix_logsums_oracle(base)[0] for base in bases]  # -0.0 for a base of -0.0 values

    def column(x):  # one scalar per base, or a column of nb of them
        return np.array(x)[:, None] if nb else x[0]

    P = tuple(column([lev[a] for lev in levels]) for a in range(top + 1))
    size = column([base.size for base in bases])
    calls = [start, slice(start, data.draw(st.integers(start, k + 1), label="stop"))]
    if not batch:
        calls.append(np.array(data.draw(st.lists(st.integers(start, k), min_size=1, max_size=6),
                                        label="tails")))
    T = suffix_logsums_oracle(logs[..., k - data.draw(st.integers(min(top, k), k), label="t"):])
    for tails in calls:
        want = tail_merges_oracle(S, T, tails, P, column(sums), size, spec)
        got = discovery.tail_merges(S, tails, P, column(prod), size, spec, k)
        assert got.shape == want.shape
        assert _same_bits(got, want)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_tail_merges_reads_only_the_product_columns(data):
    """A start..stop run carries the bits of those columns of the full run,
    and so do gathered tail starts; runs stop before and after K - top,
    batched and unbatched, over values that hold ties and zeros."""
    k = data.draw(st.integers(1, 12), label="k")
    spec = data.draw(st.sampled_from(_READ_SPECS), label="spec")
    top = spec.max_degree
    batch = data.draw(st.sampled_from([(), (3,)]), label="batch")
    logs = np.array(data.draw(st.lists(_TRACKED_LOGS, min_size=k * math.prod(batch),
                                       max_size=k * math.prod(batch)), label="logs"))
    logs = np.sort(logs.reshape(batch + (k,)), axis=-1)[..., ::-1]
    S = discovery.suffix_esp_levels(logs, top)
    start = data.draw(st.integers(0, k), label="start")
    stop = data.draw(st.integers(start, k + 1), label="stop")
    # a base of at most `start` values of its own: its levels, log product and size
    base = data.draw(st.lists(_TRACKED_LOGS, max_size=min(start, 3)), label="base")
    base = np.sort(np.array(base))[::-1]
    levels = tuple(discovery.suffix_esp_levels(base, top)[:, 0])
    base_args = (levels, float(base.sum()), base.size)
    want = discovery.tail_merges(S, start, *base_args, spec, k)
    got = discovery.tail_merges(S, slice(start, stop), *base_args, spec, k)
    assert got.shape == batch + (stop - start,)
    assert _same_bits(got, want[..., : stop - start])
    if not batch:
        tails = np.array(data.draw(st.lists(st.integers(start, k), min_size=1, max_size=6),
                                   label="tails"))
        gathered = discovery.tail_merges(S, tails, *base_args, spec, k)
        assert _same_bits(gathered, want[tails - start])


@pytest.mark.parametrize("k, rows, diag_spec, sub_spec", [
    (1, (1,), U1, U2),  # r = 1: both cuts are -1
    (1, (1,), U2, MergeSpec.nesp(5)),
    (2, (1, 2), U2, U2),
    (2, (2,), U1_U2_HALF, U1),
    (3, (1, 2, 3), U1, MergeSpec.nesp(5)),  # a subdiagonal degree above K
    (3, (3,), MergeSpec.nesp(5), MergeSpec.nesp(5)),
    (8, (1,), U2, U2),  # only column 0 of the empty run
    (8, (1, 8), U2, U2),  # r = K under u2: the empty run reaches the product columns
    (7, (3, 7), MergeSpec.nesp(5), MergeSpec.nesp(5)),  # product columns inside the run
    (6, (1, 4, 6), MergeSpec.mixture((0.2, 0.3, 0.5)), U1_U2_HALF),  # mixtures
    (6, (2, 5), U1_U2_HALF, MergeSpec.mixture((0.25, 0.0, 0.25, 0.5))),
])
def test_row_tracker_read_set_edges(k, rows, diag_spec, sub_spec):
    """At the edges of its read set the tracker still matches the row bounds:
    its empty-base run ends at the largest cut r-1-w (column 0 when none is
    nonnegative)."""
    stops = [max(max(r - 1 - min(w, r) for r in rows), 0) + 1 for w in (1, 2)]
    rng = np.random.default_rng(k * 100 + len(rows))
    for trial in range(20):
        logs = rng.normal(0.0, 6.0, size=k)
        if trial % 3 == 1:
            logs = np.round(logs / 4.0)  # ties
        logs[k - trial % min(k + 1, 3):] = -math.inf  # some values are exactly 0
        rk = RankedValues.from_logs(logs)
        tracker = RowTracker(k, rows, diag_spec, sub_spec)
        with mock.patch.object(discovery, "tail_merges", wraps=discovery.tail_merges) as spy:
            d, s = tracker.step(rk.sorted_logs[None])[:, 0]
        runs = [c.args[1] for c in spy.call_args_list if isinstance(c.args[1], slice)]
        assert [(run.start, run.stop) for run in runs] == [(0, stop) for stop in stops]
        for n, r in enumerate(rows):
            assert d[n] == pytest.approx(diagonal_row(rk, r, diag_spec).log_e, abs=1e-12)
            assert s[n] == pytest.approx(subdiagonal_row(rk, r, sub_spec).log_e, abs=1e-12)
        _assert_tracked_match_brute_force([LogValue(x) for x in logs], rows, d, s, diag_spec, sub_spec)


@given(st.lists(st.floats(min_value=1e-4, max_value=1e4), min_size=1, max_size=9))
@settings(max_examples=40, deadline=None)
def test_permutation_equivariance(values):
    rng = np.random.default_rng(len(values))
    perm = rng.permutation(len(values))
    a = RankedValues.from_values(lv(*values))
    b = RankedValues.from_values(lv(*[values[i] for i in perm]))
    for spec in (U1, U2):
        for row in range(1, len(values) + 1):
            assert diagonal_row(a, row, spec).log_e == diagonal_row(b, row, spec).log_e
    ma = discovery_matrix(a, U1)
    mb = discovery_matrix(b, U1)
    for row in range(1, len(values) + 1):
        assert np.array_equal(ma.rows[row - 1], mb.rows[row - 1])


def test_infinite_values_rank_first_and_propagate():
    inf = LogValue(math.inf)
    rk = RankedValues.from_values(lv(3, 1) + [inf])
    two = RankedValues.from_values([inf, inf] + lv(2))
    assert rk.value_at(1).is_infinite
    for spec in SPECS:
        assert diagonal_row(rk, 1, spec).is_infinite
        m = discovery_matrix(rk, spec)
        assert m.entry(1, 0).is_infinite
        assert m.entry(3, 3).value == 1.0  # the empty set still caps the last column
        # excluding the infinite value leaves finite bounds
        assert not m.entry(3, 1).is_infinite
        # two leading +inf values: every set holding one merges to +inf
        m = discovery_matrix(two, spec)
        assert [m.entry(2, j).value for j in range(3)] == [math.inf, math.inf, 1.0]
        assert [m.entry(3, j).value for j in range(4)] == [math.inf, math.inf, 2.0, 1.0]


@pytest.mark.parametrize("k", [2, 300])
def test_logs_at_the_bound_run_without_overflow(k):
    """Logs from -MAX_ABS_LOG to +MAX_ABS_LOG go through every scan, merge and
    writer with no RuntimeWarning (tier-1 makes one an error), and one ulp
    past the bound is rejected where logs enter."""
    logs = np.linspace(MAX_ABS_LOG, -MAX_ABS_LOG, k)
    rk = RankedValues.from_logs(logs)
    for spec in SPECS:
        m = discovery_matrix(rk, spec)
        assert formats.parse_matrix_csv(formats.matrix_csv(m)).log10.tobytes() == m.log10.tobytes()
        formats.heatmap_svg(regularize(m))
        tracked = RowTracker(k, (1, k), spec, spec).step(logs[None])
        assert tracked[0, 0, 0] == diagonal_row(rk, 1, spec).log_e
        assert tracked[1, 0, 1] == subdiagonal_row(rk, k, spec).log_e
        assert np.isfinite(merging.mixture_merge(spec, rk.values).log_e)
    for big in (math.nextafter(MAX_ABS_LOG, math.inf), math.nextafter(-MAX_ABS_LOG, -math.inf)):
        with pytest.raises(DomainError, match="natural log"):
            RankedValues.from_logs(np.append(logs, big))
        with pytest.raises(DomainError, match="natural log"):
            merging.as_log_array([*rk.values, LogValue(big)])


# ---------------------------------------------------------------------------
# the threshold walk against the full kernel


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


@st.composite
def _walk_logs(draw):
    """Descending logs built to stress the walk: ties, all-equal values, logs
    near +-700, spreads below 1e-12, leading +inf and trailing -inf values."""
    k = draw(st.integers(1, 80), label="k")
    kind = draw(st.sampled_from(["ties", "equal", "wide", "narrow", "normal"]), label="kind")
    center = draw(st.floats(-700.0, 700.0), label="center")
    if kind == "equal":
        logs = [center] * k
    else:
        value = {
            "ties": st.sampled_from([-math.inf, -2.0, 0.0, -0.0, 1.5, 3.0]),
            "wide": st.one_of(st.floats(-700.0, 700.0), st.floats(690.0, 700.0),
                              st.floats(-700.0, -690.0)),
            "narrow": st.floats(center, center + 1e-12),
            "normal": st.floats(-5.0, 5.0),
        }[kind]
        logs = draw(st.lists(value, min_size=k, max_size=k), label="logs")
    logs = np.sort(np.array(logs, dtype=float))[::-1]
    logs[: draw(st.integers(0, k), label="n_inf") if draw(st.booleans()) else 0] = math.inf
    return logs


def _tail_calls(calls):
    """Cells handed to the full-tail scorer: the columns of its calls."""
    return sum(np.size(c.args[3]) for c in calls)


def test_u1_walk_matches_full_kernel():
    """The walk's matrix and row bounds carry the full kernel's bits, and both
    the certified windows and the full-scan fallback are exercised."""
    seen = {"certified": 0, "fallback": 0}

    @given(_walk_logs(), st.sampled_from([U1, MergeSpec.mixture((0.25, 0.75))]),
           st.data())
    @settings(max_examples=120, deadline=None)
    def check(logs, spec, data):
        rk = RankedValues.from_logs(logs)
        want = full_kernel_oracle(rk.sorted_logs, spec)
        with mock.patch.object(discovery, "_row_cells", wraps=discovery._row_cells) as spy:
            got = discovery_matrix(rk, spec)
        assert _same_bits(got.log10, want / math.log(10.0))
        n_inf = int(np.isposinf(logs).sum())
        cells = sum(r + 1 - min(n_inf, r) for r in range(1, rk.k + 1))
        fallback = _tail_calls(spy.call_args_list)
        seen["fallback"] += fallback
        seen["certified"] += cells - fallback
        reg = np.minimum.accumulate(want, axis=1)
        for r in {1, rk.k, data.draw(st.integers(1, rk.k), label="row")}:
            assert _same_bits(diagonal_row(rk, r, spec).log_e, reg[r - 1, r - 1])
            assert _same_bits(subdiagonal_row(rk, r, spec).log_e, reg[r - 1, max(r - 2, 0)])

    check()
    assert seen["certified"] > 0 and seen["fallback"] > 0, seen


@given(_walk_logs(), st.sampled_from([U1, U2, U1_U2_HALF, MergeSpec.nesp(5)]), st.data())
@settings(max_examples=120, deadline=None)
def test_row_bounds_keep_every_bit(logs, spec, data):
    """Rows given unsorted and repeated, scored through row blocks of a few
    rows each, carry the bits (sign bits included) of the running minima of
    the full kernel's rows, in the order given; ``diagonal_row`` and
    ``subdiagonal_row`` are one-row calls."""
    rk = RankedValues.from_logs(logs)
    reg = np.minimum.accumulate(full_kernel_oracle(rk.sorted_logs, spec), axis=1)
    rows = data.draw(st.lists(st.integers(1, rk.k), min_size=1, max_size=12), label="rows")
    cells = data.draw(st.integers(1, 4 * (rk.k + 1)), label="TRACK_BLOCK_CELLS")  # 1-4 rows a block
    for width in (1, 2):
        want = np.array([reg[r - 1, max(r - width, 0)] for r in rows])
        with mock.patch.object(discovery, "TRACK_BLOCK_CELLS", cells):
            got = discovery.row_bounds(logs, rows, width, spec)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    for r in set(rows):
        for fn, width in ((diagonal_row, 1), (subdiagonal_row, 2)):
            one = discovery.row_bounds(logs, [r], width, spec)
            assert np.float64(fn(rk, r, spec).log_e).view(np.int64) == one.view(np.int64)[0]


# the specs of top degree >= 2 that the full-tail scorer serves, one with a U_0 weight
_BLOCK_SPECS = (U2, _U5, U1_U2_HALF, MergeSpec.mixture((0.25, 0.0, 0.25, 0.5)))


@st.composite
def _block_logs(draw):
    """Descending logs, K up to 150, built to stress the tail blocks: ties,
    all-equal values, spreads near delta (1e-13 to 1e-8 wide), logs near
    +-700, leading +inf and trailing -inf values."""
    k = draw(st.integers(1, 150), label="k")
    kind = draw(st.sampled_from(["ties", "equal", "wide", "narrow", "normal"]), label="kind")
    center = draw(st.floats(-700.0, 700.0), label="center")
    if kind == "equal":
        logs = [center] * k
    else:
        width = 10.0 ** draw(st.floats(-13.0, -8.0), label="width")
        value = {
            "ties": st.sampled_from([-math.inf, -2.0, 0.0, -0.0, 1.5, 3.0]),
            "wide": st.one_of(st.floats(-700.0, 700.0), st.floats(690.0, 700.0), st.floats(-700.0, -690.0)),
            "narrow": st.floats(center, center + width),
            "normal": st.floats(-5.0, 5.0),
        }[kind]
        logs = draw(st.lists(value, min_size=k, max_size=k), label="logs")
    logs = np.sort(np.array(logs, dtype=float))[::-1]
    logs[k - draw(st.integers(0, 3), label="zeros"):] = -math.inf
    logs[: draw(st.integers(0, 3), label="n_inf")] = math.inf
    return logs


def test_tail_blocks_keep_every_bit():
    """The matrix and the row bounds (widths 1 and 2) scored by tail blocks
    carry the bits, sign bits included, of the unpruned oracle, which scores
    every tail of every cell; pruned tails, blocks scored tail by tail and
    cells that keep every block (one contiguous call) are all exercised."""
    seen = {"pruned": 0, "scored": 0, "dense": 0}

    @given(_block_logs(), st.sampled_from(_BLOCK_SPECS))
    @settings(max_examples=80, deadline=None)
    def check(logs, spec):
        k, top = logs.size, spec.max_degree
        rk = RankedValues.from_logs(logs)
        want = full_kernel_oracle(logs, spec)
        with mock.patch.object(discovery, "tail_merges", wraps=discovery.tail_merges) as kernel, \
                mock.patch.object(discovery, "_row_cells", wraps=discovery._row_cells) as rows:
            got = discovery_matrix(rk, spec)
        assert _same_bits(got.log10, want / math.log(10.0))
        reg = np.minimum.accumulate(want, axis=1)
        r = np.arange(1, k + 1)
        for width in (1, 2):
            bounds = discovery.row_bounds(logs, r, width, spec)
            assert _same_bits(bounds, reg[r - 1, np.maximum(r - width, 0)])
        # body tails (before the last top + 1) of the cells scored, against the
        # body cells scored exactly: each block's last cell, and single tails
        n_inf = int(np.isposinf(logs).sum())
        body = sum(np.maximum(k - top - np.maximum(np.broadcast_to(c.args[2], c.args[3].shape), n_inf), 0).sum()
                   for c in rows.call_args_list)
        gathered = [c.args for c in kernel.call_args_list if np.ndim(c.args[1])]
        exact = sum(np.count_nonzero(a[1] < k - top) for a in gathered)
        seen["pruned"] += exact < body
        seen["scored"] += sum(np.count_nonzero(a[1] < k - top) for a in gathered if a[7] is None) > 0
        seen["dense"] += any(isinstance(c.args[1], slice) for c in kernel.call_args_list)

    check()
    assert min(seen.values()) > 0, seen


def _check_margin(logs, rows):
    """Every cell scored for the given rows lies within delta/4 of its exact
    log-mean, computed with mpmath, and so does every tail-block bound, the
    set's sum over the size of the block's first set."""
    k = logs.size
    delta = discovery._margin(np.abs(logs[np.isfinite(logs)]).max(initial=0.0), k, U1)
    x = [mpmath.exp(mpmath.mpf(float(v))) for v in logs]
    tail = [mpmath.mpf(0)] * (k + 1)
    for i in range(k - 1, -1, -1):
        tail[i] = tail[i + 1] + x[i]
    worst, scored = 0.0, 0
    for r in rows:
        base = [mpmath.mpf(0)] * (r + 1)
        for j in range(r - 1, -1, -1):
            base[j] = base[j + 1] + x[j]
        results = []
        real = discovery.tail_merges

        def spy(S, tails, P, Psum, arity, spec, k, comb_size=None):
            out = real(S, tails, P, Psum, arity, spec, k, comb_size)
            i = tails + np.arange(out.shape[-1]) if np.ndim(tails) == 0 else tails
            size = arity + (k - i) if comb_size is None else comb_size  # the divisor C(size, 1)
            results.append(np.broadcast_arrays(r - arity, i, size, out))
            return out

        with mock.patch.object(discovery, "tail_merges", spy):
            diagonal_row(RankedValues.from_logs(logs), r, U1)
        for js, iss, ms, cs in results:
            for j, i, m, c in {(int(j), int(i), int(m), float(c)) for j, i, m, c in
                               zip(js.ravel(), iss.ravel(), ms.ravel(), cs.ravel())}:
                exact = mpmath.log((base[j] + tail[i]) / m) if m else mpmath.mpf(0)
                err = float(abs(c - exact))
                worst = max(worst, math.inf if math.isnan(err) else err)  # max() drops a NaN
                scored += 1
    assert scored > 0
    assert worst <= delta / 4, (worst, delta)


def test_walk_margin_is_sound():
    """delta bounds the kernel's rounding error with a factor 4 to spare."""
    rng = np.random.default_rng(8)
    with mpmath.workprec(96):
        for k, logs in (
            (40, rng.uniform(-700.0, 700.0, 40)),
            (120, rng.normal(0.0, 5.0, 120)),
            (200, 699.0 + rng.uniform(0.0, 1.0, 200)),
            (300, -699.0 - rng.uniform(0.0, 1.0, 300)),
            (300, np.round(rng.normal(0.0, 3.0, 300))),
        ):
            logs = np.sort(logs)[::-1]
            _check_margin(logs, sorted({1, k, *rng.integers(1, k + 1, size=3).tolist()}))
        _check_margin(np.sort(rng.uniform(-700.0, 700.0, 2000))[::-1], [1000])


def _margin_inputs(rng):
    """Descending logs that stress the margin: wide spreads, logs near
    +-700, ties, and values of exactly zero."""
    with_zeros = rng.normal(0.0, 5.0, 60)
    with_zeros[50:] = -math.inf
    return [np.sort(logs)[::-1] for logs in (
        rng.uniform(-700.0, 700.0, 40), rng.normal(0.0, 5.0, 120), 699.0 + rng.uniform(0.0, 1.0, 200),
        -699.0 - rng.uniform(0.0, 1.0, 300), np.round(rng.normal(0.0, 3.0, 300)), with_zeros,
    )]


def test_margin_at_top_degree_one_is_the_walk_margin():
    """At top degree 1 the margin is the walk's 2^-50 (K + 8)(M + W + 4),
    M = L + log(K + 1), to the bit, so the walk certifies the same cells."""
    for logs in _margin_inputs(np.random.default_rng(9)):
        k, big = logs.size, np.abs(logs[np.isfinite(logs)]).max()
        for spec in (U1, MergeSpec.mixture((0.25, 0.75))):
            w = max(abs(math.log(x)) for x in spec.weight_vector() if x > 0.0)
            walk = 2.0 ** -50 * (k + 8) * (float(big) + math.log(k + 1) + w + 4.0)
            assert discovery._margin(big, k, spec) == walk


@pytest.mark.parametrize("spec", [U2, _U5, U1_U2_HALF])
def test_margin_is_sound_over_whole_suffix_cells(spec):
    """delta bounds the rounding error of every whole-suffix cell (the empty
    base over each tail) with a factor 4 to spare, against an mpmath
    evaluation of F over the exact values of the stored doubles."""
    top, weights = spec.max_degree, spec.weight_vector()
    with mpmath.workprec(96):
        for logs in _margin_inputs(np.random.default_rng(8)):
            k = logs.size
            delta = discovery._margin(np.abs(logs[np.isfinite(logs)]).max(), k, spec)
            cells = discovery.tail_merges(discovery.suffix_esp_levels(logs, top), 0, (0.0,), 0.0, 0, spec, k)
            x = [mpmath.exp(mpmath.mpf(float(v))) for v in logs]
            e = [[mpmath.mpf(1)] * (k + 1)] + [[mpmath.mpf(0)] * (k + 1) for _ in range(top)]
            for i in range(k - 1, -1, -1):
                for b in range(1, top + 1):
                    e[b][i] = e[b][i + 1] + x[i] * e[b - 1][i + 1]
            worst = 0.0
            for i, c in enumerate(cells.tolist()):
                m = k - i  # U_n of m < n values is U_m
                exact = mpmath.log(mpmath.fsum(w * e[min(n, m)][i] / mpmath.binomial(m, min(n, m))
                                               for n, w in enumerate(weights) if w > 0.0))
                worst = max(worst, 0.0 if c == exact else float(abs(c - exact)))
            assert worst <= delta / 4, (worst, delta)


@pytest.mark.parametrize("spec", [U2, _U5, U1_U2_HALF])
def test_margin_is_sound_over_tail_block_bounds(spec):
    """delta bounds the rounding error of the tail blocks' kernel cells with a
    factor 4 to spare: each block's last cell and its bound, the same cell
    with log C(m, n) read at the size m of the block's first set, against an
    mpmath evaluation of sum_n w_n e_n(set) / C(m, n) over the exact values
    of the stored doubles (at most 400 of each row's, spread over the row)."""
    top, weights = spec.max_degree, spec.weight_vector()
    real = discovery.tail_merges
    with mpmath.workprec(96):
        for logs in _margin_inputs(np.random.default_rng(8)):
            k = logs.size
            delta = discovery._margin(np.abs(logs[np.isfinite(logs)]).max(), k, spec)
            x = [mpmath.exp(mpmath.mpf(float(v))) for v in logs]
            tail = [[mpmath.mpf(1)] * (k + 1)] + [[mpmath.mpf(0)] * (k + 1) for _ in range(top)]
            for i in range(k - 1, -1, -1):
                for b in range(1, top + 1):
                    tail[b][i] = tail[b][i + 1] + x[i] * tail[b - 1][i + 1]
            r = k // 3
            base = [[mpmath.mpf(1)] * (r + 1)] + [[mpmath.mpf(0)] * (r + 1) for _ in range(top)]
            for j in range(r - 1, -1, -1):
                for b in range(1, top + 1):
                    base[b][j] = base[b][j + 1] + x[j] * base[b - 1][j + 1]
            found = set()

            def spy(S, tails, P, Psum, arity, spec, k, comb_size=None):
                out = real(S, tails, P, Psum, arity, spec, k, comb_size)
                if comb_size is not None:  # (last cells, bounds): sets {j+1..r} + {e+1..K}, sizes m
                    found.update(zip(*(a.ravel().tolist() for a in np.broadcast_arrays(
                        r - arity, tails, comb_size, out))))
                return out

            with mock.patch.object(discovery, "tail_merges", spy):
                discovery.row_bounds(logs, [r], 1, spec)
            cells = sorted(found)
            assert cells
            worst = 0.0
            for j, e, m, c in cells[:: -(-len(cells) // 400)]:
                exact = mpmath.log(mpmath.fsum(
                    w * mpmath.fsum(base[a][j] * tail[n - a][e] for a in range(n + 1)) / mpmath.binomial(m, n)
                    for n, w in enumerate(weights) if w > 0.0))
                worst = max(worst, 0.0 if c == exact else float(abs(c - exact)))
            assert worst <= delta / 4, (worst, delta)


def test_walk_peak_memory():
    """The walk's Python-heap peak at K = 500 stays within 1 MB of the full
    kernel's, so the matrix_scan benchmark's peak RSS does not grow."""
    rk = RankedValues.from_logs(np.random.default_rng(42).normal(0.0, 5.0, 500))
    discovery_matrix(rk, U1)  # first-call caches stay out of the peak
    peaks = []
    for build in (lambda: discovery_matrix(rk, U1), lambda: full_kernel_oracle(rk.sorted_logs, U1)):
        tracemalloc.start()
        try:
            build()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    walk, full = peaks
    assert walk <= full + 1_000_000, peaks


def test_full_tail_peak_memory():
    """Scoring every tail under u10 at K = 200 peaks within 1 MB of the
    0.32 MB (K, K+1) output: the per-row prefix tables keep the peak from
    growing with the degree."""
    rk = RankedValues.from_logs(np.random.default_rng(42).normal(0.0, 5.0, 200))
    u10 = MergeSpec.nesp(10)
    discovery_matrix(rk, u10)  # first-call caches stay out of the peak
    tracemalloc.start()
    try:
        nbytes = discovery_matrix(rk, u10).log10.nbytes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= nbytes + 1_000_000, (peak, nbytes)


def test_row_cells_heap_is_flat_in_k():
    """The middle row under u2 at K = 2000 scores 1001 x 1001 cells x tails,
    8 MB a kernel temporary in one call (a 32 MB peak); scored in chunks of
    ``TRACK_BLOCK_CELLS * 64`` cells x tails it peaks within five chunks'
    bytes (21 MB), a bound that does not grow with K."""
    k = 2000
    logs = RankedValues.from_logs(np.random.default_rng(42).normal(0.0, 5.0, k)).sorted_logs
    S = discovery.suffix_esp_levels(logs, U2.max_degree)
    cols = np.arange(k // 2 + 1)
    discovery._row_cells(logs, S, k // 2, cols, U2)  # first-call caches stay out of the peak
    tracemalloc.start()
    try:
        discovery._row_cells(logs, S, k // 2, cols, U2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * discovery.TRACK_BLOCK_CELLS * 64 * 8, peak


@pytest.mark.parametrize("spec", [U1, U2, U1_U2_HALF, MergeSpec.nesp(5)])
def test_row_cells_chunks_keep_every_bit(monkeypatch, spec):
    """A row scored a few columns per kernel call carries the bits of one call
    over all its columns, on logs with +inf, ties of 0.0 and -0.0, and -inf."""
    rng = np.random.default_rng(7)
    logs = RankedValues.from_logs(np.concatenate([
        [math.inf, math.inf, -math.inf, 0.0, 0.0, -0.0], rng.normal(0.0, 3.0, 40).round(1)])).sorted_logs
    S = discovery.suffix_esp_levels(logs, spec.max_degree)
    for r in (3, 25, 40):
        cols = np.arange(2, r + 1)  # the bases past the two +inf values
        whole = discovery._row_cells(logs, S, r, cols, spec)  # one call at this size
        with monkeypatch.context() as m:
            m.setattr(discovery, "TRACK_BLOCK_CELLS", 1)  # 64 cells x tails a call
            assert _same_bits(discovery._row_cells(logs, S, r, cols, spec), whole), r


def test_tables_leave_log_comb_cache_alone():
    """The weight tables are the cache of their log C(m, deg) cells: building
    them adds no entry to log_comb's unbounded cache (at K = 2000 and 201
    weights that was 381,900 entries and +75 MB), and each cell is log_comb's."""
    spec, k = MergeSpec.mixture([1.0 / 31] * 31), 307  # sizes no other test uses
    before = merging.log_comb.cache_info().currsize
    _, lc, _ = discovery._tables.__wrapped__(spec, k)
    assert merging.log_comb.cache_info().currsize == before
    for deg, m in ((0, 1), (1, 2), (7, 100), (30, 307)):
        assert lc[deg, m] == math.log(math.comb(m, deg)), (deg, m)
    assert np.isposinf(lc[30, :31]).all()


@pytest.mark.parametrize("spec, k", [
    (U1, 40), (U2, 40), (MergeSpec.nesp(7), 40),
    (MergeSpec.mixture((0.5, 0.0, 0.25, 0.25)), 40),  # a degree-0 weight and a zero weight
    (MergeSpec.nesp(11), 12), (MergeSpec.nesp(12), 12), (MergeSpec.nesp(13), 12),  # degrees near K
])
def test_tables_are_the_math_comb_table(spec, k):
    """Each positive-weight row of ``lc`` is log math.comb(m, deg) for m > deg
    and +inf elsewhere, bit for bit: the recurrence builds the same integers."""
    _, lc, _ = discovery._tables.__wrapped__(spec, k)
    want = np.full((len(spec.weight_vector()), k + 1), np.inf)
    for deg, w in enumerate(spec.weight_vector()):
        if w > 0.0:
            want[deg, deg + 1:] = [math.log(math.comb(m, deg)) for m in range(deg + 1, k + 1)]
    assert lc.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# regularization and confidence regions


def _matrix_from_log10_rows(rows):
    log10 = np.full((len(rows), len(rows) + 1), np.nan)
    for i, row in enumerate(rows):
        log10[i, : i + 2] = row
    return DiscoveryMatrix(log10)


def test_regularize_running_minimum():
    m = _matrix_from_log10_rows([[5.0, 7.0], [5.0, 7.0, 2.0]])
    reg = regularize(m)
    assert list(reg.rows[1]) == [5.0, 5.0, 2.0]
    assert reg.regularized
    assert not reg.log10.flags.writeable
    for i, row in enumerate(reg.rows):
        assert row.base is reg.log10 and row.size == i + 2
        assert not row.flags.writeable
    again = regularize(reg)
    assert all(np.array_equal(a, b) for a, b in zip(reg.rows, again.rows))


def test_regularize_keeps_monotone_rows():
    m = _matrix_from_log10_rows([[3.0, 3.0], [9.0, 4.0, 1.0]])
    reg = regularize(m)
    assert list(reg.rows[1]) == [9.0, 4.0, 1.0]


def test_confidence_region_worked_values():
    m = regularize(discovery_matrix(ranked(8, 4, 1), U1))
    region = confidence_region(m, 2, 3.0)
    assert region.members == {1, 2}
    assert region.lower_bound == 1
    region = confidence_region(m, 2, 10.0)
    assert region.members == {0, 1, 2}
    assert region.lower_bound == 0
    region = confidence_region(m, 2, math.inf)
    assert region.members == {0, 1, 2}


def test_confidence_region_empty_when_alpha_tiny():
    m = regularize(discovery_matrix(ranked(8, 4, 1), U1))
    region = confidence_region(m, 2, 1e-9)
    assert region.members == frozenset()
    assert region.lower_bound is None


def test_confidence_region_guards():
    m = discovery_matrix(ranked(8, 4, 1), U1)
    with pytest.raises(DomainError):
        confidence_region(m, 2, 3.0)  # not regularized
    reg = regularize(m)
    with pytest.raises(DomainError):
        confidence_region(reg, 2, 0.0)
    with pytest.raises(DomainError):
        confidence_region(reg, 2, -1.0)
    with pytest.raises(DomainError):
        confidence_region(reg, 9, 1.0)
    with pytest.raises(DomainError, match="column 3 outside 0..2"):
        reg.log10_entry(2, 3)
    with pytest.raises(DomainError, match="shape"):
        DiscoveryMatrix(np.zeros((3, 3)))
    with pytest.raises(DomainError, match="empty series"):
        DiagonalSeries(row=1, kind="diagonal", log10_values=np.empty(0)).final()


def test_confidence_regions_nest_in_alpha():
    rng = np.random.default_rng(55)
    vals = [LogValue.of(v) for v in 10.0 ** rng.uniform(-3, 3, size=8)]
    m = regularize(discovery_matrix(RankedValues.from_values(vals), U1_U2_HALF))
    for row in range(1, 9):
        previous = frozenset()
        for alpha in (0.01, 1.0, 10.0, 1e6):
            members = confidence_region(m, row, alpha).members
            assert previous <= members
            previous = members


def test_regularized_regions_are_upper_intervals():
    rng = np.random.default_rng(56)
    vals = [LogValue.of(v) for v in 10.0 ** rng.uniform(-3, 3, size=9)]
    m = regularize(discovery_matrix(RankedValues.from_values(vals), U1))
    for row in range(1, 10):
        region = confidence_region(m, row, 5.0)
        if region.members:
            assert region.members == frozenset(range(region.lower_bound, row + 1))


# ---------------------------------------------------------------------------
# color buckets


BUCKET_CASES = [
    (0.0, ColorBucket.GREEN),
    (1.13e-20, ColorBucket.GREEN),
    (5.0, ColorBucket.GREEN),
    (9.999999, ColorBucket.GREEN),
    (10.0, ColorBucket.YELLOW),
    (99.0, ColorBucket.YELLOW),
    (100.0, ColorBucket.ORANGE),
    (1e7, ColorBucket.ORANGE),
    (1e8, ColorBucket.RED),
    (1e13, ColorBucket.RED),
    (1e14, ColorBucket.DARKRED),
    (1e19, ColorBucket.DARKRED),
    (1e20, ColorBucket.BLACK),
    (math.inf, ColorBucket.BLACK),
]

BOUNDARIES = [
    (10.0, ColorBucket.YELLOW),
    (100.0, ColorBucket.ORANGE),
    (1e8, ColorBucket.RED),
    (1e14, ColorBucket.DARKRED),
    (1e20, ColorBucket.BLACK),
]


def _array_buckets(logs):
    """The vectorized rule over one array, as ColorBucket members."""
    return [list(ColorBucket)[i] for i in bucket_indexes(np.array(logs))]


@pytest.mark.parametrize("value,bucket", BUCKET_CASES)
def test_colorize_buckets(value, bucket):
    assert colorize(LogValue.of(value)) is bucket


def test_bucket_rule_array_form_matches_colorize():
    logs = [LogValue.of(value).log_e for value, _ in BUCKET_CASES] + [-math.inf]
    for boundary, _ in BOUNDARIES:
        edge = LogValue.of(boundary).log_e
        logs += [np.nextafter(edge, -math.inf), edge, np.nextafter(edge, math.inf)]
    got = _array_buckets(logs)
    assert got[: len(BUCKET_CASES)] == [bucket for _, bucket in BUCKET_CASES]
    assert got == [colorize(LogValue(float(x))) for x in logs]


def test_colorize_boundaries_belong_to_the_upper_bucket():
    for boundary, upper in BOUNDARIES:
        assert colorize(LogValue.of(boundary)) is upper
        assert colorize(LogValue.of(boundary * 0.999999)) is not upper
        edge = LogValue.of(boundary).log_e
        below, at = _array_buckets([np.nextafter(edge, -math.inf), edge])
        assert at is upper and below is not upper


# ---------------------------------------------------------------------------
# monotonicity spot checks (the acceptance suite runs the full battery)


def test_simulated_matrix_monotonicity_small():
    from evalanche import ExperimentConfig, rank, run_experiment

    cfg = ExperimentConfig(
        k=30, n_false=15, null_dist=(0, 1), true_dist_false_nulls=(-1, 1),
        bet_dist=(-0.82, 1), steps=600, seed=9, tracked_rows=(), checkpoints=(),
    )
    rk = rank(run_experiment(cfg).final_table)
    for spec in (U1, U1_U2_HALF):
        m = discovery_matrix(rk, spec)
        reg = regularize(m)
        for row in range(1, m.k + 1):
            assert (np.diff(reg.rows[row - 1]) <= 0.0).all()
        tol = 1e-9 / math.log(10.0)
        for row in range(1, m.k):
            below = m.rows[row][: row + 1]
            assert (below - m.rows[row - 1] >= -tol).all()
