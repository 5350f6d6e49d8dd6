from fractions import Fraction

import numpy as np
import pytest

try:
    import hypothesis
    import hypothesis.extra.numpy as hnp
except ImportError:  # in the test extra; only the vote-scorer properties need it
    hypothesis = None

from ensopt.ensemble import (
    LOSSES,
    Ensemble,
    PredictionMatrix,
    greedy_select,
    observation_vector,
    round_robin_replace,
    zero_one_ensemble_loss,
)

from oracles import (
    LOSS_FNS,
    VoteState,
    eval_with_candidate,
    majority_vote,
    margin,
    margin_loss,
    squared_margin_loss,
    zero_one_loss,
)


def oracle_vote(member_rows, labels_count, i):
    """Plain dict-counting majority vote; ties to the smallest label."""
    counts = {}
    for row in member_rows:
        counts[row[i]] = counts.get(row[i], 0) + 1
    best_label, best_count = None, -1
    for label in range(labels_count):
        c = counts.get(label, 0)
        if c > best_count:
            best_label, best_count = label, c
    return best_label


def oracle_loss(member_rows, labels, n_labels, kind):
    """Exact rational ensemble loss, so ordering and ties are unambiguous."""
    n = len(labels)
    if kind == "zero_one":
        wrong = sum(
            1 for i in range(n) if oracle_vote(member_rows, n_labels, i) != labels[i]
        )
        return Fraction(wrong, n)
    k = len(member_rows)
    total = Fraction(0)
    for i in range(n):
        correct = sum(1 for row in member_rows if row[i] == labels[i])
        m = Fraction(2 * correct, k) - 1
        if kind == "margin":
            total += (1 - m) / 2
        else:
            total += (1 - m) ** 2 / 4
    return total / n


def oracle_greedy(rows, labels, n_labels, size, warm_k, kind):
    """Step-wise brute-force greedy with (loss, id) tie-breaking."""
    t = len(rows)
    singles = sorted(
        (oracle_loss([rows[h]], labels, n_labels, kind), h) for h in range(t)
    )
    slots = [h for _, h in singles[:warm_k]]
    while len(slots) < size:
        best_h, best_loss = None, None
        for h in range(t):
            member_rows = [rows[s] for s in slots] + [rows[h]]
            loss = oracle_loss(member_rows, labels, n_labels, kind)
            if best_loss is None or loss < best_loss:
                best_loss, best_h = loss, h
        slots.append(best_h)
    return tuple(slots)


def random_preds(rng, t=None, n=None, n_labels=None):
    t = t or int(rng.integers(2, 9))
    n = n or int(rng.integers(5, 30))
    n_labels = n_labels or int(rng.integers(2, 5))
    rows = rng.integers(0, n_labels, size=(t, n))
    labels = rng.integers(0, n_labels, size=n)
    return PredictionMatrix(rows, labels, n_labels)


FIXED = PredictionMatrix(
    rows=np.array(
        [
            [0, 1, 2, 0],
            [0, 1, 1, 1],
            [2, 1, 2, 0],
        ]
    ),
    labels=np.array([0, 1, 2, 0]),
    n_labels=3,
)


class TestMajorityVote:
    def test_plain_majority(self):
        # sample 0: votes 0, 0, 2 -> 0
        assert majority_vote((0, 1, 2), FIXED, 0) == 0

    def test_tie_goes_to_smallest_label(self):
        # sample 2: members 1 and 2 predict 1 and 2 -> tie -> label 1
        assert majority_vote((1, 2), FIXED, 2) == 1

    def test_duplicates_count_twice(self):
        # sample 2: members (1, 1, 2) vote 1, 1, 2 -> 1
        assert majority_vote((1, 1, 2), FIXED, 2) == 1
        # and (2, 2, 1) vote 2, 2, 1 -> 2
        assert majority_vote((2, 2, 1), FIXED, 2) == 2

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        preds = random_preds(rng, t=5)
        members = [0, 2, 2, 4]
        for i in range(preds.n_samples):
            v = majority_vote(members, preds, i)
            assert majority_vote(members[::-1], preds, i) == v

    def test_empty_members_rejected(self):
        with pytest.raises(ValueError):
            majority_vote((), FIXED, 0)

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            majority_vote((0, 7), FIXED, 0)


class TestMargins:
    def test_hand_values(self):
        # sample 0: rows predict 0, 0, 2 vs label 0 -> two of three correct
        assert margin((0, 1, 2), FIXED, 0) == pytest.approx(1 / 3)
        # all correct -> +1; all wrong -> -1
        assert margin((0,), FIXED, 0) == 1.0
        assert margin((2,), FIXED, 0) == -1.0

    def test_range(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            preds = random_preds(rng)
            members = list(rng.integers(0, preds.n_models, size=3))
            for i in range(preds.n_samples):
                assert -1.0 <= margin(members, preds, i) <= 1.0


class TestLosses:
    def test_hand_enumerated_matrix(self):
        # majority votes of all three rows: [0, 1, 2, 0] -> all correct
        assert zero_one_ensemble_loss((0, 1, 2), FIXED) == 0.0
        # member 1 alone: predictions [0, 1, 1, 1] vs [0, 1, 2, 0] -> half wrong
        assert zero_one_ensemble_loss((1,), FIXED) == 0.5
        # margins per sample for (0, 1, 2): [1/3, 1, 1/3, 1/3]
        expected_margin_loss = np.mean([(1 - m) / 2 for m in (1 / 3, 1.0, 1 / 3, 1 / 3)])
        assert margin_loss((0, 1, 2), FIXED) == pytest.approx(expected_margin_loss)
        expected_sq = np.mean([(1 - m) ** 2 / 4 for m in (1 / 3, 1.0, 1 / 3, 1 / 3)])
        assert squared_margin_loss((0, 1, 2), FIXED) == pytest.approx(expected_sq)

    def test_matches_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            preds = random_preds(rng)
            k = int(rng.integers(1, 6))
            members = [int(v) for v in rng.integers(0, preds.n_models, size=k)]
            rows = [preds.rows[m] for m in members]
            for kind, fn in (
                ("zero_one", zero_one_ensemble_loss),
                ("margin", margin_loss),
                ("squared_margin", squared_margin_loss),
            ):
                expected = oracle_loss(rows, preds.labels, preds.n_labels, kind)
                assert fn(members, preds) == pytest.approx(float(expected), abs=1e-12)

    def test_single_member_identities_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            preds = random_preds(rng)
            h = int(rng.integers(0, preds.n_models))
            z = zero_one_ensemble_loss((h,), preds)
            assert margin_loss((h,), preds) == z
            assert squared_margin_loss((h,), preds) == z

    def test_ranges(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            preds = random_preds(rng)
            members = [int(v) for v in rng.integers(0, preds.n_models, size=3)]
            assert 0.0 <= zero_one_ensemble_loss(members, preds) <= 1.0
            assert 0.0 <= margin_loss(members, preds) <= 1.0
            assert 0.0 <= squared_margin_loss(members, preds) <= 1.0

    def test_margin_loss_minimizer_is_most_accurate_model(self):
        # adding h changes the mean margin linearly in h's own accuracy, so
        # the best addition under the linear margin loss is always the
        # individually best model, whatever the current ensemble is
        rng = np.random.default_rng(5)
        for _ in range(50):
            preds = random_preds(rng, t=6)
            ens = Ensemble(tuple(int(v) for v in rng.integers(0, 6, size=3)))
            added = [eval_with_candidate(ens, h, preds, "margin") for h in range(6)]
            singles = [zero_one_ensemble_loss((h,), preds) for h in range(6)]
            assert int(np.argmin(added)) == int(np.argmin(singles))


class TestEvalWithCandidate:
    def test_empty_ensemble_gives_single_model_loss(self):
        ens = Ensemble.empty(3)
        for h in range(FIXED.n_models):
            got = eval_with_candidate(ens, h, FIXED, "zero_one")
            assert got == zero_one_ensemble_loss((h,), FIXED)

    def test_candidate_joins_occupied_slots(self):
        ens = Ensemble((1, None, 2))
        got = eval_with_candidate(ens, 0, FIXED, "zero_one")
        assert got == zero_one_ensemble_loss((1, 2, 0), FIXED)

    def test_duplicate_of_member_weighs_double(self):
        ens = Ensemble((1, 2))
        with_dup = eval_with_candidate(ens, 2, FIXED, "zero_one")
        assert with_dup == zero_one_ensemble_loss((1, 2, 2), FIXED)


class TestObservationVector:
    def test_matches_eval_with_candidate_bitwise(self):
        rng = np.random.default_rng(6)
        for loss in ("zero_one", "margin", "squared_margin"):
            for _ in range(20):
                preds = random_preds(rng)
                k = int(rng.integers(1, 4))
                slots = tuple(int(v) for v in rng.integers(0, preds.n_models, size=k))
                ens = Ensemble(slots + (None,))
                vec = observation_vector(ens, preds, loss)
                assert vec.shape == (preds.n_models,)
                for h in range(preds.n_models):
                    assert vec[h] == eval_with_candidate(ens, h, preds, loss)

    def test_pool_of_one(self):
        preds = PredictionMatrix(FIXED.rows[:1], FIXED.labels, 3)
        vec = observation_vector(Ensemble.empty(2), preds, "zero_one")
        assert vec.shape == (1,)
        assert vec[0] == zero_one_ensemble_loss((0,), preds)

    def test_appending_model_appends_entry(self):
        rng = np.random.default_rng(7)
        preds = random_preds(rng, t=6)
        smaller = PredictionMatrix(preds.rows[:5], preds.labels, preds.n_labels)
        ens = Ensemble((0, 3))
        before = observation_vector(ens, smaller, "squared_margin")
        after = observation_vector(ens, preds, "squared_margin")
        np.testing.assert_array_equal(before, after[:5])


class TestGreedySelect:
    def test_three_model_hand_case(self):
        ens = greedy_select(range(3), FIXED, size=2, warm_k=0, loss="zero_one")
        # model 0 is the only one with zero error, then adding 0 again keeps 0
        assert ens.slots[0] == 0
        assert zero_one_ensemble_loss(ens.members(), FIXED) == 0.0

    def test_size_one_no_warm_is_best_single(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            preds = random_preds(rng)
            ens = greedy_select(
                range(preds.n_models), preds, size=1, warm_k=0, loss="zero_one"
            )
            singles = [zero_one_ensemble_loss((h,), preds) for h in range(preds.n_models)]
            assert ens.slots[0] == int(np.argmin(singles))

    def test_warm_start_takes_top_models(self):
        rng = np.random.default_rng(9)
        preds = random_preds(rng, t=8)
        ens = greedy_select(range(8), preds, size=5, warm_k=3, loss="zero_one")
        singles = sorted(
            (zero_one_ensemble_loss((h,), preds), h) for h in range(8)
        )
        assert set(ens.slots[:3]) == {h for _, h in singles[:3]}

    def test_matches_stepwise_oracle(self):
        rng = np.random.default_rng(10)
        for kind in ("zero_one", "squared_margin"):
            for _ in range(50):
                preds = random_preds(rng, t=int(rng.integers(2, 9)))
                size = int(rng.integers(1, 4))
                warm_k = int(rng.integers(0, min(size, preds.n_models) + 1))
                ens = greedy_select(range(preds.n_models), preds, size, warm_k, kind)
                rows = [list(map(int, r)) for r in preds.rows]
                labels = [int(v) for v in preds.labels]
                expected = oracle_greedy(rows, labels, preds.n_labels, size, warm_k, kind)
                assert ens.slots == expected

    def test_tie_breaking_prefers_lowest_id(self):
        # two identical rows: the duplicate pair always ties, id 0 must win
        rows = np.array([[0, 1], [0, 1], [1, 0]])
        preds = PredictionMatrix(rows, np.array([0, 1]), 2)
        ens = greedy_select(range(3), preds, size=2, warm_k=0, loss="zero_one")
        assert ens.slots == (0, 0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            greedy_select(range(3), FIXED, size=0, warm_k=0, loss="zero_one")
        with pytest.raises(ValueError):
            greedy_select(range(3), FIXED, size=2, warm_k=3, loss="zero_one")
        with pytest.raises(ValueError):
            greedy_select(range(2), FIXED, size=4, warm_k=3, loss="zero_one")
        with pytest.raises(ValueError):
            greedy_select((), FIXED, size=1, warm_k=0, loss="zero_one")
        with pytest.raises(ValueError):
            greedy_select(range(3), FIXED, size=1, warm_k=0, loss="no_such_loss")


class TestRoundRobinReplace:
    def test_pool_of_one_refills_with_it(self):
        preds = PredictionMatrix(FIXED.rows[:1], FIXED.labels, 3)
        ens = Ensemble((0, None))
        out = round_robin_replace(ens, 1, [0], preds, "zero_one")
        assert out.slots == (0, 0)

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(11)
        for kind in ("zero_one", "squared_margin"):
            for _ in range(50):
                preds = random_preds(rng, t=6)
                slots = tuple(int(v) for v in rng.integers(0, 6, size=3))
                j = int(rng.integers(0, 3))
                out = round_robin_replace(Ensemble(slots), j, range(6), preds, kind)
                base = [slots[s] for s in range(3) if s != j]
                best_h, best_loss = None, None
                for h in range(6):
                    rows = [list(map(int, preds.rows[m])) for m in base + [h]]
                    loss = oracle_loss(rows, [int(v) for v in preds.labels], preds.n_labels, kind)
                    if best_loss is None or loss < best_loss:
                        best_loss, best_h = loss, h
                assert out.slots[j] == best_h
                assert all(out.slots[s] == slots[s] for s in range(3) if s != j)

    def test_never_worse_than_before_vacating(self):
        # the previous occupant stays in the pool, so restoring the original
        # ensemble is always an option for the argmin
        rng = np.random.default_rng(12)
        for kind in ("zero_one", "squared_margin", "margin"):
            for _ in range(50):
                preds = random_preds(rng, t=6)
                slots = tuple(int(v) for v in rng.integers(0, 6, size=3))
                before = oracle_loss(
                    [list(map(int, preds.rows[m])) for m in slots],
                    [int(v) for v in preds.labels],
                    preds.n_labels,
                    kind,
                )
                j = int(rng.integers(0, 3))
                out = round_robin_replace(Ensemble(slots), j, range(6), preds, kind)
                after = oracle_loss(
                    [list(map(int, preds.rows[m])) for m in out.members()],
                    [int(v) for v in preds.labels],
                    preds.n_labels,
                    kind,
                )
                assert after <= before

    def test_bad_slot_rejected(self):
        with pytest.raises(ValueError):
            round_robin_replace(Ensemble((0, 1)), 2, range(3), FIXED, "zero_one")


def scratch_greedy(pool, preds, size, warm_k, loss_fn):
    """Greedy selection with every candidate scored from scratch by ``loss_fn``."""
    ids = sorted(set(int(h) for h in pool))
    singles = sorted((loss_fn((h,), preds), h) for h in ids)
    slots = [h for _, h in singles[:warm_k]]
    while len(slots) < size:
        slots.append(min((loss_fn(tuple(slots) + (h,), preds), h) for h in ids)[1])
    return tuple(slots)


def correlated_pool(rng, models, n, n_labels=3):
    """Rows whose errors share a per-sample difficulty, as in a real model pool."""
    labels = rng.integers(0, n_labels, size=n)
    skill = rng.uniform(0.0, 2.2, size=models)
    difficulty = rng.standard_normal(n)
    right = skill[:, None] - 1.5 * difficulty[None, :] + rng.standard_normal((models, n)) > 0
    wrong = (labels + rng.integers(1, n_labels, size=(models, n))) % n_labels
    return PredictionMatrix(np.where(right, labels, wrong), labels, n_labels)


class TestVoteState:
    def test_score_all_matches_from_scratch_bitwise(self):
        rng = np.random.default_rng(13)
        for n_labels in (2, 3, 4):
            for _ in range(15):
                preds = random_preds(rng, t=int(rng.integers(2, 9)), n_labels=n_labels)
                state = VoteState(preds)
                members = []
                for _ in range(12):
                    if members and rng.random() < 0.35:
                        h = members[int(rng.integers(0, len(members)))]
                        state.remove(h)
                        members.remove(h)
                    else:
                        # repeats are likely: pools hold at most 8 models
                        h = int(rng.integers(0, preds.n_models))
                        state.add(h)
                        members.append(h)
                    assert state.k == len(members)
                    cands = rng.permutation(preds.n_models)
                    for name, fn in LOSS_FNS.items():
                        got = state.score_all(cands, name)
                        want = np.array([fn(tuple(members) + (int(h),), preds) for h in cands])
                        assert got.dtype == np.float64
                        assert got.tobytes() == want.tobytes(), (n_labels, name, members)

    def test_empty_state_scores_single_models(self):
        rng = np.random.default_rng(14)
        preds = random_preds(rng, t=7, n_labels=3)
        singles = np.array([zero_one_ensemble_loss((h,), preds) for h in range(7)])
        for name in LOSS_FNS:
            got = VoteState(preds).score_all(range(7), name)
            assert got.tobytes() == singles.tobytes()

    def test_counts_follow_adds_and_removes(self):
        state = VoteState(FIXED, (1, 2, 2))
        state.remove(2)
        np.testing.assert_array_equal(state.counts, VoteState(FIXED, (1, 2)).counts)
        np.testing.assert_array_equal(state.correct, VoteState(FIXED, (2, 1)).correct)
        assert state.k == 2
        with pytest.raises(ValueError):
            state.remove(0)
        with pytest.raises(ValueError):
            state.add(3)
        with pytest.raises(ValueError):
            state.score_all([0, -1], "zero_one")


class TestBitsetZeroOne:
    """Zero-one scoring from packed one-hot votes against the from-scratch tally."""

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 1001])
    @pytest.mark.parametrize("n_labels", [2, 3, 4])
    def test_score_all_matches_from_scratch_bitwise(self, n, n_labels):
        rng = np.random.default_rng(100 * n + n_labels)
        # one label code is never predicted nor true
        codes = np.delete(np.arange(n_labels), int(rng.integers(0, n_labels)))
        preds = PredictionMatrix(rng.choice(codes, size=(9, n)), rng.choice(codes, size=n), n_labels)
        state = VoteState(preds)
        members = []
        for _ in range(8):
            # unsorted candidates with repeats, scored again after every add
            cands = rng.integers(0, 9, size=14)
            got = state.score_all(cands, "zero_one")
            want = np.array([zero_one_loss(tuple(members) + (int(h),), preds) for h in cands])
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes(), (members, cands)
            h = int(rng.integers(0, 9))
            state.add(h)
            members.append(h)
            assert state.zero_one() == zero_one_loss(members, preds)
            assert zero_one_ensemble_loss(members, preds) == zero_one_loss(members, preds)

    @pytest.mark.parametrize("n", [1, 9, 64, 1001])
    def test_packed_rows_are_one_hot_with_zero_pad_bits(self, n):
        rng = np.random.default_rng(n)
        preds = PredictionMatrix(rng.integers(0, 3, size=(5, n)), rng.integers(0, 3, size=n), 3)
        packed = preds.packed_onehot()
        assert packed.shape == (5, 3, -(-n // 64))
        bits = np.unpackbits(packed.view(np.uint8), axis=2).astype(bool)
        np.testing.assert_array_equal(bits[:, :, :n], preds.rows[:, None, :] == np.arange(3)[:, None])
        assert not bits[:, :, n:].any()
        VoteState(preds, (0, 1)).score_all(range(5), "zero_one")
        assert preds.packed_onehot() is packed

    def test_zero_one_matches_oracle_values(self):
        assert VoteState(FIXED, (0, 1, 2)).zero_one() == zero_one_loss((0, 1, 2), FIXED) == 0.0
        assert VoteState(FIXED, (1,)).zero_one() == zero_one_loss((1,), FIXED) == 0.5
        rng = np.random.default_rng(19)
        for _ in range(30):
            preds = random_preds(rng)
            members = tuple(int(v) for v in rng.integers(0, preds.n_models, size=5))
            assert VoteState(preds, members).zero_one() == zero_one_loss(members, preds)

    def test_empty_member_list_rejected(self):
        with pytest.raises(ValueError):
            VoteState(FIXED).zero_one()
        with pytest.raises(ValueError):
            zero_one_ensemble_loss((), FIXED)


class TestSelectionTiesAndPools:
    # rows 0 and 1 are identical, row 2 is their complement, row 3 mixes
    TIED = PredictionMatrix(
        rows=np.array([[0, 1, 0, 1], [0, 1, 0, 1], [1, 0, 1, 0], [0, 0, 1, 1]]),
        labels=np.array([0, 1, 1, 0]),
        n_labels=2,
    )

    @pytest.mark.parametrize("loss", sorted(LOSS_FNS))
    def test_greedy_ignores_pool_order_and_duplicates(self, loss):
        for size, warm_k in ((1, 0), (3, 0), (3, 2), (5, 4)):
            want = scratch_greedy(range(4), self.TIED, size, warm_k, LOSS_FNS[loss])
            for pool in ([3, 1, 0, 2], [2, 2, 0, 3, 1, 0], np.array([1, 3, 0, 2, 3])):
                got = greedy_select(pool, self.TIED, size, warm_k, loss)
                assert got.slots == want, (pool, size, warm_k)

    def test_all_tied_pool_takes_lowest_id(self):
        rows = np.tile(np.array([0, 1, 2]), (4, 1))
        preds = PredictionMatrix(rows, np.array([0, 1, 1]), 3)
        for loss in LOSS_FNS:
            assert greedy_select([3, 2, 1], preds, 3, 2, loss).slots == (1, 2, 1)
            out = round_robin_replace(Ensemble((3, 3, 0)), 1, [3, 2, 2, 1], preds, loss)
            assert out.slots == (3, 1, 0)

    def test_warm_start_breaks_many_ties_by_id(self):
        # 200 models over 3 samples share four single-model losses
        rng = np.random.default_rng(17)
        preds = PredictionMatrix(rng.integers(0, 2, size=(200, 3)), np.array([0, 1, 1]), 2)
        for loss in LOSS_FNS:
            got = greedy_select(rng.permutation(200), preds, 60, 60, loss)
            assert got.slots == scratch_greedy(range(200), preds, 60, 60, LOSS_FNS[loss])

    @pytest.mark.parametrize("loss", sorted(LOSS_FNS))
    def test_round_robin_ignores_pool_order_and_duplicates(self, loss):
        rng = np.random.default_rng(15)
        for _ in range(30):
            preds = random_preds(rng, t=6)
            rows = preds.rows.copy()
            rows[4] = rows[1]  # an engineered tie between two pool members
            preds = PredictionMatrix(rows, preds.labels, preds.n_labels)
            ens = Ensemble(tuple(int(v) for v in rng.integers(0, 6, size=4)))
            j = int(rng.integers(0, 4))
            others = tuple(s for i, s in enumerate(ens.slots) if i != j)
            pool = [int(v) for v in rng.permutation(6)] + [4, 1]
            want = min((LOSS_FNS[loss](others + (h,), preds), h) for h in range(6))[1]
            out = round_robin_replace(ens, j, pool, preds, loss)
            assert out.slots[j] == want
            assert out.slots[:j] + out.slots[j + 1 :] == others

    @pytest.mark.parametrize("warm_k", [0, 3, 7])
    @pytest.mark.parametrize("loss", ["zero_one", "squared_margin"])
    def test_large_pool_matches_from_scratch_greedy(self, warm_k, loss):
        preds = correlated_pool(np.random.default_rng(16), models=300, n=400)
        got = greedy_select(range(300), preds, 20, warm_k, loss)
        assert got.slots == scratch_greedy(range(300), preds, 20, warm_k, LOSS_FNS[loss])


class TestPredictionMatrixValidation:
    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError):
            PredictionMatrix(np.array([[0, 3]]), np.array([0, 1]), 2)
        with pytest.raises(ValueError):
            PredictionMatrix(np.array([[0, 1]]), np.array([0, 2]), 2)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            PredictionMatrix(np.array([[0, 1]]), np.array([0]), 2)
        with pytest.raises(ValueError):
            PredictionMatrix(np.zeros((0, 3), dtype=int), np.array([0, 0, 0]), 2)

    @pytest.mark.parametrize(
        "rows",
        [[[0.9, 1.7, 2.2]], [[0.0, 1.0, 2.0]], [[True, False, True]]],
        ids=["fractional", "whole-floats", "bool"],
    )
    def test_rejects_non_integer_rows(self, rows):
        # a float row is not truncated to [0, 1, 2], whatever its values
        with pytest.raises(ValueError, match="integers"):
            PredictionMatrix(np.array(rows), np.array([0, 1, 2]), 3)
        with pytest.raises(ValueError, match="integers"):
            PredictionMatrix(np.array([[0, 1, 2]]), np.array(rows[0]), 3)

    @pytest.mark.parametrize(
        "code, dtype",
        [
            (256, np.int64),
            (-1, np.int64),
            (3, np.int64),
            (2**63 - 1, np.int64),
            (256, np.int16),
            (-1, np.int8),
            (2**64 - 1, np.uint64),
        ],
    )
    def test_rejects_codes_that_narrowing_would_wrap(self, code, dtype):
        # 256 must not wrap to 0 in uint8, nor -1 become 255
        rows = np.array([[0, code, 1]], dtype=dtype)
        with pytest.raises(ValueError, match="outside the label set"):
            PredictionMatrix(rows, np.array([0, 1, 2]), 3)
        with pytest.raises(ValueError, match="outside the label set"):
            PredictionMatrix(np.array([[0, 1, 2]]), rows[0], 3)

    @pytest.mark.parametrize(
        "n_labels, dtype", [(1, np.uint8), (3, np.uint8), (256, np.uint8), (257, np.uint16)]
    )
    def test_codes_are_narrow_and_read_only(self, n_labels, dtype):
        rows = np.array([[0, n_labels - 1], [n_labels - 1, 0]], dtype=np.int64)
        preds = PredictionMatrix(rows, np.array([0, n_labels - 1]), n_labels)
        assert preds.rows.dtype == preds.labels.dtype == dtype
        np.testing.assert_array_equal(preds.rows, rows)
        for array in (preds.rows, preds.labels):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_narrow_rows_are_not_copied(self):
        rows = np.array([[0, 2, 1]], dtype=np.uint8)
        preds = PredictionMatrix(rows, np.array([0, 1, 2]), 3)
        assert np.shares_memory(preds.rows, rows)
        assert rows.flags.writeable  # only the matrix's view is read-only


# 257 and 300 labels take uint16 codes; the sample counts lie on both sides
# of a 64-bit word of the packed votes
VOTE_N_LABELS = (2, 3, 256, 257, 300)
VOTE_N_SAMPLES = (1, 63, 64, 65, 129)


def draw_vote_case(draw):
    """A pool with duplicate rows, members, candidates and the arguments of both selections."""
    st = hypothesis.strategies
    n_labels = draw(st.sampled_from(VOTE_N_LABELS))
    n = draw(st.sampled_from(VOTE_N_SAMPLES))
    # a few codes, always the widest, so that votes tie often
    palette = draw(st.lists(st.integers(0, n_labels - 1), min_size=1, max_size=3, unique=True))
    codes = st.sampled_from(sorted(set(palette) | {n_labels - 1}))
    distinct = draw(hnp.arrays(np.int64, (draw(st.integers(1, 4)), n), elements=codes))
    # every model repeats one of the distinct rows: exact ties
    copies = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=8))
    labels = draw(hnp.arrays(np.int64, n, elements=codes))
    preds = PredictionMatrix(distinct[copies], labels, n_labels)
    ids = st.integers(0, preds.n_models - 1)
    pool = draw(st.lists(ids, min_size=1, max_size=10))
    size = draw(st.integers(1, 4))
    return {
        "preds": preds,
        "loss": draw(st.sampled_from(LOSSES)),
        "members": tuple(draw(st.lists(ids, max_size=5))),
        "candidates": draw(st.lists(ids, min_size=1, max_size=10)),
        "pool": pool,
        "size": size,
        "warm_k": draw(st.integers(0, min(size, len(set(pool))))),
        "slots": tuple(draw(st.lists(st.none() | ids, min_size=1, max_size=5))),
        "slot": draw(st.integers(0, 4)),
    }


def given_vote_cases(test):
    """Run ``test`` on 150 fixed vote cases; without hypothesis, report it skipped."""
    if hypothesis is None:
        return pytest.mark.skip(reason="needs hypothesis")(test)
    cases = hypothesis.strategies.composite(draw_vote_case)()
    settings = hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    return settings(hypothesis.given(cases)(test))


def hexes(values):
    return [float(v).hex() for v in values]


@given_vote_cases
def test_score_all_equals_oracle_losses(case):
    preds, members, cands = case["preds"], case["members"], case["candidates"]
    got = VoteState(preds, members).score_all(cands, case["loss"])
    loss_fn = LOSS_FNS[case["loss"]]
    assert hexes(got) == hexes(loss_fn(members + (c,), preds) for c in cands)


@given_vote_cases
def test_greedy_select_equals_brute_force(case):
    loss = case["loss"]
    got = greedy_select(case["pool"], case["preds"], case["size"], case["warm_k"], loss)
    want = scratch_greedy(case["pool"], case["preds"], case["size"], case["warm_k"], LOSS_FNS[loss])
    assert got.slots == want


@given_vote_cases
def test_round_robin_replace_equals_brute_force(case):
    ens = Ensemble(case["slots"])
    slot = case["slot"] % ens.size
    others = ens.with_slot(slot, None).members()
    loss_fn = LOSS_FNS[case["loss"]]
    want = min((loss_fn(others + (h,), case["preds"]), h) for h in set(case["pool"]))[1]
    out = round_robin_replace(ens, slot, case["pool"], case["preds"], case["loss"])
    assert out.slots == ens.with_slot(slot, want).slots
