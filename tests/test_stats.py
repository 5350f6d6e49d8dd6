"""Tests for the paired comparison protocol: signed-rank, rank tests, CD."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats as scipy_stats

from ensopt.stats import (
    ResultTable,
    _exact_two_sided,
    _mid_ranks,
    compare,
    friedman_from_ranks,
    nemenyi_cd,
    rank_groups,
    wilcoxon_signed_rank,
)
from oracles import exact_two_sided


def table_of(errors) -> ResultTable:
    """A [method, dataset] matrix as a one-repetition results table."""
    errors = np.asarray(errors, dtype=float)
    return ResultTable(
        errors[:, :, None],
        tuple(f"m{i}" for i in range(errors.shape[0])),
        tuple(f"d{j}" for j in range(errors.shape[1])),
    )


def oracle_midranks(values: list[float]) -> list[float]:
    """Mid ranks by explicit tie-group averaging."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for t in range(i, j + 1):
            ranks[order[t]] = avg
        i = j + 1
    return ranks


def oracle_exact(a, b) -> tuple[float, float]:
    """Statistic and two-sided p by enumerating every sign assignment."""
    d = [float(x) - float(y) for x, y in zip(a, b) if float(x) != float(y)]
    n = len(d)
    if n == 0:
        return 0.0, 1.0
    ranks = oracle_midranks([abs(x) for x in d])
    w_plus = sum(r for r, x in zip(ranks, d) if x > 0)
    total = sum(ranks)
    t_obs = min(w_plus, total - w_plus)
    count = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(r for r, s in zip(ranks, signs) if s)
        if w <= t_obs or w >= total - t_obs:
            count += 1
    return t_obs, min(1.0, count / 2.0**n)


class TestWilcoxon:
    def test_identical_inputs_are_degenerate(self):
        a = [0.1, 0.2, 0.3]
        res = wilcoxon_signed_rank(a, a)
        assert res.p_value == 1.0
        assert res.n_effective == 0
        assert res.degenerate

    def test_five_one_sided_differences(self):
        # T = 0 with 5 untied pairs: only the two extreme assignments count
        a = [0.1, 0.2, 0.3, 0.4, 0.5]
        b = [0.2, 0.4, 0.6, 0.8, 1.0]
        res = wilcoxon_signed_rank(a, b)
        assert res.statistic == 0.0
        assert res.p_value == 0.0625
        assert res.n_effective == 5
        assert res.exact

    def test_hand_case_with_tied_magnitudes(self):
        # d = [0.25, 0.25, -0.25, 0.5]: ranks (2, 2, 2, 4), T = 2, p = 8/16
        a = [0.25, 0.25, 0.0, 0.5]
        b = [0.0, 0.0, 0.25, 0.0]
        res = wilcoxon_signed_rank(a, b)
        assert res.statistic == 2.0
        assert res.p_value == 0.5

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(1, 13))
            # eighths give exact ties at a realistic rate
            a = rng.integers(0, 9, size=n) / 8.0
            b = rng.integers(0, 9, size=n) / 8.0
            res = wilcoxon_signed_rank(a, b)
            t_ref, p_ref = oracle_exact(a, b)
            if res.degenerate:
                assert p_ref == 1.0
                continue
            assert res.exact
            assert res.statistic == pytest.approx(t_ref, abs=1e-12)
            assert res.p_value == pytest.approx(p_ref, abs=1e-12)

    def test_zero_differences_are_dropped(self):
        a = [0.5, 0.5, 0.1, 0.9]
        b = [0.5, 0.5, 0.3, 0.1]
        res = wilcoxon_signed_rank(a, b)
        assert res.n_effective == 2

    def test_approximation_close_to_exact_at_cutoff(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            d = rng.integers(-8, 9, size=30) / 16.0
            d = d[d != 0.0][:14]
            if d.size < 14:
                continue
            a = d
            b = np.zeros_like(d)
            exact = wilcoxon_signed_rank(a, b, exact_cutoff=14)
            approx = wilcoxon_signed_rank(a, b, exact_cutoff=0)
            if exact.degenerate or approx.degenerate:
                continue
            assert exact.exact and not approx.exact
            assert abs(exact.p_value - approx.p_value) <= 0.02

    def test_approximation_matches_reference_implementation(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            d = rng.integers(-8, 9, size=int(rng.integers(16, 40))) / 16.0
            d = d[d != 0.0]
            if d.size < 15:
                continue
            ours = wilcoxon_signed_rank(d, np.zeros_like(d), exact_cutoff=14)
            if ours.degenerate:
                continue
            ref = scipy_stats.wilcoxon(
                d,
                np.zeros_like(d),
                zero_method="wilcox",
                correction=True,
                alternative="two-sided",
                method="approx",
            )
            assert ours.p_value == pytest.approx(float(ref.pvalue), abs=1e-12)

    def test_positive_affine_invariance(self):
        rng = np.random.default_rng(31)
        a = rng.random(10)
        b = rng.random(10)
        base = wilcoxon_signed_rank(a, b)
        scaled = wilcoxon_signed_rank(2.0 * a + 3.0, 2.0 * b + 3.0)
        assert scaled.statistic == base.statistic
        assert scaled.p_value == base.p_value

    def test_exact_count_matches_enumeration_bitwise(self):
        rng = np.random.default_rng(61)
        for n in range(1, 21):
            for trial in range(4):
                # coarse magnitudes tie often; trial 0 draws distinct ones
                if trial == 0:
                    magnitudes = rng.permutation(n) + 1.0
                else:
                    magnitudes = rng.integers(1, max(2, n // 3) + 1, size=n) / 4.0
                ranks = scipy_stats.rankdata(magnitudes)
                signs = rng.random(n) < rng.random()
                w_plus = float(ranks[signs].sum())
                t_observed = min(w_plus, float(ranks.sum()) - w_plus)
                ours = _exact_two_sided(ranks, t_observed)
                assert ours.hex() == exact_two_sided(ranks, t_observed).hex(), (n, trial)

    def test_twenty_pairs_build_no_sign_matrix(self):
        # enumerating 2^20 sign vectors took a (2^20, 20) array, 160 MB
        rng = np.random.default_rng(67)
        a = rng.integers(0, 9, size=20) / 8.0
        b = a + (rng.permutation(20) + 1.0) / 64.0 * rng.choice([-1.0, 1.0], size=20)
        tracemalloc.start()
        try:
            res = wilcoxon_signed_rank(a, b, exact_cutoff=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.exact and res.n_effective == 20
        assert peak < 1_000_000

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([[1.0]], [[1.0]])


class TestFriedman:
    def test_identical_methods_give_null_result(self):
        errors = np.tile(np.array([0.2, 0.3, 0.4, 0.5]), (3, 1))
        res = compare(table_of(errors))
        assert res.friedman[0] == pytest.approx(0.0)
        assert res.friedman[1] == pytest.approx(1.0)
        np.testing.assert_allclose(res.mean_ranks, [2.0, 2.0, 2.0])

    def test_consistent_ordering_hand_value(self):
        # 3 methods ranked 1 < 2 < 3 on all 4 datasets: chi2 = 8,
        # and with 2 degrees of freedom the tail is exp(-4)
        errors = np.array(
            [
                [0.1, 0.2, 0.15, 0.12],
                [0.2, 0.3, 0.25, 0.22],
                [0.3, 0.4, 0.35, 0.32],
            ]
        )
        res = compare(table_of(errors))
        assert res.friedman[0] == pytest.approx(8.0)
        assert res.friedman[1] == pytest.approx(math.exp(-4.0), rel=1e-12)
        np.testing.assert_allclose(res.mean_ranks, [1.0, 2.0, 3.0])

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(41)
        errors = rng.random((4, 12))
        stat, p = compare(table_of(errors)).friedman
        ref = scipy_stats.friedmanchisquare(*[errors[i] for i in range(4)])
        assert stat == pytest.approx(float(ref.statistic), rel=1e-10)
        assert p == pytest.approx(float(ref.pvalue), rel=1e-10)

    def test_per_dataset_monotone_transform_invariance(self):
        rng = np.random.default_rng(43)
        errors = rng.random((3, 8))
        transforms = [np.sqrt, np.square, lambda x: x / (1.0 + x), lambda x: x]
        warped = errors.copy()
        for j in range(errors.shape[1]):
            warped[:, j] = transforms[j % 4](errors[:, j])
        a = compare(table_of(errors))
        b = compare(table_of(warped))
        assert a.friedman[0] == b.friedman[0]
        np.testing.assert_array_equal(a.mean_ranks, b.mean_ranks)

    def test_rank_entry_point_agrees_with_error_entry_point(self):
        rng = np.random.default_rng(47)
        errors = rng.random((5, 9))
        res = compare(table_of(errors))
        assert res.friedman == friedman_from_ranks(res.mean_ranks, errors.shape[1])

    @pytest.mark.parametrize("k", range(3, 11))
    def test_p_equals_chi2_tail_bitwise(self, k):
        # df = k - 1 runs 2..9; equal ranks give a statistic of exactly 0, and
        # ranks summing below k(k + 1)/2 one under 0, where chi2.sf is 1
        rng = np.random.default_rng(k)
        cases = [
            (rng.permuted(np.tile(np.arange(1.0, k + 1), (n, 1)), axis=1).mean(axis=0), n)
            for n in (2, 7, 30)
        ]
        cases += [(np.full(k, (k + 1) / 2), 5), (np.ones(k), 5)]
        for ranks, n in cases:
            stat, p = friedman_from_ranks(ranks, n)
            assert p.hex() == float(scipy_stats.chi2.sf(stat, k - 1)).hex()
        assert friedman_from_ranks(np.full(k, (k + 1) / 2), 5) == (0.0, 1.0)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            friedman_from_ranks([1.5, 1.5], 10)
        with pytest.raises(ValueError):
            friedman_from_ranks([1.0, 2.0, 3.0], 1)
        with pytest.raises(ValueError, match="2 datasets"):
            compare(table_of(np.zeros((3, 1))))
        with pytest.raises(ValueError, match="2 methods"):
            compare(table_of(np.zeros((1, 4))))

    def test_mean_ranks_use_midranks(self):
        first, second = [0.1, 0.1, 0.3], [0.2, 0.1, 0.1]
        # a dataset listed twice has its own ranks as the mean ranks
        ranks = compare(table_of(np.column_stack([first, first]))).mean_ranks
        np.testing.assert_allclose(ranks, [1.5, 1.5, 3.0])
        ranks = compare(table_of(np.column_stack([second, second]))).mean_ranks
        np.testing.assert_allclose(ranks, [3.0, 1.5, 1.5])
        ranks = compare(table_of(np.column_stack([first, second]))).mean_ranks
        np.testing.assert_allclose(ranks, [2.25, 1.5, 2.25])


class TestNemenyi:
    def test_tabulated_example(self):
        cd = nemenyi_cd(4, 18, alpha=0.05)
        assert cd == pytest.approx(2.569 * math.sqrt(20.0 / 108.0), rel=1e-12)
        assert cd == pytest.approx(1.1055, abs=1e-3)

    def test_two_methods_reduce_to_normal_quantile(self):
        cd = nemenyi_cd(2, 10, alpha=0.05)
        assert cd == pytest.approx(1.960 * math.sqrt(6.0 / 60.0), rel=1e-12)

    def test_more_datasets_shrink_cd(self):
        assert nemenyi_cd(5, 40) < nemenyi_cd(5, 10)

    def test_looser_alpha_shrinks_cd(self):
        assert nemenyi_cd(4, 18, alpha=0.10) < nemenyi_cd(4, 18, alpha=0.05)

    def test_unsupported_arguments(self):
        with pytest.raises(ValueError):
            nemenyi_cd(4, 18, alpha=0.01)
        with pytest.raises(ValueError):
            nemenyi_cd(11, 18)
        with pytest.raises(ValueError):
            nemenyi_cd(1, 18)
        with pytest.raises(ValueError):
            nemenyi_cd(4, 1)


class TestRankGroups:
    def test_two_separated_groups(self):
        groups = rank_groups(np.array([1.0, 1.5, 3.0, 3.4]), cd=0.6)
        assert groups == [(0, 1), (2, 3)]

    def test_subset_groups_suppressed(self):
        groups = rank_groups(np.array([1.0, 1.2, 1.4]), cd=0.5)
        assert groups == [(0, 1, 2)]

    def test_overlapping_chains(self):
        groups = rank_groups(np.array([1.0, 1.6, 2.2]), cd=1.0)
        assert groups == [(0, 1), (1, 2)]

    def test_all_separated(self):
        assert rank_groups(np.array([1.0, 2.0, 3.0]), cd=0.5) == []


class TestCompare:
    def test_symmetry_and_diagonal(self):
        rng = np.random.default_rng(53)
        errors = rng.random((3, 6, 2)) * 0.5
        table = ResultTable(errors, ("m1", "m2", "m3"), tuple("d" + str(i) for i in range(6)))
        report = compare(table)
        np.testing.assert_allclose(report.p_values, report.p_values.T)
        np.testing.assert_allclose(np.diag(report.p_values), 1.0)
        assert not report.row_worse.diagonal().any()

    def test_total_dominance_over_eighteen_datasets(self):
        # one method beats the other everywhere: enumeration over 2^18
        # sign assignments leaves exactly the two extreme outcomes
        rng = np.random.default_rng(59)
        base = rng.random(18) * 0.4 + 0.3
        errors = np.stack([base - 0.05, base + 0.05])[:, :, None]
        table = ResultTable(errors, ("good", "bad"), tuple(f"d{i}" for i in range(18)))
        report = compare(table)
        assert report.p_values[0, 1] == pytest.approx(2.0 / 2.0**18, rel=1e-12)
        assert report.row_worse[1, 0]
        assert not report.row_worse[0, 1]

    def test_worse_orientation_follows_mean_ranks(self):
        errors = np.array(
            [
                [[0.1], [0.1], [0.1]],
                [[0.2], [0.2], [0.05]],
            ]
        )
        table = ResultTable(errors, ("a", "b"), ("d0", "d1", "d2"))
        report = compare(table)
        # mean ranks: a = (1+1+2)/3, b = (2+2+1)/3
        assert report.mean_ranks[0] < report.mean_ranks[1]
        assert report.row_worse[1, 0]


class TestMidRanks:
    @pytest.mark.parametrize(
        "values",
        [[0.3], [0.5, 0.5, 0.5, 0.5], [0.2, 0.1, 0.2, 0.4, 0.1, 0.2, 0.0]],
        ids=["one", "all-equal", "ties"],
    )
    def test_vector_equals_scipy_bitwise(self, values):
        x = np.array(values)
        assert _mid_ranks(x).tobytes() == scipy_stats.rankdata(x, axis=0).tobytes()

    @pytest.mark.parametrize("shape", [(7, 5), (1, 4), (6, 4, 3), (9, 1, 2)])
    def test_tables_equal_scipy_along_axis_0_bitwise(self, shape):
        rng = np.random.default_rng(len(shape) * 10 + shape[0])
        for levels in (2, 5, 1000):  # few levels force ties in most columns
            x = rng.integers(0, levels, size=shape) / levels
            got, expected = _mid_ranks(x), scipy_stats.rankdata(x, axis=0)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()


class TestRepetitionRanks:
    def test_matches_cell_by_cell_midranks_bitwise(self):
        rng = np.random.default_rng(17)
        # coarse errors force ties inside many (dataset, repetition) cells
        errors = rng.integers(0, 4, size=(5, 7, 3)) / 8.0
        methods = tuple(f"m{i}" for i in range(5))
        table = ResultTable(errors, methods, tuple(f"d{j}" for j in range(7)))
        expected = np.zeros(5)
        for j in range(7):
            for r in range(3):
                expected += np.array(oracle_midranks(list(errors[:, j, r])))
        expected /= 7 * 3
        assert compare(table).rep_ranks.tobytes() == expected.tobytes()


class TestResultTable:
    def test_from_records_builds_complete_grid(self):
        rows = [
            ("m1", "d1", "r1", 0.1),
            ("m1", "d2", "r1", 0.2),
            ("m2", "d1", "r1", 0.3),
            ("m2", "d2", "r1", 0.4),
        ]
        table = ResultTable.from_records(rows)
        assert table.methods == ("m1", "m2")
        assert table.datasets == ("d1", "d2")
        np.testing.assert_allclose(compare(table).means, [[0.1, 0.2], [0.3, 0.4]])

    def test_duplicate_cell_rejected(self):
        rows = [("m", "d", "r", 0.1), ("m", "d", "r", 0.2)]
        with pytest.raises(ValueError, match="duplicate"):
            ResultTable.from_records(rows)

    def test_incomplete_grid_rejected(self):
        rows = [
            ("m1", "d1", "r1", 0.1),
            ("m2", "d2", "r1", 0.4),
        ]
        with pytest.raises(ValueError, match="missing"):
            ResultTable.from_records(rows)

    def test_out_of_range_errors_rejected(self):
        with pytest.raises(ValueError):
            ResultTable(np.full((1, 2, 1), 1.5), ("m",), ("d1", "d2"))
        with pytest.raises(ValueError):
            ResultTable(np.full((1, 2, 1), np.nan), ("m",), ("d1", "d2"))

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text(
            "method,dataset,repetition,error\n"
            "m1,d1,1,0.25\nm1,d2,1,0.5\nm2,d1,1,0.125\nm2,d2,1,0.75\n",
            encoding="utf-8",
        )
        table = ResultTable.from_csv(str(path))
        assert table.methods == ("m1", "m2")
        np.testing.assert_allclose(
            table.errors[:, :, 0], [[0.25, 0.5], [0.125, 0.75]]
        )

    def test_csv_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("method,error\nm1,0.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected columns"):
            ResultTable.from_csv(str(path))

    def test_csv_short_row(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("method,dataset,repetition,error\nm1,d1,1,0.5\nm1,d2,1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 3 has too few fields"):
            ResultTable.from_csv(str(path))
