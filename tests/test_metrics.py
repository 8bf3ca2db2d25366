from collections import Counter

import numpy as np
import pytest

from gaids.ingest import CATEGORIES
from gaids.metrics import (
    ConfusionMatrix,
    collapse_to_binary,
    detection_rate,
    false_positive_rate,
    format_kv_report,
    format_table_report,
    per_class_rates,
)

# Published 5x5 evaluation fixture (rows actual, columns predicted, class
# order normal/probe/dos/u2r/r2l).
FIXTURE = np.array(
    [
        [42138, 1421, 15835, 486, 713],
        [398, 2963, 654, 2, 149],
        [921, 432, 228489, 1, 10],
        [146, 21, 8, 43, 10],
        [11191, 578, 3398, 141, 881],
    ],
    dtype=np.int64,
)

# Test-set class distribution the fixture's rows must sum to.
TEST_DISTRIBUTION = {"normal": 60593, "probe": 4166, "dos": 229853, "u2r": 228, "r2l": 16189}


def fixture_matrix():
    return ConfusionMatrix(FIXTURE.copy())


def binary_matrix(tn, fp, fn, tp):
    """A matrix whose binary collapse is (tn, fp, fn, tp): the counts sit in
    the normal and probe rows and columns."""
    counts = np.zeros((len(CATEGORIES), len(CATEGORIES)), dtype=np.int64)
    counts[:2, :2] = [[tn, fp], [fn, tp]]
    return ConfusionMatrix(counts)


class TestAccumulate:
    def test_single_hit(self):
        m = ConfusionMatrix.from_pairs([("dos", "dos")])
        assert m.counts[2, 2] == 1
        assert m.counts.sum() == 1

    def test_off_diagonal(self):
        m = ConfusionMatrix.from_pairs([("normal", "dos")])
        assert m.counts[0, 2] == 1
        assert m.counts.sum() == 1

    def test_replay_matches_independent_tally(self, rng):
        pairs = [
            (CATEGORIES[int(rng.integers(0, 5))], CATEGORIES[int(rng.integers(0, 5))])
            for _ in range(500)
        ]
        m = ConfusionMatrix.from_pairs(pairs)
        tally = Counter(pairs)
        for i, actual in enumerate(CATEGORIES):
            for j, predicted in enumerate(CATEGORIES):
                assert m.counts[i, j] == tally[(actual, predicted)]


class TestCollapse:
    def test_fixture_tn_fp(self):
        tn, fp, _, _ = collapse_to_binary(fixture_matrix())
        assert tn == 42138
        assert fp == 1421 + 15835 + 486 + 713 == 18455

    def test_fixture_fn_tp_from_cell_sums(self):
        # Summing the fixture grid itself (the printed binary table differs
        # slightly; both pairs total 250436).
        _, _, fn, tp = collapse_to_binary(fixture_matrix())
        assert fn == 398 + 921 + 146 + 11191 == 12656
        assert tp == 237780
        assert fn + tp == 12528 + 237908 == 250436

    def test_zero_matrix(self):
        assert collapse_to_binary(ConfusionMatrix.from_pairs([])) == (0, 0, 0, 0)

    def test_conserves_total(self, rng):
        counts = rng.integers(0, 1000, (5, 5))
        m = ConfusionMatrix(counts.astype(np.int64))
        assert sum(collapse_to_binary(m)) == m.counts.sum()


class TestRates:
    def test_detection_rate_published_counts(self):
        dr = detection_rate(binary_matrix(42138, 18455, 12528, 237908))
        assert dr == pytest.approx(0.9500, abs=0.00005)

    def test_detection_rate_all_caught(self):
        assert detection_rate(binary_matrix(0, 0, 0, 5)) == 1.0

    def test_detection_rate_cell_summed_counts(self):
        dr = detection_rate(binary_matrix(42138, 18455, 12656, 237780))
        assert dr == pytest.approx(237780 / 250436, abs=1e-12)
        assert dr == pytest.approx(0.94946, abs=0.000005)

    def test_false_positive_rate_published_counts(self):
        fpr = false_positive_rate(binary_matrix(42138, 18455, 12528, 237908))
        assert fpr == pytest.approx(0.3046, abs=0.00005)
        assert fpr == pytest.approx(18455 / 60593, abs=1e-12)

    def test_false_positive_rate_zero(self):
        assert false_positive_rate(binary_matrix(7, 0, 0, 1)) == 0.0

    def test_no_intrusions_error(self):
        assert detection_rate(binary_matrix(5, 5, 0, 0)) is None

    def test_no_normals_error(self):
        assert false_positive_rate(binary_matrix(0, 0, 5, 5)) is None

    def test_scale_invariance(self):
        b1 = binary_matrix(100, 30, 20, 400)
        b5 = binary_matrix(500, 150, 100, 2000)
        assert detection_rate(b1) == detection_rate(b5)
        assert false_positive_rate(b1) == false_positive_rate(b5)


class TestPerClassRates:
    def test_fixture_margins(self):
        recall, precision = per_class_rates(fixture_matrix())
        assert recall[2] == pytest.approx(228489 / 229853, abs=1e-12)
        assert round(100 * recall[2], 1) == 99.4
        assert round(100 * recall[3], 1) == 18.9
        assert precision[2] == pytest.approx(228489 / 248384, abs=1e-12)
        assert round(100 * precision[2], 1) == 92.0

    def test_zero_denominators_report_zero(self):
        m = ConfusionMatrix.from_pairs([("dos", "dos")])
        recall, precision = per_class_rates(m)
        assert recall[0] == 0.0
        assert precision[0] == 0.0
        # The table report prints an undefined cell as "-", a defined one as
        # its percentage.
        rows = format_table_report(m).splitlines()
        normal, dos = rows[3].split(), rows[5].split()
        assert normal[0] == "normal" and normal[-1] == "-"
        assert dos[0] == "dos" and dos[-1] == "100.0"


class TestFixtureIntegrity:
    def test_row_sums_match_distribution(self):
        m = fixture_matrix()
        for i, cls in enumerate(CATEGORIES):
            assert int(m.counts[i].sum()) == TEST_DISTRIBUTION[cls]
        assert m.counts.sum() == 311029

    def test_all_margins_round_to_published(self):
        recall, precision = per_class_rates(fixture_matrix())
        assert [round(100 * r, 1) for r in recall] == [69.5, 71.1, 99.4, 18.9, 5.4]
        assert [round(100 * p, 1) for p in precision] == [76.9, 54.7, 92.0, 6.4, 50.0]


class TestReports:
    def test_table_report_contents(self):
        text = format_table_report(fixture_matrix())
        assert "228489" in text
        assert "69.5" in text
        assert "false_positive_rate=0.3046" in text
        # The grid collapse uses the cell sums, not the printed binary table.
        assert "detection_rate=0.9495" in text

    def test_injected_binary_counts_render_published_rates(self):
        # Replaying the printed binary table through the rate formulas.
        b = binary_matrix(42138, 18455, 12528, 237908)
        assert collapse_to_binary(b) == (42138, 18455, 12528, 237908)
        assert f"{detection_rate(b):.4f}" == "0.9500"
        assert f"{false_positive_rate(b):.4f}" == "0.3046"

    def test_kv_report_parses_back(self):
        text = format_kv_report(fixture_matrix())
        cells = {}
        kv = {}
        for line in text.splitlines():
            if line.startswith("cell,"):
                _, actual, predicted, count = line.split(",")
                cells[(actual, predicted)] = int(count)
            else:
                key, _, value = line.partition("=")
                kv[key] = value
        assert sum(cells.values()) == 311029
        assert cells[("dos", "dos")] == 228489
        assert kv["true_negative"] == "42138"
        assert kv["false_positive"] == "18455"
        assert kv["false_positive_rate"] == "0.3046"

    def test_empty_matrix_still_renders(self):
        text = format_table_report(ConfusionMatrix.from_pairs([]))
        assert "n/a" in text
