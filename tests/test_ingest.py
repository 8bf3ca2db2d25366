import numpy as np
import pytest

from gaids import ingest
from gaids.errors import EmptyDataset, MalformedRecord, NonNumericFeature, UnknownLabel
from gaids.ingest import (
    ATTACK_CATEGORIES,
    CATEGORIES,
    NUM_FEATURES,
    TRAINING_LABELS,
    NormalizationStats,
    fit_normalization,
    normalize,
    parse_record,
    read_records,
    serialize_record,
    summarize,
    to_connection_record,
)

from conftest import REAL_LINES, record


def make_line(label="normal.", n_fields=42):
    fields = [str(i) for i in range(n_fields - 1)]
    fields[1:4] = ["tcp", "http", "SF"]
    return ",".join(fields + [label])


class TestParseRecord:
    def test_well_formed_line(self):
        raw = parse_record(make_line())
        assert raw.label == "normal"
        assert len(raw.fields) == 41

    def test_wrong_arity_rejected(self):
        with pytest.raises(MalformedRecord):
            parse_record(make_line(n_fields=41))
        with pytest.raises(MalformedRecord):
            parse_record(make_line(n_fields=43))

    def test_empty_label_rejected(self):
        with pytest.raises(MalformedRecord):
            parse_record(make_line(label="."))
        with pytest.raises(MalformedRecord):
            parse_record(make_line(label=""))

    def test_real_line_schema_positions(self):
        # Cross-checked against the kddcup.names feature order: duration is
        # field 1, the symbolic protocol_type/service/flag sit at 2,3,4.
        raw = parse_record(REAL_LINES[0])
        assert raw.fields[0] == "0"
        assert raw.fields[1:4] == ["tcp", "http", "SF"]
        assert raw.label == "normal"

    def test_label_without_period(self):
        raw = parse_record(make_line(label="normal"))
        assert raw.label == "normal"
        assert raw.trailing_period is False

    def test_unlabeled_line_accepted_when_allowed(self):
        line = ",".join(parse_record(make_line()).fields)
        raw = parse_record(line, require_label=False)
        assert raw.label is None
        assert len(raw.fields) == 41

    def test_roundtrip_bit_identical(self):
        for line in REAL_LINES + [make_line(), make_line(label="smurf")]:
            assert serialize_record(parse_record(line)) == line


class TestToConnectionRecord:
    @pytest.mark.parametrize(
        "label,category",
        [("smurf", "dos"), ("nmap", "probe"), ("perl", "u2r"), ("guest", "r2l")],
    )
    def test_category_mapping(self, label, category):
        raw = parse_record(make_line(label=label + "."))
        rec = to_connection_record(raw)
        assert rec.attack_name == label
        assert rec.category == category

    def test_symbolic_fields_dropped(self):
        # Fields valued 0..40 with the symbolic trio replaced; the retained 38
        # must be everything except positions 2,3,4 (1-based).
        raw = parse_record(make_line())
        rec = to_connection_record(raw)
        assert rec.features.shape == (NUM_FEATURES,)
        expected = [0.0] + [float(i) for i in range(4, 41)]
        assert rec.features.tolist() == expected

    def test_non_numeric_feature_rejected(self):
        fields = make_line().split(",")
        fields[10] = "oops"
        with pytest.raises(NonNumericFeature):
            to_connection_record(parse_record(",".join(fields)))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_rejected(self, bad):
        fields = make_line().split(",")
        fields[10] = bad
        with pytest.raises(NonNumericFeature):
            to_connection_record(parse_record(",".join(fields)))

    def test_unknown_label_strict(self):
        raw = parse_record(make_line(label="zerg_rush."))
        with pytest.raises(UnknownLabel):
            to_connection_record(raw, strict=True)

    def test_unknown_label_lenient_fallback(self, caplog):
        raw = parse_record(make_line(label="zerg_rush."))
        rec = to_connection_record(raw, strict=False, fallback_category="r2l")
        assert rec.attack_name == "zerg_rush"
        assert rec.category == "r2l"

    def test_mapping_total_over_training_labels(self):
        # 22 attack names + normal, all mapped, the asserted group count basis.
        assert len(TRAINING_LABELS) == 23
        for label in TRAINING_LABELS:
            assert label in ATTACK_CATEGORIES
        assert set(ATTACK_CATEGORIES.values()) == set(CATEGORIES)


class TestReadRecords:
    def test_one_warning_per_unknown_name(self, caplog):
        lines = [make_line(label="zerg_rush.")] * 3 + [make_line()]
        with caplog.at_level("WARNING", logger="gaids.ingest"):
            records, skipped = read_records(lines, strict=False, source="t.kdd")
        assert (len(records), skipped) == (4, 0)
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1
        assert "'zerg_rush' on 3 line(s)" in warnings[0]

    def test_strict_aborts_with_context(self):
        lines = [make_line(), "1,2,3"]
        with pytest.raises(MalformedRecord, match="<input>:2"):
            read_records(lines)

    def test_lenient_skips_and_counts(self):
        lines = [make_line(), "1,2,3", make_line(label="smurf.")]
        records, skipped = read_records(lines, strict=False)
        assert len(records) == 2
        assert skipped == 1

    def test_blank_lines_ignored(self):
        records, skipped = read_records([make_line(), "", "  \n"])
        assert len(records) == 1
        assert skipped == 0


class TestSummarize:
    def test_counts_and_total(self):
        records = [record({}, "normal"), record({}, "smurf"), record({}, "smurf")]
        summary = summarize(records)
        assert summary.counts["normal"] == 1
        assert summary.counts["dos"] == 2
        assert summary.total == 3

    def test_empty_sequence(self):
        summary = summarize([])
        assert summary.total == 0
        assert all(v == 0 for v in summary.counts.values())

    def test_kv_rendering(self):
        text = summarize([record({}, "nmap")]).to_kv()
        assert "probe=1" in text
        assert "total=1" in text


class TestNormalization:
    def test_min_max_two_records(self):
        stats = fit_normalization([record({3: 0.0}), record({3: 10.0})])
        assert stats.feat_min[3] == 0.0
        assert stats.feat_max[3] == 10.0

    def test_constant_feature(self):
        stats = fit_normalization([record({3: 5.0}), record({3: 5.0})])
        assert stats.feat_min[3] == stats.feat_max[3] == 5.0

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            fit_normalization([])

    def test_matches_bruteforce_scan(self, rng):
        records = [record(rng.random(NUM_FEATURES) * 100) for _ in range(200)]
        stats = fit_normalization(records)
        # Independent single-pass scan, plain python loops.
        lo = [min(rec.features[i] for rec in records) for i in range(NUM_FEATURES)]
        hi = [max(rec.features[i] for rec in records) for i in range(NUM_FEATURES)]
        assert stats.feat_min.tolist() == lo
        assert stats.feat_max.tolist() == hi

    def test_midpoint(self):
        stats = NormalizationStats(np.zeros(NUM_FEATURES), np.full(NUM_FEATURES, 10.0))
        out = normalize(record({0: 5.0}), stats)
        assert out[0] == 0.5

    def test_degenerate_span_maps_to_zero(self):
        stats = NormalizationStats(np.full(NUM_FEATURES, 5.0), np.full(NUM_FEATURES, 5.0))
        out = normalize(record({0: 5.0}), stats)
        assert np.all(out == 0.0)

    def test_clamps_out_of_span(self):
        stats = NormalizationStats(np.zeros(NUM_FEATURES), np.full(NUM_FEATURES, 10.0))
        assert normalize(record({0: 12.0}), stats)[0] == 1.0
        assert normalize(record({0: -3.0}), stats)[0] == 0.0

    def test_output_always_in_unit_cube(self, rng):
        train = [record(rng.random(NUM_FEATURES) * 50 - 10) for _ in range(50)]
        stats = fit_normalization(train)
        for _ in range(100):
            out = normalize(record(rng.random(NUM_FEATURES) * 200 - 100), stats)
            assert np.all(out >= 0.0) and np.all(out <= 1.0)
