import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaids import ingest
from gaids.errors import EmptyDataset, MalformedRecord, NonNumericFeature, UnknownLabel
from gaids.ingest import (
    ATTACK_CATEGORIES,
    CATEGORIES,
    NUM_FEATURES,
    NormalizationStats,
    fit_normalization,
    parse_record,
    read_records,
    summarize,
)

from conftest import REAL_LINES, dataset, record

# The 23 labels present in the 10% training file (22 attacks + normal).
TRAINING_LABELS = (
    "normal",
    "back", "land", "neptune", "pod", "smurf", "teardrop",
    "ipsweep", "nmap", "portsweep", "satan",
    "ftp_write", "guess_passwd", "imap", "multihop", "phf", "spy",
    "warezclient", "warezmaster",
    "buffer_overflow", "loadmodule", "perl", "rootkit",
)


def make_line(label="normal.", n_fields=42):
    fields = [str(i) for i in range(n_fields - 1)]
    fields[1:4] = ["tcp", "http", "SF"]
    return ",".join(fields + [label])


def read_one(line, strict=True):
    """The single record read_records makes of one line."""
    data, skipped = read_records([line], strict=strict)
    assert skipped == 0
    [rec] = data
    return rec


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

    @pytest.mark.parametrize("label", ["foo bar.", "normal. ", "\tnormal.", "nor\x0bmal.", "sm\u00e9rf."])
    def test_label_must_be_one_ascii_token(self, label):
        # A model file stores the label as one space-separated ASCII token.
        line = make_line(label=label)
        with pytest.raises(MalformedRecord, match="label"):
            parse_record(line)
        with pytest.raises(MalformedRecord, match="^f.kdd:2: "):
            read_records([make_line(), line], source="f.kdd")
        data, skipped = read_records([make_line(), line], strict=False)
        assert skipped == 1
        assert data.attack_names == ["normal"]

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


class TestToConnectionRecord:
    @pytest.mark.parametrize(
        "label,category",
        [("smurf", "dos"), ("nmap", "probe"), ("perl", "u2r"), ("guest", "r2l")],
    )
    def test_category_mapping(self, label, category):
        rec = read_one(make_line(label=label + "."))
        assert rec.attack_name == label
        assert rec.category == category

    def test_symbolic_fields_dropped(self):
        # Fields valued 0..40 with the symbolic trio replaced; the retained 38
        # must be everything except positions 2,3,4 (1-based).
        rec = read_one(make_line())
        assert rec.features.shape == (NUM_FEATURES,)
        expected = [0.0] + [float(i) for i in range(4, 41)]
        assert rec.features.tolist() == expected

    def test_non_numeric_feature_rejected(self):
        fields = make_line().split(",")
        fields[10] = "oops"
        with pytest.raises(NonNumericFeature, match=r"^<input>:1: field 11: 'oops'$"):
            read_records([",".join(fields)])

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_rejected(self, bad):
        fields = make_line().split(",")
        fields[10] = bad
        with pytest.raises(NonNumericFeature, match=f"^<input>:1: field 11: non-finite value '{bad}'$"):
            read_records([",".join(fields)])

    def test_unknown_label_strict(self):
        with pytest.raises(UnknownLabel, match="^<input>:1: zerg_rush$"):
            read_records([make_line(label="zerg_rush.")], strict=True)

    def test_unknown_label_lenient_fallback(self, caplog):
        rec = read_one(make_line(label="zerg_rush."), strict=False)
        assert rec.attack_name == "zerg_rush"
        assert rec.category == "normal"

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

    def test_unlabeled_lines(self):
        line = ",".join(make_line().split(",")[:-1])
        data, _ = read_records([line, line], require_label=False)
        assert data.attack_names == data.categories == [None, None]
        assert data.features.shape == (2, NUM_FEATURES)

    def test_rows_stack_across_blocks_in_order(self, monkeypatch):
        monkeypatch.setattr("gaids.ingest.BLOCK_ROWS", 3)
        lines = [make_line().replace(",4,", f",{i},", 1) for i in range(8)]
        data, _ = read_records(lines)
        assert data.features.shape == (8, NUM_FEATURES)
        assert data.features[:, 1].tolist() == [float(i) for i in range(8)]
        assert len(data.attack_names) == len(data.categories) == 8

    def test_iteration_yields_row_views(self):
        data, _ = read_records(REAL_LINES)
        recs = list(data)
        assert [r.attack_name for r in recs] == ["normal", "normal", "smurf"]
        assert [r.category for r in recs] == ["normal", "normal", "dos"]
        for i, rec in enumerate(recs):
            assert np.shares_memory(rec.features, data.features)
            assert np.array_equal(rec.features, data.features[i])


class TestSummarize:
    def test_counts_and_total(self):
        records = dataset([record({}, "normal"), record({}, "smurf"), record({}, "smurf")])
        summary = summarize(records)
        assert summary.counts["normal"] == 1
        assert summary.counts["dos"] == 2
        assert summary.total == 3

    def test_empty_sequence(self):
        summary = summarize(dataset([]))
        assert summary.total == 0
        assert all(v == 0 for v in summary.counts.values())

    def test_kv_rendering(self):
        text = summarize(dataset([record({}, "nmap")])).to_kv()
        assert "probe=1" in text
        assert "total=1" in text


class TestNormalization:
    def test_min_max_two_records(self):
        stats = fit_normalization(dataset([record({3: 0.0}), record({3: 10.0})]))
        assert stats.feat_min[3] == 0.0
        assert stats.feat_max[3] == 10.0

    def test_constant_feature(self):
        stats = fit_normalization(dataset([record({3: 5.0}), record({3: 5.0})]))
        assert stats.feat_min[3] == stats.feat_max[3] == 5.0

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            fit_normalization(dataset([]))

    def test_overflowing_span_rejected(self):
        # Both values are finite, but their difference is not.
        with pytest.raises(NonNumericFeature, match="^field 7: values span more than the float range$"):
            fit_normalization(dataset([record({3: -1e308}), record({3: 1e308})]))

    def test_matches_bruteforce_scan(self, rng):
        records = [record(rng.random(NUM_FEATURES) * 100) for _ in range(200)]
        stats = fit_normalization(dataset(records))
        # Independent single-pass scan, plain python loops.
        lo = [min(rec.features[i] for rec in records) for i in range(NUM_FEATURES)]
        hi = [max(rec.features[i] for rec in records) for i in range(NUM_FEATURES)]
        assert stats.feat_min.tolist() == lo
        assert stats.feat_max.tolist() == hi

    def test_midpoint(self):
        stats = NormalizationStats(np.zeros(NUM_FEATURES), np.full(NUM_FEATURES, 10.0))
        out = stats.transform(record({0: 5.0}).features)
        assert out[0] == 0.5

    def test_degenerate_span_maps_to_zero(self):
        stats = NormalizationStats(np.full(NUM_FEATURES, 5.0), np.full(NUM_FEATURES, 5.0))
        out = stats.transform(record({0: 5.0}).features)
        assert np.all(out == 0.0)

    def test_clamps_out_of_span(self):
        stats = NormalizationStats(np.zeros(NUM_FEATURES), np.full(NUM_FEATURES, 10.0))
        assert stats.transform(record({0: 12.0}).features)[0] == 1.0
        assert stats.transform(record({0: -3.0}).features)[0] == 0.0

    def test_clamps_values_that_overflow(self):
        stats = NormalizationStats(np.zeros(NUM_FEATURES), np.full(NUM_FEATURES, 0.5))
        out = stats.transform(record({0: 1e308, 1: -1e308}).features)
        assert out[0] == 1.0 and out[1] == 0.0

    def test_output_always_in_unit_cube(self, rng):
        train = dataset(record(rng.random(NUM_FEATURES) * 50 - 10) for _ in range(50))
        stats = fit_normalization(train)
        for _ in range(100):
            out = stats.transform(rng.random(NUM_FEATURES) * 200 - 100)
            assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_matrix_transform_equals_row_transform(self, rng):
        # Training normalizes blocks of rows; detection normalizes one row.
        stats = NormalizationStats(rng.random(NUM_FEATURES) * 10, 10 + rng.random(NUM_FEATURES))
        stats.feat_max[5] = stats.feat_min[5]
        x = rng.random((40, NUM_FEATURES)) * 30 - 5
        block = stats.transform(x)
        for row, out in zip(x, block):
            assert np.array_equal(stats.transform(row), out)



# -- fuzzed lines against a field-by-field reference parser --------------------

FUZZ_VALUES = ["oops", "nan", "inf", "-inf", "1e999", "\u00e9", "\ufffd", "\u0663", "", " 7 "]
ODD_LABELS = ["foo bar.", "normal. ", " smurf.", "\u00e9.", "\ufffd", "nor\x1fmal."]


def reference(line):
    """(error class or None, 38 floats or None) for one non-blank line, by
    splitting on commas and calling float() on each retained field."""
    parts = line.split(",")
    label = parts[-1][:-1] if parts[-1].endswith(".") else parts[-1]
    one_token = label.isascii() and not any(c.isspace() for c in label)
    if len(parts) != 42 or not label or not one_token:
        return MalformedRecord, None
    values = []
    for pos, field in enumerate(parts[:41]):
        if pos in (1, 2, 3):
            continue
        try:
            v = float(field)
        except ValueError:
            return NonNumericFeature, None
        if not math.isfinite(v):
            return NonNumericFeature, None
        values.append(v)
    return (None if label in ATTACK_CATEGORIES else UnknownLabel), values


@st.composite
def fuzzed_line(draw):
    fields = draw(st.sampled_from(REAL_LINES)).split(",")
    for _ in range(draw(st.integers(0, 2))):
        op = draw(st.sampled_from(
            ["drop", "duplicate", "replace", "no-period", "unknown-name", "odd-label"]
        ))
        i = draw(st.integers(0, len(fields) - 2))
        if op == "drop":
            del fields[i]
        elif op == "duplicate":
            fields.insert(i, fields[i])
        elif op == "replace":
            fields[i] = draw(st.sampled_from(FUZZ_VALUES))
        elif op == "no-period":
            fields[-1] = fields[-1].rstrip(".")
        elif op == "odd-label":
            fields[-1] = draw(st.sampled_from(ODD_LABELS))
        else:
            fields[-1] = "zerg_rush."
    return ",".join(fields)


fuzzed_file = st.lists(st.one_of(fuzzed_line(), st.sampled_from(["", "  "])), min_size=1, max_size=8)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(fuzzed_file)
def test_parser_matches_reference(lines):
    numbered = [(n, ln) for n, ln in enumerate(lines, start=1) if ln.strip()]
    refs = [(n, *reference(ln)) for n, ln in numbered]

    for (_, line), (_, error, values) in zip(numbered, refs):
        if error is None:
            data, _ = read_records([line], source="f.kdd")
            assert data.features.tolist() == [values]
        else:
            with pytest.raises(error, match="^f.kdd:1: "):
                read_records([line], source="f.kdd")

    first_bad = next(((n, error) for n, error, _ in refs if error is not None), None)
    if first_bad is None:
        data, skipped = read_records(lines, source="f.kdd")
        assert skipped == 0
        assert data.features.tolist() == [v for _, _, v in refs]
    else:
        lineno, error = first_bad
        with pytest.raises(error, match=f"^f.kdd:{lineno}: "):
            read_records(lines, source="f.kdd")

    # Lenient keeps every row strict accepts plus the unknown names (under
    # the fallback category) and skips exactly the lines strict rejects for
    # any other reason.
    data, skipped = read_records(lines, strict=False, source="f.kdd")
    kept = [(v, error) for _, error, v in refs if error in (None, UnknownLabel)]
    assert skipped == len(refs) - len(kept)
    assert data.features.shape == (len(kept), NUM_FEATURES)
    assert data.features.tolist() == [v for v, _ in kept]
    for category, (_, error) in zip(data.categories, kept):
        if error is UnknownLabel:
            assert category == ingest.FALLBACK_CATEGORY
