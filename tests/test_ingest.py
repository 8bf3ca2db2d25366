import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaids import ingest
from gaids.cli import main
from gaids.errors import EmptyDataset, MalformedRecord, NonNumericFeature, UnknownLabel
from gaids.ingest import (
    ATTACK_CATEGORIES,
    CATEGORIES,
    NUM_FEATURES,
    NormalizationStats,
    fit_normalization,
    parse_record,
    read_records,
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
        message = "unknown attack name 'zerg_rush'; --lenient maps it to category 'normal'"
        with pytest.raises(UnknownLabel, match=f"^<input>:1: {message}$"):
            read_records([make_line(label="zerg_rush.")], strict=True)

    def test_unknown_label_lenient_fallback(self):
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
    def test_one_warning_per_unknown_name(self, capsys):
        unknown, malformed = make_line(label="zerg_rush."), "1,2,3"
        lines = [unknown, malformed, unknown, malformed, unknown, make_line()]
        records, skipped = read_records(lines, strict=False, source="t.kdd")
        assert (len(records), skipped) == (4, 2)
        warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("WARNING ")]
        assert len(warnings) == 1
        assert "'zerg_rush' on 3 line(s)" in warnings[0]
        assert warnings[0] == (
            "WARNING t.kdd: unknown attack name 'zerg_rush' on 3 line(s), assigned category 'normal'"
        )

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
        assert data.attack_names == [None, None]
        assert [r.category for r in data] == [None, None]
        assert data.features.shape == (2, NUM_FEATURES)

    def test_rows_stack_in_order(self):
        lines = [make_line().replace(",4,", f",{i},", 1) for i in range(8)]
        data, _ = read_records(lines)
        assert data.features.shape == (8, NUM_FEATURES)
        assert data.features[:, 1].tolist() == [float(i) for i in range(8)]
        assert len(data.attack_names) == len(list(data)) == 8

    def test_cached_errors_stay_small(self):
        # Each distinct bad line keeps its error's class and message (about
        # 130 B); a kept exception object, traceback and all, costs several KB.
        n = 2000
        lines = [make_line().replace(",4,", f",x{i},", 1) for i in range(n)]
        tracemalloc.start()
        try:
            _, skipped = read_records(lines, strict=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert skipped == n
        assert peak < 1000 * n

    def test_iteration_yields_row_views(self):
        data, _ = read_records(REAL_LINES)
        recs = list(data)
        assert [r.attack_name for r in recs] == ["normal", "normal", "smurf"]
        assert [r.category for r in recs] == ["normal", "normal", "dos"]
        for i, rec in enumerate(recs):
            assert np.shares_memory(rec.features, data.features)
            assert np.array_equal(rec.features, data.features[i])


def train_stdout(tmp_path, capsys, labels):
    """Exit code and stdout of `gaids train` on one line per label."""
    train = tmp_path / "train.kdd"
    train.write_text("".join(make_line(label + ".") + "\n" for label in labels))
    code = main(["train", "--train-file", str(train), "--model", str(tmp_path / "m.model")])
    return code, capsys.readouterr().out


class TestSummarize:
    # `gaids train` starts its stdout with the record count of each class,
    # in CATEGORIES order, and the total.
    def test_counts_and_total(self, tmp_path, capsys):
        code, out = train_stdout(tmp_path, capsys, ["normal", "smurf", "smurf"])
        assert code == 0
        counts = dict(line.split("=") for line in out.splitlines()[:6])
        assert counts["normal"] == "1"
        assert counts["dos"] == "2"
        assert counts["total"] == "3"
        assert list(counts) == [*CATEGORIES, "total"]

    def test_empty_sequence(self, tmp_path, capsys):
        # A class without records prints 0; a file without records prints no
        # counts and fails as a data error.
        code, out = train_stdout(tmp_path, capsys, ["normal"])
        assert code == 0
        assert out.splitlines()[1:6] == ["probe=0", "dos=0", "u2r=0", "r2l=0", "total=1"]
        code, out = train_stdout(tmp_path, capsys, [])
        assert code == EmptyDataset.exit_code == 3
        assert out == ""

    def test_kv_rendering(self, tmp_path, capsys):
        _, out = train_stdout(tmp_path, capsys, ["nmap"])
        assert "probe=1" in out.splitlines()
        assert "total=1" in out.splitlines()


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

    def test_block_transform_holds_one_output(self, rng):
        # Training normalizes BLOCK_ROWS-row gathers; each temporary beyond
        # the output costs another block. The engine passes views of the
        # dataset matrix, so the input must stay as it was.
        stats = NormalizationStats(rng.random(NUM_FEATURES) * 10, 10 + rng.random(NUM_FEATURES))
        stats.feat_max[5] = stats.feat_min[5]
        x = rng.random((1024, NUM_FEATURES)) * 30 - 5
        before = x.copy()
        stats.transform(x)
        tracemalloc.start()
        try:
            stats.transform(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * x.nbytes
        assert np.array_equal(x, before)



# -- fuzzed lines against a field-by-field reference parser --------------------

# "1_0" and "\u0663" are numbers to float() but not to np.loadtxt; "\x1c1" is
# one to np.loadtxt but not to float(); "-0" and "4.9e-324" must keep their
# sign and subnormal bits.
FUZZ_VALUES = [
    "oops", "nan", "inf", "-inf", "1e999", "\u00e9", "\ufffd", "\u0663", "", " 7 ",
    "1_0", "-0", "4.9e-324", "\x0c1", "\x1c1",
]
ODD_LABELS = ["foo bar.", "normal. ", " smurf.", "\u00e9.", "\ufffd", "nor\x1fmal."]
# Numbers float() reads: any from 0 to 1e308, subnormals, and digits
# joined by underscores, which np.loadtxt rejects.
NUMBER_TOKENS = st.one_of(
    st.floats(0.0, 1e308).map(repr),
    st.floats(0.0, 2.225073858507201e-308).map(repr),
    st.from_regex(r"[0-9](_?[0-9]){0,4}(\.[0-9](_?[0-9]){0,4})?", fullmatch=True),
)


def reference_label(line):
    """The last comma-separated field without its line end and trailing
    period."""
    last = line.rstrip("\r\n").split(",")[-1]
    return last[:-1] if last.endswith(".") else last


def reference(line):
    """(error class or None, 38 floats or None) for one non-blank line, by
    splitting it without its line end on commas and calling float() on each
    retained field."""
    parts = line.rstrip("\r\n").split(",")
    label = reference_label(line)
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
            ["drop", "duplicate", "replace", "number", "no-period", "unknown-name", "odd-label"]
        ))
        i = draw(st.integers(0, len(fields) - 2))
        if op == "drop":
            del fields[i]
        elif op == "duplicate":
            fields.insert(i, fields[i])
        elif op == "replace":
            fields[i] = draw(st.sampled_from(FUZZ_VALUES))
        elif op == "number":
            fields[i] = draw(NUMBER_TOKENS)
        elif op == "no-period":
            fields[-1] = fields[-1].rstrip(".")
        elif op == "odd-label":
            fields[-1] = draw(st.sampled_from(ODD_LABELS))
        else:
            fields[-1] = "zerg_rush."
    return ",".join(fields)


@st.composite
def fuzzed_file(draw):
    """Up to 8 drawn lines (good, bad, unknown-name or blank), then up to 8
    more that repeat drawn ones anywhere in the file, as they were or with
    a CR LF line end."""
    lines = draw(st.lists(st.one_of(fuzzed_line(), st.sampled_from(["", "  "])), min_size=1, max_size=8))
    for _ in range(draw(st.integers(0, 8))):
        repeat = draw(st.sampled_from(lines)) + draw(st.sampled_from(["", "\r\n"]))
        lines.insert(draw(st.integers(0, len(lines))), repeat)
    return lines


def same_rows(features, rows):
    """Whether a feature matrix holds these rows of floats bit for bit
    (== would take -0.0 for 0.0)."""
    expected = np.array(rows, dtype=np.float64).reshape(-1, NUM_FEATURES)
    return features.shape == expected.shape and features.tobytes() == expected.tobytes()


def assert_file_matches_reference(lines):
    """read_records on the whole file against `reference` line by line: the
    first bad line's class and file:line in strict mode; in lenient mode the
    skip count, the names and the kept rows, bit for bit."""
    refs = [(n, ln, *reference(ln)) for n, ln in enumerate(lines, start=1) if ln.strip()]
    first_bad = next(((n, error) for n, _, error, _ in refs if error is not None), None)
    if first_bad is None:
        data, skipped = read_records(lines, source="f.kdd")
        assert skipped == 0
        assert same_rows(data.features, [v for _, _, _, v in refs])
    else:
        lineno, error = first_bad
        with pytest.raises(error, match=f"^f.kdd:{lineno}: "):
            read_records(lines, source="f.kdd")

    # Lenient keeps every row strict accepts plus the unknown names (under
    # the fallback category) and skips exactly the lines strict rejects for
    # any other reason.
    data, skipped = read_records(lines, strict=False, source="f.kdd")
    kept = [(ln, error, v) for _, ln, error, v in refs if error in (None, UnknownLabel)]
    assert skipped == len(refs) - len(kept)
    assert same_rows(data.features, [v for _, _, v in kept])
    assert data.attack_names == [reference_label(ln) for ln, _, _ in kept]
    for r, (_, error, _) in zip(data, kept):
        if error is UnknownLabel:
            assert r.category == ingest.FALLBACK_CATEGORY


# A good and a bad line that each repeat, between blank lines: the cache
# holds (row, name) for one and (error class, message) for the other, and
# a repeat must be read as the kind its first sight was.
_BAD_LINE = REAL_LINES[2].replace(",1032,", ",x,")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(fuzzed_file())
@example([REAL_LINES[0], "", _BAD_LINE, REAL_LINES[0], "  ", _BAD_LINE, ""])
@example([_BAD_LINE, "", REAL_LINES[0], _BAD_LINE, "  ", REAL_LINES[0]])
# An unknown name and a bad number on one line: the number is checked first.
@example([REAL_LINES[0], _BAD_LINE.replace("smurf.", "zerg_rush.")])
# np.loadtxt reads each of these fields as a number; float() reads only -0.
@example([REAL_LINES[1].replace(",239,", ",\x1c1,"), REAL_LINES[0].replace(",181,", ",-0,")])
def test_parser_matches_reference(lines):
    for line in lines:
        if not line.strip():
            continue
        error, values = reference(line)
        if error is None:
            data, _ = read_records([line], source="f.kdd")
            assert same_rows(data.features, [values])
        else:
            with pytest.raises(error, match="^f.kdd:1: "):
                read_records([line], source="f.kdd")
        # parse_record splits every line the reference does not call
        # malformed; perfbench's kddgen tests rely on this split.
        if error is MalformedRecord:
            with pytest.raises(MalformedRecord):
                parse_record(line)
        else:
            raw = parse_record(line)
            assert len(raw.fields) == 41
            assert raw.label == reference_label(line)
            assert raw.trailing_period == line.rstrip("\r\n").endswith(".")
    assert_file_matches_reference(lines)


def numbered_line(i, label="normal."):
    """A well-formed line that differs from every other i in field 5."""
    return make_line(label).replace(",4,", f",{i},", 1)


def test_bad_lines_across_conversion_blocks():
    # Over three blocks of distinct lines, with repeats and blank lines
    # between them: bad lines at a block's first and last line, two in one
    # block, a non-finite value, a bad shape and an unknown name, and a bad
    # line whose repeats fall in later blocks. Each kind is the file's first
    # bad line in turn.
    b = ingest.PARSE_ROWS
    repeated_bad = numbered_line(2 * b + 3).replace(",5,", ",x,", 1)
    bad = {
        b - 1: numbered_line(b - 1).replace(",5,", ",oops,", 1),
        b: numbered_line(b).replace(",6,", ",,", 1),
        b + 5: numbered_line(b + 5).replace(",7,", ",1_0x,", 1),
        b + 9: numbered_line(b + 9).replace(",8,", ",\u00e9,", 1),
        2 * b + 3: repeated_bad,
        2 * b + 6: numbered_line(2 * b + 6).replace(",9,", ",1e999,", 1),
        2 * b + 8: "1,2,3",
        3 * b + 1: numbered_line(3 * b + 1, "zerg_rush."),
    }
    distinct = [bad.get(i, numbered_line(i)) for i in range(3 * b + 10)]
    lines = []
    for i, line in enumerate(distinct):
        lines.append(line)
        if i % 7 == 3:
            lines += ["", distinct[i // 2]]
        if i % 11 == 5:
            lines.append(repeated_bad)
    lines += [repeated_bad, distinct[b - 1]]
    for first in sorted(bad):
        kept = [numbered_line(i) if i in bad and i < first else line for i, line in enumerate(distinct)]
        text = dict(zip(distinct, kept))
        assert_file_matches_reference([text.get(line, line) for line in lines])


@pytest.mark.parametrize(
    "bad, error",
    [
        (numbered_line(0).replace(",5,", ",oops,", 1), NonNumericFeature),
        ("1,2,3", MalformedRecord),
        (numbered_line(0, "zerg_rush."), UnknownLabel),
    ],
)
def test_strict_stops_within_a_block_of_the_first_bad_line(bad, error):
    # Strict mode converts at most PARSE_ROWS distinct lines before it
    # raises, so it never asks for the line after a full block.
    def lines():
        yield bad
        for i in range(1, ingest.PARSE_ROWS):
            yield numbered_line(i)
        pytest.fail("strict read_records read past the block of its first bad line")

    with pytest.raises(error, match="^f.kdd:1: "):
        read_records(lines(), source="f.kdd")


@pytest.mark.parametrize("lines", [["", "  ", "\r\n"], ["1,2,3", _BAD_LINE, _BAD_LINE]])
def test_file_without_rows_reads_empty_matrix(lines):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data, skipped = read_records(lines, strict=False)
    assert data.features.shape == (0, NUM_FEATURES)
    assert data.attack_names == []
    assert skipped == len([ln for ln in lines if ln.strip()])
