"""Sparse text parsing, label normalization, permutation, and subsampling."""
from __future__ import annotations

import gzip
import io
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiupdate import data
from multiupdate.core import SparseVector
from multiupdate.data import (
    BINARY_SPACE,
    Dataset,
    CHUNK_LINES,
    MAX_INDEX,
    MULTICLASS_SPACE,
    load_dataset,
    normalize_labels,
    parse_sparse_text,
    parse_text,
    subsample,
)
from multiupdate.errors import DataError
from multiupdate.rng import permutation

_GZIPPED = gzip.compress(b"+1 1:0.5 2:-1\n-1 2:1.5 3:0.25\n" * 50)


class TestParsing:
    def test_basic_binary_file(self):
        ds = parse_text("+1 1:0.5 3:-2\n-1 2:1\n")
        assert ds.n == 2
        assert ds.d == 3
        assert ds.label_space == BINARY_SPACE
        assert ds.num_classes == 2
        x0, y0 = ds.instances[0]
        assert y0 == 1.0
        assert list(x0.pairs()) == [(0, 0.5), (2, -2.0)]
        x1, y1 = ds.instances[1]
        assert y1 == -1.0
        assert list(x1.pairs()) == [(1, 1.0)]

    def test_multiclass_inference(self):
        ds = parse_text("1 1:1\n2 1:2\n3 1:3\n")
        assert ds.label_space == MULTICLASS_SPACE
        assert ds.num_classes == 3

    def test_two_labels_always_binary(self):
        # even raw labels like {3, 7} infer as binary
        ds = parse_text("3 1:1\n7 1:2\n3 2:1\n")
        assert ds.label_space == BINARY_SPACE

    def test_comments_and_blank_lines(self):
        text = "# leading comment\n\n+1 1:1  # trailing comment\n\n-1 2:0.5\n# done\n"
        ds = parse_text(text)
        assert ds.n == 2
        assert [y for _, y in ds.instances] == [1.0, -1.0]

    def test_out_of_order_indices_resorted(self):
        ds = parse_text("+1 3:3 1:1 2:2\n-1 1:0\n")
        x, _ = ds.instances[0]
        assert list(x.pairs()) == [(0, 1.0), (1, 2.0), (2, 3.0)]

    def test_zero_values_kept_out_of_vector(self):
        # explicit zeros are dropped by SparseVector but still widen d
        ds = parse_text("+1 5:0\n-1 1:1\n")
        x, _ = ds.instances[0]
        assert list(x.pairs()) == []
        assert ds.d == 5

    def test_empty_feature_list_allowed(self):
        ds = parse_text("+1\n-1 1:1\n")
        x, _ = ds.instances[0]
        assert x.squared_norm() == 0.0

    def test_duplicate_index(self):
        with pytest.raises(DataError, match=r"name:1: duplicate index 2"):
            parse_text("+1 2:1 2:3\n", name="name")

    def test_duplicate_after_reorder(self):
        # duplicates must be caught even when written out of order
        with pytest.raises(DataError, match="duplicate index 4"):
            parse_text("+1 4:1 1:2 4:9\n-1 1:1\n")

    def test_malformed_pair(self):
        with pytest.raises(DataError, match=r"f:2: malformed pair 'oops'"):
            parse_text("+1 1:1\n-1 oops\n", name="f")

    def test_non_numeric_value(self):
        with pytest.raises(DataError, match=r":1: non-numeric pair '1:abc'"):
            parse_text("+1 1:abc\n")

    def test_non_numeric_index(self):
        with pytest.raises(DataError, match="non-numeric pair"):
            parse_text("+1 x:1.0\n")

    def test_bad_label(self):
        with pytest.raises(DataError, match=r"g:3: bad label 'pos'"):
            parse_text("+1 1:1\n-1 1:2\npos 1:3\n", name="g")

    @pytest.mark.parametrize("text, line, detail", [
        ("+1 1:nan 2:1\n-1 1:1 2:-1\n", 1, "1:nan"),
        ("+1 1:1\n-1 1:1 2:-inf\n", 2, "2:-inf"),
        ("+1 1:1\n-1 1:1\n+1 3:1e200\n", 3, "3:1e+200"),
        ("+1 1:1e154 2:1e154 3:1e154\n", 1, "the sum of squares overflows"),
    ])
    def test_non_finite_values_rejected(self, text, line, detail):
        with pytest.raises(DataError, match=rf"f:{line}: non-finite .*\({re.escape(detail)}\)"):
            parse_text(text, name="f")

    @pytest.mark.parametrize("label", ["nan", "inf", "-inf"])
    def test_non_finite_label_rejected(self, label):
        with pytest.raises(DataError, match=rf"f:2: non-finite label '{label}'"):
            parse_text(f"+1 1:1\n{label} 1:2\n", name="f")

    def test_zero_index(self):
        with pytest.raises(DataError, match="index 0 is not 1-based"):
            parse_text("+1 0:1\n")

    def test_negative_index(self):
        with pytest.raises(DataError, match="index -3 is not 1-based"):
            parse_text("+1 -3:1\n")

    def test_largest_index_accepted(self):
        # the bound itself parses; only the dense model would be too large
        ds = parse_text(f"+1 1:1 {MAX_INDEX}:2\n-1 1:1\n")
        assert MAX_INDEX == 2**31 - 1
        assert ds.d == MAX_INDEX
        assert ds.instances[0][0].max_index == MAX_INDEX - 1

    def test_empty_file(self):
        with pytest.raises(DataError, match="no instances"):
            parse_text("# only a comment\n\n")

    def test_gzip_roundtrip(self, tmp_path):
        raw = b"+1 1:0.5\n-1 2:1.5\n"
        path = tmp_path / "data.gz"
        path.write_bytes(gzip.compress(raw))
        ds = load_dataset(path)
        assert ds.n == 2
        assert ds.name == "data.gz"

    @pytest.mark.parametrize("blob", [
        b"\x1f\x8b" + b"garbage follows the magic",
        _GZIPPED[:len(_GZIPPED) // 2],
        _GZIPPED[:10] + bytes(b ^ 0xFF for b in _GZIPPED[10:20]) + _GZIPPED[20:],
    ], ids=["bad-header", "truncated", "corrupt-deflate"])
    def test_corrupt_gzip(self, blob):
        # OSError, EOFError and zlib.error from gzip.decompress respectively
        with pytest.raises(DataError, match="bad gzip"):
            parse_sparse_text(io.BytesIO(blob), name="z")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_dataset(tmp_path / "absent.libsvm")

    def test_non_utf8(self):
        with pytest.raises(DataError, match="not UTF-8"):
            parse_sparse_text(io.BytesIO(b"+1 1:1\n\xff\xfe\n"))

    def test_scientific_notation_values(self):
        ds = parse_text("+1 1:1e-3 2:-2.5E2\n-1 1:1\n")
        x, _ = ds.instances[0]
        assert list(x.pairs()) == [(0, 1e-3), (1, -250.0)]


# A parsed file is one (label, [(1-based index, value), ...], line ending,
# filler lines before it, trailing comment?) per row.
_VALUE = st.one_of(st.sampled_from([0.0, -0.0, 1.0]),
                   st.floats(min_value=-1e100, max_value=1e100, allow_nan=False))
_ROW = st.tuples(
    st.sampled_from([-1.0, 1.0, 2.0, 3.0]),
    # unique_by keeps the draw order, so indices come out shuffled
    st.lists(st.tuples(st.integers(1, 40), _VALUE), unique_by=lambda p: p[0], max_size=8),
    st.sampled_from(["\n", "\r\n"]),
    st.sampled_from(["", "\n", "# comment line\n", "  \r\n"]),
    st.booleans(),
)


def _render(rows) -> bytes:
    out = []
    for label, pairs, end, filler, comment in rows:
        feats = "".join(f" {i}:{v!r}" for i, v in pairs)
        out.append(f"{filler}{label!r}{feats}{'  # trailing' if comment else ''}{end}")
    return "".join(out).encode()


def _reference(rows):
    """The parse, built row by row through the validating constructor."""
    instances = []
    for label, pairs, *_ in rows:
        ordered = sorted(pairs)
        x = SparseVector([i - 1 for i, _ in ordered], [v for _, v in ordered])
        instances.append((x, label))
    d = max([i for _, pairs, *_ in rows for i, _ in pairs] + [1])
    k = len({y for _, y in instances})
    return instances, d, BINARY_SPACE if k <= 2 else MULTICLASS_SPACE, max(k, 2)


def _row_bits(x: SparseVector):
    return (x.indices.dtype, x.indices.tobytes(), x.values.dtype, x.values.tobytes(),
            x.squared_norm().hex(), x.max_index)


def _assert_parses_like_reference(blob: bytes, rows):
    ds = parse_sparse_text(io.BytesIO(blob), name="p")
    instances, d, space, k = _reference(rows)
    assert ds.n == len(instances)
    for (got, gy), (want, wy) in zip(ds.instances, instances):
        assert _row_bits(got) == _row_bits(want)
        assert repr(gy) == repr(wy)
    assert (ds.d, ds.label_space, ds.num_classes) == (d, space, k)


class TestBulkParse:
    @given(rows=st.lists(_ROW, min_size=1, max_size=24),
           chunk=st.sampled_from([1, 2, 3, 5, 8, CHUNK_LINES]),
           gz=st.booleans(), where=st.integers(0, 24))
    @settings(max_examples=80, deadline=None)
    def test_matches_row_by_row_reference(self, rows, chunk, gz, where):
        # every file also holds an empty row and an explicit zero at the
        # highest index, which counts toward d but is not stored
        top = 1 + max((i for _, pairs, *_ in rows for i, _ in pairs), default=0)
        rows = list(rows)
        rows.insert(where % (len(rows) + 1), (1.0, [], "\n", "", False))
        rows.insert(where % (len(rows) + 1), (-1.0, [(top + 1, 0.0), (top, 0.5)], "\r\n", "", True))
        blob = _render(rows)
        if gz:
            blob = gzip.compress(blob)
        with mock.patch.object(data, "CHUNK_LINES", chunk):
            _assert_parses_like_reference(blob, rows)

    @pytest.mark.parametrize("n_rows", [CHUNK_LINES - 1, CHUNK_LINES, CHUNK_LINES + 1,
                                        2 * CHUNK_LINES + 3])
    def test_row_counts_straddling_the_chunk_size(self, n_rows):
        # every 7th row has a comment line before it, so lines and rows
        # cross the chunk boundary at different places
        rows = [(float(r % 3), [(1 + (5 * r + j) % 11, float((r * j) % 4) - 1.5)
                                for j in range(r % 5)][::-1],
                 "\r\n" if r % 2 else "\n", "# c\n" if r % 7 == 0 else "", r % 3 == 0)
                for r in range(n_rows)]
        rows = [(y, list(dict(pairs).items()), *rest) for y, pairs, *rest in rows]
        _assert_parses_like_reference(gzip.compress(_render(rows)), rows)


# One bad line of each DataError class, with today's message for it.
_BAD_LINES = [
    ("pos 1:1", "bad label 'pos'"),
    ("nan 1:1", "non-finite label 'nan'"),
    ("+1 1:1 oops", "malformed pair 'oops' (expected idx:val)"),
    ("+1 1:abc", "non-numeric pair '1:abc'"),
    # one colon too many and one too few: a naive split would pair 1:2 and 3:4
    ("+1 1:2:3 4", "non-numeric pair '1:2:3'"),
    ("+1 2:1 0:1", "index 0 is not 1-based positive"),
    ("+1 2:1 2:3", "duplicate index 2"),
    ("+1 4:1 1:2 4:9", "duplicate index 4"),
    ("+1 1:1 2:-inf", "non-finite feature value or squared norm (2:-inf)"),
    ("+1 1:1e154 2:1e154 3:1e154",
     "non-finite feature value or squared norm (the sum of squares overflows)"),
    # beyond int64, then beyond LIBSVM's C int but within int64
    ("+1 99999999999999999999:1",
     "index 99999999999999999999 exceeds the largest supported index 2147483647"),
    ("+1 1:1 2147483648:1", "index 2147483648 exceeds the largest supported index 2147483647"),
]


class TestErrorLocation:
    @pytest.mark.parametrize("line", [1, CHUNK_LINES, CHUNK_LINES + 1],
                             ids=["first-line", "chunk-end", "next-chunk-start"])
    @pytest.mark.parametrize("bad, message", _BAD_LINES, ids=[m for _, m in _BAD_LINES])
    def test_first_bad_line_named_across_chunks(self, bad, message, line):
        # a second bad line further on, in the same chunk or the next, must
        # not be the one reported
        lines = ["+1 1:0.5 3:-1" if i % 2 else "-1 2:1" for i in range(CHUNK_LINES + 4)]
        lines[line - 1] = bad
        lines[CHUNK_LINES + 2] = "-1 0:1"
        with pytest.raises(DataError) as err:
            parse_text("\n".join(lines) + "\n", name="f")
        assert str(err.value) == f"f:{line}: {message}"


class TestSharedBuffers:
    def test_row_values_are_read_only(self):
        # a write through one row's view would change every later run
        ds = parse_text("+1 1:0.5 3:-2\n-1 2:1\n")
        x, _ = ds.instances[0]
        with pytest.raises(ValueError, match="read-only"):
            x.values[0] = 1.0

    def test_rows_share_one_buffer_per_chunk(self):
        # no per-row copies: every row of a chunk is a view into the same
        # index and value buffers
        n = 2 * CHUNK_LINES + 5
        ds = parse_text("".join(f"{i % 2} {1 + i % 3}:{i + 1} 7:0.5\n" for i in range(n)))
        for field in ("indices", "values"):
            bases = {id(getattr(x, field).base) for x, _ in ds.instances}
            assert len(bases) == 3
            assert all(getattr(x, field).base is not None for x, _ in ds.instances)


class TestNormalization:
    def test_zero_one_to_pm_one(self):
        ds = parse_text("0 1:1\n1 1:2\n0 2:1\n")
        norm = normalize_labels(ds)
        assert [y for _, y in norm.instances] == [-1.0, 1.0, -1.0]
        assert normalize_labels(norm) is norm

    def test_one_two_to_pm_one(self):
        ds = parse_text("1 1:1\n2 1:2\n")
        norm = normalize_labels(ds)
        assert [y for _, y in norm.instances] == [-1.0, 1.0]

    def test_pm_one_values_kept_as_ints(self):
        ds = parse_text("+1 1:1\n-1 1:2\n")
        norm = normalize_labels(ds)
        assert [y for _, y in norm.instances] == [1, -1]
        assert all(type(y) is int for _, y in norm.instances)
        # the parsed float labels get one int copy; int labels get none
        assert norm.instances is not ds.instances
        assert normalize_labels(norm) is norm

    def test_multiclass_one_based_to_zero_based(self):
        lines = "".join(f"{c} 1:{c}\n" for c in range(1, 8))
        norm = normalize_labels(parse_text(lines))
        assert [y for _, y in norm.instances] == [float(i) for i in range(7)]
        assert norm.num_classes == 7

    def test_multiclass_sorted_raw_order(self):
        ds = parse_text("30 1:1\n10 1:2\n20 1:3\n")
        norm = normalize_labels(ds)
        assert [y for _, y in norm.instances] == [2.0, 0.0, 1.0]

    def test_idempotent(self):
        ds = normalize_labels(parse_text("0 1:1\n1 1:2\n"))
        again = normalize_labels(ds)
        assert [y for _, y in again.instances] == [y for _, y in ds.instances]

    def test_single_label_rejected_at_normalize(self):
        # parsing alone accepts it (round-trip convenience)...
        ds = parse_text("+1 1:1\n+1 2:1\n")
        assert ds.n == 2
        # ...normalization is where the degenerate case errors out
        with pytest.raises(DataError, match="single distinct label"):
            normalize_labels(ds)

    @pytest.mark.parametrize("text, labels", [
        ("0 1:1\n1 1:2\n", [-1, 1]),
        ("2 1:1\n1 1:2\n3 1:3\n", [1, 0, 2]),
    ], ids=["binary", "multiclass"])
    def test_normalized_labels_are_ints(self, text, labels):
        inst = normalize_labels(parse_text(text)).instances
        assert [y for _, y in inst] == labels
        assert all(type(y) is int for _, y in inst)

    def test_int_labels_off_the_canonical_space_are_mapped(self):
        x = SparseVector([0], [1.0])
        ds = Dataset(instances=((x, 0), (x, 1)), d=1, num_classes=2)
        assert [y for _, y in normalize_labels(ds).instances] == [-1, 1]


class TestPermutation:
    def test_golden(self):
        assert permutation(5, 42) == [0, 1, 3, 4, 2]

    @given(n=st.integers(min_value=1, max_value=200),
           seed=st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=40, deadline=None)
    def test_valid_and_deterministic(self, n, seed):
        p = permutation(n, seed)
        assert sorted(p) == list(range(n))
        assert permutation(n, seed) == p


class TestSubsample:
    def _ds(self, n=50, classes=2):
        lines = "".join(f"{i % classes} {1 + i % 3}:{i + 1}\n" for i in range(n))
        return parse_text(lines, name="synth")

    def test_k_equals_n_is_permuted_copy(self):
        ds = self._ds(20)
        sub = subsample(ds, 20, seed=3)
        assert sub.n == 20
        assert sorted(y for _, y in sub.instances) == sorted(y for _, y in ds.instances)
        perm = permutation(20, 3)
        assert sub.instances == tuple(ds.instances[i] for i in perm)

    def test_out_of_range(self):
        ds = self._ds(10)
        with pytest.raises(DataError, match="out of range"):
            subsample(ds, 11, seed=0)
        with pytest.raises(DataError, match="out of range"):
            subsample(ds, 0, seed=0)

    def test_deterministic(self):
        ds = self._ds(40)
        a = subsample(ds, 15, seed=9)
        b = subsample(ds, 15, seed=9)
        assert a.instances == b.instances

    def test_every_class_survives(self):
        # 3 classes with one of them very rare: the plain head of the
        # permutation can miss it, the fallback must not
        lines = "".join(f"0 1:{i}\n" for i in range(1, 49))
        lines += "1 2:1\n2 3:1\n"
        ds = parse_text(lines)
        for seed in range(12):
            sub = subsample(ds, 5, seed=seed)
            assert {0.0, 1.0, 2.0} == {y for _, y in sub.instances}, f"seed {seed}"
            assert sub.n == 5

    def test_name_tagged(self):
        sub = subsample(self._ds(30), 10, seed=1)
        assert sub.name == "synth[10]"

    @pytest.mark.parametrize("n, classes, k", [(6, 3, 2), (6, 2, 1)],
                             ids=["three-classes-k2", "binary-k1"])
    def test_k_below_the_class_count(self, n, classes, k):
        with pytest.raises(DataError, match=f"subsample size {k} cannot keep all "
                                            f"{classes} classes"):
            subsample(self._ds(n, classes), k, seed=0)

    def test_keeps_the_class_count(self):
        ds = self._ds(30, 3)
        sub = subsample(ds, 3, seed=4)
        assert (sub.n, sub.num_classes, sub.label_space) == (3, 3, MULTICLASS_SPACE)
        assert {y for _, y in sub.instances} == {0.0, 1.0, 2.0}
