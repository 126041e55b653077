import logging
import math
import os
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import mgctm.corpus as corpus_mod
import oracles
from mgctm.corpus import (
    Corpus,
    Document,
    Vocabulary,
    atomic_write_text,
    count_matrix,
    load_bow,
    load_labels,
    load_vocab,
    save_bow,
    save_labels,
    save_vocab,
    tfidf_vectors,
)
from mgctm.errors import CorpusFormatError, DimensionError


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(str(target), "hello\n")
        assert target.read_text() == "hello\n"

    def test_failed_replace_leaves_no_partial_file(self, tmp_path, monkeypatch):
        target = tmp_path / "out.txt"

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(corpus_mod.os, "replace", boom)
        with pytest.raises(OSError):
            atomic_write_text(str(target), "data")
        assert not target.exists()
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"]
    )
    def test_mode_is_what_open_gives(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            atomic_write_text(str(tmp_path / "new.txt"), "a\n")
            with open(tmp_path / "plain.txt", "w") as handle:
                handle.write("a\n")
            (tmp_path / "old.txt").write_text("")
            os.chmod(tmp_path / "old.txt", 0o600 if mode == 0o644 else 0o644)
            save_labels([1, 2], str(tmp_path / "old.txt"))
        finally:
            os.umask(old)
        for name in ("new.txt", "plain.txt", "old.txt"):
            assert (tmp_path / name).stat().st_mode & 0o777 == mode


class TestVocabulary:
    def test_lookup(self):
        vocab = Vocabulary(["cat", "dog"])
        assert len(vocab) == 2
        assert vocab.index["dog"] == 1

    def test_duplicate_token_rejected(self):
        with pytest.raises(CorpusFormatError, match="duplicate"):
            Vocabulary(["cat", "cat"])

    def test_empty_token_rejected(self):
        with pytest.raises(CorpusFormatError, match="empty token"):
            Vocabulary(["cat", ""])


class TestDocument:
    def test_length_and_entries(self):
        doc = Document([0, 2, 5], [3, 1, 2])
        assert doc.length == 6
        assert doc.entries == [(0, 3), (2, 1), (5, 2)]

    def test_misaligned_rejected(self):
        with pytest.raises(DimensionError):
            Document([0, 1], [1])

    @pytest.mark.parametrize(
        "word_ids, counts", [(5, 3), ([[1, 2], [0, 5]], [[1, 1], [1, 1]])]
    )
    def test_not_one_dimensional_rejected(self, word_ids, counts):
        with pytest.raises(DimensionError, match="1-D"):
            Document(word_ids, counts)

    def test_nonpositive_count_rejected(self):
        with pytest.raises(ValueError):
            Document([0, 1], [1, 0])

    def test_unsorted_ids_rejected(self):
        with pytest.raises(ValueError):
            Document([2, 1], [1, 1])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            Document([1, 1], [1, 1])

    def test_decreasing_ids_with_overflowing_difference_rejected(self):
        # -5 - (2**63 - 1) wraps to a positive int64 difference
        with pytest.raises(ValueError, match="strictly increasing"):
            Document([2**63 - 1, -5], [1, 1])

    def test_increasing_ids_with_overflowing_difference_accepted(self):
        # (2**63 - 1) - (-2**63) wraps to -1
        doc = Document([-(2**63), 2**63 - 1], [1, 1])
        assert doc.word_ids.tolist() == [-(2**63), 2**63 - 1]


class TestCorpus:
    def test_out_of_range_word_rejected(self):
        with pytest.raises(ValueError, match="vocab_size"):
            Corpus(docs=[Document([4], [1])], vocab_size=4)

    def test_negative_word_id_rejected(self):
        # a negative id used to pass, and then read a topic row from the end
        docs = [Document([-1, 3], [2, 1]), Document([0, 9], [1, 1])]
        with pytest.raises(ValueError, match="document 0 references word id -1 < 0"):
            Corpus(docs, 10)

    def test_labels_none_when_any_missing(self):
        docs = [Document([0], [1], label=1), Document([1], [1])]
        assert Corpus(docs=docs, vocab_size=2).labels() is None

    def test_labels_array(self):
        docs = [Document([0], [1], label=1), Document([1], [1], label=0)]
        np.testing.assert_array_equal(
            Corpus(docs=docs, vocab_size=2).labels(), [1, 0]
        )


class TestLoadBow:
    def test_small_file(self, tmp_path):
        path = write(tmp_path / "c.bow", "2 3 3\n1 1 2\n1 3 1\n2 2 5\n")
        corpus = load_bow(path)
        assert corpus.num_docs == 2
        assert corpus.vocab_size == 3
        assert corpus.docs[0].entries == [(0, 2), (2, 1)]
        assert corpus.docs[1].entries == [(1, 5)]
        assert corpus.dropped_docs == 0

    def test_empty_file(self, tmp_path):
        path = write(tmp_path / "c.bow", "")
        with pytest.raises(CorpusFormatError, match="empty bag-of-words") as err:
            load_bow(path)
        assert err.value.line == 1
        assert str(err.value).startswith("line 1:")

    def test_zero_docs_header(self, tmp_path):
        path = write(tmp_path / "c.bow", "0 3 0\n")
        with pytest.raises(CorpusFormatError, match="empty corpus"):
            load_bow(path)

    def test_zero_vocab_header(self, tmp_path):
        path = write(tmp_path / "c.bow", "2 0 0\n")
        with pytest.raises(CorpusFormatError, match="empty corpus"):
            load_bow(path)

    def test_bad_header_field_count(self, tmp_path):
        path = write(tmp_path / "c.bow", "2 3\n")
        with pytest.raises(CorpusFormatError, match="expected 3 fields"):
            load_bow(path)

    def test_non_integer_field(self, tmp_path):
        path = write(tmp_path / "c.bow", "1 3 1\n1 two 1\n")
        with pytest.raises(CorpusFormatError, match="non-integer") as err:
            load_bow(path)
        assert err.value.line == 2

    def test_triple_count_mismatch(self, tmp_path):
        path = write(tmp_path / "c.bow", "1 3 2\n1 1 1\n")
        with pytest.raises(CorpusFormatError, match="declares 2 triples"):
            load_bow(path)

    def test_doc_id_out_of_range(self, tmp_path):
        path = write(tmp_path / "c.bow", "1 3 2\n1 1 1\n2 1 1\n")
        with pytest.raises(CorpusFormatError, match="doc id 2") as err:
            load_bow(path)
        assert err.value.line == 3

    def test_doc_id_zero(self, tmp_path):
        path = write(tmp_path / "c.bow", "1 3 1\n0 1 1\n")
        with pytest.raises(CorpusFormatError, match="doc id 0"):
            load_bow(path)

    def test_word_id_out_of_range(self, tmp_path):
        path = write(tmp_path / "c.bow", "1 3 1\n1 4 1\n")
        with pytest.raises(CorpusFormatError, match="word id 4") as err:
            load_bow(path)
        assert err.value.line == 2

    def test_nonpositive_count(self, tmp_path):
        path = write(tmp_path / "c.bow", "1 3 1\n1 1 0\n")
        with pytest.raises(CorpusFormatError, match="must be positive"):
            load_bow(path)

    def test_descending_doc_ids(self, tmp_path):
        path = write(tmp_path / "c.bow", "2 3 2\n2 1 1\n1 1 1\n")
        with pytest.raises(CorpusFormatError, match="ascend") as err:
            load_bow(path)
        assert err.value.line == 3

    def test_duplicate_word_in_doc(self, tmp_path):
        path = write(tmp_path / "c.bow", "1 3 2\n1 2 1\n1 2 4\n")
        with pytest.raises(CorpusFormatError, match="ascend"):
            load_bow(path)

    def test_empty_docs_dropped_with_warning(self, tmp_path, caplog):
        path = write(tmp_path / "c.bow", "3 2 2\n1 1 1\n3 2 2\n")
        labels = write(tmp_path / "c.labels", "4\n9\n5\n")
        with caplog.at_level(logging.WARNING, logger="mgctm.corpus"):
            corpus = load_bow(path, labels_path=labels)
        assert corpus.num_docs == 2
        assert corpus.dropped_docs == 1
        np.testing.assert_array_equal(corpus.labels(), [4, 5])
        assert any("empty document" in rec.message for rec in caplog.records)

    def test_all_docs_empty(self, tmp_path):
        path = write(tmp_path / "c.bow", "2 3 0\n")
        with pytest.raises(CorpusFormatError, match="every document is empty"):
            load_bow(path)

    def test_vocab_size_mismatch(self, tmp_path):
        path = write(tmp_path / "c.bow", "1 3 1\n1 1 1\n")
        vocab = write(tmp_path / "c.vocab", "a\nb\n")
        with pytest.raises(CorpusFormatError, match="vocabulary file has 2"):
            load_bow(path, vocab_path=vocab)

    def test_labels_length_mismatch(self, tmp_path):
        path = write(tmp_path / "c.bow", "1 3 1\n1 1 1\n")
        labels = write(tmp_path / "c.labels", "0\n1\n")
        with pytest.raises(DimensionError, match="labels file has 2"):
            load_bow(path, labels_path=labels)

    def test_with_vocab_and_labels(self, tmp_path):
        path = write(tmp_path / "c.bow", "2 2 2\n1 1 1\n2 2 3\n")
        vocab = write(tmp_path / "c.vocab", "alpha\nbeta\n")
        labels = write(tmp_path / "c.labels", "1\n0\n")
        corpus = load_bow(path, vocab_path=vocab, labels_path=labels)
        assert corpus.vocab.tokens == ["alpha", "beta"]
        np.testing.assert_array_equal(corpus.labels(), [1, 0])

    def test_blank_lines_ignored(self, tmp_path):
        path = write(tmp_path / "c.bow", "1 3 2\n\n1 1 1\n\n1 2 1\n")
        corpus = load_bow(path)
        assert corpus.docs[0].entries == [(0, 1), (1, 1)]


class TestLoadBowSyntax:
    """What the bulk parse refuses that int() takes, and what it keeps."""

    @pytest.mark.parametrize(
        "load, text, char",
        [
            pytest.param(
                load_bow, "1 2000 2\n1 1 1\n\n1 1_000 1\n", "_", id="underscore"
            ),
            pytest.param(
                load_bow, "1 2000 2\n1 1 1\n\n1 \u0661 1\n", "\u0661", id="arabic-indic-digit"
            ),
            pytest.param(
                load_bow, "1 2000 2\n1 1 1\n\n1\xa01 1\n", "\xa0", id="no-break-space"
            ),
            pytest.param(
                load_bow, "1 2000 2\n1 1 1\n\n1 1 1\x1f\n", "\x1f", id="unit-separator"
            ),
            pytest.param(load_labels, "0\n1\n\n1_000\n", "_", id="underscore-labels"),
            pytest.param(
                load_labels, "0\n1\n\n\u0661\n", "\u0661", id="arabic-indic-digit-labels"
            ),
            pytest.param(load_labels, "0\n1\n\n1\xa0\n", "\xa0", id="no-break-space-labels"),
            pytest.param(load_labels, "0\n1\n\n1\x1f\n", "\x1f", id="unit-separator-labels"),
        ],
    )
    def test_int_syntax_beyond_ascii_refused(self, tmp_path, load, text, char):
        path = write(tmp_path / "c.txt", text)
        with pytest.raises(CorpusFormatError, match="unexpected character") as err:
            load(path)
        assert err.value.line == 4
        assert repr(char) in str(err.value)

    @pytest.mark.parametrize(
        "load, text",
        [
            pytest.param(load_bow, "1 3 1\n1 1 1\n\x0c\n", id="bow"),
            pytest.param(load_labels, "0\n1\n\x0c\n", id="labels"),
        ],
    )
    def test_other_whitespace_in_blank_line_refused(self, tmp_path, load, text):
        path = write(tmp_path / "c.txt", text)
        with pytest.raises(CorpusFormatError, match="unexpected character") as err:
            load(path)
        assert err.value.line == 3

    def test_underscore_in_header_refused(self, tmp_path):
        path = write(tmp_path / "c.bow", "1 1_0 1\n1 1 1\n")
        with pytest.raises(CorpusFormatError, match="unexpected character") as err:
            load_bow(path)
        assert err.value.line == 1

    def test_count_beyond_int64(self, tmp_path):
        path = write(tmp_path / "c.bow", f"1 3 1\n1 1 {2**63}\n")
        with pytest.raises(CorpusFormatError, match="64-bit") as err:
            load_bow(path)
        assert err.value.line == 2

    def test_doc_id_beyond_int64_is_out_of_range(self, tmp_path):
        path = write(tmp_path / "c.bow", f"3 3 2\n1 1 1\n{2**64} 1 1\n")
        with pytest.raises(CorpusFormatError, match=f"doc id {2**64} outside 1..3") as err:
            load_bow(path)
        assert err.value.line == 3

    def test_signs_leading_zeros_crlf_tabs_and_lone_cr(self, tmp_path):
        path = tmp_path / "c.bow"
        path.write_bytes(b"2 3 3\r\n+1\t01 2\r\n \t\r\n1 3 +1\r2\t\t2 005 \r\n")
        corpus = load_bow(str(path))
        assert corpus.docs[0].entries == [(0, 2), (2, 1)]
        assert corpus.docs[1].entries == [(1, 5)]

    def test_no_trailing_newline(self, tmp_path):
        corpus = load_bow(write(tmp_path / "c.bow", "1 3 1\n1 2 4"))
        assert corpus.docs[0].entries == [(1, 4)]

    def test_documents_share_two_arrays(self, tmp_path):
        corpus = load_bow(write(tmp_path / "c.bow", "2 3 3\n1 1 2\n1 3 1\n2 2 5\n"))
        first, second = corpus.docs
        assert first.word_ids.base is second.word_ids.base is not None
        assert first.counts.base is second.counts.base is not None

    def test_huge_declared_doc_count_allocates_nothing_per_document(
        self, tmp_path, caplog
    ):
        path = tmp_path / "c.bow"
        path.write_bytes(b"50000000 3 1\n1 1 1\n")
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with caplog.at_level(logging.WARNING, logger="mgctm.corpus"):
                corpus = load_bow(str(path))
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert corpus.num_docs == 1
        assert corpus.dropped_docs == 49_999_999
        assert len(caplog.records) <= 3
        assert "49999999 empty document(s), doc id(s) 2, 3, 4, 5, 6, ..." in caplog.text
        assert peak < 1 << 20
        assert elapsed < 2.0

    def test_dropped_ids_named_once(self, tmp_path, caplog):
        path = write(tmp_path / "c.bow", "6 2 2\n2 1 1\n5 2 2\n")
        with caplog.at_level(logging.WARNING, logger="mgctm.corpus"):
            corpus = load_bow(path)
        assert corpus.dropped_docs == 4
        assert [rec.getMessage() for rec in caplog.records] == [
            "dropped 4 empty document(s), doc id(s) 1, 3, 4, 6"
        ]


def _mutate_token(tokens, how, num_docs, vocab_size, draw):
    # one token-level change to the fields of one line
    if how == "drop":
        del tokens[draw(st.integers(0, len(tokens) - 1))]
        return tokens
    if how == "add":
        tokens.insert(draw(st.integers(0, len(tokens))), str(draw(st.integers(1, 9))))
        return tokens
    field = draw(st.integers(0, len(tokens) - 1))
    if how == "non-integer":
        tokens[field] = draw(st.sampled_from(["x", "1.5", "1e3", "--1", "+", "-", "1-2", "0x1"]))
    elif how == "zero":
        tokens[field] = draw(st.sampled_from(["0", "-0", "+0", "000"]))
    elif how == "out-of-range":
        limit = (num_docs, vocab_size, 9)[min(field, 2)]
        tokens[field] = str(draw(st.sampled_from([-1, limit + 1, limit + 7])))
    elif how == "beyond-int64":
        # an id: a count beyond int64 is refused here and overflows there
        field = min(field, 1)
        tokens[field] = str(draw(st.sampled_from([2**63, 2**64 + 3, -(2**63) - 1])))
    return tokens


PERTURBATIONS = [
    "none", "drop", "add", "non-integer", "zero", "out-of-range",
    "beyond-int64", "swap", "compensate",
]


def _perturb(lines, num_docs, vocab_size, draw):
    """``lines`` of a bag-of-words file with one drawn perturbation, then
    drawn separators, indentation, blank lines and line ends: the text."""
    split = [ln.split() for ln in lines]
    how = draw(st.sampled_from(PERTURBATIONS))
    two = st.lists(st.integers(1, len(split) - 1), min_size=2, max_size=2, unique=True)
    if how == "swap" and len(split) > 2:
        i, j = draw(two)
        split[i], split[j] = split[j], split[i]
    elif how == "compensate" and len(split) > 2:
        # one line loses a field and another gains one: the token count holds
        i, j = draw(two)
        split[i] = _mutate_token(split[i], "drop", num_docs, vocab_size, draw)
        split[j] = _mutate_token(split[j], "add", num_docs, vocab_size, draw)
    elif how not in ("none", "swap", "compensate"):
        i = draw(st.integers(0, len(split) - 1))
        split[i] = _mutate_token(split[i], how, num_docs, vocab_size, draw)
    seps = st.sampled_from([" ", "\t", "  ", " \t"])
    out = [draw(seps).join(tokens) for tokens in split]
    if draw(st.booleans()):
        out = [draw(st.sampled_from(["", " ", "\t"])) + ln for ln in out]
    for _ in range(draw(st.integers(0, 3))):
        out.insert(draw(st.integers(1, len(out))), draw(st.sampled_from(["", " ", " \t "])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(out) + draw(st.sampled_from([newline, ""]))


def _outcome(load, *args):
    try:
        return load(*args)
    except Exception as exc:
        return exc


class TestLoadBowMatchesReference:
    """``load_bow`` against oracles.reference_load_bow, the per-line parser."""

    @given(
        raw_docs=st.lists(
            st.dictionaries(st.integers(0, 5), st.integers(1, 9), max_size=4),
            min_size=1,
            max_size=6,
        ),
        labeled=st.booleans(),
        data=st.data(),
    )
    def test_same_corpus_or_same_error(self, raw_docs, labeled, data, tmp_path_factory):
        docs = [Document(sorted(m), [m[w] for w in sorted(m)]) for m in raw_docs]
        corpus = Corpus(docs=docs, vocab_size=6)
        folder = tmp_path_factory.mktemp("bow")
        path = folder / "c.bow"
        save_bow(corpus, str(path))
        lines = path.read_text().splitlines()
        path.write_bytes(_perturb(lines, corpus.num_docs, 6, data.draw).encode())
        labels_path = None
        if labeled:
            labels_path = str(folder / "c.labels")
            save_labels(np.arange(corpus.num_docs) % 4, labels_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _outcome(load_bow, str(path), None, labels_path)
        want = _outcome(oracles.reference_load_bow, str(path), labels_path)
        if isinstance(want, Exception):
            assert type(got) is type(want)
            assert str(got) == str(want)
            assert getattr(got, "line", None) == getattr(want, "line", None)
            return
        assert not isinstance(got, Exception), got
        assert (got.num_docs, got.vocab_size, got.dropped_docs) == (
            want.num_docs, want.vocab_size, want.dropped_docs
        )
        for a, b in zip(got.docs, want.docs):
            assert a.word_ids.dtype == b.word_ids.dtype == np.int64
            assert a.counts.dtype == b.counts.dtype == np.int64
            np.testing.assert_array_equal(a.word_ids, b.word_ids)
            np.testing.assert_array_equal(a.counts, b.counts)
            assert a.label == b.label


class TestLabelsFile:
    def test_negative_label_rejected(self, tmp_path):
        path = write(tmp_path / "c.labels", "0\n-1\n")
        with pytest.raises(CorpusFormatError, match="non-negative") as err:
            load_labels(path)
        assert err.value.line == 2

    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.labels"
        save_labels(np.array([3, 0, 2]), str(path))
        np.testing.assert_array_equal(load_labels(str(path)), [3, 0, 2])

    def test_signs_leading_zeros_crlf_tabs_and_lone_cr(self, tmp_path):
        path = tmp_path / "c.labels"
        path.write_bytes(b"+3\r\n \t\r\n\t007 \r0")
        np.testing.assert_array_equal(load_labels(str(path)), [3, 7, 0])

    def test_label_beyond_int64_rejected(self, tmp_path):
        path = write(tmp_path / "c.labels", f"0\n{2**63}\n")
        with pytest.raises(CorpusFormatError, match="64-bit") as err:
            load_labels(path)
        assert err.value.line == 2


class TestVocabFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.vocab"
        save_vocab(Vocabulary(["aa", "bb", "cc"]), str(path))
        assert load_vocab(str(path)).tokens == ["aa", "bb", "cc"]

    def test_accepts_plain_list(self, tmp_path):
        path = tmp_path / "c.vocab"
        save_vocab(["x", "y"], str(path))
        assert load_vocab(str(path)).tokens == ["x", "y"]

    def test_blank_line_before_a_token_is_an_empty_token(self, tmp_path):
        # dropping it would give "beta" on line 3 word id 2
        path = write(tmp_path / "c.vocab", "alpha\n\nbeta\ngamma\n")
        with pytest.raises(CorpusFormatError, match="empty token at word id 2"):
            load_vocab(path)

    def test_blank_lines_after_the_last_token_ignored(self, tmp_path):
        path = write(tmp_path / "c.vocab", "alpha\nbeta\n\n \n")
        assert load_vocab(path).tokens == ["alpha", "beta"]


docs_strategy = st.lists(
    st.dictionaries(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=1, max_value=9),
        min_size=1,
        max_size=6,
    ),
    min_size=1,
    max_size=8,
)


class TestBowRoundTrip:
    @given(raw_docs=docs_strategy)
    def test_save_load_round_trip(self, raw_docs, tmp_path_factory):
        docs = []
        for mapping in raw_docs:
            ids = sorted(mapping)
            docs.append(Document(ids, [mapping[i] for i in ids]))
        corpus = Corpus(docs=docs, vocab_size=6)
        path = tmp_path_factory.mktemp("bow") / "c.bow"
        save_bow(corpus, str(path))
        loaded = load_bow(str(path))
        assert loaded.num_docs == corpus.num_docs
        assert loaded.vocab_size == 6
        for a, b in zip(loaded.docs, corpus.docs):
            assert a.entries == b.entries

    def test_header_layout(self, tmp_path):
        corpus = Corpus(docs=[Document([0, 3], [2, 1])], vocab_size=4)
        path = tmp_path / "c.bow"
        save_bow(corpus, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "1 4 2"
        assert lines[1] == "1 1 2"
        assert lines[2] == "1 4 1"


class TestSaveBowMatchesReference:
    """``save_bow`` writes the bytes of the per-entry reference writer."""

    def assert_same_bytes(self, corpus, tmp_path):
        save_bow(corpus, str(tmp_path / "got.bow"))
        oracles.reference_save_bow(corpus, str(tmp_path / "want.bow"))
        assert (tmp_path / "got.bow").read_bytes() == (tmp_path / "want.bow").read_bytes()

    @pytest.mark.parametrize(
        "entries, vocab_size",
        [
            pytest.param([([2], [3])], 5, id="one-doc"),
            pytest.param([([0, 6], [1, 2]), ([6], [4])], 7, id="word-id-V-1"),
            pytest.param([([0, 2**63 - 1], [1, 2])], 2**63, id="word-id-2**63-1"),
            pytest.param(
                [([0, 1, 2, 3], [2**31, 2**31 + 7, 2**53 + 1, 2**63 - 1])],
                4,
                id="counts-above-2**31",
            ),
            # an empty document writes no triple but keeps the later ids
            pytest.param([([1, 3], [2, 1]), ([], []), ([0], [5])], 4, id="empty-doc"),
        ],
    )
    def test_small_corpora(self, entries, vocab_size, tmp_path):
        docs = [Document(ids, counts) for ids, counts in entries]
        self.assert_same_bytes(Corpus(docs, vocab_size), tmp_path)

    @pytest.mark.parametrize("rows", [corpus_mod.SAVE_BOW_ROWS, 7])
    def test_sampled_corpus(self, recovery_corpus, rows, monkeypatch, tmp_path):
        monkeypatch.setattr(corpus_mod, "SAVE_BOW_ROWS", rows)
        self.assert_same_bytes(recovery_corpus, tmp_path)


class TestCountMatrix:
    def test_dense_counts(self):
        corpus = Corpus(
            docs=[Document([0, 2], [2, 1]), Document([1], [4])], vocab_size=3
        )
        np.testing.assert_array_equal(
            count_matrix(corpus), [[2.0, 0.0, 1.0], [0.0, 4.0, 0.0]]
        )


class TestTfidf:
    def test_hand_computed_weights(self):
        # doc0 holds only word 1, doc1 only word 0; each term appears in
        # one of two documents, so idf is ln 2 and tf is 1.
        corpus = Corpus(
            docs=[Document([1], [1]), Document([0], [1])], vocab_size=2
        )
        weights = tfidf_vectors(corpus)
        ln2 = math.log(2.0)
        np.testing.assert_allclose(weights, [[0.0, ln2], [ln2, 0.0]], atol=1e-15)

    def test_everywhere_terms_get_zero(self):
        corpus = Corpus(
            docs=[Document([0, 1], [1, 1]), Document([0], [3])], vocab_size=2
        )
        weights = tfidf_vectors(corpus)
        assert weights[0, 0] == 0.0
        assert weights[1, 0] == 0.0
        assert math.isclose(weights[0, 1], 0.5 * math.log(2.0))

    def test_single_doc_corpus_is_all_zero_with_warning(self, caplog):
        corpus = Corpus(docs=[Document([0, 1], [1, 2])], vocab_size=3)
        with caplog.at_level(logging.WARNING, logger="mgctm.corpus"):
            weights = tfidf_vectors(corpus)
        assert (weights == 0).all()
        assert any("all-zero" in rec.message for rec in caplog.records)

    def test_empty_document_gets_a_zero_row(self, caplog):
        # Corpus allows an empty document; its row was 0 / 0 = NaN, and
        # kmeans on the matrix then failed
        corpus = Corpus(
            docs=[Document([0, 1], [1, 2]), Document([], []), Document([2], [4])],
            vocab_size=3,
        )
        with caplog.at_level(logging.WARNING, logger="mgctm.corpus"):
            weights = tfidf_vectors(corpus)
        assert np.isfinite(weights).all()
        assert (weights[1] == 0).all()
        assert (weights[[0, 2]].sum(axis=1) > 0).all()
        assert any("1 document(s)" in rec.message for rec in caplog.records)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="non-empty corpus"):
            tfidf_vectors(Corpus(docs=[], vocab_size=3))

    def test_unused_terms_cause_no_errors(self):
        corpus = Corpus(
            docs=[Document([0], [1]), Document([2], [1])], vocab_size=4
        )
        weights = tfidf_vectors(corpus)
        assert np.isfinite(weights).all()
        assert weights[:, 1].sum() == 0.0
        assert weights[:, 3].sum() == 0.0
