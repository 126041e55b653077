"""Corpus ingestion, vocabulary handling, and document vector representations.

File formats
------------
Bag-of-words file: the first line is ``D V NNZ`` (documents, vocabulary
size, number of nonzero triples). Each of the following NNZ lines is
``doc_id word_id count`` with 1-based ids, sorted ascending by doc_id
and then word_id, and strictly positive counts. Fields are ASCII
decimal integers (an optional sign, then digits) separated by spaces or
tabs; lines end in LF, CRLF or CR, and lines of spaces and tabs only
are skipped.

``load_bow`` parses the triples in bulk: one ``np.loadtxt`` call over
the text after the header, range and order checks on its columns, and
documents cut where the doc id changes, as slices of one word-id array
and one count array. Memory follows the triples, not the header's D.
Only a file that fails is checked again line by line, to name its first
bad line with that line's error.

Vocabulary file: one token per line; line i (1-based) is the token with
word id i. Blank lines may follow the last token, but not precede it.

Labels file: one non-negative integer per line, with the bag-of-words
field and blank-line rules; line d is the ground-truth category of
document d (referring to documents in their original file order,
before any empty documents are dropped).
"""

import io
import logging
import os
import secrets
from dataclasses import dataclass, field

import numpy as np

from .errors import CorpusFormatError, DimensionError

logger = logging.getLogger(__name__)

# Cells in one chunk of every chunked pass: floats of an E-step batch's
# topic blocks, tokens of a ``model.sample_corpus`` block, triples of a
# ``save_bow`` call, entries of a dense scan in ``baselines.kmeans``.
# Other modules read it as ``corpus_mod.CHUNK_CELLS`` at call time, so
# that one assignment sets them all.
CHUNK_CELLS = 1 << 16

# The characters of a bag-of-words line; the file adds line breaks.
_LINE_CHARS = "0123456789+- \t"
_PLAIN_CHARS = frozenset(_LINE_CHARS)
_PLAIN_BYTES = (_LINE_CHARS + "\n").encode()
_INT64_MAX = np.iinfo(np.int64).max
# Empty document ids the dropped-documents warning names.
_MISSING_SHOWN = 5


def _create_temp(directory):
    # Like tempfile.mkstemp, but with mode 0o666 as open() uses: the
    # kernel applies the process umask at creation, so no thread has to
    # read or change the umask.
    while True:
        tmp = os.path.join(directory, f"tmp{secrets.token_hex(8)}.tmp")
        try:
            return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp
        except FileExistsError:
            continue


def atomic_write_text(path, text):
    """Write text through a temp file and rename, so readers never see
    a partially written file. The file gets the mode open() would give
    it (0o666 less the umask)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = _create_temp(directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass
class Vocabulary:
    """Ordered list of distinct terms with a term -> id lookup."""

    tokens: list[str]
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
        self.index = {}
        for i, tok in enumerate(self.tokens):
            if not tok:
                raise CorpusFormatError(f"empty token at word id {i + 1}")
            if tok in self.index:
                raise CorpusFormatError(f"duplicate token {tok!r} at word id {i + 1}")
            self.index[tok] = i

    def __len__(self):
        return len(self.tokens)


@dataclass
class Document:
    """Sparse word counts for one document.

    word_ids are strictly increasing 0-based ids; counts are strictly
    positive and aligned with word_ids; length is the total token count.
    """

    word_ids: np.ndarray
    counts: np.ndarray
    label: int | None = None

    def __post_init__(self):
        self.word_ids = np.asarray(self.word_ids, dtype=np.int64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        # the neighbour check below reads a 1-D array
        if self.word_ids.ndim != 1 or self.word_ids.shape != self.counts.shape:
            raise DimensionError("word_ids and counts must be aligned 1-D arrays")
        if (self.counts <= 0).any():
            raise ValueError("counts must be strictly positive")
        # neighbours compared, not subtracted: an int64 difference can wrap
        if (self.word_ids[1:] <= self.word_ids[:-1]).any():
            raise ValueError("word_ids must be strictly increasing")

    @classmethod
    def _checked(cls, word_ids, counts, label):
        # int64 arrays already known to meet the invariants, kept as given
        doc = cls.__new__(cls)
        doc.word_ids, doc.counts, doc.label = word_ids, counts, label
        return doc

    @property
    def length(self):
        """Total token count N_d."""
        return int(self.counts.sum())

    @property
    def entries(self):
        """List of (word_id, count) pairs."""
        return list(zip(self.word_ids.tolist(), self.counts.tolist()))


@dataclass
class Corpus:
    """Immutable collection of documents over a fixed vocabulary.

    Every word id must lie in [0, vocab_size); ``ValueError`` otherwise.
    ``dropped_docs`` records how many empty documents were discarded
    at load time; it is metadata, not part of the corpus proper.
    """

    docs: list[Document]
    vocab_size: int
    vocab: Vocabulary | None = None
    dropped_docs: int = 0

    def __post_init__(self):
        # ids strictly increase, so each document's first and last bound them
        for d, doc in enumerate(self.docs):
            if doc.word_ids.size and doc.word_ids[0] < 0:
                raise ValueError(
                    f"document {d} references word id {int(doc.word_ids[0])} < 0"
                )
            if doc.word_ids.size and doc.word_ids[-1] >= self.vocab_size:
                raise ValueError(
                    f"document {d} references word id {int(doc.word_ids[-1])} "
                    f">= vocab_size {self.vocab_size}"
                )

    @property
    def num_docs(self):
        return len(self.docs)

    def labels(self):
        """Ground-truth label array, or None if any document is unlabeled."""
        if any(doc.label is None for doc in self.docs):
            return None
        return np.array([doc.label for doc in self.docs], dtype=np.int64)


def flat_docs(docs):
    """Documents in CSR form: ``(doc_ptr, words, counts)``.

    Document i's distinct terms are entries doc_ptr[i]:doc_ptr[i + 1] of
    ``words`` and ``counts``; counts come as floats. An empty list gives
    doc_ptr [0] and empty arrays.
    """
    doc_ptr = np.zeros(len(docs) + 1, dtype=np.int64)
    np.cumsum([doc.word_ids.size for doc in docs], out=doc_ptr[1:])
    empty = np.empty(0, dtype=np.int64)
    words = np.concatenate([empty] + [doc.word_ids for doc in docs])
    counts = np.concatenate([empty] + [doc.counts for doc in docs]).astype(float)
    return doc_ptr, words, counts


def _segsum(rows, bounds):
    """Per-document sums of row quantities, documents laid end to end.

    The rows of document i are entries bounds[i]:bounds[i + 1] of the
    last axis; a document with no rows sums to 0.
    """
    out = np.zeros(rows.shape[:-1] + (bounds.size - 1,))
    # reduceat needs strictly increasing starts below the row count,
    # so only documents with rows get a segment
    nonempty = bounds[:-1] < bounds[1:]
    out[..., nonempty] = np.add.reduceat(rows, bounds[:-1][nonempty], axis=-1)
    return out


def _parse_int_fields(line, n_fields, lineno, what):
    # ``line`` without its line end; int() also takes underscores,
    # non-ASCII digits and other whitespace, which _check_plain refuses
    parts = line.split()
    if len(parts) != n_fields:
        raise CorpusFormatError(
            f"expected {n_fields} fields for {what}, got {len(parts)}", line=lineno
        )
    try:
        values = [int(p) for p in parts]
    except ValueError as exc:
        raise CorpusFormatError(f"non-integer field in {what}: {exc}", line=lineno)
    _check_plain(line, lineno)
    return values


def load_vocab(vocab_path):
    """Read a vocabulary file (one token per line).

    Blank lines after the last token are ignored; one before it is an
    empty token, which ``Vocabulary`` refuses.
    """
    with open(vocab_path, encoding="utf-8") as fh:
        tokens = [line.strip() for line in fh]
    while tokens and not tokens[-1]:
        tokens.pop()
    return Vocabulary(tokens)


def load_labels(labels_path):
    """Read a labels file (one non-negative integer per line).

    Fields and blank lines follow the bag-of-words rules.
    """
    labels = []
    with open(labels_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.removesuffix("\n")
            if not line.strip():
                _check_plain(line, lineno)
                continue
            (lab,) = _parse_int_fields(line, 1, lineno, "label")
            if lab < 0:
                raise CorpusFormatError("labels must be non-negative", line=lineno)
            if lab > _INT64_MAX:
                raise CorpusFormatError(
                    f"label {lab} does not fit in a signed 64-bit integer", line=lineno
                )
            labels.append(lab)
    return np.array(labels, dtype=np.int64)


def _check_plain(line, lineno):
    bad = set(line) - _PLAIN_CHARS
    if bad:
        raise CorpusFormatError(
            f"unexpected character {min(bad, key=line.index)!r}: fields are "
            "ASCII decimal integers separated by spaces or tabs",
            line=lineno,
        )


def _parse_header(line):
    num_docs, vocab_size, nnz = _parse_int_fields(line, 3, 1, "header")
    if num_docs < 1 or vocab_size < 1:
        raise CorpusFormatError(
            f"empty corpus: header declares D={num_docs}, V={vocab_size}", line=1
        )
    return num_docs, vocab_size, nnz


def _bulk_triples(body, num_docs, vocab_size, nnz):
    """The (nnz, 3) int64 triples of ``body`` if it passes every check, else None."""
    if not body or body.isspace():
        table = np.empty((0, 3), dtype=np.int64)
    else:
        try:
            table = np.loadtxt(
                io.BytesIO(body), dtype=np.int64, comments=None, ndmin=2
            )
        except ValueError:  # a malformed field, a ragged line or int64 overflow
            return None
    if table.shape != (nnz, 3):
        return None
    doc, word, count = table.T
    # neighbours compared, not subtracted, as in Document
    ok = (
        (doc >= 1).all()
        and (doc <= num_docs).all()
        and (word >= 1).all()
        and (word <= vocab_size).all()
        and (count >= 1).all()
        and not (doc[1:] < doc[:-1]).any()
        and not ((doc[1:] == doc[:-1]) & (word[1:] <= word[:-1])).any()
    )
    return table if ok else None


def _raise_first_bad_line(data):
    """Raise the error of the first bad line of a refused bag-of-words file.

    The checks run line by line in file order, so the error and its line
    are those of a per-line parser.
    """
    if not data:
        raise CorpusFormatError("empty bag-of-words file", line=1)
    lines = data.decode("utf-8").split("\n")
    num_docs, vocab_size, nnz = _parse_header(lines[0])
    filled = sum(1 for line in lines[1:] if line.strip())
    if filled != nnz:
        raise CorpusFormatError(
            f"header declares {nnz} triples but file has {filled}", line=1
        )
    prev_doc, prev_word = 0, 0
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            _check_plain(line, lineno)
            continue
        doc_id, word_id, count = _parse_int_fields(line, 3, lineno, "triple")
        if not 1 <= doc_id <= num_docs:
            raise CorpusFormatError(
                f"doc id {doc_id} outside 1..{num_docs}", line=lineno
            )
        if not 1 <= word_id <= vocab_size:
            raise CorpusFormatError(
                f"word id {word_id} outside 1..{vocab_size}", line=lineno
            )
        if count <= 0:
            raise CorpusFormatError(f"count {count} must be positive", line=lineno)
        for name, value in (("doc id", doc_id), ("word id", word_id), ("count", count)):
            if value > _INT64_MAX:
                raise CorpusFormatError(
                    f"{name} {value} does not fit in a signed 64-bit integer",
                    line=lineno,
                )
        if doc_id < prev_doc or (doc_id == prev_doc and word_id <= prev_word):
            raise CorpusFormatError(
                "triples must ascend by doc id then word id", line=lineno
            )
        prev_doc, prev_word = doc_id, word_id
    raise AssertionError("the line checks accept a file the bulk parse refused")


def _read_triples(bow_path):
    """``(D, V, triples)`` of a bag-of-words file, triples (NNZ, 3) int64."""
    with open(bow_path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:  # universal newlines, as a text-mode read gives
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if data and not data.translate(None, _PLAIN_BYTES):
        header, _, body = data.partition(b"\n")
        num_docs, vocab_size, nnz = _parse_header(header.decode("ascii"))
        table = _bulk_triples(body, num_docs, vocab_size, nnz)
        if table is not None:
            return num_docs, vocab_size, table
    _raise_first_bad_line(data)


def load_bow(bow_path, vocab_path=None, labels_path=None):
    """Load a sparse bag-of-words corpus.

    Args:
        bow_path: bag-of-words file in the header + triples format.
        vocab_path: optional vocabulary file; its size must match the
            header's V.
        labels_path: optional labels file; one integer per original
            document.

    Returns:
        Corpus with invariants established. Empty documents (ids that
        never appear in a triple) are dropped with one warning and
        counted in ``Corpus.dropped_docs``; their labels are dropped
        with them. Each document's arrays are views of two arrays
        shared by the corpus.

    Raises:
        CorpusFormatError: malformed lines, out-of-range ids, ordering
            violations, or an empty corpus. Messages name the offending
            1-based line.
    """
    num_docs, vocab_size, table = _read_triples(bow_path)

    vocab = None
    if vocab_path is not None:
        vocab = load_vocab(vocab_path)
        if len(vocab) != vocab_size:
            raise CorpusFormatError(
                f"vocabulary file has {len(vocab)} tokens, header declares {vocab_size}"
            )

    labels = None
    if labels_path is not None:
        labels = load_labels(labels_path)
        if len(labels) != num_docs:
            raise DimensionError(
                f"labels file has {len(labels)} entries for {num_docs} documents"
            )

    if not table.size:
        raise CorpusFormatError("empty corpus: every document is empty")
    doc_ids = table[:, 0]
    # documents start where the doc id changes
    bounds = np.concatenate(
        [[0], np.flatnonzero(doc_ids[1:] != doc_ids[:-1]) + 1, [len(table)]]
    )
    present = doc_ids[bounds[:-1]]
    dropped = num_docs - present.size
    if dropped:
        # the first few absent ids lie within the first len(present) + few
        first = np.arange(1, min(num_docs, present.size + _MISSING_SHOWN) + 1)
        missing = first[~np.isin(first, present)][:_MISSING_SHOWN].tolist()
        logger.warning(
            "dropped %d empty document(s), doc id(s) %s%s",
            dropped,
            ", ".join(map(str, missing)),
            ", ..." if dropped > len(missing) else "",
        )
    word_ids = table[:, 1] - 1
    counts = table[:, 2].copy()
    doc_labels = [None] * present.size if labels is None else labels[present - 1].tolist()
    cuts = bounds.tolist()
    docs = [
        Document._checked(word_ids[a:b], counts[a:b], label)
        for a, b, label in zip(cuts[:-1], cuts[1:], doc_labels)
    ]
    return Corpus(docs=docs, vocab_size=vocab_size, vocab=vocab, dropped_docs=dropped)


def save_bow(corpus, path):
    """Write a corpus back to the sparse bag-of-words format.

    The triples are formatted CHUNK_CELLS at a time, so the Python
    integers that formatting needs stay few beside the text.
    """
    docs = corpus.docs
    sizes = [doc.word_ids.size for doc in docs]
    # unsigned: a word id of 2**63 - 1 is written as 2**63
    table = np.empty((sum(sizes), 3), dtype=np.uint64)
    table[:, 0] = np.repeat(np.arange(1, len(docs) + 1), sizes)
    if docs:
        table[:, 1] = np.concatenate([doc.word_ids for doc in docs])
        table[:, 2] = np.concatenate([doc.counts for doc in docs])
    table[:, 1] += 1
    text = [f"{corpus.num_docs} {corpus.vocab_size} {len(table)}\n"]
    for start in range(0, len(table), CHUNK_CELLS):
        rows = table[start:start + CHUNK_CELLS]
        text.append(("%d %d %d\n" * len(rows)) % tuple(rows.ravel().tolist()))
    atomic_write_text(path, "".join(text))


def save_vocab(vocab, path):
    """Write a vocabulary, one token per line in word-id order."""
    tokens = vocab.tokens if isinstance(vocab, Vocabulary) else list(vocab)
    atomic_write_text(path, "\n".join(tokens) + "\n")


def save_labels(labels, path):
    """Write ground-truth labels, one integer per line in document order."""
    atomic_write_text(path, "\n".join(str(int(x)) for x in labels) + "\n")


def count_matrix(corpus):
    """Dense D x V matrix of raw word counts."""
    mat = np.zeros((corpus.num_docs, corpus.vocab_size))
    for d, doc in enumerate(corpus.docs):
        mat[d, doc.word_ids] = doc.counts
    return mat


def tfidf_csr(corpus):
    """D x V tf-idf weights as a ``scipy.sparse`` CSR array.

    tf is the raw count divided by document length; idf is ln(D / df_v)
    where df_v counts the documents containing term v. Terms appearing
    in every document (and unused terms) get weight zero, and so does
    every term of an empty document. Zero weights are not stored, so the
    array is the one ``csr_array`` makes of the dense matrix. Rows that
    end up all-zero are allowed but warned about.
    """
    # imported here: scipy.sparse adds ~18 ms to every process start
    from scipy.sparse import csr_array

    if corpus.num_docs < 1:
        raise ValueError("tf-idf requires a non-empty corpus")
    doc_ptr, words, counts = flat_docs(corpus.docs)
    # a term appears at most once per document
    df = np.bincount(words, minlength=corpus.vocab_size)
    idf = np.zeros(corpus.vocab_size)
    seen = df > 0
    idf[seen] = np.log(corpus.num_docs / df[seen])
    seg = np.repeat(np.arange(corpus.num_docs), np.diff(doc_ptr))
    lengths = np.bincount(seg, weights=counts, minlength=corpus.num_docs)
    flat = counts / lengths[seg] * idf[words]
    # weights are nonnegative, so a row is all zero exactly when it sums to 0
    zero_rows = int((_segsum(flat, doc_ptr) == 0).sum())
    if zero_rows:
        logger.warning("%d document(s) have an all-zero tf-idf row", zero_rows)
    weights = csr_array(
        (flat, words, doc_ptr), shape=(corpus.num_docs, corpus.vocab_size)
    )
    weights.eliminate_zeros()
    return weights


def tfidf_vectors(corpus):
    """Dense D x V tf-idf matrix: ``tfidf_csr(corpus).toarray()``."""
    return tfidf_csr(corpus).toarray()
