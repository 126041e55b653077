"""Corpus ingestion, vocabulary handling, and document vector representations.

File formats
------------
Bag-of-words file: the first line is ``D V NNZ`` (documents, vocabulary
size, number of nonzero triples). Each of the following NNZ lines is
``doc_id word_id count`` with 1-based ids, sorted ascending by doc_id
and then word_id, and strictly positive counts.

Vocabulary file: one token per line; line i (1-based) is the token with
word id i.

Labels file: one integer per line; line d is the ground-truth category
of document d (referring to documents in their original file order,
before any empty documents are dropped).
"""

import logging
import os
import secrets
from dataclasses import dataclass, field

import numpy as np

from .errors import CorpusFormatError, DimensionError

logger = logging.getLogger(__name__)

# Triples ``save_bow`` formats in one call; see its docstring.
SAVE_BOW_ROWS = 1 << 16


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
    parts = line.split()
    if len(parts) != n_fields:
        raise CorpusFormatError(
            f"expected {n_fields} fields for {what}, got {len(parts)}", line=lineno
        )
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise CorpusFormatError(f"non-integer field in {what}: {exc}", line=lineno)


def load_vocab(vocab_path):
    """Read a vocabulary file (one token per line)."""
    with open(vocab_path, encoding="utf-8") as fh:
        tokens = [line.strip() for line in fh if line.strip()]
    return Vocabulary(tokens)


def load_labels(labels_path):
    """Read a labels file (one non-negative integer per line)."""
    labels = []
    with open(labels_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            (lab,) = _parse_int_fields(line, 1, lineno, "label")
            if lab < 0:
                raise CorpusFormatError("labels must be non-negative", line=lineno)
            labels.append(lab)
    return np.array(labels, dtype=np.int64)


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
        never appear in a triple) are dropped with a warning and counted
        in ``Corpus.dropped_docs``; their labels are dropped with them.

    Raises:
        CorpusFormatError: malformed lines, out-of-range ids, ordering
            violations, or an empty corpus. Messages name the offending
            1-based line.
    """
    with open(bow_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise CorpusFormatError("empty bag-of-words file", line=1)

    num_docs, vocab_size, nnz = _parse_int_fields(lines[0], 3, 1, "header")
    if num_docs < 1 or vocab_size < 1:
        raise CorpusFormatError(
            f"empty corpus: header declares D={num_docs}, V={vocab_size}", line=1
        )

    body = [(i + 2, ln) for i, ln in enumerate(lines[1:]) if ln.strip()]
    if len(body) != nnz:
        raise CorpusFormatError(
            f"header declares {nnz} triples but file has {len(body)}", line=1
        )

    per_doc_ids = [[] for _ in range(num_docs)]
    per_doc_counts = [[] for _ in range(num_docs)]
    prev_doc, prev_word = 0, 0
    for lineno, line in body:
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
        if doc_id < prev_doc or (doc_id == prev_doc and word_id <= prev_word):
            raise CorpusFormatError(
                "triples must ascend by doc id then word id", line=lineno
            )
        prev_doc, prev_word = doc_id, word_id
        per_doc_ids[doc_id - 1].append(word_id - 1)
        per_doc_counts[doc_id - 1].append(count)

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

    docs = []
    dropped = 0
    for d in range(num_docs):
        if not per_doc_ids[d]:
            dropped += 1
            logger.warning("dropping empty document %d", d + 1)
            continue
        label = int(labels[d]) if labels is not None else None
        docs.append(Document(per_doc_ids[d], per_doc_counts[d], label=label))
    if not docs:
        raise CorpusFormatError("empty corpus: every document is empty")
    if dropped:
        logger.warning("dropped %d empty document(s)", dropped)

    return Corpus(docs=docs, vocab_size=vocab_size, vocab=vocab, dropped_docs=dropped)


def save_bow(corpus, path):
    """Write a corpus back to the sparse bag-of-words format.

    The triples are formatted SAVE_BOW_ROWS at a time, so the Python
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
    for start in range(0, len(table), SAVE_BOW_ROWS):
        rows = table[start:start + SAVE_BOW_ROWS]
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


def tfidf_vectors(corpus):
    """Dense D x V tf-idf matrix.

    tf is the raw count divided by document length; idf is ln(D / df_v)
    where df_v counts the documents containing term v. Terms appearing
    in every document (and unused terms) get weight zero, and so does
    every term of an empty document. Rows that end up all-zero are
    allowed but warned about.
    """
    if corpus.num_docs < 1:
        raise ValueError("tfidf_vectors requires a non-empty corpus")
    doc_ptr, words, counts = flat_docs(corpus.docs)
    # a term appears at most once per document
    df = np.bincount(words, minlength=corpus.vocab_size)
    idf = np.zeros(corpus.vocab_size)
    seen = df > 0
    idf[seen] = np.log(corpus.num_docs / df[seen])
    seg = np.repeat(np.arange(corpus.num_docs), np.diff(doc_ptr))
    lengths = np.bincount(seg, weights=counts, minlength=corpus.num_docs)
    flat = counts / lengths[seg] * idf[words]
    weights = np.zeros((corpus.num_docs, corpus.vocab_size))
    weights[seg, words] = flat
    # weights are nonnegative, so a row is all zero exactly when it sums to 0
    zero_rows = int((_segsum(flat, doc_ptr) == 0).sum())
    if zero_rows:
        logger.warning("%d document(s) have an all-zero tf-idf row", zero_rows)
    return weights
