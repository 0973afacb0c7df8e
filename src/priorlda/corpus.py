"""Indexed bag-of-words corpora and the corpus statistics everything else consumes."""

from __future__ import annotations

import json
from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import _kernels

CORPUS_FORMAT_VERSION = 1


class AllDocumentsEmpty(ValueError):
    """Raised when every document tokenizes to nothing after word removal."""


def check_version(data: dict, expected: int, what: str) -> None:
    """Raise ValueError unless ``data`` is version ``expected`` of the ``what`` format."""
    if not isinstance(data, dict):
        raise ValueError(f"a {what} file must hold a JSON object, not {type(data).__name__}")
    found = data.get("version")
    if type(found) is not int or found != expected:  # true and 1.0 equal 1
        raise ValueError(f"unsupported {what} format version: expected {expected}, found {found!r}")


def tokenize(raw_text: str, lowercase: bool = True) -> list[str]:
    """Split on whitespace runs; punctuation stays attached to its token."""
    text = raw_text.lower() if lowercase else raw_text
    return text.split()


class Vocabulary:
    """Dense word <-> id mapping. Ids follow first occurrence order, 0..V-1."""

    def __init__(self, words: Sequence[str]):
        self.id_to_word: list[str] = list(words)
        for w in self.id_to_word:
            if not isinstance(w, str) or not w or w != w.strip() or any(ch.isspace() for ch in w):
                raise ValueError(f"invalid vocabulary token: {w!r}")
        self.word_to_id: dict[str, int] = {w: i for i, w in enumerate(self.id_to_word)}
        if len(self.word_to_id) != len(self.id_to_word):
            raise ValueError("vocabulary contains duplicate words")

    @property
    def size(self) -> int:
        return len(self.id_to_word)

    def __contains__(self, word: str) -> bool:
        return word in self.word_to_id

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self.id_to_word == other.id_to_word

    def ids(self, words: Iterable[str]) -> list[int]:
        """Map words to ids, silently dropping out-of-vocabulary words."""
        return [self.word_to_id[w] for w in words if w in self.word_to_id]


class Corpus:
    """Documents as token-id sequences over a shared dense vocabulary.

    The tokens are held once, as one read-only int32 stream ``tokens``:
    document d is ``tokens[offsets[d]:offsets[d + 1]]``, ``doc_ix`` gives
    each token's document, and ``documents`` are read-only views of the
    stream. Token order within documents is preserved. Empty documents are
    allowed; they simply contribute no tokens. Every vocabulary word is
    guaranteed to occur in at least one document. The constructor flattens
    its documents into the stream that ``build_corpus`` and word deletion
    hand over whole (``_from_stream``); both go through one check, ``_hold``.
    """

    def __init__(self, documents: Sequence[Sequence[int]], vocabulary: Vocabulary,
                 doc_ids: Sequence[str] | None = None):
        flat, offsets = array("q"), array("q", [0])
        for doc in documents:  # one stream, as build_corpus fills it: no array per document stays
            flat.frombytes(_id_array(doc).astype(np.int64).tobytes())  # checked before the cast
            offsets.append(len(flat))
        self._hold(np.frombuffer(flat, np.int64), np.frombuffer(offsets, np.int64),
                   vocabulary, doc_ids)

    def _hold(self, flat: np.ndarray, offsets: np.ndarray, vocabulary: Vocabulary,
              doc_ids: Sequence[str] | None):
        """Hold ids ``flat`` cut at int64 ``offsets``: each a word's, each word used."""
        self.vocabulary = v = vocabulary
        if flat.size and (flat.min() < 0 or flat.max() >= v.size):
            raise ValueError("token id outside vocabulary range")
        unused = np.flatnonzero(np.bincount(flat, minlength=v.size) == 0)
        if unused.size:
            raise ValueError(f"vocabulary word never used: {v.id_to_word[unused[0]]!r}")
        self.tokens = _frozen(flat.astype(np.int32, copy=False))
        self.offsets = _frozen(offsets)
        self.doc_ix = _frozen(np.repeat(np.arange(len(offsets) - 1, dtype=np.int32),
                                        np.diff(offsets)))
        bounds = self.offsets.tolist()
        self.documents = [self.tokens[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        self.doc_ids = list(doc_ids) if doc_ids is not None else None
        if self.doc_ids is not None:
            if len(self.doc_ids) != len(self.documents):
                raise ValueError("doc_ids length does not match document count")
            # per-document sampler streams are keyed by each id's UTF-8 bytes: only
            # a str has them, and a repeat would give two documents one stream
            seen: set[str] = set()
            for doc_id in self.doc_ids:
                if not isinstance(doc_id, str):
                    raise ValueError(f"document ids must be strings, not {doc_id!r}")
                if doc_id in seen:
                    raise ValueError(f"duplicate document id: {doc_id!r}")
                seen.add(doc_id)

    @property
    def n_docs(self) -> int:
        return len(self.documents)

    @property
    def n_tokens(self) -> int:
        return self.tokens.size

    def to_json(self) -> dict:
        data = {
            "version": CORPUS_FORMAT_VERSION,
            "vocabulary": self.vocabulary.id_to_word,
            "documents": [doc.tolist() for doc in self.documents],
        }
        if self.doc_ids is not None:
            data["doc_ids"] = self.doc_ids
        return data

    @classmethod
    def from_json(cls, data: dict) -> "Corpus":
        check_version(data, CORPUS_FORMAT_VERSION, "corpus")
        return cls(data["documents"], Vocabulary(data["vocabulary"]), data.get("doc_ids"))


def _id_array(doc) -> np.ndarray:
    """One document's token ids as an integer array; ValueError otherwise.

    A float, bool or string id would be cast to a wrong word, and numpy
    reads a bool among ints as 0 or 1, so a plain sequence is checked id by
    id. An empty [] comes out float64 and is allowed.
    """
    arr = np.asarray(doc)
    if (arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu")
            or (not isinstance(doc, np.ndarray)
                and any(isinstance(t, (bool, np.bool_)) for t in doc))):
        raise ValueError("each document must be a sequence of integer token ids")
    return arr


def build_corpus(raw_docs: Iterable[str], lowercase: bool = True,
                 doc_ids: Sequence[str] | None = None) -> Corpus:
    """Tokenize raw documents, drawn from any iterable, and index each in turn
    into one id stream, ids in first-occurrence order: at most one document's
    token strings are alive. Raises AllDocumentsEmpty when no document has a token."""
    word_to_id: dict[str, int] = {}
    tokens, offsets = array("i"), array("q", [0])
    for doc in raw_docs:
        tokens.extend([word_to_id.setdefault(w, len(word_to_id)) for w in tokenize(doc, lowercase)])
        offsets.append(len(tokens))
    return _from_stream(np.frombuffer(tokens, np.intc), np.frombuffer(offsets, np.int64),
                        list(word_to_id), doc_ids)


def _from_stream(tokens: np.ndarray, offsets: np.ndarray, words: list[str],
                 doc_ids: Sequence[str] | None) -> Corpus:
    """The corpus of id stream ``tokens`` cut at int64 ``offsets``."""
    if not tokens.size:
        raise AllDocumentsEmpty("no tokens remain in any document")
    corpus = Corpus.__new__(Corpus)
    corpus._hold(tokens, offsets, Vocabulary(words), doc_ids)
    return corpus


@dataclass(frozen=True, eq=False)
class CorpusStats:
    """Per-word corpus statistics, immutable once computed.

    word_freq  empirical corpus probability of each word (token share)
    doc_freq   number of documents each word appears in
    avg_tfidf  mean over containing documents of TF(w,d) * ln(n_docs / doc_freq(w))
    doc_index  one int64 array of each word's doc_freq documents, ascending, word after word
    """

    vocabulary: Vocabulary
    word_freq: np.ndarray
    doc_freq: np.ndarray
    avg_tfidf: np.ndarray
    doc_index: np.ndarray
    n_docs: int
    n_tokens: int

    def to_json(self) -> dict:
        return {
            "version": CORPUS_FORMAT_VERSION,
            "vocabulary": self.vocabulary.id_to_word,
            "word_freq": self.word_freq.tolist(),
            "doc_freq": self.doc_freq.tolist(),
            "avg_tfidf": self.avg_tfidf.tolist(),
            "doc_index": [r.tolist() for r in np.split(self.doc_index, self.doc_freq.cumsum())[:-1]],
            "n_docs": self.n_docs,
            "n_tokens": self.n_tokens,
        }


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def compute_stats(corpus: Corpus) -> CorpusStats:
    """Tabulate word frequencies, document frequencies, average TF-IDF, and
    the per-word document index.

    TF(w,d) is count/len within a document; IDF uses the natural log. The
    average runs over only the documents that contain the word, so a word
    present in every document has avg_tfidf exactly 0. Everything is read
    from the corpus's flat token stream through its (document, word) cells;
    each word's TF terms are summed in document order.
    """
    v = corpus.vocabulary.size
    n_docs = corpus.n_docs
    # one cell per distinct (document, word) pair, sorted by document first
    cells, per_cell = np.unique(corpus.doc_ix.astype(np.int64) * v + corpus.tokens,
                                return_counts=True)
    cell_doc, cell_word = np.divmod(cells, v)
    counts = np.bincount(corpus.tokens, minlength=v)
    doc_freq = np.bincount(cell_word, minlength=v)
    tf_sum = np.zeros(v, dtype=np.float64)
    np.add.at(tf_sum, cell_word, per_cell / np.diff(corpus.offsets)[cell_doc])
    word_freq = counts / corpus.n_tokens
    avg_tfidf = (tf_sum / doc_freq) * np.log(n_docs / doc_freq)
    return CorpusStats(
        vocabulary=corpus.vocabulary,
        word_freq=_frozen(word_freq),
        doc_freq=_frozen(doc_freq),
        avg_tfidf=_frozen(avg_tfidf),
        doc_index=_frozen(cell_doc[np.argsort(cell_word, kind="stable")]),
        n_docs=n_docs,
        n_tokens=corpus.n_tokens,
    )


def co_doc_counts(stats: CorpusStats, ids: Sequence[int]) -> np.ndarray:
    """The co-document counts among the given word ids, from one kernel call.

    Entry (i, j) is the number of documents holding both ids[i] and ids[j];
    the diagonal is each word's document frequency. Repeated ids give repeated
    rows and columns; an id that is not an integer in [0, V) raises ValueError.
    The kernel (``_kernels.co_doc_counts``) gathers the ids' runs of ``doc_index``.
    """
    return _kernels.co_doc_counts(stats.doc_index, stats.doc_freq, ids, stats.n_docs)


def _rebuild(corpus: Corpus, keep: np.ndarray) -> Corpus:
    """New corpus keeping only flagged word ids, the kept words renumbered by
    first occurrence in the kept stream, as ``build_corpus`` numbers words."""
    kept = np.concatenate([[False], keep[corpus.tokens]])
    old = corpus.tokens[kept[1:]]
    ids, first = np.unique(old, return_index=True)
    ids = ids[np.argsort(first)]
    new_id = np.zeros(corpus.vocabulary.size, np.int32)
    new_id[ids] = np.arange(ids.size)
    return _from_stream(new_id[old], np.cumsum(kept)[corpus.offsets],
                        [corpus.vocabulary.id_to_word[i] for i in ids.tolist()], corpus.doc_ids)


def delete_stopwords(corpus: Corpus, stoplist: Iterable[str]) -> Corpus:
    """Remove every stoplist word and rebuild dense ids."""
    stop = set(stoplist)
    return _rebuild(corpus, np.array([w not in stop for w in corpus.vocabulary.id_to_word], bool))


def delete_low_tfidf(corpus: Corpus, percentile: float = 0.05) -> Corpus:
    """Remove words whose average TF-IDF falls strictly below the given
    quantile of the TF-IDF distribution. Ties at the cutoff are kept, so a
    degenerate all-equal corpus is never emptied.
    """
    if not 0.0 < percentile < 1.0:
        raise ValueError("percentile must be in (0, 1)")
    tfidf = compute_stats(corpus).avg_tfidf
    if not tfidf.size:  # an empty vocabulary: no quantile, and nothing to keep
        raise AllDocumentsEmpty("no tokens remain in any document")
    return _rebuild(corpus, tfidf >= np.quantile(tfidf, percentile))


# --- file I/O -------------------------------------------------------------

def write_json(path: str | Path, fields: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write ``json.dumps({**fields, **lists}, separators=(",", ":")) + "\\n"``
    byte for byte, where ``lists`` maps each name in ``arrays`` to its array's
    ``tolist()``. ``_kernels.json_floats`` writes each array a block of rows
    at a time, through one buffer of a few hundred KB, not the whole text.

    Raises ValueError, writing nothing, if an array name is not a str or is
    also a field name: the file would hold an invalid or a repeated key.
    """
    for name in arrays:
        if not isinstance(name, str):
            raise ValueError(f"array name {name!r} is not a str")
        if name in fields:
            raise ValueError(f"array name {name!r} is also a field name")
    with Path(path).open("wb") as f:
        f.write(json.dumps(fields, separators=(",", ":"))[:-1].encode())
        for i, (name, a) in enumerate(arrays.items()):
            f.write((("," if fields or i else "") + json.dumps(name) + ":").encode())
            f.writelines(_kernels.json_floats(a))
        f.write(b"}\n")


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    write_json(path, corpus.to_json(), {})


def load_corpus(path: str | Path) -> Corpus:
    return Corpus.from_json(json.loads(Path(path).read_text(encoding="utf-8")))


def load_raw_documents(path: str | Path, fmt: str = "text") -> tuple[list[str], list[str] | None]:
    """Read raw documents: ``text`` is one document per line, ``jsonl`` is one
    {"id": ..., "text": ...} object per line, blank lines skipped; a line that
    is not one raises ValueError naming its 1-based number. Returns (texts, doc_ids).
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if fmt == "text":
        return list(lines), None
    if fmt == "jsonl":
        texts, ids = [], []
        for number, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path} line {number}: {exc}") from None
            if not isinstance(obj, dict) or "id" not in obj or not isinstance(obj.get("text"), str):
                raise ValueError(f"{path} line {number}: expected an object with an \"id\" "
                                 f"and a string \"text\", got {line[:60]!r}")
            texts.append(obj["text"])
            ids.append(str(obj["id"]))
        return texts, ids
    raise ValueError(f"unknown corpus format: {fmt!r}")


def load_word_list(path: str | Path) -> list[str]:
    """One lowercased word per line; blank lines and '#' comments ignored."""
    lines = (line.strip() for line in Path(path).read_text(encoding="utf-8").splitlines())
    return [w.lower() for w in lines if w and not w.startswith("#")]


def default_stoplist() -> list[str]:
    """The bundled 127-word English stoplist. Replaceable data, not canon."""
    with resources.as_file(resources.files("priorlda.data") / "stopwords.txt") as path:
        return load_word_list(path)
