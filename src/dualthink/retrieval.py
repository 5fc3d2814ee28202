"""BM25 retrieval over a local JSONL corpus.

Scoring uses the standard Okapi form with the +1 idf smoothing:

    idf(t)  = ln((N - df + 0.5) / (df + 0.5) + 1)
    s(q, d) = sum over unique query terms of
              idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl))

Documents scoring zero are omitted; ties break by ascending doc id.

Search is exact MaxScore top-k (Turtle & Flood 1995). As tf / (tf + K) is
below 1 for the length term K >= 0, a term adds at most idf(t) * (k1 + 1) to
any document. The query's terms are taken rarest (highest idf) first, and
``left[j]`` is that bound summed over the terms not yet taken. Whole posting
lists are added into partial sums until ``left[j]`` falls below the k-th
best partial sum: no unseen document can then reach the top k. A seen one
can only if its partial sum plus ``left[j]`` reaches that k-th score, so the
rest of its terms are looked up by bisection (posting lists are sorted by
doc index), and it is dropped once what it has plus what is left falls
short. The documents whose full sum reaches the k-th best are then rescored
term by term in query order. That makes the same float additions, in the
same order, as a plain scan of every posting in query order, so every score
and tie-break is bit-identical to it; the rarest-first sums only choose
whom to rescore. A relative margin of 1e-9 on each k-th score absorbs their
rounding, and with it ties.
"""

from __future__ import annotations

import heapq
import json
import math
import re
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Protocol, Sequence

from .errors import ConfigError, IngestError
from .types import RetrievedDoc

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

#: Snapshot schema version written by save() and required by load().
FORMAT_VERSION = 1


def tokenize(text: str) -> list[str]:
    """Lowercased alphanumeric runs; underscores and punctuation separate."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Doc:
    doc_id: str
    text: str


class Retriever(Protocol):
    def search(self, query: str, k: int) -> list[RetrievedDoc]: ...


def load_corpus(path: str | Path) -> list[Doc]:
    """Read a JSONL corpus; each line needs "id" and "text", other fields
    (such as "title") are ignored."""
    docs = []
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise IngestError(f"cannot read corpus {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise IngestError(f"corpus {path} line {lineno}: invalid JSON ({exc})") from exc
        if not isinstance(record, dict) or "id" not in record or "text" not in record:
            raise IngestError(f"corpus {path} line {lineno}: need 'id' and 'text' fields")
        docs.append(Doc(doc_id=str(record["id"]), text=str(record["text"])))
    return docs


class BM25Index:
    """Inverted index with precomputed document lengths.

    Build once with :meth:`build`, or persist with :meth:`save` and reopen
    with :meth:`load`; searches from a reopened snapshot score identically.
    """

    def __init__(
        self,
        docs: list[Doc],
        postings: dict[str, list[tuple[int, int]]],
        doc_lengths: list[int],
        avgdl: float,
        k1: float,
        b: float,
    ):
        self.docs = docs
        self.postings = postings
        self.doc_lengths = doc_lengths
        self.avgdl = avgdl
        self.k1 = k1
        self.b = b
        # The length term k1 * (1 - b + b * dl / avgdl) of each document.
        self._norms = [k1 * (1 - b + b * dl / avgdl) for dl in doc_lengths]

    @classmethod
    def build(cls, docs: Iterable[Doc], k1: float = 1.2, b: float = 0.75) -> "BM25Index":
        doc_list = list(docs)
        if not doc_list:
            raise IngestError("cannot build an index over zero documents")
        if k1 < 0 or not 0 <= b <= 1:
            raise ConfigError(f"bad BM25 parameters: k1={k1}, b={b}")
        seen: set[str] = set()
        postings: dict[str, list[tuple[int, int]]] = {}
        doc_lengths: list[int] = []
        for idx, doc in enumerate(doc_list):
            if doc.doc_id in seen:
                raise IngestError(f"duplicate document id {doc.doc_id!r}")
            seen.add(doc.doc_id)
            tokens = tokenize(doc.text)
            if not tokens:
                raise IngestError(f"document {doc.doc_id!r} has no indexable tokens")
            doc_lengths.append(len(tokens))
            for term, tf in Counter(tokens).items():
                postings.setdefault(term, []).append((idx, tf))
        avgdl = sum(doc_lengths) / len(doc_lengths)
        return cls(doc_list, postings, doc_lengths, avgdl, k1, b)

    def idf(self, term: str) -> float:
        df = len(self.postings.get(term, ()))
        n = len(self.docs)
        return math.log((n - df + 0.5) / (df + 0.5) + 1)

    def search(self, query: str, k: int) -> list[RetrievedDoc]:
        if k < 1:
            raise ConfigError(f"k must be >= 1, got {k}")
        terms = [t for t in dict.fromkeys(tokenize(query)) if self.postings.get(t)]
        idfs = {term: self.idf(term) for term in terms}
        order = sorted(terms, key=idfs.__getitem__, reverse=True)
        k1p, norms = self.k1 + 1, self._norms
        # left[j]: the most the terms order[j:] can still add to any document.
        left = [0.0] * (len(order) + 1)
        for j in range(len(order) - 1, -1, -1):
            left[j] = left[j + 1] + idfs[order[j]] * k1p
        # floor: the k-th best partial sum so far, less the margin.
        partial: dict[int, float] = {}
        floor = 0.0
        for j, bound in enumerate(left):
            if len(partial) >= k:
                floor = heapq.nlargest(k, partial.values())[-1] * (1 - 1e-9)
            if j == len(order) or bound < floor:
                break
            idf = idfs[order[j]]
            for idx, tf in self.postings[order[j]]:
                partial[idx] = partial.get(idx, 0.0) + idf * tf * k1p / (tf + norms[idx])
        # A seen document can still make the top k only if its partial sum plus
        # left[j] reaches floor. Finish its sum over order[j:] by lookup, and
        # drop it as soon as what it has plus what is left falls short.
        cut, full = floor - left[j], {}
        for idx, score in partial.items():
            if score < cut:
                continue
            for i in range(j, len(order)):
                if score + left[i] < floor:
                    break
                score += self._gain(order[i], idfs[order[i]], idx)
            else:
                full[idx] = score
        kth = heapq.nlargest(k, full.values())[-1] * (1 - 1e-9) if len(full) >= k else 0.0
        ranked = []
        for idx, total in full.items():
            if total < kth:
                continue
            # In query order, one addition at a time, as a plain full scan adds
            # them (sum() may compensate, which would change the last bits).
            score = 0.0
            for term in terms:
                score += self._gain(term, idfs[term], idx)
            ranked.append((-score, self.docs[idx].doc_id, idx))
        return [
            RetrievedDoc(doc_id=doc_id, text=self.docs[idx].text, score=-neg)
            for neg, doc_id, idx in heapq.nsmallest(k, ranked)
        ]

    def _gain(self, term: str, idf: float, idx: int) -> float:
        """What ``term`` adds to document ``idx``'s score, found by bisection."""
        posting = self.postings[term]
        pos = bisect_left(posting, (idx,))
        if pos == len(posting) or posting[pos][0] != idx:
            return 0.0
        tf = posting[pos][1]
        return idf * tf * (self.k1 + 1) / (tf + self._norms[idx])

    def save(self, path: str | Path) -> None:
        snapshot = {
            "format_version": FORMAT_VERSION,
            "k1": self.k1,
            "b": self.b,
            "avgdl": self.avgdl,
            "doc_lengths": self.doc_lengths,
            "docs": [{"id": d.doc_id, "text": d.text} for d in self.docs],
            "postings": self.postings,
        }
        Path(path).write_text(json.dumps(snapshot), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "BM25Index":
        try:
            snapshot = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise IngestError(f"cannot load index {path}: {exc}") from exc
        if not isinstance(snapshot, dict):
            raise IngestError(f"index {path} is not a JSON object")
        if snapshot.get("format_version") != FORMAT_VERSION:
            raise IngestError(
                f"index {path} has format_version {snapshot.get('format_version')!r}; "
                f"expected {FORMAT_VERSION}"
            )
        # search() bisects each posting list by doc index, so the indices must
        # be strictly ascending; each must also name a document and have tf >= 1.
        try:
            docs = [Doc(doc_id=d["id"], text=d["text"]) for d in snapshot["docs"]]
            n_docs, postings = len(docs), {}
            for term, entries in snapshot["postings"].items():
                posting, last = [], -1
                for idx, tf in entries:
                    idx, tf = int(idx), int(tf)
                    if not last < idx < n_docs or tf < 1:
                        raise ValueError(f"{term!r} has posting {[idx, tf]} after doc {last}")
                    posting.append((idx, tf))
                    last = idx
                if not posting:
                    raise ValueError(f"{term!r} has no postings")
                postings[term] = posting
            doc_lengths = [int(n) for n in snapshot["doc_lengths"]]
            avgdl, k1, b = (float(snapshot[key]) for key in ("avgdl", "k1", "b"))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise IngestError(f"index {path} is malformed: {exc!r}") from exc
        if len(doc_lengths) != n_docs or min(doc_lengths, default=1) < 1:
            raise IngestError(f"index {path} needs one doc_lengths entry >= 1 per doc ({n_docs})")
        if not (avgdl > 0 and k1 >= 0 and 0 <= b <= 1):
            raise IngestError(f"index {path} has bad BM25 parameters: avgdl={avgdl} k1={k1} b={b}")
        return cls(docs, postings, doc_lengths, avgdl, k1, b)


def build_index_from_corpus(
    corpus_path: str | Path, k1: float = 1.2, b: float = 0.75
) -> BM25Index:
    return BM25Index.build(load_corpus(corpus_path), k1=k1, b=b)
