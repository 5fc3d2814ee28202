"""BM25 retrieval over a local JSONL corpus.

Scoring uses the standard Okapi form with the +1 idf smoothing:

    idf(t)  = ln((N - df + 0.5) / (df + 0.5) + 1)
    s(q, d) = sum over unique query terms of
              idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl))

Documents scoring zero are omitted; ties break by ascending doc id.

Search is exact MaxScore top-k (Turtle & Flood 1995). A term's bound is the
most it adds to any document: the largest of the floats a scan of its postings
adds, found on its first search and kept. Terms are taken by bound, largest
first, and ``left[j]`` sums the bounds of those not yet taken. Whole posting
lists are added into partial sums until ``left[j]`` falls below the k-th best
partial sum: no unseen document can then reach the top k. The seen documents
are finished best partial sum first, the rest of their terms looked up by
bisection (each term's doc indices are sorted); one is dropped once what it
has plus what is left falls short of the k-th best sum, which each finished
sum can raise, and the first whose partial sum plus ``left[j]`` falls short
ends the walk. The documents whose full sum reaches the k-th best are then
rescored term by term in query order. That makes the same float additions, in
the same order, as a plain scan of every posting in query order, so every
score and tie-break is bit-identical to it; the bound-order sums only choose
whom to rescore. A relative margin of 1e-9 on each k-th score absorbs their
rounding, and with it ties.

Each term's postings are two parallel ``array('i')`` columns, doc indices in
ascending order and term frequencies (Witten, Moffat & Bell, *Managing
Gigabytes*, 1999): 8 bytes a posting, where an ``(idx, tf)`` tuple in a list
takes about 64.
"""

from __future__ import annotations

import base64
import heapq
import json
import math
import operator
import os
import re
import sys
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, compress, count, islice
from pathlib import Path
from typing import Iterable, Protocol

from .errors import ConfigError, IngestError
from .types import RetrievedDoc

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

#: Snapshot schema version written by save() and required by load().
FORMAT_VERSION = 2


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

    ``postings[term]`` holds the term's doc indices in ascending order and
    ``tfs[term]`` its frequency in each, both as ``array('i')``. Build once
    with :meth:`build`, or persist with :meth:`save` and reopen with
    :meth:`load`; searches from a reopened snapshot score identically.
    """

    def __init__(
        self,
        docs: list[Doc],
        postings: dict[str, array],
        tfs: dict[str, array],
        doc_lengths: list[int],
        avgdl: float,
        k1: float,
        b: float,
    ):
        self.docs = docs
        self.postings = postings
        self.tfs = tfs
        self.doc_lengths = doc_lengths
        self.avgdl = avgdl
        self.k1 = k1
        self.b = b
        # The length term k1 * (1 - b + b * dl / avgdl) of each document.
        self._norms = [k1 * (1 - b + b * dl / avgdl) for dl in doc_lengths]
        # Each searched term's bound (see _bound), kept from its first search.
        self._bounds: dict[str, float] = {}

    @classmethod
    def build(cls, docs: Iterable[Doc], k1: float = 1.2, b: float = 0.75) -> "BM25Index":
        doc_list = list(docs)
        if not doc_list:
            raise IngestError("cannot build an index over zero documents")
        if k1 < 0 or not 0 <= b <= 1:
            raise ConfigError(f"bad BM25 parameters: k1={k1}, b={b}")
        seen: set[str] = set()
        postings: dict[str, array] = {}
        tfs: dict[str, array] = {}
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
                if term not in postings:
                    postings[term], tfs[term] = array("i"), array("i")
                postings[term].append(idx)
                tfs[term].append(tf)
        avgdl = sum(doc_lengths) / len(doc_lengths)
        return cls(doc_list, postings, tfs, doc_lengths, avgdl, k1, b)

    def idf(self, term: str) -> float:
        df = len(self.postings.get(term, ()))
        n = len(self.docs)
        return math.log((n - df + 0.5) / (df + 0.5) + 1)

    def search(self, query: str, k: int) -> list[RetrievedDoc]:
        if k < 1:
            raise ConfigError(f"k must be >= 1, got {k}")
        terms = [t for t in dict.fromkeys(tokenize(query)) if self.postings.get(t)]
        idfs = {term: self.idf(term) for term in terms}
        bounds = {term: self._bound(term) for term in terms}
        order = sorted(terms, key=bounds.__getitem__, reverse=True)
        k1p, norms = self.k1 + 1, self._norms
        # left[j]: the most the terms order[j:] can still add to any document.
        left = [0.0] * (len(order) + 1)
        for j in range(len(order) - 1, -1, -1):
            left[j] = left[j + 1] + bounds[order[j]]
        # floor: the k-th best partial sum so far, less the margin.
        partial: dict[int, float] = {}
        floor = 0.0
        for j, bound in enumerate(left):
            if len(partial) >= k:
                floor = heapq.nlargest(k, partial.values())[-1] * (1 - 1e-9)
            if j == len(order) or bound < floor:
                break
            term = order[j]
            idf = idfs[term]
            for idx, tf in zip(self.postings[term], self.tfs[term]):
                partial[idx] = partial.get(idx, 0.0) + idf * tf * k1p / (tf + norms[idx])
        # A seen document can still make the top k only if its partial sum plus
        # left[j] reaches floor. Best partial sum first, finish its sum over
        # order[j:] by lookup, or drop it once what it has plus what is left
        # falls short; floor rises to the k-th best finished sum.
        cut, full, best = floor - left[j], {}, []
        seen = [idx for idx, score in partial.items() if score >= cut]
        for idx in sorted(seen, key=partial.__getitem__, reverse=True):
            score = partial[idx]
            if score + left[j] < floor:
                break
            for i in range(j, len(order)):
                if score + left[i] < floor:
                    break
                score += self._gain(order[i], idfs[order[i]], idx)
            else:
                full[idx] = score
                if len(best) < k:
                    heapq.heappush(best, score)
                else:
                    heapq.heappushpop(best, score)
                if len(best) == k:
                    floor = best[0] * (1 - 1e-9)
        ranked = []
        for idx, total in full.items():
            if total < floor:
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

    def _bound(self, term: str) -> float:
        """The most ``term`` adds to any document: the largest of the very floats
        a scan of its postings adds. Kept from the term's first search."""
        bound = self._bounds.get(term)
        if bound is None:
            idf, k1p, norms = self.idf(term), self.k1 + 1, self._norms
            bound = self._bounds[term] = max(
                idf * tf * k1p / (tf + norms[idx])
                for idx, tf in zip(self.postings[term], self.tfs[term])
            )
        return bound

    def _gain(self, term: str, idf: float, idx: int) -> float:
        """What ``term`` adds to document ``idx``'s score, found by bisection."""
        ids = self.postings[term]
        pos = bisect_left(ids, idx)
        if pos == len(ids) or ids[pos] != idx:
            return 0.0
        tf = self.tfs[term][pos]
        return idf * tf * (self.k1 + 1) / (tf + self._norms[idx])

    def save(self, path: str | Path) -> None:
        """Write a snapshot: each term with its df, and every term's doc indices
        and tfs concatenated in that order, as base64 of little-endian int32.

        The snapshot is streamed to a sibling ``.tmp`` file and renamed over
        ``path``, so a process that dies mid-write leaves the old snapshot or
        the new one. Nothing is fsynced: a power loss can still tear it.
        """
        path = Path(path)
        terms = list(self.postings)
        snapshot = {
            "format_version": FORMAT_VERSION,
            "k1": self.k1,
            "b": self.b,
            "avgdl": self.avgdl,
            "doc_lengths": self.doc_lengths,
            "docs": [{"id": d.doc_id, "text": d.text} for d in self.docs],
            "terms": terms,
            "df": [len(self.postings[t]) for t in terms],
            "ids": _encode(self.postings[t] for t in terms),
            "tfs": _encode(self.tfs[t] for t in terms),
        }
        tmp = path.with_name(path.name + ".tmp")
        try:
            with tmp.open("w", encoding="utf-8") as handle:
                # Streamed: json.dumps holds the whole text at once, which raised
                # the peak RSS of a 10k-doc build and save from 74 to 109 MB.
                json.dump(snapshot, handle)
            os.replace(tmp, path)
        except OSError as exc:
            raise IngestError(f"cannot write index {path}: {exc}") from exc
        finally:
            tmp.unlink(missing_ok=True)

    @classmethod
    def load(cls, path: str | Path) -> "BM25Index":
        try:
            with open(path, encoding="utf-8") as handle:
                snapshot = json.load(handle)
        except (OSError, ValueError) as exc:
            raise IngestError(f"cannot load index {path}: {exc}") from exc
        if not isinstance(snapshot, dict):
            raise IngestError(f"index {path} is not a JSON object")
        if snapshot.get("format_version") != FORMAT_VERSION:
            raise IngestError(
                f"index {path} has format_version {snapshot.get('format_version')!r}, "
                f"not {FORMAT_VERSION}; rebuild it with `dualthink index build`"
            )
        # search() bisects each term's doc indices, so they must be strictly
        # ascending; each must also name a document and have tf >= 1.
        try:
            docs = [Doc(doc_id=d["id"], text=d["text"]) for d in snapshot["docs"]]
            n_docs, terms, dfs = len(docs), snapshot["terms"], snapshot["df"]
            ids, tfs = _decode(snapshot["ids"]), _decode(snapshot["tfs"])
            if len(terms) != len(dfs) or min(dfs, default=1) < 1:
                raise ValueError(f"{len(terms)} terms need as many df entries >= 1")
            if sum(dfs) != len(ids) or len(tfs) != len(ids):
                raise ValueError(f"df sums to {sum(dfs)}, with {len(ids)} ids, {len(tfs)} tfs")
            if ids and not (0 <= min(ids) and max(ids) < n_docs and min(tfs) >= 1):
                raise ValueError(f"a posting names no doc of {n_docs} or has tf < 1")
            # The i-th term's postings end at ends[i]; a pair of ids that does
            # not ascend must straddle two terms.
            ends = list(accumulate(dfs))
            starts = set(ends)
            for i in compress(count(1), map(operator.ge, ids, islice(ids, 1, None))):
                if i not in starts:
                    term = terms[bisect_right(ends, i)]
                    raise ValueError(f"{term!r} has doc indices out of order")
            postings, frequencies = {}, {}
            for term, start, end in zip(terms, [0, *ends], ends):
                postings[term], frequencies[term] = ids[start:end], tfs[start:end]
            if len(postings) != len(terms):
                raise ValueError("a term is listed twice")
            doc_lengths = [int(n) for n in snapshot["doc_lengths"]]
            avgdl, k1, b = (float(snapshot[key]) for key in ("avgdl", "k1", "b"))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise IngestError(f"index {path} is malformed: {exc!r}") from exc
        if len(doc_lengths) != n_docs or min(doc_lengths, default=1) < 1:
            raise IngestError(f"index {path} needs one doc_lengths entry >= 1 per doc ({n_docs})")
        if not (avgdl > 0 and k1 >= 0 and 0 <= b <= 1):
            raise IngestError(f"index {path} has bad BM25 parameters: avgdl={avgdl} k1={k1} b={b}")
        return cls(docs, postings, frequencies, doc_lengths, avgdl, k1, b)


def _encode(columns: Iterable[array]) -> str:
    """The columns concatenated, as base64 of little-endian int32."""
    flat = array("i")
    for column in columns:
        flat += column
    if sys.byteorder == "big":
        flat.byteswap()
    return base64.b64encode(flat).decode("ascii")


def _decode(text: str) -> array:
    """The inverse of :func:`_encode`; a length not a multiple of 4 is a ValueError."""
    flat = array("i", base64.b64decode(text, validate=True))
    if sys.byteorder == "big":
        flat.byteswap()
    return flat
