import base64
import heapq
import itertools
import json
import math
import random
import struct
import sys
from collections import Counter

import pytest

from dualthink.errors import ConfigError, IngestError
from dualthink.retrieval import (
    BM25Index,
    Doc,
    load_corpus,
    tokenize,
)

_WORDS = (
    "iron tower bridge river city treaty reactor comet genome harbor troops "
    "granite meadow lantern spire envoy cipher orchard glacier pigment"
).split()


def test_tokenize_examples():
    assert tokenize("The Tower, built 1889!") == ["the", "tower", "built", "1889"]
    assert tokenize("snake_case splits") == ["snake", "case", "splits"]
    assert tokenize("") == []
    assert tokenize("...!!...") == []


def test_golden_two_doc_score():
    # d1 has 4 tokens, d2 has 2, so avgdl = 3; both query terms appear only
    # in d1 with tf = 1 and df = 1, giving idf = ln(2) each and the length
    # normalizer 1 + 1.2 * (0.25 + 0.75 * 4/3) = 2.5
    index = BM25Index.build(
        [Doc("d1", "eiffel tower paris landmark"), Doc("d2", "london bridge")]
    )
    hits = index.search("eiffel tower", 5)
    assert [h.doc_id for h in hits] == ["d1"]  # zero-score d2 is omitted
    expected = 2 * math.log(2) * (2.2 / 2.5)
    assert hits[0].score == pytest.approx(1.2199390377855037, abs=1e-12)
    assert hits[0].score == pytest.approx(expected, abs=1e-12)


def test_duplicate_query_terms_count_once():
    index = BM25Index.build(
        [Doc("d1", "eiffel tower paris landmark"), Doc("d2", "london bridge")]
    )
    once = index.search("eiffel tower", 5)[0].score
    repeated = index.search("eiffel eiffel tower EIFFEL", 5)[0].score
    assert repeated == once


def test_ties_break_by_ascending_doc_id():
    index = BM25Index.build(
        [Doc("b", "apple pear"), Doc("a", "apple pear"), Doc("c", "apple pear")]
    )
    assert [h.doc_id for h in index.search("apple", 3)] == ["a", "b", "c"]
    assert [h.doc_id for h in index.search("apple", 2)] == ["a", "b"]


def test_ties_break_by_doc_id_when_the_tied_docs_are_seen_at_different_steps():
    # With k1 = 0 each term adds its whole bound, idf * tf / tf, to a document,
    # so "a" alone and "b" alone tie. "a" comes first (an equal bound keeps
    # query order) and "d1" is seen before "d0" is; d0 must still win the tie.
    for fillers in range(1, 40):
        docs = [Doc("d1", "a a a"), Doc("d0", "b b b")]
        docs += [Doc(f"f{i}", "c c c") for i in range(fillers)]
        index = BM25Index.build(docs, k1=0)
        full = [(h.doc_id, h.score) for h in index.search("a b", len(docs))]
        assert [(h.doc_id, h.score) for h in index.search("a b", 1)] == full[:1]
        assert full[0][0] == "d0"


def test_ties_break_by_doc_id_when_rarest_first_sums_differ():
    # With b = 0 and "a", "b" equally common, "a b b b c" and "a a a b c" tie
    # in query order (p + q + r == q + p + r). Taken by bound, the terms are
    # added in another order, whose sums may differ in the last bit; d0 must
    # still win the tie whichever of the two it is.
    for fillers in range(20):
        for first, second in (("a b b b c", "a a a b c"), ("a a a b c", "a b b b c")):
            docs = [Doc("d0", first), Doc("d1", second)]
            docs += [Doc(f"f{i}", "a b z") for i in range(fillers)]
            index = BM25Index.build(docs, b=0)
            full = [(h.doc_id, h.score) for h in index.search("a b c", len(docs))]
            assert full[0][1] == full[1][1] and [full[0][0], full[1][0]] == ["d0", "d1"]
            assert [(h.doc_id, h.score) for h in index.search("a b c", 1)] == full[:1]


def test_k_truncates_and_validates():
    index = BM25Index.build([Doc(f"d{i}", "apple tree") for i in range(10)])
    assert len(index.search("apple", 4)) == 4
    with pytest.raises(ConfigError):
        index.search("apple", 0)


def test_build_rejects_bad_input():
    with pytest.raises(IngestError):
        BM25Index.build([])
    with pytest.raises(IngestError):
        BM25Index.build([Doc("d1", "x"), Doc("d1", "y")])
    with pytest.raises(IngestError):
        BM25Index.build([Doc("d1", "...")])
    with pytest.raises(ConfigError):
        BM25Index.build([Doc("d1", "x")], b=1.5)


def _brute_force(docs, query, k1=1.2, b=0.75):
    token_lists = {d.doc_id: tokenize(d.text) for d in docs}
    n = len(docs)
    avgdl = sum(len(t) for t in token_lists.values()) / n
    scores = {}
    for doc in docs:
        tokens = Counter(token_lists[doc.doc_id])
        total = 0.0
        for term in dict.fromkeys(tokenize(query)):
            tf = tokens.get(term, 0)
            if tf == 0:
                continue
            df = sum(1 for t in token_lists.values() if term in t)
            idf = math.log((n - df + 0.5) / (df + 0.5) + 1)
            dl = len(token_lists[doc.doc_id])
            total += idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl))
        if total > 0:
            scores[doc.doc_id] = total
    return scores


def test_matches_brute_force_on_random_corpora():
    rng = random.Random(2024)
    for _ in range(30):
        n_docs = rng.randint(2, 12)
        docs = [
            Doc(f"d{i}", " ".join(rng.choice(_WORDS) for _ in range(rng.randint(2, 15))))
            for i in range(n_docs)
        ]
        index = BM25Index.build(docs)
        for _ in range(5):
            query = " ".join(rng.choice(_WORDS) for _ in range(rng.randint(1, 4)))
            expected = _brute_force(docs, query)
            hits = index.search(query, n_docs)
            got = {h.doc_id: h.score for h in hits}
            assert set(got) == set(expected)
            for doc_id, score in expected.items():
                assert got[doc_id] == pytest.approx(score, abs=1e-9)
            ordered = sorted(expected.items(), key=lambda kv: (-kv[1], kv[0]))
            assert [h.doc_id for h in hits] == [doc_id for doc_id, _ in ordered]
            # The pruned top k: the same documents and the same floats as the
            # full ranking's head, and scores added in query order exactly as
            # the brute force adds them.
            assert got == expected
            for k in (1, 2, 3):
                top = [(h.doc_id, h.score) for h in index.search(query, k)]
                assert top == [(h.doc_id, h.score) for h in hits[:k]]
                assert [doc_id for doc_id, _ in top] == [doc_id for doc_id, _ in ordered[:k]]


def test_save_load_preserves_scores(tmp_path):
    rng = random.Random(7)
    docs = [
        Doc(f"d{i}", " ".join(rng.choice(_WORDS) for _ in range(rng.randint(3, 12))))
        for i in range(15)
    ]
    index = BM25Index.build(docs, k1=1.4, b=0.6)
    path = tmp_path / "index.json"
    index.save(path)
    reopened = BM25Index.load(path)
    assert reopened.k1 == 1.4 and reopened.b == 0.6
    for _ in range(20):
        query = " ".join(rng.choice(_WORDS) for _ in range(rng.randint(1, 3)))
        original = [(h.doc_id, h.score) for h in index.search(query, 10)]
        restored = [(h.doc_id, h.score) for h in reopened.search(query, 10)]
        assert original == restored


def test_snapshot_with_doc_titles_still_loads(tmp_path):
    # A snapshot's documents may carry a "title"; load ignores it.
    index = BM25Index.build([Doc("d1", "alpha beta"), Doc("d2", "gamma")])
    path = tmp_path / "index.json"
    index.save(path)
    snapshot = json.loads(path.read_text(encoding="utf-8"))
    assert all("title" not in doc for doc in snapshot["docs"])
    for doc in snapshot["docs"]:
        doc["title"] = "T"
    path.write_text(json.dumps(snapshot), encoding="utf-8")
    assert BM25Index.load(path).docs == index.docs


def test_load_rejects_unknown_snapshot_version(tmp_path):
    # Version 1 held nested [idx, tf] postings; it must be rebuilt, not read.
    version_one = {
        "format_version": 1,
        "k1": 1.2,
        "b": 0.75,
        "avgdl": 2.0,
        "doc_lengths": [2, 2],
        "docs": [{"id": "d0", "text": "apple pear"}, {"id": "d1", "text": "apple plum"}],
        "postings": {"apple": [[0, 1], [1, 1]], "pear": [[0, 1]], "plum": [[1, 1]]},
    }
    path = tmp_path / "index.json"
    for snapshot in ({"format_version": 99}, version_one):
        path.write_text(json.dumps(snapshot), encoding="utf-8")
        with pytest.raises(IngestError) as info:
            BM25Index.load(path)
        assert str(path) in str(info.value) and "index build" in str(info.value)
    with pytest.raises(IngestError):
        BM25Index.load(tmp_path / "missing.json")


def _pack(values):
    """A snapshot column: base64 of little-endian int32."""
    return base64.b64encode(struct.pack(f"<{len(values)}i", *values)).decode("ascii")


def _unpack(text):
    raw = base64.b64decode(text)
    return list(struct.unpack(f"<{len(raw) // 4}i", raw))


def _set(path, value):
    """A snapshot edit that puts ``value`` at the nested ``path``."""

    def edit(snapshot):
        *keys, last = path
        target = snapshot
        for key in keys:
            target = target[key]
        target[last] = value
        return snapshot

    return edit


def _add_term(term, df):
    """A snapshot edit that lists one more term, with ``df``, and no postings."""

    def edit(snapshot):
        snapshot["terms"].append(term)
        snapshot["df"].append(df)
        return snapshot

    return edit


# The snapshot of d0 "apple pear", d1 "apple plum", d2 "fig date" lists the
# terms apple, pear, plum, fig, date with df [2, 1, 1, 1, 1]; its columns are
# ids [0, 1, 0, 1, 2, 2] and tfs [1, 1, 1, 1, 1, 1]. Apple owns slots 0 and 1.
@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda snapshot: [snapshot], id="json-list"),
        pytest.param(
            lambda snapshot: {k: v for k, v in snapshot.items() if k != "docs"}, id="no-docs"
        ),
        pytest.param(_set(("tfs",), _pack([1, 1, 1, 1, 1])), id="posting-without-tf"),
        pytest.param(_set(("tfs",), [1, 1, 1, 1, 1, 1]), id="tf-not-a-number"),
        pytest.param(_set(("ids",), _pack([0, 3, 0, 1, 2, 2])), id="doc-index-out-of-range"),
        pytest.param(_set(("ids",), _pack([-1, 1, 0, 1, 2, 2])), id="negative-doc-index"),
        pytest.param(_set(("ids",), _pack([0, 0, 0, 1, 2, 2])), id="repeated-doc-index"),
        pytest.param(_set(("ids",), _pack([1, 0, 0, 1, 2, 2])), id="descending-doc-indices"),
        pytest.param(_set(("tfs",), _pack([0, 1, 1, 1, 1, 1])), id="tf-below-one"),
        pytest.param(_add_term("kiwi", 0), id="empty-posting-list"),
        pytest.param(_set(("doc_lengths",), [2, 2]), id="short-doc-lengths"),
        pytest.param(_set(("doc_lengths",), [2, 2, 0]), id="zero-doc-length"),
        pytest.param(_set(("b",), 1.5), id="b-above-one"),
        pytest.param(_set(("avgdl",), 0), id="zero-avgdl"),
        pytest.param(_set(("ids",), "AAAA!AAA"), id="invalid-base64"),
        pytest.param(_set(("ids",), base64.b64encode(bytes(23)).decode()), id="ids-not-int32"),
        pytest.param(_set(("df",), [2, 1, 1, 1, 2]), id="df-sum-not-column-length"),
        pytest.param(_set(("terms",), ["apple", "pear", "plum", "fig"]), id="terms-and-df-differ"),
        pytest.param(_set(("terms", 1), "apple"), id="repeated-term"),
    ],
)
def test_load_rejects_malformed_snapshots(tmp_path, edit):
    path = tmp_path / "index.json"
    docs = [Doc("d0", "apple pear"), Doc("d1", "apple plum"), Doc("d2", "fig date")]
    BM25Index.build(docs).save(path)
    snapshot = json.loads(path.read_text(encoding="utf-8"))
    assert snapshot["terms"] == ["apple", "pear", "plum", "fig", "date"]
    assert snapshot["df"] == [2, 1, 1, 1, 1]
    assert _unpack(snapshot["ids"]) == [0, 1, 0, 1, 2, 2]
    assert _unpack(snapshot["tfs"]) == [1, 1, 1, 1, 1, 1]
    path.write_text(json.dumps(edit(snapshot)), encoding="utf-8")
    with pytest.raises(IngestError) as info:
        BM25Index.load(path)
    assert str(path) in str(info.value)


def test_save_that_fails_partway_keeps_the_old_snapshot(tmp_path):
    # A file-size limit makes the write fail with EFBIG partway through the
    # new snapshot (the interpreter ignores SIGXFSZ), as a full disk would.
    resource = pytest.importorskip("resource")
    path = tmp_path / "index.json"
    old = BM25Index.build([Doc("d0", "apple pear"), Doc("d1", "fig")])
    old.save(path)
    new = BM25Index.build([Doc(f"d{i}", " ".join(_WORDS[i:] * 20)) for i in range(10)])
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    resource.setrlimit(resource.RLIMIT_FSIZE, (2000, hard))
    try:
        with pytest.raises(IngestError) as info:
            new.save(path)
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
    assert str(path) in str(info.value)
    assert BM25Index.load(path).docs == old.docs
    assert [p.name for p in tmp_path.iterdir()] == ["index.json"]


def _zipf_docs(seed, n_docs, vocabulary):
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(vocabulary)]
    cum_weights = list(itertools.accumulate(1 / (rank + 1) for rank in range(vocabulary)))
    return [
        Doc(f"d{i}", " ".join(rng.choices(words, cum_weights=cum_weights, k=rng.randint(10, 60))))
        for i in range(n_docs)
    ]


def test_pruned_search_matches_a_full_scan_on_a_zipf_corpus():
    # Thousands of documents, so that most postings of a query are pruned: the
    # search must still return exactly the full scan's top k, and each term's
    # bound must be exactly the largest gain it adds to any document.
    docs = _zipf_docs(16, 2000, 3000)
    index = BM25Index.build(docs)
    bags = [Counter(d.text.split()) for d in docs]
    lengths = [sum(bag.values()) for bag in bags]
    avgdl, n, k1, b = sum(lengths) / len(lengths), len(docs), 1.2, 0.75
    holders = {}
    for i, bag in enumerate(bags):
        for term, tf in bag.items():
            holders.setdefault(term, []).append((i, tf))
    gains = {}
    for term, pairs in holders.items():
        idf = math.log((n - len(pairs) + 0.5) / (len(pairs) + 0.5) + 1)
        gains[term] = [
            (i, idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * lengths[i] / avgdl)))
            for i, tf in pairs
        ]
    rng = random.Random(16)
    words = [f"w{i}" for i in range(3000)]
    cum_weights = list(itertools.accumulate(1 / (rank + 1) for rank in range(3000)))
    for _ in range(300):
        query = " ".join(rng.choices(words, cum_weights=cum_weights, k=rng.randint(1, 6)))
        scores = {}
        for term in dict.fromkeys(query.split()):
            for i, gain in gains.get(term, ()):
                scores[i] = scores.get(i, 0.0) + gain
        ranked = heapq.nsmallest(10, ((-s, docs[i].doc_id) for i, s in scores.items()))
        for k in (1, 5, 10):
            hits = [(h.doc_id, h.score) for h in index.search(query, k)]
            assert hits == [(doc_id, -neg) for neg, doc_id in ranked[:k]], (query, k)
    for term, term_gains in gains.items():
        assert index._bound(term) == max(gain for _, gain in term_gains), term


def test_postings_are_ascending_doc_indices_whose_length_is_the_df(tmp_path):
    # Callers (the benchmark's traced retriever among them) read
    # len(index.postings.get(term, ())) as the term's document frequency.
    docs = _zipf_docs(11, 300, 400)
    built = BM25Index.build(docs)
    path = tmp_path / "index.json"
    built.save(path)
    token_sets = [set(tokenize(d.text)) for d in docs]
    for index in (built, BM25Index.load(path)):
        assert set(index.postings) == set().union(*token_sets)
        for term, column in index.postings.items():
            holders = [i for i, tokens in enumerate(token_sets) if term in tokens]
            assert len(column) == len(holders) and list(column) == holders
            assert all(a < b for a, b in zip(column, column[1:]))
            df = len(holders)
            assert index.idf(term) == math.log((len(docs) - df + 0.5) / (df + 0.5) + 1)
        assert len(index.postings.get("absent", ())) == 0


def test_postings_columns_take_under_16_bytes_per_posting(tmp_path):
    # Two int32 columns cost 8 bytes a posting plus about 160 bytes of array
    # headers a term; a list of (idx, tf) tuples costs about 64 a posting. The
    # corpus has about 30 postings a term, as the 10k-doc benchmark corpus has.
    docs = _zipf_docs(12, 2000, 2000)
    built = BM25Index.build(docs)
    path = tmp_path / "index.json"
    built.save(path)
    for index in (built, BM25Index.load(path)):
        n_postings = sum(len(column) for column in index.postings.values())
        assert n_postings / len(index.postings) > 20
        size = sum(sys.getsizeof(c) for c in index.postings.values())
        size += sum(sys.getsizeof(c) for c in index.tfs.values())
        assert size / n_postings < 16


def test_load_corpus_jsonl(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        '{"id": "d1", "title": "T", "text": "alpha beta"}\n'
        "\n"
        '{"id": "d2", "text": "gamma"}\n',
        encoding="utf-8",
    )
    docs = load_corpus(path)
    assert [d.doc_id for d in docs] == ["d1", "d2"]
    assert docs[0] == Doc("d1", "alpha beta")
    index = BM25Index.build(docs)
    assert index.search("gamma", 1)[0].doc_id == "d2"


def test_load_corpus_rejects_malformed_lines(tmp_path):
    bad_json = tmp_path / "bad.jsonl"
    bad_json.write_text('{"id": "d1", "text": "x"}\nnot json\n', encoding="utf-8")
    with pytest.raises(IngestError) as info:
        load_corpus(bad_json)
    assert "line 2" in str(info.value)
    missing_field = tmp_path / "missing.jsonl"
    missing_field.write_text('{"id": "d1"}\n', encoding="utf-8")
    with pytest.raises(IngestError):
        load_corpus(missing_field)
