"""Seeded input generator: corpus and dataset JSONL files.

The program sees only these files. The same seed gives byte-identical files.

Corpus documents are 40 to 160 words drawn from the Zipf vocabulary of
:mod:`standin`, so head-term postings are long. The dataset alternates
multiple-choice and open questions and is built in blocks of
``BLOCK`` questions, of which exactly ``round(BLOCK * ESCALATE_SHARE)``
escalate at the stand-in's reflection gate. Question texts are drawn until
each slot of a block gets the gate outcome it was dealt, so any whole number
of blocks has the same mix, however many blocks a run gets through.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from standin import ESCALATE_SHARE, StandIn, Zipf

BLOCK = 20
LABELS = ("A", "B", "C", "D")


@dataclass(frozen=True)
class Workload:
    """One workload: its inputs, its stand-in latency, and how it sets up.

    ``snapshot`` names the index path that set-up takes: ``write`` builds
    and saves (the work of ``index build``), ``read`` loads a snapshot (the
    ``--index`` path), and ``none`` builds in memory (the ``--corpus`` path).
    """

    name: str
    preset: str | None  # None runs ablation_sweep over the eight canonical presets
    docs: int
    questions: int
    round_size: int
    base_ms: float
    per_token_ms: float
    snapshot: str
    http503_pct: float | None = None  # None runs the stand-in in-process


#: Each dataset holds several times what a 30 s run answers at the parent
#: commit, so a faster program still answers only fresh questions.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gate_http", "System 1 + System 2", docs=300, questions=4000, round_size=40,
            base_ms=20.0, per_token_ms=0.1, snapshot="none", http503_pct=1.0,
        ),
        Workload(
            "retrieval_heavy", "System 2 (Full)", docs=10_000, questions=1000, round_size=10,
            base_ms=1.0, per_token_ms=0.01, snapshot="write",
        ),
        Workload(
            "ablation_sweep", None, docs=200, questions=3000, round_size=20,
            base_ms=0.2, per_token_ms=0.002, snapshot="read",
        ),
    )
}


def generate(workload: Workload, seed: int, work: Path) -> None:
    """Write corpus.jsonl and dataset.jsonl, plus snapshot.json for ``read``."""
    write_corpus(work / "corpus.jsonl", workload.docs, seed)
    model = StandIn(seed, workload.base_ms, workload.per_token_ms)
    write_dataset(work / "dataset.jsonl", workload.questions, model)
    if workload.snapshot == "read":
        from dualthink.retrieval import BM25Index, load_corpus

        BM25Index.build(load_corpus(work / "corpus.jsonl")).save(work / "snapshot.json")


def write_corpus(path: Path, n_docs: int, seed: int) -> None:
    rng = random.Random(f"corpus-{seed}")
    zipf = Zipf()
    with path.open("w", encoding="utf-8") as handle:
        for i in range(n_docs):
            words = zipf.draw(rng, rng.randint(40, 160))
            record = {"id": f"d{i:05d}", "title": " ".join(words[:3]), "text": " ".join(words)}
            handle.write(json.dumps(record) + "\n")


def write_dataset(path: Path, n_questions: int, model: StandIn) -> None:
    """Questions in stratified blocks; the gold is the stand-in's committed answer."""
    rng = random.Random(f"dataset-{model.seed}")
    zipf = Zipf()
    escalating = round(BLOCK * ESCALATE_SHARE)
    with path.open("w", encoding="utf-8") as handle:
        for start in range(0, n_questions, BLOCK):
            dealt = set(rng.sample(range(BLOCK), escalating))
            for slot in range(min(BLOCK, n_questions - start)):
                i = start + slot
                while True:
                    text = f"Which {' '.join(zipf.draw(rng, 6))} matches case {i}?"
                    if model.escalates(text) == (slot in dealt):
                        break
                record: dict = {"id": f"q{i:05d}", "question": text}
                if i % 2:
                    record["options"] = {
                        label: " ".join(zipf.draw(rng, 3)) for label in LABELS
                    }
                    record["answer"] = model.committed_answer(text, LABELS)
                else:
                    record["answer"] = model.committed_answer(text)
                handle.write(json.dumps(record) + "\n")
