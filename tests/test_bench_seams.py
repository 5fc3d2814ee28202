"""The seams through which ``bench/`` measures the program, checked in tier-1.

The bench times and traces a run without changing the program: it swaps
``Engine`` and ``write_report`` in ``dualthink.runner``'s namespace and the
``parse_*`` functions in ``dualthink.engine``'s, wraps the backend, the
retriever and the prompt templates it passes in, and samples search queries
from the written ``traces/*.json``. A change that breaks one of these seams
would otherwise show up only in a bench run. Here ``bench/workload.py``'s own
``measure`` runs one small traced round of each in-process kind of workload,
an ``ablation_sweep`` and a ``run_benchmark``, over seeded inputs from
``bench/inputs.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import tracing  # noqa: E402
import workload  # noqa: E402
from inputs import WORKLOADS, write_corpus, write_dataset  # noqa: E402
from standin import StandIn  # noqa: E402

from dualthink.dataset import load_dataset  # noqa: E402
from dualthink.retrieval import BM25Index, load_corpus  # noqa: E402

SEED = 3


@pytest.mark.parametrize("name", ["ablation_sweep", "retrieval_heavy"])
def test_a_traced_round_reaches_every_boundary_and_writes_search_queries(tmp_path, name):
    write_corpus(tmp_path / "corpus.jsonl", 60, SEED)
    model = StandIn(SEED, 0.0, 0.0)
    write_dataset(tmp_path / "dataset.jsonl", 10, model)
    questions = load_dataset(str(tmp_path / "dataset.jsonl"))
    index = BM25Index.build(load_corpus(tmp_path / "corpus.jsonl"))
    tracer = tracing.Tracer()

    run = workload.measure(
        WORKLOADS[name], questions, index, model, None, tmp_path, "seams", 0.0, 1, tracer
    )
    assert run.failures == []
    presets = 8 if name == "ablation_sweep" else 1
    assert len(run.answers) == len(run.results) == len(questions) * presets

    recorded = {span[1] for span in tracer.spans}
    assert set(tracing.BOUNDARIES) <= recorded, set(tracing.BOUNDARIES) - recorded
    queries = [
        query
        for path in run.last_dir.glob("**/traces/*.json")
        for step in json.loads(path.read_text(encoding="utf-8"))["steps"]
        if step["agent"] == "search" and step["parsed"]
        for decision in step["parsed"]["decisions"]
        for query in decision["queries"]
    ]
    assert queries and all(isinstance(query, str) and query for query in queries)
    assert run.queries and set(run.queries) <= set(queries)
