"""Equivalence oracle: a seeded sweep's run directories, normalized and hashed.

The sweep runs the eight ablation presets, "System 1 + System 2", and
"System 2 (Full)" again with ``k_retrieval`` 3 over a seeded corpus and
dataset from ``bench/inputs.py``, answered by the bench's stand-in model
in-process. Every other preset has ``k_retrieval`` 5, so the last one shows
whether a stage replayed across presets keeps the config values its search
reads. Its replies are a pure function of the request,
so the run directories depend only on the program. The sweep includes parse
retries (the stand-in's truncated first attempts), a reflection fail-open
and a question that errors mid-pipeline (both injected below).

Every trace, ``results.jsonl`` line, ``report.json``, ``report.csv`` and
``config.json`` is normalized: timings and the ``cached`` flag are dropped,
billed and replayed usage are folded into one sum, and ``trace_path`` is made
relative to the run directory. A change that claims the same behaviour must
leave every file's digest unchanged. After a change to outputs made on
purpose, regenerate the list, and say why in CHANGES.md:

    PYTHONPATH=src python3 tests/test_oracle.py
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

from dualthink.backend import Completion  # noqa: E402
from dualthink.dataset import load_dataset  # noqa: E402
from dualthink.errors import BackendError  # noqa: E402
from dualthink.presets import DUAL_PRESET_NAME, ablation_presets, preset  # noqa: E402
from dualthink.retrieval import BM25Index, load_corpus  # noqa: E402
from dualthink.runner import ablation_sweep  # noqa: E402
from dualthink.types import TokenUsage  # noqa: E402

from inputs import write_corpus, write_dataset  # noqa: E402
from standin import StandIn  # noqa: E402

SEED = 5
DIGESTS = Path(__file__).parent / "data" / "oracle_digests.json"
FAIL_OPEN_ID = "q00002"  # its reflection replies are unreadable: the gate fails open
ERRORED_ID = "q00005"  # its integration call fails: the question errors with a partial trace
FEWER_DOCS = "System 2 (Full, k_retrieval 3)"


class OracleBackend:
    """The stand-in model in-process, with the two injected faults."""

    def __init__(self, model: StandIn, texts: dict[str, str]):
        self.model = model
        self.fail_open = f"Question:\n{texts[FAIL_OPEN_ID]}\n"
        self.errored = f"Question:\n{texts[ERRORED_ID]}\n"

    def complete(self, request):
        user = request.user_text
        if user.startswith(self.errored) and "\nBEGIN INTEGRATION\n" in user:
            raise BackendError("injected transport failure")
        if user.startswith(self.fail_open) and "\nBEGIN REFLECTION\n" in user:
            return Completion("I cannot tell.", TokenUsage(len(user) // 4, 4), "oracle")
        reply = self.model.reply(request.system_text, user)
        return Completion(reply.text, TokenUsage(reply.prompt_tokens, reply.completion_tokens))


def run_sweep(work: Path) -> Path:
    write_corpus(work / "corpus.jsonl", 60, SEED)
    model = StandIn(SEED, 0.0, 0.0)
    write_dataset(work / "dataset.jsonl", 20, model)
    questions = load_dataset(str(work / "dataset.jsonl"))
    index = BM25Index.build(load_corpus(work / "corpus.jsonl"))
    presets = ablation_presets() + [
        (DUAL_PRESET_NAME, preset(DUAL_PRESET_NAME)),
        (FEWER_DOCS, dataclasses.replace(preset("System 2 (Full)"), k_retrieval=3)),
    ]
    backend = OracleBackend(model, {q.id: q.text for q in questions})
    ablation_sweep(questions, backend, index, presets, out_dir=work / "runs")
    return work / "runs"


def _fold(data: dict, billed: str, cached: str) -> None:
    usage = data.pop(billed)
    extra = data.pop(cached)
    data["usage"] = {key: usage[key] + extra[key] for key in usage}


def _normalized(path: Path, run_dir: Path) -> object:
    """A file's content with timings, the cached flag and the billed/replayed split removed."""
    if path.name == "results.jsonl":
        lines = []
        for line in path.read_text(encoding="utf-8").splitlines():
            result = json.loads(line)
            _fold(result, "usage", "cached_usage")
            result["trace_path"] = str(Path(result["trace_path"]).relative_to(run_dir))
            lines.append(result)
        return sorted(lines, key=lambda r: r["question_id"])
    if path.name == "report.csv":
        results = _normalized(run_dir / "results.jsonl", run_dir)
        folded = {r["question_id"]: r["usage"] for r in results}
        rows = list(csv.DictReader(io.StringIO(path.read_text(encoding="utf-8"), newline="")))
        for row in rows:
            for key in ("prompt_tokens", "completion_tokens"):
                row[key] = folded[row["question_id"]][key]
        return rows
    data = json.loads(path.read_text(encoding="utf-8"))
    if path.name == "report.json":
        for kind in ("prompt", "completion"):
            cached = data.pop(f"total_cached_{kind}_tokens")
            data[f"total_{kind}_tokens"] += cached
    elif path.parent.name == "traces":
        _fold(data, "total_usage", "cached_usage")
        for step in data["steps"]:
            for key in ("wall_ms", "start_ms", "cached"):
                del step[key]
    return data


def digests(runs: Path) -> dict[str, str]:
    out = {}
    for path in sorted(p for p in runs.rglob("*") if p.is_file()):
        run_dir = runs / path.relative_to(runs).parts[0]
        text = json.dumps(_normalized(path, run_dir), sort_keys=True, separators=(",", ":"))
        out[path.relative_to(runs).as_posix()] = hashlib.sha256(text.encode()).hexdigest()
    return out


def test_the_sweep_covers_retries_a_fail_open_and_an_error(tmp_path):
    runs = run_sweep(tmp_path)
    traces = [json.loads(p.read_text()) for p in runs.rglob("traces/*.json")]
    assert any(step["attempt"] > 1 for trace in traces for step in trace["steps"])
    dual = runs / "system-1-system-2" / "traces" / f"{FAIL_OPEN_ID}.json"
    dual = json.loads(dual.read_text())
    gate = [step for step in dual["steps"] if step["agent"] == "reflection"]
    assert gate and all(step["parsed"] is None for step in gate) and dual["system2_triggered"]
    full = runs / "system-2-full" / "results.jsonl"
    errored = [json.loads(line) for line in full.read_text().splitlines()]
    errored = [r for r in errored if r["error"] is not None]
    assert [r["question_id"] for r in errored] == [ERRORED_ID]
    assert errored[0]["usage"]["prompt_tokens"] > 0
    got = digests(runs)
    assert len(got) == 10 * (4 + 20)
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    changed = sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))
    assert not changed, f"{len(changed)} normalized run files differ, e.g. {changed[:5]}"


def main() -> None:
    with tempfile.TemporaryDirectory() as work:
        listing = digests(run_sweep(Path(work)))
    DIGESTS.write_text(json.dumps(listing, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(listing)} digests to {DIGESTS}")


if __name__ == "__main__":
    main()
