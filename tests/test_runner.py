import csv
import dataclasses
import itertools
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

import dualthink.engine as engine_module
from dualthink.backend import Completion, ScriptEntry, ScriptedBackend
from dualthink.errors import BackendError, ConfigError, FormatError
from dualthink.presets import ablation_presets, preset
from dualthink.retrieval import BM25Index, Doc
from dualthink.runner import (
    QuestionResult,
    Report,
    ablation_sweep,
    accuracy_vs_tokens,
    run_benchmark,
    score_result,
    trace_file_name,
    write_ablation_csv,
    write_accuracy_vs_tokens_csv,
    write_atomic,
)
from dualthink.types import (
    Agent,
    Difficulty,
    PipelineConfig,
    Question,
    QuestionKind,
    ReasoningTrace,
    SearchDecision,
    TokenUsage,
)

from scripting import entries_for, entries_for_many, quick_completion, serialize_search, wrap

S1_ONLY = PipelineConfig(stages=frozenset(), reflection_enabled=False)
SRC = Path(__file__).resolve().parents[1] / "src"


def make_mcq(i, gold="A", difficulty=None):
    return Question(
        id=f"q{i:02d}",
        text=f"Test question number {i}, which letter?",
        options=(("A", "first"), ("B", "second")),
        gold=gold,
        difficulty=difficulty,
    )


def make_open(i, aliases, text=None):
    return Question(
        id=f"q{i:02d}",
        text=text or f"Open question number {i}?",
        gold=aliases[0],
        gold_aliases=tuple(aliases),
    )


# --- scoring ----------------------------------------------------------------


def make_trace(question, answer, option=None, triggered=False, usage=TokenUsage(), **cached):
    return ReasoningTrace(question.id, (), triggered, answer, option, usage, **cached)


def test_mcq_scoring_compares_option_labels():
    question = make_mcq(1, gold="B")
    hit = score_result(question, make_trace(question, "B", "B", False, TokenUsage(10, 5)))
    miss = score_result(question, make_trace(question, "A", "A", True, TokenUsage(10, 5)))
    assert hit.correct is True and miss.correct is False
    assert hit.predicted == "B"
    assert hit.em is None and hit.f1 is None
    assert miss.system2_triggered is True


def test_open_scoring_uses_normalized_match_and_overlap():
    question = make_open(1, ["city of paris", "paris"])
    exact = score_result(question, make_trace(question, "The City of Paris"))
    assert exact.correct is True and exact.em == 1.0 and exact.f1 == 1.0
    partial = score_result(question, make_trace(question, "paris region"))
    assert partial.correct is False and partial.em == 0.0
    assert partial.f1 == pytest.approx(2 / 3)


def test_question_without_gold_stays_unscored():
    question = Question(id="q1", text="ungraded?")
    result = score_result(question, make_trace(question, "anything"))
    assert result.correct is None and result.em is None and result.f1 is None


def test_question_result_round_trips_through_json():
    question = make_mcq(7, gold="A", difficulty=Difficulty.HARD)
    trace = make_trace(
        question, "A", "A", True, TokenUsage(120, 40), cached_usage=TokenUsage(30, 8)
    )
    result = score_result(question, trace, trace_path="traces/q07.json")
    revived = QuestionResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert revived == result


# --- whole runs -------------------------------------------------------------


def test_seven_of_ten_is_seventy_percent():
    questions = [make_mcq(i, gold="A") for i in range(1, 11)]
    answers = {q.id: ("A" if i <= 7 else "B") for i, q in enumerate(questions, start=1)}
    backend = ScriptedBackend(entries_for_many(questions, S1_ONLY, answers))
    report = run_benchmark(questions, S1_ONLY, backend)
    assert backend.remaining == 0
    assert len(report.results) == 10
    assert report.accuracy_pct == 70.00
    assert report.kind == "mcq"
    assert not report.errored


def test_report_aggregates_open_metrics():
    questions = [
        make_open(1, ["nitrogen"], text="Which gas dominates air?"),
        make_open(2, ["oxygen"], text="Which gas do we breathe for energy?"),
    ]
    answers = {"q01": "nitrogen", "q02": "carbon dioxide"}
    backend = ScriptedBackend(entries_for_many(questions, S1_ONLY, answers))
    report = run_benchmark(questions, S1_ONLY, backend)
    assert report.kind == "open"
    assert report.accuracy_pct == 50.0
    assert report.em_pct == 50.0
    assert 0.0 < report.f1_pct <= 100.0
    total = report.total_usage
    assert total.completion_tokens == sum(r.usage.completion_tokens for r in report.results)
    assert report.mean_completion_tokens == total.completion_tokens / 2


def test_duplicate_question_ids_are_rejected():
    questions = [make_mcq(1), make_mcq(1)]
    with pytest.raises(ConfigError, match="duplicate"):
        run_benchmark(questions, S1_ONLY, ScriptedBackend([]))


def test_parallel_run_routes_by_question_text():
    questions = [make_open(i, [f"answer {i}"], text=f"Unique text {i}?") for i in range(1, 7)]
    entries = [
        ScriptEntry(quick_completion(f"answer {i}"), matcher=f"Unique text {i}?")
        for i in range(1, 7)
    ]
    backend = ScriptedBackend(entries)
    report = run_benchmark(questions, S1_ONLY, backend, parallelism=3)
    assert backend.remaining == 0
    assert report.accuracy_pct == 100.0
    assert [r.question_id for r in report.results] == [f"q{i:02d}" for i in range(1, 7)]


def test_parallelism_must_be_positive():
    with pytest.raises(ConfigError):
        run_benchmark([make_mcq(1)], S1_ONLY, ScriptedBackend([]), parallelism=0)


# --- failures ----------------------------------------------------------------


def test_failed_question_is_recorded_not_raised():
    questions = [
        make_open(1, ["one"], text="First?"),
        make_open(2, ["two"], text="Second?"),
    ]
    entries = [ScriptEntry(quick_completion("one"), matcher="First?")]
    report = run_benchmark(questions, S1_ONLY, ScriptedBackend(entries))
    assert len(report.results) == 2
    failed = report.results[1]
    assert failed.error is not None
    assert failed.correct is False
    assert failed.em == 0.0 and failed.f1 == 0.0
    assert failed.usage == TokenUsage()
    assert failed.system2_triggered is False  # it died in the quick pass
    assert report.errored == [failed]
    assert report.accuracy_pct == 50.0


def test_failure_in_a_deliberation_stage_counts_as_system2():
    config = preset("System 2 (Hypothesis + Decision)")
    report = run_benchmark([make_mcq(1)], config, ScriptedBackend([]))
    assert report.results[0].error is not None
    assert report.results[0].system2_triggered is True


def test_errored_question_keeps_its_tokens_and_trace(tmp_path):
    config = dataclasses.replace(
        preset("System 1 + System 2"), stages=preset("System 2 (Hypothesis + Decision)").stages
    )
    question = make_mcq(1)
    entries = entries_for(question, config, "A")[:-1]  # the decision call finds no entry
    report = run_benchmark([question], config, ScriptedBackend(entries), out_dir=tmp_path)
    failed = report.results[0]
    assert failed.error is not None
    trace = json.loads((tmp_path / "traces" / "q01.json").read_text(encoding="utf-8"))
    assert failed.trace_path == str(tmp_path / "traces" / "q01.json")
    assert [s["agent"] for s in trace["steps"]] == ["quick", "reflection", "hypothesis"]
    assert failed.usage == TokenUsage(**trace["total_usage"])
    assert failed.usage.prompt_tokens > 0 and failed.usage.completion_tokens > 0
    assert failed.system2_triggered is trace["system2_triggered"] is True
    assert report.total_usage == failed.usage


def test_errored_questions_score_zero_and_name_the_failed_agent(tmp_path):
    questions = [make_mcq(1), Question(id="q02", text="Ungraded?"), make_open(3, ["the"])]
    config = dataclasses.replace(S1_ONLY, max_parse_retries=0)
    backend = ScriptedBackend([ScriptEntry("garbage") for _ in questions])
    mcq, ungraded, open_ = run_benchmark(questions, config, backend, out_dir=tmp_path).results
    assert mcq.predicted is None and mcq.correct is False
    assert ungraded.predicted is None and ungraded.correct is None and ungraded.em is None
    # "" is not scored: it would match "the" once both are normalized
    assert open_.predicted is None and open_.correct is False
    assert open_.em == 0.0 and open_.f1 == 0.0
    lines = (tmp_path / "results.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["error"] for line in lines] == [
        "[quick] no 'BEGIN QUICK' line found"
    ] * 3


# --- run directories ----------------------------------------------------------


def test_out_dir_layout_and_sorting(tmp_path):
    questions = [make_mcq(i, gold="A") for i in (3, 1, 2)]
    answers = {q.id: "A" for q in questions}
    backend = ScriptedBackend(entries_for_many(questions, S1_ONLY, answers))
    out = tmp_path / "run"
    report = run_benchmark(questions, S1_ONLY, backend, out_dir=out, name="layout")
    assert (out / "config.json").is_file()
    assert (out / "results.jsonl").is_file()
    assert (out / "report.json").is_file()
    assert (out / "report.csv").is_file()
    for q in questions:
        trace_file = out / "traces" / f"{q.id}.json"
        assert trace_file.is_file()
        assert json.loads(trace_file.read_text(encoding="utf-8"))["question_id"] == q.id
    # aggregate view is sorted even though execution order was 3, 1, 2
    assert [r.question_id for r in report.results] == ["q01", "q02", "q03"]
    on_disk = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert on_disk["name"] == "layout"
    assert on_disk["accuracy_pct"] == 100.0
    # report.json holds the totals only; results.jsonl and report.csv hold
    # every result.
    assert "results" not in on_disk
    assert on_disk["questions"] == 3 and on_disk["errored"] == 0
    assert on_disk["total_prompt_tokens"] == report.total_usage.prompt_tokens > 0
    assert on_disk["total_completion_tokens"] == report.total_usage.completion_tokens > 0
    with (out / "report.csv").open(encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0][0] == "question_id"
    assert [row[0] for row in rows[1:]] == ["q01", "q02", "q03"]


def test_resume_skips_questions_already_on_disk(tmp_path):
    questions = [make_mcq(i, gold="A") for i in range(1, 5)]
    answers = {q.id: "A" for q in questions}
    out = tmp_path / "run"

    first = ScriptedBackend(entries_for_many(questions[:2], S1_ONLY, answers))
    run_benchmark(questions[:2], S1_ONLY, first, out_dir=out)
    assert first.remaining == 0

    # the second script only covers q03 and q04; touching q01 or q02 again
    # would exhaust it and surface as an errored result
    second = ScriptedBackend(entries_for_many(questions[2:], S1_ONLY, answers))
    report = run_benchmark(questions, S1_ONLY, second, out_dir=out)
    assert second.remaining == 0
    assert len(report.results) == 4
    assert not report.errored
    assert report.accuracy_pct == 100.0
    lines = (out / "results.jsonl").read_text(encoding="utf-8").splitlines()
    assert len([line for line in lines if line.strip()]) == 4


def test_fully_resumed_run_makes_no_backend_calls(tmp_path):
    questions = [make_mcq(i, gold="A") for i in (1, 2)]
    answers = {q.id: "A" for q in questions}
    out = tmp_path / "run"
    run_benchmark(
        questions,
        S1_ONLY,
        ScriptedBackend(entries_for_many(questions, S1_ONLY, answers)),
        out_dir=out,
    )
    idle = ScriptedBackend([])
    report = run_benchmark(questions, S1_ONLY, idle, out_dir=out)
    assert idle.calls == []
    assert report.accuracy_pct == 100.0


def test_changed_config_is_rejected_for_an_existing_run_dir(tmp_path):
    questions = [make_mcq(1, gold="A")]
    out = tmp_path / "run"
    backend = ScriptedBackend(entries_for_many(questions, S1_ONLY, {"q01": "A"}))
    run_benchmark(questions, S1_ONLY, backend, out_dir=out)
    other = dataclasses.replace(S1_ONLY, max_parse_retries=5)
    with pytest.raises(ConfigError, match="different configuration"):
        run_benchmark(questions, other, ScriptedBackend([]), out_dir=out)


def test_unsafe_question_ids_get_distinct_trace_files_inside_traces(tmp_path):
    questions = [
        dataclasses.replace(make_mcq(i), id=qid)
        for i, qid in enumerate(["../escape", "a/b", "..", ".x", "q00001"], start=1)
    ]
    answers = {q.id: "A" for q in questions}
    out = tmp_path / "run"
    backend = ScriptedBackend(entries_for_many(questions, S1_ONLY, answers))
    report = run_benchmark(questions, S1_ONLY, backend, out_dir=out)
    traces = out / "traces"
    files = sorted(traces.iterdir())
    assert len(files) == 5
    assert traces / "q00001.json" in files
    assert sorted(tmp_path.rglob("*.json")) == sorted(files + [out / "config.json", out / "report.json"])
    for result in report.results:
        path = traces / Path(result.trace_path).name
        assert str(path) == result.trace_path
        assert json.loads(path.read_text(encoding="utf-8"))["question_id"] == result.question_id


def test_a_question_id_too_long_for_a_file_name_gets_a_cut_name_and_resumes(tmp_path):
    ids = ["q01", "what is the answer " * 10, "q03"]
    questions = [dataclasses.replace(make_mcq(i), id=qid) for i, qid in enumerate(ids, 1)]
    answers = {q.id: "A" for q in questions}
    out = tmp_path / "run"
    backend = ScriptedBackend(entries_for_many(questions, S1_ONLY, answers))
    report = run_benchmark(questions, S1_ONLY, backend, out_dir=out)
    assert backend.remaining == 0 and not report.errored and len(report.results) == 3
    for result in report.results:
        trace = json.loads(Path(result.trace_path).read_text(encoding="utf-8"))
        assert trace["question_id"] == result.question_id
        assert len(Path(result.trace_path).name + ".tmp") <= 255
    again = ScriptedBackend([])
    assert len(run_benchmark(questions, S1_ONLY, again, out_dir=out).results) == 3
    assert again.calls == []
    shared = "x" * 250
    assert trace_file_name(shared + "a") != trace_file_name(shared + "b")


def test_resume_drops_a_torn_last_line_and_answers_that_question_again(tmp_path, caplog):
    questions = [make_mcq(i, gold="A") for i in (1, 2)]
    answers = {q.id: "A" for q in questions}
    out = tmp_path / "run"
    backend = ScriptedBackend(entries_for_many(questions, S1_ONLY, answers))
    run_benchmark(questions, S1_ONLY, backend, out_dir=out)
    results = out / "results.jsonl"
    lines = results.read_text(encoding="utf-8").splitlines(keepends=True)
    torn = next(line for line in lines if '"q02"' in line)
    kept = [line for line in lines if line is not torn]
    results.write_text("".join(kept) + torn[: len(torn) // 2], encoding="utf-8")

    again = ScriptedBackend(entries_for_many(questions[1:], S1_ONLY, answers))
    report = run_benchmark(questions, S1_ONLY, again, out_dir=out)
    assert again.remaining == 0
    assert "torn last line" in caplog.text
    assert not report.errored and len(report.results) == 2
    rows = [json.loads(line) for line in results.read_text(encoding="utf-8").splitlines()]
    assert sorted(row["question_id"] for row in rows) == ["q01", "q02"]


def test_resume_rejects_a_malformed_run_directory(tmp_path):
    questions = [make_mcq(i, gold="A") for i in (1, 2)]
    answers = {q.id: "A" for q in questions}
    out = tmp_path / "run"
    backend = ScriptedBackend(entries_for_many(questions, S1_ONLY, answers))
    run_benchmark(questions, S1_ONLY, backend, out_dir=out)
    results = out / "results.jsonl"
    good = results.read_text(encoding="utf-8")
    results.write_text("{not json\n" + good, encoding="utf-8")
    with pytest.raises(FormatError, match=r"line 1: .*results\.jsonl"):
        run_benchmark(questions, S1_ONLY, ScriptedBackend([]), out_dir=out)
    results.write_text(good, encoding="utf-8")
    (out / "config.json").write_text('{"stages": [', encoding="utf-8")
    with pytest.raises(ConfigError, match=r"config\.json is not valid JSON"):
        run_benchmark(questions, S1_ONLY, ScriptedBackend([]), out_dir=out)


def test_write_atomic_replaces_whole_files_and_leaves_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "report.json"
    write_atomic(path, "first")
    write_atomic(path, "second\r\n")
    assert path.read_bytes() == b"second\r\n"
    assert list(tmp_path.iterdir()) == [path]

    def crash(src, dst):
        raise OSError("crash before rename")

    monkeypatch.setattr("dualthink.runner.os.replace", crash)
    with pytest.raises(OSError):
        write_atomic(path, "third")
    assert path.read_bytes() == b"second\r\n"
    assert not any(p.name.endswith(".json") and p != path for p in tmp_path.iterdir())


def test_a_failed_write_keeps_the_old_file_and_leaves_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "report.json"
    write_atomic(path, "old")
    write_text = Path.write_text

    def disk_full(self, text, *args, **kwargs):
        write_text(self, text[: len(text) // 2], *args, **kwargs)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_text", disk_full)
    with pytest.raises(OSError, match="No space left"):
        write_atomic(path, "new text that does not fit")
    assert path.read_text(encoding="utf-8") == "old"
    assert list(tmp_path.iterdir()) == [path]


# --- ablation sweep -------------------------------------------------------------


def test_ablation_sweep_runs_each_preset_with_its_own_script(tmp_path):
    questions = [make_mcq(i, gold="A") for i in (1, 2)]
    answers = {q.id: "A" for q in questions}
    chosen = [
        ("System 1", preset("System 1")),
        ("System 2 (Hypothesis + Decision)", preset("System 2 (Hypothesis + Decision)")),
    ]
    built = {
        name: ScriptedBackend(entries_for_many(questions, config, answers))
        for name, config in chosen
    }
    alone = [(name, run_benchmark(questions, config, built[name])) for name, config in chosen]
    # One script in the sweep's order: question by question, each through every preset.
    script = ScriptedBackend(
        ScriptEntry(entry.completion)
        for question in questions
        for _, config in chosen
        for entry in entries_for(question, config, answers[question.id])
    )
    rows = ablation_sweep(questions, script, presets=chosen, out_dir=tmp_path / "sweep")
    assert [name for name, _ in rows] == [name for name, _ in chosen]
    assert script.remaining == 0
    for (name, report), (_, alone_report) in zip(rows, alone):
        assert report.accuracy_pct == 100.0
        assert built[name].remaining == 0
        assert [dataclasses.replace(r, trace_path=None) for r in report.results] == (
            alone_report.results
        )
    assert (tmp_path / "sweep" / "system-1" / "report.json").is_file()
    assert (
        tmp_path / "sweep" / "system-2-hypothesis-decision" / "report.json"
    ).is_file()


def test_empty_report_kind_and_rates():
    report = Report(name="empty", config=S1_ONLY)
    assert report.kind == "empty"
    assert report.accuracy_pct == 0.0
    assert report.mean_completion_tokens == 0.0


# --- replies shared across the presets of a sweep ----------------------------------


class PureBackend:
    """Replies as a pure function of the request: the question is the second
    line of the user text and the agent the block tag it asks for.

    Search looks the question up for the plan's one subquestion.
    Integration cites K1 only when the prompt holds that insight, and
    decision ranks hypotheses only when asked to, so every preset gets a
    reply it can parse. The first attempt of a (question, tag) in
    ``garbled`` is unparseable, and every attempt of one in ``hopeless``;
    every call for one in ``failing`` raises.
    """

    def __init__(self, questions, answers, garbled=(), failing=(), hopeless=()):
        lean = {
            "BEGIN INTEGRATION": preset(
                "System 2 (Planning + Search + Hypothesis + Integration + Decision)"
            ),
            "BEGIN DECISION": preset("System 2 (Planning + Search + Reading + Decision)"),
        }
        self.replies = {}
        for question in questions:
            answer = answers[question.id]
            for config in (S1_ONLY, preset("System 2 (Full)")):
                for entry in entries_for(question, config, answer):
                    self.replies[question.text, entry.matcher, False] = entry.completion
            for tag, config in lean.items():
                entry = next(e for e in entries_for(question, config, answer) if e.matcher == tag)
                self.replies[question.text, tag, True] = entry.completion
            lookup = SearchDecision("P1", needs_retrieval=True, queries=(question.text,))
            self.replies[question.text, "BEGIN SEARCH", False] = wrap(serialize_search((lookup,)))
        self.garbled, self.failing, self.hopeless = set(garbled), set(failing), set(hopeless)
        self.calls = []
        self.billed = TokenUsage()
        self._lock = threading.Lock()

    def fails(self, request):
        return self._route(request)[:2] in self.failing

    def _route(self, request):
        text = request.user_text
        question, tag = text.split("\n", 2)[1], re.search(r"BEGIN [A-Z]+", text).group(0)
        is_lean = (tag == "BEGIN INTEGRATION" and "K1 (for" not in text) or (
            tag == "BEGIN DECISION" and "RANKING:" not in text
        )
        return question, tag, is_lean

    def complete(self, request):
        key = self._route(request)
        with self._lock:
            self.calls.append(request)
        if key[:2] in self.failing:
            raise BackendError("backend down")
        retry = "could not be parsed" in request.user_text
        if key[:2] in self.hopeless or (key[:2] in self.garbled and not retry):
            text = "no block at all"
        else:
            text = self.replies[key]
        usage = TokenUsage(len(request.user_text) // 4, len(text) // 4)
        with self._lock:
            self.billed = self.billed + usage
        return Completion(text, usage)


SWEEP_QUESTIONS = [
    make_mcq(1, gold="A"),
    make_mcq(2, gold="B"),
    make_open(3, ["nitrogen"], text="Which gas dominates air?"),
    make_open(4, ["oxygen"], text="Which gas do we breathe for energy?"),
]
SWEEP_ANSWERS = {"q01": "A", "q02": "A", "q03": "nitrogen", "q04": "argon"}
SWEEP_RETRIEVER = BM25Index.build([Doc("d1", "air is mostly nitrogen")])


def pure_backend(questions=SWEEP_QUESTIONS, answers=SWEEP_ANSWERS):
    q1, q2, q3, q4 = (q.text for q in SWEEP_QUESTIONS)
    return PureBackend(
        questions,
        answers,
        garbled={(q1, "BEGIN PLAN"), (q2, "BEGIN QUICK"), (q3, "BEGIN HYPOTHESES"),
                 (q4, "BEGIN DECISION")},
        failing={(q2, "BEGIN READING")},
    )


def sweep(backend, out_dir, presets=None, parallelism=1, questions=SWEEP_QUESTIONS):
    return ablation_sweep(
        questions, backend, SWEEP_RETRIEVER, presets=presets, out_dir=out_dir,
        parallelism=parallelism,
    )


def per_preset(make_backend, out_dir, presets=None, parallelism=1, questions=SWEEP_QUESTIONS):
    """What a sweep should find: each preset on a backend of its own, one
    ``run_benchmark`` call each. Returns the rows and the backends by name."""
    rows, backends = [], {}
    for name, config in presets if presets is not None else ablation_presets():
        backends[name] = make_backend()
        report = run_benchmark(
            questions, config, backends[name], SWEEP_RETRIEVER,
            parallelism=parallelism, out_dir=out_dir / name, name=name,
        )
        rows.append((name, report))
    return rows, backends


def untimed_trace(result):
    """A result's trace without timing or which steps were replayed: steps
    lose ``wall_ms``, ``start_ms`` and ``cached``, and billed and replayed
    usage are summed."""
    trace = json.loads(Path(result.trace_path).read_text(encoding="utf-8"))
    for step in trace["steps"]:
        del step["wall_ms"], step["start_ms"], step["cached"]
    billed, cached = trace.pop("total_usage"), trace.pop("cached_usage")
    trace["usage"] = {key: billed[key] + cached[key] for key in billed}
    return trace


def outcomes(rows):
    """What a sweep found, whichever of its calls were billed or replayed."""
    return [
        (name, r.question_id, r.predicted, r.correct, r.em, r.f1, r.system2_triggered,
         r.usage + r.cached_usage, r.error)
        for name, report in rows
        for r in report.results
    ]


@pytest.mark.parametrize("parallelism", [1, 3])
def test_a_shared_sweep_gives_the_results_of_one_backend_per_preset(tmp_path, parallelism):
    interval = sys.getswitchinterval()
    if parallelism > 1:
        sys.setswitchinterval(1e-6)  # interleave the workers as often as possible
    try:
        separate, alone = per_preset(pure_backend, tmp_path / "separate", parallelism=parallelism)
        shared_backend = pure_backend()
        shared = sweep(shared_backend, tmp_path / "shared", parallelism=parallelism)
    finally:
        sys.setswitchinterval(interval)

    assert outcomes(shared) == outcomes(separate)
    for (name, report), (_, alone_report) in zip(shared, separate):
        for result, alone_result in zip(report.results, alone_report.results):
            assert untimed_trace(result) == untimed_trace(alone_result), (name, result.question_id)
    assert all(r.cached_usage == TokenUsage() for _, report in separate for r in report.results)
    failed = [r for _, report in shared for r in report.errored]
    assert [r.question_id for r in failed] == ["q02"] * 3  # the presets that read
    assert all(r.error == "[reading] backend down" for r in failed)
    assert any(r.em == 0.0 for _, report in shared for r in report.results if r.error is None)
    for rows, out in ((separate, tmp_path / "separate"), (shared, tmp_path / "shared")):
        write_ablation_csv(rows, out / "ablation.csv")
        write_accuracy_vs_tokens_csv(accuracy_vs_tokens(rows), out / "accuracy_vs_tokens.csv")
    for name in ("ablation.csv", "accuracy_vs_tokens.csv"):
        assert (tmp_path / "shared" / name).read_bytes() == (
            tmp_path / "separate" / name
        ).read_bytes()

    # One call per distinct request; a request that raised is sent each time.
    requests = [r for backend in alone.values() for r in backend.calls]
    raised = [r for r in requests if shared_backend.fails(r)]
    assert len(raised) == 3
    assert len(shared_backend.calls) == len(set(requests) - set(raised)) + len(raised)
    assert len(shared_backend.calls) < len(requests) / 2

    # Reports and traces bill only the calls that reached the backend.
    billed = sum((report.total_usage for _, report in shared), TokenUsage())
    assert billed == shared_backend.billed
    steps = [
        step
        for _, report in shared
        for r in report.results
        for step in json.loads(Path(r.trace_path).read_text(encoding="utf-8"))["steps"]
    ]
    assert sum(step["cached"] for step in steps) == len(requests) - len(shared_backend.calls)
    assert any(step["cached"] and step["parsed"] is None for step in steps)  # replayed garbage
    for (name, report), (_, alone_report) in zip(shared, separate):
        totals, alone_totals = report.to_dict(), alone_report.to_dict()
        for kind in ("prompt", "completion"):
            assert totals[f"total_{kind}_tokens"] + totals[f"total_cached_{kind}_tokens"] == (
                alone_totals[f"total_{kind}_tokens"]
            ), name
        assert totals["mean_completion_tokens"] == alone_totals["mean_completion_tokens"]


def test_a_stage_that_used_up_its_retries_replays_its_failure_without_a_call(tmp_path):
    question = SWEEP_QUESTIONS[0]
    backend = PureBackend([question], SWEEP_ANSWERS, hopeless={(question.text, "BEGIN PLAN")})
    presets = [
        (name, preset(name))
        for name in (
            "System 2 (Planning + Search + Decision)",
            "System 2 (Planning + Search + Reading + Decision)",
        )
    ]
    rows = sweep(backend, tmp_path / "sweep", presets, questions=[question])
    attempts = PipelineConfig().max_parse_retries + 1
    assert len(backend.calls) == attempts
    (first,), (second,) = (report.results for _, report in rows)
    assert first.error.startswith("[planning] ")
    assert second.error == first.error
    assert (second.usage, second.cached_usage) == (TokenUsage(), first.usage)
    steps = json.loads(Path(second.trace_path).read_text(encoding="utf-8"))["steps"]
    assert [(s["agent"], s["attempt"], s["cached"], s["parsed"]) for s in steps] == [
        ("planning", attempt, True, None) for attempt in range(1, attempts + 1)
    ]


@pytest.mark.parametrize("case", ["shared", "per-preset", "ordered"])
def test_a_replayed_hypothesis_starts_no_thread(tmp_path, monkeypatch, case):
    pools, submitted = [], []

    class CountingPool(engine_module.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

        def submit(self, fn, agent, run, *args):
            submitted.append((agent, run.question.id, run.config))
            return super().submit(fn, agent, run, *args)

    monkeypatch.setattr(engine_module, "ThreadPoolExecutor", CountingPool)
    if case == "per-preset":
        rows, _ = per_preset(pure_backend, tmp_path / "sweep")
    else:
        backend = pure_backend()
        backend.ordered = case == "ordered"
        rows = sweep(backend, tmp_path / "sweep")
    assert len(rows) == 8 and all(len(report.results) == 4 for _, report in rows)
    early = {  # the presets whose hypothesis is sent on a thread
        "shared": ["System 2 (Full)"],  # each later one replays it
        "per-preset": [
            "System 2 (Full)",
            "System 2 (Planning + Search + Hypothesis + Integration + Decision)",
            "System 2 (Planning + Search + Reading + Hypothesis + Decision)",
            "System 2 (Planning + Search + Hypothesis + Decision)",
        ],
        "ordered": [],
    }[case]
    pairs = [(q, name) for q in SWEEP_QUESTIONS for name in early]
    if case == "per-preset":  # one preset's run after another
        pairs = [(q, name) for name in early for q in SWEEP_QUESTIONS]
    assert submitted == [(Agent.HYPOTHESIS, q.id, preset(name)) for q, name in pairs]
    assert len(pools) == len(submitted)


@pytest.mark.parametrize("reading_fails", [False, True])
def test_a_replayed_hypothesis_failure_keeps_its_rank(tmp_path, reading_fails):
    question = SWEEP_QUESTIONS[0]
    failing = {(question.text, "BEGIN READING")} if reading_fails else set()

    def backend():
        hopeless = {(question.text, "BEGIN HYPOTHESES")}
        return PureBackend([question], SWEEP_ANSWERS, failing=failing, hopeless=hopeless)

    presets = [
        (name, preset(name))
        for name in (
            "System 2 (Full)",
            "System 2 (Planning + Search + Reading + Hypothesis + Decision)",
            "System 2 (Planning + Search + Hypothesis + Decision)",
        )
    ]
    shared_backend = backend()
    shared = sweep(shared_backend, tmp_path / "shared", presets, questions=[question])
    separate, _ = per_preset(backend, tmp_path / "separate", presets, questions=[question])
    hypothesis_calls = [r for r in shared_backend.calls if "BEGIN HYPOTHESES" in r.user_text]
    assert len(hypothesis_calls) == PipelineConfig().max_parse_retries + 1

    # Reading, where enabled, comes first: its error outranks hypothesis's.
    *reading, without_reading = [report.results[0].error for _, report in shared]
    assert without_reading.startswith("[hypothesis] ")
    expected = "[reading] backend down" if reading_fails else without_reading
    assert reading == [expected, expected]
    later = json.loads(Path(shared[1][1].results[0].trace_path).read_text(encoding="utf-8"))
    agents = ["planning", "search"] + ([] if reading_fails else ["reading"])
    attempts = [("hypothesis", True)] * len(hypothesis_calls)
    assert [(s["agent"], s["cached"]) for s in later["steps"]] == [
        (agent, True) for agent in agents
    ] + attempts
    for (name, report), (_, alone) in zip(shared, separate):
        assert report.results[0].error == alone.results[0].error, name
        assert untimed_trace(report.results[0]) == untimed_trace(alone.results[0]), name


class CountingRetriever:
    def __init__(self, inner):
        self.inner, self.searches = inner, []

    def search(self, query, k):
        self.searches.append((query, k))
        return self.inner.search(query, k)


def test_a_shared_sweep_parses_each_reply_once_and_searches_as_one_preset(
    tmp_path, monkeypatch
):
    parses = []

    def counted(parse):
        def wrapper(*args, **kwargs):
            parses.append(parse.__name__)
            return parse(*args, **kwargs)

        return wrapper

    for name in dir(engine_module):
        if name.startswith("parse_"):
            monkeypatch.setattr(engine_module, name, counted(getattr(engine_module, name)))
    alone = CountingRetriever(SWEEP_RETRIEVER)
    full = [("System 2 (Full)", preset("System 2 (Full)"))]
    ablation_sweep(SWEEP_QUESTIONS, pure_backend(), alone, full, out_dir=tmp_path / "alone")
    parses.clear()
    backend, retriever = pure_backend(), CountingRetriever(SWEEP_RETRIEVER)
    rows = ablation_sweep(SWEEP_QUESTIONS, backend, retriever, out_dir=tmp_path / "shared")
    assert sum(Agent.SEARCH in preset(name).stages for name, _ in rows) == 6
    assert len(alone.searches) == len(SWEEP_QUESTIONS)
    assert retriever.searches == alone.searches
    assert any(SWEEP_RETRIEVER.search(query, k) for query, k in alone.searches)
    raised = sum(backend.fails(request) for request in backend.calls)
    assert raised == 3  # a failed call is not stored: each preset that reads sends it
    assert len(parses) == len(backend.calls) - raised


NO_SHARE_PRESETS = [
    (name, preset(name))
    for name in (
        "System 2 (Planning + Search + Decision)",
        "System 2 (Planning + Search + Reading + Decision)",
    )
]


def ordered_script():
    """Entries without matchers, in the order the sweep below asks for them."""
    entries = [
        ScriptEntry(entry.completion)
        for question in SWEEP_QUESTIONS
        for _, config in NO_SHARE_PRESETS
        for entry in entries_for(question, config, SWEEP_ANSWERS[question.id])
    ]
    return ScriptedBackend(entries)


@pytest.mark.parametrize("case", ["warm", "ordered"])
def test_a_sweep_shares_no_reply_when_replies_may_differ(tmp_path, case):
    presets = NO_SHARE_PRESETS
    if case == "warm":
        presets = [(name, dataclasses.replace(c, temperature=0.5)) for name, c in presets]
        backend = PureBackend(SWEEP_QUESTIONS, SWEEP_ANSWERS)
    else:
        backend = ordered_script()
        assert backend.ordered
    rows = sweep(backend, tmp_path / "sweep", presets)
    assert all(not report.errored for _, report in rows)
    assert all(r.cached_usage == TokenUsage() for _, report in rows for r in report.results)
    steps = sum(
        len(json.loads(Path(r.trace_path).read_text(encoding="utf-8"))["steps"])
        for _, report in rows
        for r in report.results
    )
    assert len(backend.calls) == steps
    if case == "ordered":
        assert backend.remaining == 0


def test_resuming_a_finished_shared_sweep_makes_no_calls(tmp_path):
    first = sweep(pure_backend(), tmp_path / "sweep")
    idle = ScriptedBackend([])
    again = sweep(idle, tmp_path / "sweep")
    assert idle.calls == []
    assert [[r.to_dict() for r in report.results] for _, report in again] == [
        [r.to_dict() for r in report.results] for _, report in first
    ]
    assert any(r.cached_usage.total for _, report in again for r in report.results)


class Killed(BaseException):
    """The process dying in the middle of a backend call."""


class DyingBackend:
    """Passes ``calls`` requests to ``inner``, then dies on the next one."""

    def __init__(self, inner, calls):
        self.inner, self.calls_left, self.killed_at = inner, calls, None

    def complete(self, request):
        if self.calls_left == 0:
            self.killed_at = request
            raise Killed()
        self.calls_left -= 1
        return self.inner.complete(request)


KILL_QUESTIONS = SWEEP_QUESTIONS + [make_mcq(i, gold="A") for i in range(5, 11)] + [
    make_open(i, ["argon"]) for i in range(11, 17)
]
KILL_ANSWERS = {q.id: SWEEP_ANSWERS.get(q.id, "A" if q.options else "argon") for q in KILL_QUESTIONS}


@pytest.mark.parametrize("seed", [3, 5, 7])
def test_a_killed_sweep_rebills_at_most_the_question_in_flight(tmp_path, seed):
    clean_backend = pure_backend(KILL_QUESTIONS, KILL_ANSWERS)
    clean = sweep(clean_backend, tmp_path / "clean", questions=KILL_QUESTIONS)
    per_question = Counter(clean_backend._route(r)[0] for r in clean_backend.calls)

    calls = random.Random(seed).randrange(len(clean_backend.calls))
    dying = DyingBackend(pure_backend(KILL_QUESTIONS, KILL_ANSWERS), calls)
    with pytest.raises(Killed):
        sweep(dying, tmp_path / "killed", questions=KILL_QUESTIONS)
    fresh = pure_backend(KILL_QUESTIONS, KILL_ANSWERS)
    resumed = sweep(fresh, tmp_path / "killed", questions=KILL_QUESTIONS)

    in_flight = clean_backend._route(dying.killed_at)[0]
    billed = len(dying.inner.calls) + len(fresh.calls)
    assert billed <= len(clean_backend.calls) + per_question[in_flight]
    assert outcomes(resumed) == outcomes(clean)


class TornAppend:
    """A ``results.jsonl`` handle that writes half of a line, then dies."""

    def __init__(self, handle, die):
        self.handle, self.die = handle, die

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()

    def write(self, line):
        self.handle.write(line[: len(line) // 2])
        self.handle.flush()
        self.die(json.loads(line)["question_id"])


def killed_sweep(point, n, out_dir):
    """The child process of the SIGKILL test: a sweep over KILL_QUESTIONS into
    ``out_dir/sweep`` that kills itself at the ``n``-th (from 0) event of kind
    ``point``: a backend call, once billed ("call"); a trace whose temp file
    is written but not yet renamed ("rename"); a ``results.jsonl`` append
    ("append"), after half of its line. Each billed call's question id, and
    the question in flight, go to ``out_dir/log`` by unbuffered writes."""
    log = os.open(out_dir / "log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    events = itertools.count()
    ids = {q.text: q.id for q in KILL_QUESTIONS}

    def die(question_id):
        os.write(log, f"killed {question_id}\n".encode())
        os.kill(os.getpid(), signal.SIGKILL)

    class Billing:
        def __init__(self, inner):
            self.inner = inner

        def complete(self, request):
            question_id = ids[self.inner._route(request)[0]]
            try:
                return self.inner.complete(request)
            finally:
                os.write(log, f"billed {question_id}\n".encode())
                if point == "call" and next(events) == n:
                    die(question_id)

    replace, open_ = os.replace, Path.open

    def replace_or_die(src, dst):
        if point == "rename" and Path(dst).parent.name == "traces" and next(events) == n:
            die(Path(dst).stem)
        replace(src, dst)

    def open_or_tear(path, mode="r", *args, **kwargs):
        handle = open_(path, mode, *args, **kwargs)
        if point == "append" and path.name == "results.jsonl" and next(events) == n:
            return TornAppend(handle, die)
        return handle

    os.replace, Path.open = replace_or_die, open_or_tear
    backend = Billing(pure_backend(KILL_QUESTIONS, KILL_ANSWERS))
    sweep(backend, out_dir / "sweep", questions=KILL_QUESTIONS)


@pytest.mark.parametrize("point", ["call", "rename", "append"])
def test_a_sweep_killed_by_sigkill_rebills_at_most_the_question_in_flight(tmp_path, point):
    clean_backend = pure_backend(KILL_QUESTIONS, KILL_ANSWERS)
    clean = sweep(clean_backend, tmp_path / "clean", questions=KILL_QUESTIONS)
    per_question = Counter(clean_backend._route(r)[0] for r in clean_backend.calls)
    answers = sum(len(report.results) for _, report in clean)
    events = len(clean_backend.calls) if point == "call" else answers
    n = random.Random(f"kill-{point}").randrange(events)

    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    child = subprocess.run(
        [sys.executable, __file__, point, str(n), str(tmp_path)],
        env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )
    assert child.returncode == -signal.SIGKILL
    log = (tmp_path / "log").read_text(encoding="utf-8").splitlines()
    *billed, killed = log
    assert killed.startswith("killed ") and all(line.startswith("billed ") for line in billed)
    if point == "rename":
        assert [p.name for p in tmp_path.rglob("*.tmp")] == [f"{killed[7:]}.json.tmp"]
    if point == "append":
        torn = [p for p in tmp_path.rglob("results.jsonl") if not p.read_bytes().endswith(b"\n")]
        assert len(torn) == 1

    fresh = pure_backend(KILL_QUESTIONS, KILL_ANSWERS)
    resumed = sweep(fresh, tmp_path / "sweep", questions=KILL_QUESTIONS)
    in_flight = next(q.text for q in KILL_QUESTIONS if q.id == killed[7:])
    assert len(billed) + len(fresh.calls) <= len(clean_backend.calls) + per_question[in_flight]
    assert outcomes(resumed) == outcomes(clean)
    assert not list(tmp_path.rglob("*.tmp"))


def test_a_search_stage_without_a_retriever_is_rejected_before_any_call(tmp_path):
    backend = pure_backend()
    with pytest.raises(ConfigError, match="no retriever"):
        ablation_sweep(SWEEP_QUESTIONS, backend, None, out_dir=tmp_path / "sweep")
    assert backend.calls == []
    assert not (tmp_path / "sweep").exists()


def test_presets_that_map_to_one_run_directory_are_rejected(tmp_path):
    backend = pure_backend()
    presets = [("System 1", preset("System 1")), ("system  1", S1_ONLY)]
    with pytest.raises(ConfigError, match="system-1"):
        sweep(backend, tmp_path / "sweep", presets)
    assert backend.calls == []
    assert not (tmp_path / "sweep").exists()


if __name__ == "__main__":  # the child process of the SIGKILL test
    killed_sweep(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
