"""Benchmark harness: scoring, resumable runs, and report tables.

A run directory is append-only and self-describing: ``config.json`` pins the
pipeline configuration (rerunning with a different one is an error),
``results.jsonl`` grows one line per finished question, ``traces/`` holds
the full reasoning trace per question, and ``report.json``/``report.csv``
are rewritten at the end. Rerunning skips questions already present in
``results.jsonl``; a torn last line, left by a crash mid-append, is dropped
and its question answered again. Every other file is written whole or not
at all (see :func:`~dualthink.dataset.write_atomic`). That covers a process
crash, not power loss: nothing is synced to disk. A run and a sweep share
one loop: each question goes through all of its configurations before the
next starts, so a sweep's presets replay a question's identical
temperature-0 stages from one engine memo, and a resumed sweep re-bills at
most the questions that were in flight.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import os
import threading
import urllib.parse
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from .backend import LLMBackend
from .dataset import read_jsonl, write_atomic
from .engine import Engine, check_retriever
from .errors import BackendError, ConfigError, FormatError, ParseError
from .metrics import exact_match, f1
from .presets import ablation_presets
from .prompts import PromptLibrary
from .retrieval import Retriever
from .types import (
    Difficulty,
    PipelineConfig,
    Question,
    QuestionKind,
    ReasoningTrace,
    TokenUsage,
    sum_usage,
    to_jsonable,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class QuestionResult:
    """Scored outcome for one question; ``error`` is set when it crashed.

    ``usage`` counts the billed calls and ``cached_usage`` the steps
    replayed from an identical earlier stage.
    """

    question_id: str
    predicted: str | None
    gold: str | None
    kind: QuestionKind
    correct: bool | None
    em: float | None
    f1: float | None
    system2_triggered: bool
    usage: TokenUsage
    difficulty: Difficulty | None = None
    trace_path: str | None = None
    error: str | None = None
    usage_estimated: bool = False
    cached_usage: TokenUsage = TokenUsage()

    def to_dict(self) -> dict[str, Any]:
        return to_jsonable(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "QuestionResult":
        return cls(
            question_id=data["question_id"],
            predicted=data.get("predicted"),
            gold=data.get("gold"),
            kind=QuestionKind(data["kind"]),
            correct=data.get("correct"),
            em=data.get("em"),
            f1=data.get("f1"),
            system2_triggered=bool(data["system2_triggered"]),
            usage=_usage(data.get("usage")),
            difficulty=Difficulty(data["difficulty"]) if data.get("difficulty") else None,
            trace_path=data.get("trace_path"),
            error=data.get("error"),
            usage_estimated=bool(data.get("usage_estimated", False)),
            cached_usage=_usage(data.get("cached_usage")),
        )


def _usage(data: Mapping[str, Any] | None) -> TokenUsage:
    data = data or {}
    return TokenUsage(int(data.get("prompt_tokens", 0)), int(data.get("completion_tokens", 0)))


def _pct(numerator: float, denominator: float) -> float:
    return round(100.0 * numerator / denominator, 2) if denominator else 0.0


@dataclass
class Report:
    """Aggregates over a finished (or resumed) run."""

    name: str
    config: PipelineConfig
    results: list[QuestionResult] = field(default_factory=list)

    @property
    def scored(self) -> list[QuestionResult]:
        return [r for r in self.results if r.correct is not None]

    @property
    def errored(self) -> list[QuestionResult]:
        return [r for r in self.results if r.error is not None]

    @property
    def accuracy_pct(self) -> float:
        scored = self.scored
        return _pct(sum(1 for r in scored if r.correct), len(scored))

    @property
    def em_pct(self) -> float:
        scored = [r for r in self.scored if r.em is not None]
        return _pct(sum(r.em for r in scored), len(scored))

    @property
    def f1_pct(self) -> float:
        scored = [r for r in self.scored if r.f1 is not None]
        return _pct(sum(r.f1 for r in scored), len(scored))

    @property
    def total_usage(self) -> TokenUsage:
        """Billed tokens: the calls that reached the backend."""
        return sum_usage(r.usage for r in self.results)

    @property
    def total_cached_usage(self) -> TokenUsage:
        return sum_usage(r.cached_usage for r in self.results)

    @property
    def mean_completion_tokens(self) -> float:
        """Completion tokens per question, billed and replayed: what the
        configuration costs when it runs alone."""
        if not self.results:
            return 0.0
        completion = self.total_usage.completion_tokens + self.total_cached_usage.completion_tokens
        return completion / len(self.results)

    @property
    def kind(self) -> str:
        kinds = {r.kind for r in self.results}
        if kinds == {QuestionKind.MCQ}:
            return "mcq"
        if kinds == {QuestionKind.OPEN}:
            return "open"
        return "mixed" if kinds else "empty"

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "config": self.config.to_dict(),
            "questions": len(self.results),
            "errored": len(self.errored),
            "accuracy_pct": self.accuracy_pct,
            "em_pct": self.em_pct,
            "f1_pct": self.f1_pct,
            "total_prompt_tokens": self.total_usage.prompt_tokens,
            "total_completion_tokens": self.total_usage.completion_tokens,
            "total_cached_prompt_tokens": self.total_cached_usage.prompt_tokens,
            "total_cached_completion_tokens": self.total_cached_usage.completion_tokens,
            "mean_completion_tokens": round(self.mean_completion_tokens, 2),
            "usage_estimated": any(r.usage_estimated for r in self.results),
        }


def score_result(
    question: Question,
    trace: ReasoningTrace,
    error: str | None = None,
    trace_path: str | None = None,
) -> QuestionResult:
    """Score one question's trace against its gold. A question that errored
    has no prediction and scores 0 wherever it can be scored."""
    correct: bool | None = None
    em_score: float | None = None
    f1_score: float | None = None
    predicted, chosen_option = trace.final_answer, trace.chosen_option
    if error is not None:
        predicted = chosen_option = None
    if question.kind is QuestionKind.MCQ:
        if question.gold is not None:
            correct = chosen_option == question.gold
    elif question.gold_aliases:
        if error is None:
            em_score = exact_match(predicted, question.gold_aliases)
            f1_score = f1(predicted, question.gold_aliases)
        else:
            em_score = f1_score = 0.0
        correct = em_score == 1.0
    return QuestionResult(
        question_id=question.id,
        predicted=chosen_option if question.kind is QuestionKind.MCQ else predicted,
        gold=question.gold,
        kind=question.kind,
        correct=correct,
        em=em_score,
        f1=f1_score,
        system2_triggered=trace.system2_triggered,
        usage=trace.total_usage,
        difficulty=question.difficulty,
        trace_path=trace_path,
        error=error,
        usage_estimated=any(step.usage_estimated for step in trace.steps),
        cached_usage=trace.cached_usage,
    )


def run_benchmark(
    questions: Sequence[Question],
    config: PipelineConfig,
    backend: LLMBackend,
    retriever: Retriever | None = None,
    *,
    parallelism: int = 1,
    out_dir: str | Path | None = None,
    name: str = "run",
    prompts: PromptLibrary | None = None,
) -> Report:
    """Answer and score every question, resuming from ``out_dir`` if present."""
    run = _Run(name, config, None if out_dir is None else Path(out_dir))
    return _answer_all(questions, [run], backend, retriever, parallelism, prompts)[0]


@dataclass
class _Run:
    """One configuration of a loop, its run directory if any, and its results."""

    name: str
    config: PipelineConfig
    path: Path | None
    results: dict[str, QuestionResult] = field(default_factory=dict)


def _answer_all(
    questions: Sequence[Question],
    runs: Sequence[_Run],
    backend: LLMBackend,
    retriever: Retriever | None,
    parallelism: int,
    prompts: PromptLibrary | None,
) -> list[Report]:
    """Checks every run and opens its directory, answers each question under
    each run that lacks it, the runs in turn through one engine, then writes
    the reports. With more than one run and a backend that is not
    ``ordered``, that engine holds a stage memo for its question alone."""
    if parallelism < 1:
        raise ConfigError(f"parallelism must be >= 1, got {parallelism}")
    dupes = _repeated(q.id for q in questions)
    if dupes:
        raise ConfigError(f"duplicate question ids: {dupes}")
    for run in runs:
        check_retriever(run.config, retriever)
    for run in runs:
        if run.path is not None:
            (run.path / "traces").mkdir(parents=True, exist_ok=True)
            _check_config_snapshot(run.path / "config.json", run.config)
            run.results = _load_results(run.path / "results.jsonl")
    share = len(runs) > 1 and not getattr(backend, "ordered", False)
    lock = threading.Lock()

    def answer(question: Question) -> None:
        engine = Engine(backend, retriever, prompts, {} if share else None)
        for run in runs:
            if question.id in run.results:
                continue
            trace_path = run.path and str(run.path / "traces" / trace_file_name(question.id))
            error = None
            try:
                trace = engine.answer(question, run.config).trace
            except (ParseError, BackendError) as exc:
                logger.error("question %s failed: %s", question.id, exc)
                trace, error = exc.trace, str(exc)
            result = score_result(question, trace, error, trace_path)
            if trace_path is not None:
                write_atomic(Path(trace_path), json.dumps(trace.to_dict()))
                with lock, (run.path / "results.jsonl").open("a", encoding="utf-8") as handle:
                    handle.write(json.dumps(result.to_dict()) + "\n")
            run.results[question.id] = result

    todo = [q for q in questions if any(q.id not in run.results for run in runs)]
    if parallelism == 1 or len(todo) <= 1:
        for question in todo:
            answer(question)
    else:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            list(pool.map(answer, todo))

    reports = [
        Report(run.name, run.config, sorted(run.results.values(), key=lambda r: r.question_id))
        for run in runs
    ]
    for run, report in zip(runs, reports):
        if run.path is not None:
            write_report(report, run.path)
    return reports


def _repeated(keys: Iterable[str]) -> list[str]:
    return sorted(key for key, count in Counter(keys).items() if count > 1)


#: Longest trace file name, so that ``dataset.write_atomic``'s ``<name>.tmp`` fits in 255 bytes.
_MAX_NAME = 251


def trace_file_name(question_id: str) -> str:
    """A file name inside ``traces/``, distinct for distinct ids: characters
    outside ``[A-Za-z0-9._-]`` and a leading ``.`` are percent-encoded, so no
    id can name ``..`` or a path; any other id keeps its spelling. A name
    longer than ``_MAX_NAME`` bytes is cut and joined by ``+``, which
    percent-encoding never emits, to a digest of the whole id."""
    name = urllib.parse.quote(question_id, safe="")
    name = ("%2E" + name[1:] if name.startswith(".") else name) + ".json"
    if len(name) <= _MAX_NAME:
        return name
    digest = hashlib.sha256(question_id.encode("utf-8")).hexdigest()
    return f"{name[:_MAX_NAME - len(digest) - len('+.json')]}+{digest}.json"


def _load_results(path: Path) -> dict[str, QuestionResult]:
    """Results already on disk, if any. A last line with no newline is a torn
    append: it is cut off so its question runs again. Any other bad line is
    an error."""
    if not path.exists():
        return {}
    data = path.read_bytes()
    if data and not data.endswith(b"\n"):
        keep = data.rfind(b"\n") + 1
        logger.warning("%s: dropping a torn last line (%d bytes)", path, len(data) - keep)
        os.truncate(path, keep)

    def error(message: str, lineno: int) -> FormatError:
        return FormatError(f"{path}: malformed result ({message})", line=lineno)

    results = {}
    for lineno, record in read_jsonl(path, error):
        try:
            result = QuestionResult.from_dict(record)
        except (ValueError, KeyError, TypeError) as exc:
            raise error(repr(exc), lineno) from exc
        results[result.question_id] = result
    if results:
        logger.info("%s: resuming, %d results already on disk", path, len(results))
    return results


def _check_config_snapshot(path: Path, config: PipelineConfig) -> None:
    snapshot = config.to_dict()
    if path.exists():
        try:
            on_disk = json.loads(path.read_bytes())
        except ValueError as exc:
            raise ConfigError(f"{path} is not valid JSON ({exc})") from exc
        if on_disk != snapshot:
            raise ConfigError(
                f"{path} holds a different configuration; "
                "use a fresh output directory or the original config"
            )
    else:
        write_atomic(path, json.dumps(snapshot, indent=2))


def _write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(map(_cell, row) for row in rows)
    write_atomic(Path(path), buffer.getvalue())


def _cell(value: Any) -> Any:
    """None is empty, a bool ``true`` or ``false``, an enum its value."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Enum):
        return value.value
    return "" if value is None else value


def write_report(report: Report, out_dir: Path) -> None:
    write_atomic(out_dir / "report.json", json.dumps(report.to_dict(), indent=2))
    _write_csv(
        out_dir / "report.csv",
        (
            "question_id kind predicted gold correct em f1 system2_triggered "
            "prompt_tokens completion_tokens difficulty error"
        ).split(),
        (
            [
                r.question_id, r.kind, r.predicted, r.gold, r.correct, r.em, r.f1,
                r.system2_triggered, r.usage.prompt_tokens, r.usage.completion_tokens,
                r.difficulty, r.error,
            ]
            for r in report.results
        ),
    )


# --- stratified trigger table -------------------------------------------


@dataclass(frozen=True)
class StratumRow:
    difficulty: Difficulty
    mode: str
    correct: int
    incorrect: int

    @property
    def accuracy_pct(self) -> float:
        return _pct(self.correct, self.correct + self.incorrect)


def stratified_trigger_report(results: Iterable[QuestionResult]) -> list[StratumRow]:
    """Accuracy broken down by difficulty and which system answered.

    Every result needs a difficulty and a scoreable outcome; strata with no
    questions are omitted.
    """
    counts: dict[tuple[Difficulty, str], list[int]] = {}
    for result in results:
        _check_stratum(result.question_id, result.difficulty, result.correct is not None)
        mode = "System 2" if result.system2_triggered else "System 1"
        cell = counts.setdefault((result.difficulty, mode), [0, 0])
        cell[0 if result.correct else 1] += 1
    rows = []
    for difficulty in Difficulty:
        for mode in ("System 1", "System 2"):
            if (difficulty, mode) in counts:
                correct, incorrect = counts[(difficulty, mode)]
                rows.append(StratumRow(difficulty, mode, correct, incorrect))
    return rows


def check_stratifiable(questions: Iterable[Question]) -> None:
    """Raise the ConfigError :func:`stratified_trigger_report` would raise on
    these questions' results, before any is answered: each needs a difficulty
    and a gold that :func:`score_result` scores (a label, or an alias)."""
    for q in questions:
        scored = q.gold is not None if q.kind is QuestionKind.MCQ else bool(q.gold_aliases)
        _check_stratum(q.id, q.difficulty, scored)


def _check_stratum(question_id: str, difficulty: Difficulty | None, scored: bool) -> None:
    if difficulty is None:
        raise ConfigError(
            f"question {question_id} has no difficulty; "
            "a stratified report needs one on every question"
        )
    if not scored:
        raise ConfigError(f"question {question_id} has no gold answer; cannot stratify")


def write_stratified_csv(rows: Sequence[StratumRow], path: str | Path) -> None:
    _write_csv(
        path,
        ["difficulty", "mode", "correct", "incorrect", "accuracy_pct"],
        ([r.difficulty, r.mode, r.correct, r.incorrect, r.accuracy_pct] for r in rows),
    )


# --- ablation sweep -------------------------------------------------------


def ablation_sweep(
    questions: Sequence[Question],
    backend: LLMBackend,
    retriever: Retriever | None = None,
    presets: Sequence[tuple[str, PipelineConfig]] | None = None,
    *,
    out_dir: str | Path | None = None,
    parallelism: int = 1,
    prompts: PromptLibrary | None = None,
) -> list[tuple[str, Report]]:
    """Run every preset over the same questions; one report per preset.

    Each question goes through every preset before the next one starts;
    each preset keeps its own run directory, ``out_dir/<slug>``. Unless the
    backend's replies depend on call order (``ordered``), a later preset
    replays a question's identical temperature-0 stages as cached usage,
    with their parsed outputs, and makes no call, parse or search for them.
    """
    presets = list(presets if presets is not None else ablation_presets())
    repeated = _repeated(_slug(name) for name, _ in presets)
    if repeated:
        raise ConfigError(f"presets map to the same run directory: {repeated}")
    root = None if out_dir is None else Path(out_dir)
    runs = [_Run(name, config, root and root / _slug(name)) for name, config in presets]
    reports = _answer_all(questions, runs, backend, retriever, parallelism, prompts)
    return [(run.name, report) for run, report in zip(runs, reports)]


def _slug(name: str) -> str:
    cleaned = "".join(ch.lower() if ch.isalnum() else "-" for ch in name)
    while "--" in cleaned:
        cleaned = cleaned.replace("--", "-")
    return cleaned.strip("-")


def write_ablation_csv(rows: Sequence[tuple[str, Report]], path: str | Path) -> None:
    _write_csv(
        path,
        ["preset", "questions", "accuracy_pct", "em_pct", "f1_pct"],
        ([name, len(r.results), r.accuracy_pct, r.em_pct, r.f1_pct] for name, r in rows),
    )


# --- cost/quality tradeoff -------------------------------------------------


def accuracy_vs_tokens(
    reports: Sequence[tuple[str, Report]],
) -> list[tuple[str, float, float]]:
    """(name, mean completion tokens per question, accuracy_pct) per report."""
    rows = []
    for name, report in reports:
        if not report.results:
            logger.warning("report %r has no questions; skipping", name)
            continue
        rows.append((name, round(report.mean_completion_tokens, 2), report.accuracy_pct))
    return rows


def write_accuracy_vs_tokens_csv(
    rows: Sequence[tuple[str, float, float]], path: str | Path
) -> None:
    _write_csv(path, ["name", "mean_completion_tokens", "accuracy_pct"], rows)
