"""Benchmark worker: sets up one workload, runs it in a closed loop, checks it.

Started by ``run.py`` in a fresh process per run, so ``ru_maxrss`` is this
workload's peak. The inputs are already in ``--work``. The last line of
standard output is a JSON object with the metrics, counts and check failures.

The loop answers the dataset in rounds of ``round_size`` questions, each
round a ``run_benchmark`` (or ``ablation_sweep``) call on a fresh run
directory, until ``--seconds`` of round wall time have passed and at least
``min_answers`` answers are in. No question is answered twice, so a cache
of completions could only hit on prompts the workload really repeats.

``Engine.answer`` is timed by swapping ``dualthink.runner.Engine`` for a
subclass whose ``answer`` records its wall time and outcome.
"""

from __future__ import annotations

import argparse
import gc
import http.client
import json
import logging
import math
import os
import random
import resource
import shutil
import statistics
import sys
import threading
import time
import urllib.parse
import urllib.request
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import dualthink.runner as runner_module  # noqa: E402
from dualthink.backend import Completion, HttpChatBackend, RetryPolicy  # noqa: E402
from dualthink.dataset import load_dataset  # noqa: E402
from dualthink.engine import Engine  # noqa: E402
from dualthink.errors import BackendError  # noqa: E402
from dualthink.presets import preset  # noqa: E402
from dualthink.retrieval import BM25Index, load_corpus  # noqa: E402
from dualthink.runner import ablation_sweep, run_benchmark  # noqa: E402
from dualthink.types import QuestionKind, TokenUsage, stage_sequence  # noqa: E402

import tracing  # noqa: E402
from inputs import WORKLOADS, Workload  # noqa: E402
from standin import StandIn, Unreadable  # noqa: E402

#: ``setup_s`` is the median of set-ups spread over the run: one before the
#: loop, one between rounds whenever set-up has taken less than SETUP_SHARE
#: of the loop's time so far, and after the loop as many as it takes to reach
#: SETUP_MIN. The host's speed drifts over tens of seconds, so set-ups spread
#: out give a steadier median than the same number taken in a row.
SETUP_SHARE = 0.05
SETUP_MIN = 3
BM25_SAMPLE = 5


class StandInBackend:
    """In-process form of the stand-in: dualthink's ``LLMBackend`` protocol."""

    def __init__(self, model: StandIn):
        self.model = model
        self.local = threading.local()

    def complete(self, request):
        started = time.monotonic()
        try:
            reply = self.model.reply(request.system_text, request.user_text)
        except Unreadable as exc:
            self.model.count_error()
            raise BackendError(f"stand-in cannot read the prompt: {exc}") from None
        self.model.record(reply, started, time.monotonic())
        self.local.service_s = reply.service_s
        return Completion(
            text=reply.text,
            usage=TokenUsage(reply.prompt_tokens, reply.completion_tokens),
            model_id="standin",
        )


def stand_in_stats(model: StandIn, endpoint: str | None, since: int) -> dict:
    if endpoint is None:
        return model.stats(since)
    with urllib.request.urlopen(f"{endpoint}/stats?since={since}", timeout=30) as response:
        return json.loads(response.read())


@dataclass
class AnswerRecord:
    question_id: str
    start: float
    end: float
    config: object
    sequence: tuple[str, ...] = ()
    triggered: bool = False
    steps: int = 0
    error: str | None = None


@dataclass
class Run:
    """What one measured phase produced."""

    wall_s: float = 0.0
    answers: list[AnswerRecord] = field(default_factory=list)
    results: list = field(default_factory=list)
    usage: TokenUsage = TokenUsage()
    records: list = field(default_factory=list)
    http_retries: int = 0
    rounds: int = 0
    last_dir: Path | None = None
    trace_bytes: int = 0
    queries: list[str] = field(default_factory=list)
    consumed: int = 0
    peak_rss_mb: float = 0.0
    inflight_max: int = 0
    resume_ms: float = 0.0
    failures: list[str] = field(default_factory=list)


@contextmanager
def timed_engine(answers: list[AnswerRecord], tracer: tracing.Tracer | None):
    """Swap the runner's Engine for one whose ``answer`` is timed."""

    class TimedEngine(Engine):
        def answer(self, question, config=None):
            record = AnswerRecord(question.id, 0.0, 0.0, config)
            token = None
            if tracer is not None:
                tracer.question = question.id
                token = tracer.begin()
            record.start = time.monotonic()
            try:
                outcome = super().answer(question, config)
            except Exception as exc:
                record.error = repr(exc)
                raise
            finally:
                record.end = time.monotonic()
                if token is not None:
                    tracer.finish(token, "engine", record.end)
                    tracer.question = None
                answers.append(record)
            agents = outcome.trace.agent_sequence(parsed_only=True)
            record.sequence = tuple(agent.value for agent in agents)
            record.triggered = outcome.trace.system2_triggered
            record.steps = len(outcome.trace.steps)
            return outcome

    saved = runner_module.Engine
    runner_module.Engine = TimedEngine
    try:
        yield
    finally:
        runner_module.Engine = saved


def setup(workload: Workload, work: Path):
    """The workload's set-up path, from loading inputs to a ready index."""
    questions = load_dataset(str(work / "dataset.jsonl"))
    if workload.snapshot == "read":
        return questions, BM25Index.load(work / "snapshot.json")
    index = BM25Index.build(load_corpus(work / "corpus.jsonl"))
    if workload.snapshot == "write":
        index.save(work / "index.json")
    return questions, index


def timed_setup(workload: Workload, work: Path, times: list[float]):
    """One set-up, its time appended to ``times``."""
    started = time.perf_counter()
    ready = setup(workload, work)
    times.append(time.perf_counter() - started)
    return ready


def probe_layers(work: Path) -> dict[str, tuple[float, str]]:
    """Times each set-up layer call on its own, whatever the workload's path."""

    def timed(fn, *args):
        start = time.perf_counter()
        value = fn(*args)
        return value, time.perf_counter() - start

    _, dataset_s = timed(load_dataset, str(work / "dataset.jsonl"))
    docs, _ = timed(load_corpus, work / "corpus.jsonl")
    index, build_s = timed(BM25Index.build, docs)
    _, save_s = timed(index.save, work / "probe.json")
    del index, docs
    gc.collect()
    _, load_s = timed(BM25Index.load, work / "probe.json")
    return {
        "dataset.load_ms": (dataset_s * 1000, "ms"),
        "retrieval.build_s": (build_s, "s"),
        "retrieval.save_s": (save_s, "s"),
        "retrieval.load_s": (load_s, "s"),
        "retrieval.snapshot_mb": ((work / "probe.json").stat().st_size / 2**20, "MB"),
    }


def measure(
    workload: Workload,
    questions,
    index,
    model: StandIn,
    endpoint: str | None,
    work: Path,
    tag: str,
    seconds: float,
    min_answers: int,
    tracer: tracing.Tracer | None = None,
    between_rounds: Callable[[Run], object] = lambda run: None,
) -> Run:
    """Closed loop over rounds of fresh questions, then the resume pass.
    ``between_rounds`` runs untimed after each round."""
    run = Run()
    parallelism = len(os.sched_getaffinity(0)) if endpoint else 1
    session = None
    if endpoint is None:
        backend = in_process = StandInBackend(model)
        service_s = lambda: in_process.local.service_s  # noqa: E731
    else:
        session = tracing.TracedSession() if tracer else None
        backend = HttpChatBackend(
            f"{endpoint}/v1",
            "standin",
            retry=RetryPolicy(max_attempts=3, backoff_base=0.005, backoff_max=0.02),
            session=session,
        )
        service_s = lambda: session.local.service_s  # noqa: E731
    retriever = index
    prompts = None
    if tracer is not None:
        backend = tracing.TracedBackend(backend, tracer, service_s)
        retriever = tracing.TracedRetriever(index, tracer)
        prompts = tracing.traced_prompts(tracer)

    def one_round(batch, out_dir):
        if workload.preset is None:
            rows = ablation_sweep(batch, backend, retriever, out_dir=out_dir, prompts=prompts)
            return [report for _, report in rows]
        report = run_benchmark(
            batch, preset(workload.preset), backend, retriever,
            parallelism=parallelism, out_dir=out_dir, name=workload.name, prompts=prompts,
        )
        return [report]

    rng = random.Random(f"queries-{model.seed}-{tag}")
    offset = stand_in_stats(model, endpoint, 0)["count"]
    patch = tracing.patched(tracer) if tracer else nullcontext()
    with timed_engine(run.answers, tracer), patch:
        position = 0
        while position < len(questions) and (
            run.wall_s < seconds or len(run.answers) < min_answers
        ):
            batch = questions[position : position + workload.round_size]
            position += len(batch)
            out_dir = work / "rounds" / f"{tag}-{run.rounds:04d}"
            started = time.monotonic()
            reports = one_round(batch, out_dir)
            run.wall_s += time.monotonic() - started
            run.rounds += 1
            after_round(run, out_dir, rng)
            between_rounds(run)
            for report in reports:
                run.results.extend(report.results)
                run.usage = run.usage + report.total_usage
        run.consumed = position
        run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        stats = stand_in_stats(model, endpoint, offset)
        run.records = stats["records"]
        run.http_retries = session.retries if session else 0
        run.inflight_max = getattr(backend, "inflight_max", 0)
        if stats["errors"]:
            run.failures.append(f"the stand-in could not read {stats['errors']} prompts")

        # Resume: the same call on the last round's directory makes no model call.
        before = len(run.answers), offset + len(run.records)
        started = time.monotonic()
        again = one_round(batch, run.last_dir)
        run.resume_ms = (time.monotonic() - started) * 1000
        after = stand_in_stats(model, endpoint, before[1])["count"]
        if len(run.answers) != before[0] or after != before[1]:
            run.failures.append(f"resume made {after - before[1]} model calls")
        last = [r.to_dict() for r in run.results[-len(batch) * len(again):]]
        if [r.to_dict() for report in again for r in report.results] != last:
            run.failures.append("resume returned different results")
    return run


def check(run: Run, questions, model: StandIn, index, work: Path) -> int:
    """Output checks; appends to ``run.failures``, returns failed answers."""
    by_id = {q.id: q for q in questions}
    text_to_id = {q.text: q.id for q in questions}
    failed = 0
    for result in run.results:
        question = by_id[result.question_id]
        if result.error is not None:
            failed += 1
            continue
        if question.kind is QuestionKind.MCQ:
            expected = model.committed_answer(question.text, question.option_labels)
        else:
            expected = model.committed_answer(question.text)
        if result.predicted != expected:
            failed += 1
            run.failures.append(f"{result.question_id}: answer {result.predicted!r}, "
                                f"committed {expected!r}")

    for answer in run.answers:
        if answer.error is not None:
            continue
        config, question = answer.config, by_id[answer.question_id]
        expected_seq = []
        escalated = config.force_system2 or not config.system1_enabled
        if config.system1_enabled:
            expected_seq.append("quick")
            if config.reflection_enabled and not config.force_system2:
                expected_seq.append("reflection")
                escalated = model.escalates(question.text)
        if escalated:
            expected_seq += [a.value for a in stage_sequence(config)]
        if answer.sequence != tuple(expected_seq) or answer.triggered != escalated:
            failed += 1
            run.failures.append(f"{answer.question_id}: agents {answer.sequence}, "
                                f"expected {tuple(expected_seq)}")

    ok_ids = {r.question_id for r in run.results if r.error is None}
    counted = [0, 0]
    for record in run.records:
        if text_to_id.get(record[0]) in ok_ids:
            counted[0] += record[3]
            counted[1] += record[4]
    if (run.usage.prompt_tokens, run.usage.completion_tokens) != tuple(counted):
        run.failures.append(
            f"run usage {run.usage} differs from the stand-in's count {counted}"
        )
    check_bm25(run, index, work, random.Random(f"bm25-{model.seed}"))
    return failed


def after_round(run: Run, out_dir: Path, rng: random.Random) -> None:
    """Untimed bookkeeping between rounds: sizes the round's traces, keeps the
    queries of two that searched, and deletes the round before last, so old
    run directories are dropped before their pages would be written back to
    disk during later rounds."""
    traces = sorted(out_dir.glob("**/traces/*.json"))
    run.trace_bytes += sum(path.stat().st_size for path in traces)
    rng.shuffle(traces)
    kept = 0
    for path in traces:
        steps = json.loads(path.read_text(encoding="utf-8"))["steps"]
        queries = [q for step in steps if step["agent"] == "search" and step["parsed"]
                   for d in step["parsed"]["decisions"] for q in d["queries"]]
        run.queries += queries
        kept += bool(queries)
        if kept == 2:
            break
    if run.last_dir is not None:
        shutil.rmtree(run.last_dir)
    run.last_dir = out_dir


def check_bm25(run: Run, index, work: Path, rng: random.Random) -> None:
    """A seeded sample of the run's queries against a brute-force BM25 scorer."""
    if not run.queries:
        run.failures.append("no search queries found in the sampled traces")
        return
    sample = rng.sample(run.queries, min(len(run.queries), BM25_SAMPLE))
    docs = [json.loads(line) for line in (work / "corpus.jsonl").open(encoding="utf-8")]
    bags = [Counter(d["text"].split()) for d in docs]
    lengths = [sum(bag.values()) for bag in bags]
    # k1, b and k are the program's defaults, which every workload runs with.
    avgdl, n, k1, b, k = sum(lengths) / len(lengths), len(docs), 1.2, 0.75, 5
    for query in sample:
        scores = defaultdict(float)
        for term in dict.fromkeys(query.split()):
            df = sum(1 for bag in bags if term in bag)
            idf = math.log((n - df + 0.5) / (df + 0.5) + 1)
            for i, bag in enumerate(bags):
                tf = bag.get(term, 0)
                if tf:
                    scores[i] += idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * lengths[i] / avgdl))
        expected = sorted(
            ((docs[i]["id"], s) for i, s in scores.items() if s > 0),
            key=lambda pair: (-pair[1], pair[0]),
        )[:k]
        hits = index.search(query, k)
        if [h.doc_id for h in hits] != [d for d, _ in expected] or any(
            abs(h.score - s) > 1e-9 for h, (_, s) in zip(hits, expected)
        ):
            run.failures.append(f"BM25 top-{k} for {query!r} differs from brute force")


def critical_paths(run: Run, questions) -> tuple[list[int], int]:
    """Per answer, the longest chain of its model calls that do not overlap in
    time; also the number of calls that fall in no answer."""
    text_to_id = {q.text: q.id for q in questions}
    calls = defaultdict(list)
    for record in run.records:
        calls[text_to_id.get(record[0])].append(record)
    paths, claimed = [], 0
    for answer in run.answers:
        mine = [r for r in calls[answer.question_id]
                if r[1] >= answer.start and r[2] <= answer.end]
        claimed += len(mine)
        chain, last_end = 0, float("-inf")
        for record in sorted(mine, key=lambda r: r[2]):
            if record[1] >= last_end:
                chain, last_end = chain + 1, record[2]
        paths.append(chain)
    return paths, len(run.records) - claimed


def percentile(values, q: int) -> float:
    """The q-th percentile, by the inclusive method of statistics.quantiles."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(run: Run, questions, setup_s: list[float]) -> dict:
    n = len(run.answers)
    latencies = [(a.end - a.start) * 1000 for a in run.answers]
    paths, stray = critical_paths(run, questions)
    if stray:
        run.failures.append(f"{stray} model calls fell outside every Engine.answer")
    return {
        "questions_per_s": (n / run.wall_s, "1/s", n),
        "question_p50_ms": (statistics.median(latencies), "ms", n),
        "question_p95_ms": (percentile(latencies, 95), "ms", n),
        "llm_calls_per_question": (len(run.records) / n, "count", n),
        "prompt_tokens_per_question": (sum(r[3] for r in run.records) / n, "count", n),
        "completion_tokens_per_question": (sum(r[4] for r in run.records) / n, "count", n),
        "critical_path_calls": (statistics.fmean(paths), "count", n),
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
        "peak_rss_mb": (run.peak_rss_mb, "MB", 1),
    }


def per_layer(run: Run, base: Run, tracer: tracing.Tracer, probes: dict,
              parallelism: int) -> dict:
    """Per-layer metrics from the traced phase's spans; ``base`` is the
    untraced phase, for the tracing overhead."""
    spans = defaultdict(list)
    for span in tracer.spans:
        spans[span[1]].append(span)
    missing = [name for name in tracing.BOUNDARIES if not spans[name]]
    if missing:
        run.failures.append(f"traced boundaries recorded no spans: {missing}")
        return {}

    def ms(span):
        return (span[3] - span[2]) * 1000

    def total_s(name):
        return sum(span[3] - span[2] for span in spans[name])

    def share(seconds):
        return 100 * seconds / busy_s

    n = len(run.answers)
    busy_s = run.wall_s * parallelism
    backend, search = spans["backend"], spans["retrieval"]
    parse, render = spans["parsers"], spans["prompts"]
    answers = {s[0] for s in spans["engine"]}
    children = sum(s[3] - s[2] for name in ("backend", "retrieval", "prompts", "parsers")
                   for s in spans[name] if s[4] in answers)
    engine_self = total_s("engine") - children
    runner_self = busy_s - total_s("engine")
    metrics = {
        "backend.calls": (len(backend), "count"),
        "backend.unique_prompt_pct": (
            100 * len({s[6]["digest"] for s in backend}) / len(backend), "%"),
        "backend.wait_ms_p50": (statistics.median(map(ms, backend)), "ms"),
        "backend.wait_ms_p95": (percentile(list(map(ms, backend)), 95), "ms"),
        "backend.overhead_ms_p50": (statistics.median(
            ms(s) - s[6]["service_s"] * 1000 for s in backend), "ms"),
        "backend.http_retries": (run.http_retries, "count"),
        "backend.parse_retry_calls": (sum(1 for s in backend if s[6]["parse_retry"]), "count"),
        "backend.inflight_max": (run.inflight_max, "count"),
        "backend.share_pct": (share(total_s("backend")), "%"),
        "prompts.render_calls": (len(render), "count"),
        "prompts.render_us_p50": (statistics.median(map(ms, render)) * 1000, "us"),
        "prompts.user_chars_mean": (statistics.fmean(s[6]["chars"] for s in render), "chars"),
        "prompts.share_pct": (share(total_s("prompts")), "%"),
        "parsers.calls": (len(parse), "count"),
        "parsers.parse_us_p50": (statistics.median(map(ms, parse)) * 1000, "us"),
        "parsers.errors": (sum(1 for s in parse if not s[6]["ok"]), "count"),
        "parsers.ok_pct": (100 * sum(1 for s in parse if s[6]["ok"]) / len(parse), "%"),
        "parsers.share_pct": (share(total_s("parsers")), "%"),
        "retrieval.search_calls": (len(search), "count"),
        "retrieval.search_ms_p50": (statistics.median(map(ms, search)), "ms"),
        "retrieval.search_ms_p95": (percentile(list(map(ms, search)), 95), "ms"),
        "retrieval.postings_scanned_per_search": (
            statistics.fmean(s[6]["postings"] for s in search), "count"),
        "retrieval.share_pct": (share(total_s("retrieval")), "%"),
        "engine.answer_ms_p50": (statistics.median(map(ms, spans["engine"])), "ms"),
        "engine.self_ms_per_question": (engine_self * 1000 / n, "ms"),
        "engine.escalation_pct": (100 * sum(1 for a in run.answers if a.triggered) / n, "%"),
        "engine.steps_per_question": (sum(a.steps for a in run.answers) / n, "count"),
        "engine.share_pct": (share(engine_self), "%"),
        "runner.self_ms_per_question": (runner_self * 1000 / n, "ms"),
        "runner.report_write_ms": (statistics.fmean(map(ms, spans["write_report"])), "ms"),
        "runner.resume_ms": (run.resume_ms, "ms"),
        "runner.trace_bytes_per_question": (run.trace_bytes / n, "bytes"),
        "runner.share_pct": (share(runner_self), "%"),
        "tracing.overhead_pct": (
            100 * ((len(base.answers) / base.wall_s) / (n / run.wall_s) - 1), "%"),
    }
    metrics.update(probes)
    return {name: (value, unit, n) for name, (value, unit) in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--endpoint", default=None)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)
    # The HTTP backend logs each retried attempt; the run counts them instead.
    logging.getLogger("dualthink").setLevel(logging.ERROR)
    workload = WORKLOADS[args.workload]
    model = StandIn(args.seed, workload.base_ms, workload.per_token_ms)
    parallelism = len(os.sched_getaffinity(0)) if args.endpoint else 1
    failures = []
    if args.endpoint is not None:
        trip_ms = round_trip_ms(args.endpoint)
        if trip_ms > workload.base_ms / 4:
            failures.append(f"an empty loopback round trip takes {trip_ms:.2f} ms, "
                            f"not well below the {workload.base_ms} ms simulated latency")

    if args.trace:
        probes = probe_layers(args.work)
        questions, index = setup(workload, args.work)
        half = args.seconds / 2
        base = measure(workload, questions, index, model, args.endpoint, args.work,
                       "base", half, 1)
        tracer = tracing.Tracer()
        run = measure(workload, questions[base.consumed:], index, model, args.endpoint,
                      args.work, "traced", half, 1, tracer)
        failed = check(base, questions, model, index, args.work)
        failed += check(run, questions, model, index, args.work)
        failures += base.failures
        attempted = len(base.answers) + len(run.answers)
        metrics = per_layer(run, base, tracer, probes, parallelism)
        if args.spans is not None:
            tracer.write(args.spans)
    else:
        setup_s = []
        questions, index = timed_setup(workload, args.work, setup_s)

        def spread_setups(run):
            if sum(setup_s) < SETUP_SHARE * run.wall_s:
                timed_setup(workload, args.work, setup_s)

        run = measure(workload, questions, index, model, args.endpoint, args.work,
                      "e2e", args.seconds, 200, between_rounds=spread_setups)
        failed = check(run, questions, model, index, args.work)
        attempted = len(run.answers)
        index = None
        while len(setup_s) < SETUP_MIN:
            timed_setup(workload, args.work, setup_s)
        metrics = end_to_end(run, questions, setup_s)
        metrics["error_pct"] = (100 * failed / attempted, "%", attempted)
    print(json.dumps({
        "attempted": attempted,
        "failed": failed,
        "failures": (failures + run.failures)[:20],
        "metrics": metrics,
    }))
    return 0


def round_trip_ms(endpoint: str, trips: int = 21) -> float:
    """Median wall time of an empty request on one keep-alive connection."""
    url = urllib.parse.urlparse(endpoint)
    connection = http.client.HTTPConnection(url.hostname, url.port, timeout=30)
    times = []
    try:
        for _ in range(trips):
            started = time.perf_counter()
            connection.request("GET", f"/stats?since={2**62}")
            connection.getresponse().read()
            times.append((time.perf_counter() - started) * 1000)
    finally:
        connection.close()
    return statistics.median(times)


if __name__ == "__main__":
    sys.exit(main())
