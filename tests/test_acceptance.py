"""End-to-end checks, one test per guarantee the package makes.

Every test here re-derives its expected values with an independent
in-test oracle (or hand arithmetic frozen into constants) and finishes
by printing one ``ACCEPTANCE <name>: PASS`` line.
"""

import json
import math
import os
import random
import string
import time
from pathlib import Path

import pytest

from dualthink.backend import HttpChatBackend, ScriptedBackend, ScriptEntry
from dualthink.engine import Engine
from dualthink.errors import ParseError
from dualthink.metrics import exact_match, f1, normalize_answer
from dualthink.parsers import (
    parse_decision,
    parse_hypotheses,
    parse_integration,
    parse_plan,
    parse_quick,
    parse_reading,
    parse_reflection,
    parse_search,
)
from dualthink.presets import ablation_presets
from dualthink.retrieval import BM25Index, Doc
from dualthink.runner import (
    QuestionResult,
    accuracy_vs_tokens,
    run_benchmark,
    stratified_trigger_report,
)
from dualthink.types import (
    SYSTEM2_STAGES,
    Difficulty,
    Hypothesis,
    PipelineConfig,
    Plan,
    PlanItem,
    Question,
    QuestionKind,
    TokenUsage,
    Verdict,
    stage_sequence,
)

import payload_gen
from scripting import (
    entries_for,
    entries_for_many,
    serialize_decision,
    serialize_hypotheses,
    serialize_integration,
    serialize_plan,
    serialize_quick,
    serialize_reading,
    serialize_reflection,
    serialize_search,
)

# --- 1. the dual-process gate -------------------------------------------------


class _CountingIndex:
    def __init__(self, inner):
        self._inner = inner
        self.calls = 0

    def search(self, query, k):
        self.calls += 1
        return self._inner.search(query, k)


def test_gating_invariant_over_fifty_scenarios():
    started = time.perf_counter()
    question = Question(id="g1", text="Which gas dominates air?")
    stage_sets = [c.stages for _, c in ablation_presets() if c.stages]
    assert len(stage_sets) == 7

    scenarios = []
    for stages in stage_sets:
        for s1, refl, force in [
            (True, True, False),
            (True, True, True),
            (True, False, True),
            (True, False, False),
            (False, False, True),
            (False, False, False),
        ]:
            verdicts = (
                [Verdict.ACCEPT, Verdict.ESCALATE]
                if s1 and refl and not force
                else [None]
            )
            for verdict in verdicts:
                scenarios.append((stages, s1, refl, force, verdict))
    scenarios.append((frozenset(), True, False, False, None))
    assert len(scenarios) == 50

    for stages, s1, refl, force, verdict in scenarios:
        config = PipelineConfig(
            stages=stages,
            system1_enabled=s1,
            reflection_enabled=refl,
            force_system2=force,
        )
        kwargs = {} if verdict is None else {"reflect": verdict}
        backend = ScriptedBackend(entries_for(question, config, "nitrogen", **kwargs))
        retriever = _CountingIndex(_mini_index())
        result = Engine(backend, retriever=retriever).answer(question, config)
        assert backend.remaining == 0

        gate_ran = s1 and refl and not force
        escalated = gate_ran and verdict is Verdict.ESCALATE
        expected = force or not s1 or escalated
        assert result.trace.system2_triggered == expected, (
            stages, s1, refl, force, verdict,
        )
        sequence = result.trace.agent_sequence()
        assert ("reflection" in [a.value for a in sequence]) == gate_ran
        if expected:
            assert result.trace.stage_agents() == stage_sequence(config)
        else:
            # accept short-circuit: the quick answer comes back untouched
            # and nothing ever hits the retriever
            assert result.trace.stage_agents() == []
            assert retriever.calls == 0
        assert result.final_answer == "nitrogen"

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"gating suite took {elapsed:.1f}s"
    print(f"ACCEPTANCE gating_invariant: PASS ({len(scenarios)} scenarios, {elapsed:.2f}s)")


# --- 2. ablation presets drive the stages they name ------------------------------


ACCEPT_QUESTIONS = [
    Question(
        id="a01",
        text="Capital of France?",
        options=(("A", "Paris"), ("B", "Rome")),
        gold="A",
        difficulty=Difficulty.EASY,
    ),
    Question(
        id="a02",
        text="Largest planet?",
        options=(("A", "Mars"), ("B", "Jupiter")),
        gold="B",
        difficulty=Difficulty.MEDIUM,
    ),
    Question(
        id="a03",
        text="Chemical symbol of gold?",
        options=(("A", "Au"), ("B", "Ag")),
        gold="A",
        difficulty=Difficulty.HARD,
    ),
    Question(
        id="a04",
        text="Which gas dominates air?",
        gold="nitrogen",
        gold_aliases=("nitrogen",),
        difficulty=Difficulty.EASY,
    ),
    Question(
        id="a05",
        text="How many sides has a square?",
        gold="four",
        gold_aliases=("four", "4"),
        difficulty=Difficulty.VERY_EASY,
    ),
]
ACCEPT_ANSWERS = {"a01": "A", "a02": "B", "a03": "A", "a04": "nitrogen", "a05": "four"}


def _mini_index():
    return BM25Index.build(
        [Doc("d1", "eiffel tower paris landmark"), Doc("d2", "london bridge")]
    )


def test_each_preset_runs_exactly_its_stage_sequence():
    presets = ablation_presets()
    assert len(presets) == 8
    index = _mini_index()
    for name, config in presets:
        backend = ScriptedBackend(entries_for_many(ACCEPT_QUESTIONS, config, ACCEPT_ANSWERS))
        engine = Engine(backend, retriever=index)
        for question in ACCEPT_QUESTIONS:
            result = engine.answer(question, config)
            assert result.trace.stage_agents() == stage_sequence(config), name
            assert result.trace.system2_triggered == (name != "System 1"), name
            if question.kind is QuestionKind.MCQ:
                assert result.chosen_option == ACCEPT_ANSWERS[question.id]
            else:
                assert result.final_answer == ACCEPT_ANSWERS[question.id]
        assert backend.remaining == 0, name
    print(f"ACCEPTANCE preset_stage_sequences: PASS ({len(presets)} presets x "
          f"{len(ACCEPT_QUESTIONS)} questions)")


# --- 3. accuracy stratified by difficulty and answering system --------------------

STRATA = [
    (Difficulty.VERY_EASY, "System 1", 85, 3, 96.59),
    (Difficulty.VERY_EASY, "System 2", 12, 0, 100.00),
    (Difficulty.EASY, "System 1", 76, 6, 92.68),
    (Difficulty.EASY, "System 2", 14, 4, 77.78),
    (Difficulty.MEDIUM, "System 1", 60, 10, 85.71),
    (Difficulty.MEDIUM, "System 2", 24, 6, 80.00),
    (Difficulty.HARD, "System 1", 28, 22, 56.00),
    (Difficulty.HARD, "System 2", 32, 18, 64.00),
    (Difficulty.VERY_HARD, "System 1", 20, 36, 35.71),
    (Difficulty.VERY_HARD, "System 2", 24, 20, 54.55),
]


def test_stratified_accuracy_table_matches_hand_arithmetic():
    results = []
    n = 0
    for difficulty, mode, n_correct, n_incorrect, _ in STRATA:
        for correct in [True] * n_correct + [False] * n_incorrect:
            n += 1
            results.append(
                QuestionResult(
                    question_id=f"s{n:04d}",
                    predicted="A" if correct else "B",
                    gold="A",
                    kind=QuestionKind.MCQ,
                    correct=correct,
                    em=None,
                    f1=None,
                    system2_triggered=(mode == "System 2"),
                    usage=TokenUsage(8, 4),
                    difficulty=difficulty,
                )
            )
    random.Random(42).shuffle(results)

    rows = stratified_trigger_report(results)
    assert [
        (r.difficulty, r.mode, r.correct, r.incorrect, r.accuracy_pct) for r in rows
    ] == STRATA
    print(f"ACCEPTANCE stratified_accuracy_table: PASS ({len(rows)} cells, "
          f"{len(results)} questions)")


# --- 4. answer metrics against an independent oracle -------------------------------


def _oracle_normalize(text):
    tokens = [t for t in text.lower().split() if t not in ("a", "an", "the")]
    swapped = "".join(
        " " if ch in string.punctuation else ch for ch in " ".join(tokens)
    )
    return " ".join(swapped.split())


def _oracle_f1_single(prediction, gold):
    pred = _oracle_normalize(prediction).split()
    gold_tokens = _oracle_normalize(gold).split()
    if not pred and not gold_tokens:
        return 1.0
    if not pred or not gold_tokens:
        return 0.0
    leftover = list(gold_tokens)
    common = 0
    for token in pred:
        if token in leftover:
            leftover.remove(token)
            common += 1
    if common == 0:
        return 0.0
    precision = common / len(pred)
    recall = common / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def test_metrics_agree_with_an_independent_oracle():
    rng = random.Random(404)
    pool = (
        "the a an Tower EIFFEL u.s.a. didn't 42 paris, bridge & - (cold) "
        "war; rivers... DNA Obama obama's \"quote\" piece:by:piece"
    ).split() + ["", "THE", "A"]

    def phrase(low=0, high=8):
        return " ".join(rng.choice(pool) for _ in range(rng.randint(low, high)))

    checked = 0
    for _ in range(150):
        prediction = phrase()
        aliases = tuple(phrase(1, 6) for _ in range(rng.randint(1, 3)))
        assert normalize_answer(prediction) == _oracle_normalize(prediction)
        expected_f1 = max(_oracle_f1_single(prediction, gold) for gold in aliases)
        got_f1 = f1(prediction, aliases)
        assert abs(got_f1 - expected_f1) <= 1e-9, (prediction, aliases)
        expected_em = float(
            any(_oracle_normalize(prediction) == _oracle_normalize(g) for g in aliases)
        )
        got_em = exact_match(prediction, aliases)
        assert got_em == expected_em, (prediction, aliases)
        if got_em == 1.0:
            assert got_f1 == 1.0
        checked += 1
    assert checked >= 100
    print(f"ACCEPTANCE answer_metrics_oracle: PASS ({checked} random pairs)")


# --- 5. ranking scores against a brute-force oracle ----------------------------------


def _oracle_bm25(doc_tokens, query_tokens, k1, b):
    """Plain-loop scoring over token lists; returns {doc_id: score}."""
    n = len(doc_tokens)
    avgdl = sum(len(tokens) for tokens in doc_tokens.values()) / n
    scores = {}
    for term in dict.fromkeys(query_tokens):
        df = sum(1 for tokens in doc_tokens.values() if term in tokens)
        if df == 0:
            continue
        idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
        for doc_id, tokens in doc_tokens.items():
            tf = tokens.count(term)
            if tf == 0:
                continue
            dl = len(tokens)
            gain = idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl))
            scores[doc_id] = scores.get(doc_id, 0.0) + gain
    return {doc_id: score for doc_id, score in scores.items() if score > 0.0}


def test_bm25_matches_brute_force_on_random_corpora():
    rng = random.Random(505)
    vocab = [f"w{i}" for i in range(25)]
    for trial in range(200):
        n_docs = rng.randint(2, 20)
        doc_tokens = {
            f"d{i:02d}": [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
            for i in range(n_docs)
        }
        k1 = rng.choice([0.8, 1.2, 1.5, 2.0])
        b = rng.choice([0.0, 0.3, 0.75, 1.0])
        index = BM25Index.build(
            [Doc(doc_id, " ".join(tokens)) for doc_id, tokens in doc_tokens.items()],
            k1=k1,
            b=b,
        )
        query_tokens = [rng.choice(vocab) for _ in range(rng.randint(1, 5))]
        hits = index.search(" ".join(query_tokens), k=n_docs)

        expected = _oracle_bm25(doc_tokens, query_tokens, k1, b)
        assert {h.doc_id for h in hits} == set(expected), trial
        for hit in hits:
            assert abs(hit.score - expected[hit.doc_id]) <= 1e-9, trial
        oracle_order = [
            doc_id
            for doc_id, _ in sorted(expected.items(), key=lambda kv: (-kv[1], kv[0]))
        ]
        assert [h.doc_id for h in hits] == oracle_order, trial
    print("ACCEPTANCE bm25_oracle: PASS (200 random corpora)")


# --- 6. token accounting adds up ------------------------------------------------------


def test_token_totals_are_conserved_end_to_end(tmp_path):
    # The last question errors: every stage but the final one is answered,
    # then the final stage gets only unparseable replies.
    doomed = Question(id="a06", text="Number of legs on a spider?", gold="eight")
    questions = ACCEPT_QUESTIONS + [doomed]
    chosen = [
        ("System 1", ablation_presets()[0][1]),
        ("System 2 (Full)", ablation_presets()[1][1]),
    ]
    backends, rows = {}, []
    for name, config in chosen:  # one script, so one backend, per preset
        entries = entries_for_many(ACCEPT_QUESTIONS, config, ACCEPT_ANSWERS)
        entries += entries_for(doomed, config, "eight")[:-1]
        attempts = config.max_parse_retries + 1
        entries += [ScriptEntry("no block at all", matcher=doomed.text) for _ in range(attempts)]
        backends[name] = ScriptedBackend(entries)
        report = run_benchmark(
            questions, config, backends[name], _mini_index(), out_dir=tmp_path / name, name=name
        )
        rows.append((name, report))

    traces_checked = 0
    for name, report in rows:
        assert [r.question_id for r in report.errored] == [doomed.id], name
        assert backends[name].remaining == 0, name
        fold_prompt = fold_completion = steps = 0
        for result in report.results:
            trace = json.loads(Path(result.trace_path).read_text(encoding="utf-8"))
            step_prompt = sum(s["usage"]["prompt_tokens"] for s in trace["steps"])
            step_completion = sum(s["usage"]["completion_tokens"] for s in trace["steps"])
            assert trace["total_usage"]["prompt_tokens"] == step_prompt
            assert trace["total_usage"]["completion_tokens"] == step_completion
            assert result.usage.prompt_tokens == step_prompt
            assert result.usage.completion_tokens == step_completion
            fold_prompt += step_prompt
            fold_completion += step_completion
            steps += len(trace["steps"])
            traces_checked += 1
        assert steps == len(backends[name].calls), name
        assert report.total_usage.prompt_tokens == fold_prompt
        assert report.total_usage.completion_tokens == fold_completion

    def fold(report):
        scored = [r for r in report.results if r.correct is not None]
        accuracy = round(100.0 * sum(1 for r in scored if r.correct) / len(scored), 2)
        mean = sum(r.usage.completion_tokens for r in report.results) / len(report.results)
        return round(mean, 2), accuracy

    expected = [(name, *fold(report)) for name, report in rows]
    assert accuracy_vs_tokens(rows) == expected
    print(f"ACCEPTANCE token_accounting: PASS ({traces_checked} traces)")


# --- 7. the block protocol round-trips and never crashes ------------------------------

_FUZZ_PLAN = Plan((PlanItem("P1", "one?"), PlanItem("P2", "two?")))
_FUZZ_HYPS = (Hypothesis("H1", "first", "A"), Hypothesis("H2", "second", "B"))
_FUZZ_AVAILABLE = {"P1": ["d1", "d2"], "P2": []}


def _round_trip_all(rng):
    quick = payload_gen.gen_quick(rng)
    parsed = parse_quick(serialize_quick(quick))
    assert parsed == quick

    reflection = payload_gen.gen_reflection(rng)
    assert parse_reflection(serialize_reflection(reflection), valid_steps=range(1, 6)) == reflection

    plan = payload_gen.gen_plan(rng)
    assert parse_plan(serialize_plan(plan), max_subquestions=5) == plan

    search = payload_gen.gen_search(rng, plan)
    assert parse_search(serialize_search(search), plan) == search

    available = payload_gen.gen_available(rng, search)
    reading = payload_gen.gen_reading(rng, available)
    assert parse_reading(serialize_reading(reading), available) == reading

    for labels in ((), ("A", "B", "C")):
        hyps = payload_gen.gen_hypotheses(rng, option_labels=labels)
        assert parse_hypotheses(serialize_hypotheses(hyps), labels, 4) == hyps
        evidence = tuple(insight.id for insight in reading)
        verdicts, integrated = payload_gen.gen_integration(rng, hyps, evidence)
        assert parse_integration(
            serialize_integration(verdicts, integrated), hyps, evidence
        ) == (verdicts, integrated)
        decision = payload_gen.gen_decision(rng, hyps, labels)
        assert parse_decision(serialize_decision(decision), hyps, labels) == decision


def _mutate(rng, text):
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        action = rng.randrange(6)
        if action == 0 and lines:
            lines.pop(rng.randrange(len(lines)))
        elif action == 1 and lines:
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
        elif action == 2:
            rng.shuffle(lines)
        elif action == 3:
            lines.insert(rng.randrange(len(lines) + 1), "garbage without separator")
        elif action == 4 and lines:
            i = rng.randrange(len(lines))
            line = lines[i]
            if line:
                j = rng.randrange(len(line))
                lines[i] = line[:j] + rng.choice("XY:.,") + line[j + 1 :]
        else:
            lines = lines + lines
    return "\n".join(lines)


_FRAGMENTS = [
    "BEGIN QUICK", "END QUICK", "BEGIN PLAN", "END PLAN", "BEGIN DECISION",
    "END DECISION", "BEGIN REFLECTION", "END REFLECTION", "BEGIN SEARCH",
    "END SEARCH", "BEGIN READING", "END READING", "BEGIN HYPOTHESES",
    "END HYPOTHESES", "BEGIN INTEGRATION", "END INTEGRATION",
    "SQ1: what?", "SA1: thing", "SQ3: gap", "ANSWER: x", "ANSWER:",
    "P1: RETRIEVE", "P1: INTERNAL", "P9: RETRIEVE", "P1.Q1: query",
    "DECISION: ACCEPT", "DECISION: maybe", "RATIONALE: because",
    "FLAGGED: 1, 2", "FLAGGED: x", "K1 SUBQUESTION: P1", "K1 SOURCES: d1, d1",
    "K1 SOURCES: d9", "K1 TEXT: t", "H1 OPTION: A", "H1 OPTION: Z",
    "H1 STATEMENT: s", "H1 STATUS: SUPPORTED", "H1 STATUS: odd",
    "H1 EVIDENCE: K1", "H1 EVIDENCE: K9", "INTEGRATED: merged",
    "INTEGRATED FROM: H1", "INTEGRATED FROM: H9", "RANKING: H1, H2",
    "RANKING: H1, H1", "no colon line", ": empty key", "  | BEGIN QUICK",
    "", "   ", "lattice envoy cipher",
]


def _serializers(rng):
    plan = payload_gen.gen_plan(rng)
    search = payload_gen.gen_search(rng, plan)
    available = payload_gen.gen_available(rng, search)
    reading = payload_gen.gen_reading(rng, available)
    hyps = payload_gen.gen_hypotheses(rng, option_labels=("A", "B"))
    verdicts, integrated = payload_gen.gen_integration(
        rng, hyps, tuple(i.id for i in reading)
    )
    return [
        serialize_quick(payload_gen.gen_quick(rng)),
        serialize_reflection(payload_gen.gen_reflection(rng)),
        serialize_plan(plan),
        serialize_search(search),
        serialize_reading(reading),
        serialize_hypotheses(hyps),
        serialize_integration(verdicts, integrated),
        serialize_decision(payload_gen.gen_decision(rng, hyps, ("A", "B"))),
    ]


def test_protocol_round_trips_and_fuzz_never_crashes():
    rng = random.Random(606)
    for _ in range(25):
        _round_trip_all(rng)

    parsers = [
        parse_quick,
        lambda raw: parse_reflection(raw, valid_steps=(1, 2, 3)),
        lambda raw: parse_plan(raw, max_subquestions=5),
        lambda raw: parse_search(raw, _FUZZ_PLAN),
        lambda raw: parse_reading(raw, _FUZZ_AVAILABLE),
        lambda raw: parse_hypotheses(raw, ("A", "B"), 4),
        lambda raw: parse_integration(raw, _FUZZ_HYPS, ("K1", "K2")),
        lambda raw: parse_decision(raw, _FUZZ_HYPS, ("A", "B")),
    ]
    rejected = survived = 0
    for i in range(10_000):
        style = i % 3
        if style == 0:
            raw = "\n".join(
                rng.choice(_FRAGMENTS) for _ in range(rng.randint(0, 12))
            )
        elif style == 1:
            raw = _mutate(rng, rng.choice(_serializers(rng)))
        else:
            raw = "".join(
                rng.choice(string.printable) for _ in range(rng.randint(0, 120))
            )
        parser = parsers[i % len(parsers)]
        try:
            parser(raw)
            survived += 1
        except ParseError:
            rejected += 1
    assert rejected + survived == 10_000
    assert rejected > 0 and survived >= 0
    print(
        f"ACCEPTANCE protocol_round_trip_and_fuzz: PASS "
        f"(200 round-trips; 10000 fuzz inputs, {rejected} rejected cleanly, "
        f"{survived} parsed)"
    )


# --- 8. live backend smoke (opt-in) ------------------------------------------------

_LIVE_ENDPOINT = os.environ.get("DUALTHINK_LIVE_ENDPOINT", "")


@pytest.mark.skipif(
    not _LIVE_ENDPOINT,
    reason="set DUALTHINK_LIVE_ENDPOINT (and optionally DUALTHINK_LIVE_MODEL, "
    "DUALTHINK_LIVE_API_KEY) to run the live smoke test",
)
def test_live_http_full_pipeline_smoke():
    """One multiple-choice question through every stage, structure asserted only."""
    backend = HttpChatBackend(
        endpoint=_LIVE_ENDPOINT,
        model=os.environ.get("DUALTHINK_LIVE_MODEL", "default"),
        api_key_env="DUALTHINK_LIVE_API_KEY",
    )
    question = Question(
        id="live1",
        text="Which city hosts the iron lattice tower on the Champ de Mars?",
        options=(("A", "Paris"), ("B", "London"), ("C", "Rome")),
        gold="A",
    )
    config = PipelineConfig(force_system2=True, max_parse_retries=3)
    result = Engine(backend, retriever=_mini_index()).answer(question, config)

    trace = result.trace
    assert trace.system2_triggered is True
    assert trace.stage_agents() == stage_sequence(config)
    assert result.chosen_option in dict(question.options)
    assert result.final_answer.strip()
    assert trace.total_usage.total > 0
    assert trace.total_usage.prompt_tokens == sum(
        s.usage.prompt_tokens for s in trace.steps
    )
    json.dumps(trace.to_dict())
    print("ACCEPTANCE live_http_smoke: PASS")
