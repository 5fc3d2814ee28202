import dataclasses
import json
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import dualthink.engine as engine_module
from dualthink.backend import (
    ChatRequest,
    Completion,
    ScriptedBackend,
    ScriptEntry,
    scripted_backend,
)
from dualthink.engine import Engine
from dualthink.errors import BackendError, BackendExhausted, ConfigError, ParseError
from dualthink.types import (
    SYSTEM2_STAGES,
    Agent,
    PipelineConfig,
    Question,
    RetrievedDoc,
    TokenUsage,
    Verdict,
    stage_sequence,
    sum_usage,
    to_jsonable,
)

from scripting import entries_for, quick_completion, reflection_completion, wrap

MCQ = Question(
    id="q1",
    text="Which city hosts the iron lattice tower?",
    options=(("A", "Paris"), ("B", "London")),
    gold="A",
)
OPEN = Question(id="q2", text="Which gas makes up most of the air?", gold="nitrogen")

FULL = PipelineConfig()
S1_ONLY = PipelineConfig(stages=frozenset(), reflection_enabled=False)
NO_SEARCH = PipelineConfig(
    stages=frozenset([Agent.HYPOTHESIS, Agent.DECISION]),
    system1_enabled=False,
    reflection_enabled=False,
    force_system2=True,
)


class SpyRetriever:
    """Returns canned docs per query and records every call."""

    def __init__(self, docs_by_query=None):
        self.docs_by_query = docs_by_query or {}
        self.calls = []

    def search(self, query, k):
        self.calls.append((query, k))
        docs = self.docs_by_query.get(query, ())
        return [
            RetrievedDoc(doc_id=doc_id, text=text, score=1.0 - i * 0.1)
            for i, (doc_id, text) in enumerate(docs)
        ][:k]


def run(question, config, entries, retriever=None):
    backend = ScriptedBackend(list(entries))
    result = Engine(backend, retriever=retriever).answer(question, config)
    assert backend.remaining == 0, "script entries left unconsumed"
    return result


# --- gating ---------------------------------------------------------------


def test_accepted_quick_answer_is_returned_byte_identical():
    entries = entries_for(MCQ, FULL, "A", reflect=Verdict.ACCEPT)
    result = run(MCQ, FULL, entries, retriever=SpyRetriever())
    assert result.final_answer == "A"
    assert result.chosen_option == "A"
    assert result.trace.system2_triggered is False
    assert result.trace.agent_sequence() == [Agent.QUICK, Agent.REFLECTION]


def test_escalation_runs_the_full_pipeline():
    entries = entries_for(MCQ, FULL, "B", reflect=Verdict.ESCALATE, quick_answer="A")
    result = run(MCQ, FULL, entries, retriever=SpyRetriever())
    assert result.final_answer == "B"
    assert result.chosen_option == "B"
    assert result.trace.system2_triggered is True
    assert result.trace.agent_sequence() == [Agent.QUICK, Agent.REFLECTION] + list(
        SYSTEM2_STAGES
    )


def test_force_system2_skips_the_gate_but_keeps_the_quick_pass():
    config = dataclasses.replace(FULL, force_system2=True)
    entries = entries_for(MCQ, config, "A")
    result = run(MCQ, config, entries, retriever=SpyRetriever())
    assert result.trace.system2_triggered is True
    sequence = result.trace.agent_sequence()
    assert Agent.REFLECTION not in sequence
    assert sequence[0] is Agent.QUICK


def test_disabled_system1_goes_straight_to_deliberation():
    config = PipelineConfig(
        system1_enabled=False, reflection_enabled=False, force_system2=True
    )
    entries = entries_for(MCQ, config, "A")
    result = run(MCQ, config, entries, retriever=SpyRetriever())
    assert result.trace.agent_sequence() == list(SYSTEM2_STAGES)
    assert result.trace.system2_triggered is True


def test_system1_only_never_deliberates():
    entries = entries_for(OPEN, S1_ONLY, "nitrogen")
    result = run(OPEN, S1_ONLY, entries)
    assert result.final_answer == "nitrogen"
    assert result.chosen_option is None
    assert result.trace.system2_triggered is False
    assert result.trace.agent_sequence() == [Agent.QUICK]


def test_stage_subset_runs_in_canonical_order():
    entries = entries_for(MCQ, NO_SEARCH, "A")
    result = run(MCQ, NO_SEARCH, entries)
    assert result.trace.agent_sequence() == [Agent.HYPOTHESIS, Agent.DECISION]
    assert result.trace.stage_agents() == stage_sequence(NO_SEARCH)


# --- parse retries ----------------------------------------------------------


def test_unparseable_completion_is_retried_with_feedback():
    entries = [
        ScriptEntry("no block at all", matcher="BEGIN QUICK"),
        ScriptEntry(quick_completion("nitrogen"), matcher="BEGIN QUICK"),
    ]
    backend = ScriptedBackend(entries)
    result = Engine(backend).answer(OPEN, S1_ONLY)
    assert result.final_answer == "nitrogen"
    steps = result.trace.steps
    assert [s.attempt for s in steps] == [1, 2]
    assert steps[0].parsed is None
    assert steps[1].parsed is not None
    # the retry prompt carries the parse failure verbatim
    assert "could not be parsed" in backend.calls[1].user_text
    assert "BEGIN QUICK" in backend.calls[1].user_text
    assert backend.calls[0].user_text != backend.calls[1].user_text


def test_parse_failure_after_retries_raises_with_agent_attribution():
    config = dataclasses.replace(S1_ONLY, max_parse_retries=1)
    backend = scripted_backend("garbage", "more garbage")
    with pytest.raises(ParseError) as info:
        Engine(backend).answer(OPEN, config)
    assert info.value.agent == "quick"
    assert backend.remaining == 0


def test_zero_retries_means_one_attempt():
    config = dataclasses.replace(S1_ONLY, max_parse_retries=0)
    backend = scripted_backend("garbage", "never used")
    with pytest.raises(ParseError):
        Engine(backend).answer(OPEN, config)
    assert backend.remaining == 1


def test_mcq_quick_answer_must_resolve_to_an_option_label():
    entries = [
        ScriptEntry(quick_completion("definitely the first one"), matcher="BEGIN QUICK"),
        ScriptEntry(quick_completion("A"), matcher="BEGIN QUICK"),
    ]
    result = run(MCQ, S1_ONLY, entries)
    assert result.chosen_option == "A"
    assert [s.parsed is not None for s in result.trace.steps] == [False, True]


def test_reflection_parse_failure_fails_open_to_escalation():
    config = dataclasses.replace(FULL, max_parse_retries=0, stages=NO_SEARCH.stages)
    entries = [
        ScriptEntry(quick_completion("A"), matcher="BEGIN QUICK"),
        ScriptEntry("not a verdict", matcher="BEGIN REFLECTION"),
    ]
    entries.extend(entries_for(MCQ, NO_SEARCH, "A"))
    result = run(MCQ, config, entries)
    assert result.trace.system2_triggered is True
    reflection_steps = [s for s in result.trace.steps if s.agent is Agent.REFLECTION]
    assert len(reflection_steps) == 1
    assert reflection_steps[0].parsed is None


def test_backend_errors_carry_agent_attribution():
    backend = ScriptedBackend([])
    with pytest.raises(BackendExhausted) as info:
        Engine(backend).answer(OPEN, S1_ONLY)
    assert info.value.agent == "quick"


def test_failure_mid_deliberation_carries_the_partial_trace():
    config = dataclasses.replace(FULL, stages=NO_SEARCH.stages)
    entries = entries_for(MCQ, config, "A")[:-1]  # the decision call finds no entry
    with pytest.raises(BackendExhausted) as info:
        run(MCQ, config, entries)
    trace = info.value.trace
    assert info.value.agent == "decision"
    assert trace.agent_sequence() == [Agent.QUICK, Agent.REFLECTION, Agent.HYPOTHESIS]
    assert trace.system2_triggered is True
    assert trace.total_usage.total > 0
    assert (trace.final_answer, trace.chosen_option) == ("", None)


# --- retrieval behavior ------------------------------------------------------


def _retrieval_entries():
    plan = "BEGIN PLAN\nP1: Which tower is meant?\nP2: Which city is it in?\nEND PLAN"
    search = (
        "BEGIN SEARCH\n"
        "P1: RETRIEVE\n"
        "P1.Q1: iron lattice tower\n"
        "P1.Q2: tower champ de mars\n"
        "P2: INTERNAL\n"
        "END SEARCH"
    )
    reading = (
        "BEGIN READING\n"
        "K1 SUBQUESTION: P1\n"
        "K1 SOURCES: dA, dC\n"
        "K1 TEXT: The tower stands on the Champ de Mars.\n"
        "K2 SUBQUESTION: P2\n"
        "K2 SOURCES:\n"
        "K2 TEXT: The Champ de Mars is in Paris.\n"
        "END READING"
    )
    hyp = (
        "BEGIN HYPOTHESES\n"
        "H1 OPTION: A\nH1 STATEMENT: It is Paris.\n"
        "H2 OPTION: B\nH2 STATEMENT: It is London.\n"
        "END HYPOTHESES"
    )
    integration = (
        "BEGIN INTEGRATION\n"
        "H1 STATUS: SUPPORTED\nH1 EVIDENCE: K1, K2\nH1 JUSTIFICATION: agrees\n"
        "H2 STATUS: REFUTED\nH2 EVIDENCE: K2\nH2 JUSTIFICATION: contradicted\n"
        "INTEGRATED: The tower is in Paris.\n"
        "INTEGRATED FROM: H1\n"
        "END INTEGRATION"
    )
    decision = (
        "BEGIN DECISION\nANSWER: A\nRANKING: H1, H2\nJUSTIFICATION: supported\nEND DECISION"
    )
    return [
        ScriptEntry(wrap(plan), matcher="BEGIN PLAN"),
        ScriptEntry(wrap(search), matcher="BEGIN SEARCH"),
        ScriptEntry(wrap(reading), matcher="BEGIN READING"),
        ScriptEntry(wrap(hyp), matcher="BEGIN HYPOTHESES"),
        ScriptEntry(wrap(integration), matcher="BEGIN INTEGRATION"),
        ScriptEntry(wrap(decision), matcher="BEGIN DECISION"),
    ]


def _retrieval_config():
    return PipelineConfig(
        system1_enabled=False, reflection_enabled=False, force_system2=True, k_retrieval=2
    )


def test_queries_hit_the_retriever_and_docs_merge_by_id():
    retriever = SpyRetriever(
        {
            "iron lattice tower": [("dA", "tower text"), ("dB", "other")],
            "tower champ de mars": [("dB", "other"), ("dC", "mars text")],
        }
    )
    result = run(MCQ, _retrieval_config(), _retrieval_entries(), retriever=retriever)
    assert result.final_answer == "A"
    assert retriever.calls == [("iron lattice tower", 2), ("tower champ de mars", 2)]
    reading_step = [s for s in result.trace.steps if s.agent is Agent.READING][0]
    # the merged material shows each doc once, in first-seen order
    assert reading_step.prompt.count("[dA]") == 1
    assert reading_step.prompt.count("[dB]") == 1
    assert reading_step.prompt.count("[dC]") == 1
    assert "BEGIN READING" in reading_step.prompt


def test_all_internal_verdicts_mean_zero_retriever_calls():
    config = _retrieval_config()
    retriever = SpyRetriever()
    entries = entries_for(MCQ, config, "A")
    result = run(MCQ, config, entries, retriever=retriever)
    assert retriever.calls == []
    assert result.final_answer == "A"


def test_search_stage_requires_a_retriever():
    with pytest.raises(ConfigError):
        Engine(scripted_backend()).answer(MCQ, _retrieval_config())


def test_stage_subset_without_search_needs_no_retriever():
    result = run(MCQ, NO_SEARCH, entries_for(MCQ, NO_SEARCH, "A"))
    assert result.final_answer == "A"


def test_reading_citations_are_validated_against_retrieved_docs():
    # K1 cites dZ, which no query returned: parse error, retry, then good
    retriever = SpyRetriever({"iron lattice tower": [("dA", "t")], "tower champ de mars": []})
    bad_reading = (
        "BEGIN READING\n"
        "K1 SUBQUESTION: P1\nK1 SOURCES: dZ\nK1 TEXT: made up\n"
        "END READING"
    )
    good_reading = (
        "BEGIN READING\n"
        "K1 SUBQUESTION: P1\nK1 SOURCES: dA\nK1 TEXT: grounded\n"
        "END READING"
    )
    integration = (
        "BEGIN INTEGRATION\n"
        "H1 STATUS: SUPPORTED\nH1 EVIDENCE: K1\n"
        "H2 STATUS: INCONCLUSIVE\n"
        "INTEGRATED: Paris.\nINTEGRATED FROM: H1\n"
        "END INTEGRATION"
    )
    entries = _retrieval_entries()
    entries[2] = ScriptEntry(wrap(bad_reading), matcher="BEGIN READING")
    entries.insert(3, ScriptEntry(wrap(good_reading), matcher="BEGIN READING"))
    entries[5] = ScriptEntry(wrap(integration), matcher="BEGIN INTEGRATION")
    result = run(MCQ, _retrieval_config(), entries, retriever=retriever)
    reading_steps = [s for s in result.trace.steps if s.agent is Agent.READING]
    assert [s.parsed is not None for s in reading_steps] == [False, True]
    assert "dZ" in reading_steps[1].prompt  # feedback names the bad citation


# --- evidence passthrough -----------------------------------------------------


NO_READING = PipelineConfig(
    stages=frozenset(SYSTEM2_STAGES) - {Agent.READING},
    system1_enabled=False,
    reflection_enabled=False,
    force_system2=True,
    k_retrieval=2,
)


def _no_reading_entries():
    plan = "BEGIN PLAN\nP1: Which tower is meant?\nEND PLAN"
    search = "BEGIN SEARCH\nP1: RETRIEVE\nP1.Q1: iron lattice tower\nEND SEARCH"
    hyp = (
        "BEGIN HYPOTHESES\n"
        "H1 OPTION: A\nH1 STATEMENT: Paris.\n"
        "H2 OPTION: B\nH2 STATEMENT: London.\n"
        "END HYPOTHESES"
    )
    integration = (
        "BEGIN INTEGRATION\n"
        "H1 STATUS: SUPPORTED\nH1 EVIDENCE: dA\n"
        "H2 STATUS: INCONCLUSIVE\n"
        "INTEGRATED: Paris it is.\nINTEGRATED FROM: H1\n"
        "END INTEGRATION"
    )
    decision = "BEGIN DECISION\nANSWER: A\nRANKING: H1, H2\nEND DECISION"
    return [
        ScriptEntry(wrap(plan), matcher="BEGIN PLAN"),
        ScriptEntry(wrap(search), matcher="BEGIN SEARCH"),
        ScriptEntry(wrap(hyp), matcher="BEGIN HYPOTHESES"),
        ScriptEntry(wrap(integration), matcher="BEGIN INTEGRATION"),
        ScriptEntry(wrap(decision), matcher="BEGIN DECISION"),
    ]


def test_without_reading_integration_cites_document_ids():
    retriever = SpyRetriever({"iron lattice tower": [("dA", "tower text")]})
    result = run(MCQ, NO_READING, _no_reading_entries(), retriever=retriever)
    integration_step = [s for s in result.trace.steps if s.agent is Agent.INTEGRATION][0]
    assert "dA:" in integration_step.prompt
    assert result.final_answer == "A"


def test_without_any_evidence_supported_is_unreachable():
    # hypothesis + integration + decision, no search: the evidence pool is
    # empty, so a SUPPORTED verdict cannot cite anything and fails to parse
    config = PipelineConfig(
        stages=frozenset([Agent.HYPOTHESIS, Agent.INTEGRATION, Agent.DECISION]),
        system1_enabled=False,
        reflection_enabled=False,
        force_system2=True,
        max_parse_retries=0,
    )
    hyp = (
        "BEGIN HYPOTHESES\n"
        "H1 OPTION: A\nH1 STATEMENT: Paris.\n"
        "H2 OPTION: B\nH2 STATEMENT: London.\n"
        "END HYPOTHESES"
    )
    overreach = (
        "BEGIN INTEGRATION\n"
        "H1 STATUS: SUPPORTED\nH1 EVIDENCE: K1\n"
        "H2 STATUS: INCONCLUSIVE\n"
        "INTEGRATED: Paris.\n"
        "END INTEGRATION"
    )
    entries = [
        ScriptEntry(wrap(hyp), matcher="BEGIN HYPOTHESES"),
        ScriptEntry(wrap(overreach), matcher="BEGIN INTEGRATION"),
    ]
    with pytest.raises(ParseError) as info:
        Engine(ScriptedBackend(entries)).answer(MCQ, config)
    assert info.value.agent == "integration"


# --- trace bookkeeping ---------------------------------------------------------


def test_each_agent_step_has_its_parsed_shape():
    entries = entries_for(MCQ, FULL, "B", reflect=Verdict.ESCALATE)
    result = run(MCQ, FULL, entries, retriever=SpyRetriever())
    keys = {step.agent: set(step.parsed) for step in result.trace.steps}
    assert keys == {
        Agent.QUICK: {"steps", "final_answer"},
        Agent.REFLECTION: {"decision", "rationale", "flagged_steps"},
        Agent.PLANNING: {"subquestions"},
        Agent.SEARCH: {"decisions"},
        Agent.READING: {"insights"},
        Agent.HYPOTHESIS: {"hypotheses"},
        Agent.INTEGRATION: {"verdicts", "integrated"},
        Agent.DECISION: {"answer", "chosen_option", "ranking", "justification"},
    }


def test_parsers_are_looked_up_on_the_engine_module(monkeypatch):
    import dualthink.engine as engine_module

    seen = []
    original = engine_module.parse_plan

    def spy(raw, max_subquestions):
        seen.append(max_subquestions)
        return original(raw, max_subquestions)

    monkeypatch.setattr(engine_module, "parse_plan", spy)
    entries = entries_for(MCQ, FULL, "B", reflect=Verdict.ESCALATE)
    run(MCQ, FULL, entries, retriever=SpyRetriever())
    assert seen == [FULL.max_subquestions]


def test_token_totals_equal_the_sum_over_steps():
    entries = entries_for(MCQ, FULL, "B", reflect=Verdict.ESCALATE)
    result = run(MCQ, FULL, entries, retriever=SpyRetriever())
    total = result.trace.total_usage
    assert total.prompt_tokens == sum(s.usage.prompt_tokens for s in result.trace.steps)
    assert total.completion_tokens == sum(
        s.usage.completion_tokens for s in result.trace.steps
    )
    assert total.prompt_tokens > 0 and total.completion_tokens > 0


def test_identical_scripts_give_identical_traces():
    def one_run():
        entries = entries_for(MCQ, FULL, "B", reflect=Verdict.ESCALATE)
        return run(MCQ, FULL, entries, retriever=SpyRetriever())

    a, b = one_run(), one_run()
    strip = lambda trace: [
        dataclasses.replace(step, wall_ms=0, start_ms=0) for step in trace.steps
    ]
    assert strip(a.trace) == strip(b.trace)
    assert a.final_answer == b.final_answer


def test_trace_round_trips_through_json():
    entries = entries_for(OPEN, FULL, "nitrogen", reflect=Verdict.ESCALATE)
    result = run(OPEN, FULL, entries, retriever=SpyRetriever())
    data = json.loads(json.dumps(result.trace.to_dict()))
    assert data["question_id"] == "q2"
    assert data["final_answer"] == "nitrogen"
    assert data["system2_triggered"] is True
    assert len(data["steps"]) == len(result.trace.steps)
    assert data["steps"][2]["agent"] == "planning"


def test_an_engine_answers_with_only_a_backend():
    entries = entries_for(OPEN, S1_ONLY, "nitrogen")
    result = Engine(ScriptedBackend(list(entries))).answer(OPEN, S1_ONLY)
    assert result.final_answer == "nitrogen"


def test_invalid_question_is_rejected_before_any_call():
    # An invalid question cannot be built, so no engine can be handed one.
    with pytest.raises(ConfigError):
        Question(id="", text="x?")


# --- scheduling -------------------------------------------------------------------

S2_FULL = PipelineConfig(system1_enabled=False, reflection_enabled=False, force_system2=True)


class GatedBackend:
    """A scripted backend whose calls can be held until an event is set.

    A call is known by the block tag its prompt asks for (``PLAN``,
    ``HYPOTHESES``, ...). ``arrived[tag]`` is set when that call reaches the
    backend and ``returned[tag]`` when it returns. A call whose tag is in
    ``gates`` first waits for that event, and fails after 5 s.
    """

    TAGS = ("PLAN", "SEARCH", "READING", "HYPOTHESES", "INTEGRATION", "DECISION")

    def __init__(self, entries):
        self.inner = ScriptedBackend(entries)
        self.arrived = {tag: threading.Event() for tag in self.TAGS}
        self.returned = {tag: threading.Event() for tag in self.TAGS}
        self.gates: dict[str, threading.Event] = {}
        self.inflight = 0
        self._lock = threading.Lock()

    def complete(self, request):
        tag = re.search(r"BEGIN ([A-Z]+)", request.user_text).group(1)
        with self._lock:
            self.inflight += 1
        self.arrived[tag].set()
        try:
            gate = self.gates.get(tag)
            if gate is not None and not gate.wait(timeout=5):
                raise BackendError(f"the {tag} call was held for 5 s")
            return self.inner.complete(request)
        finally:
            with self._lock:
                self.inflight -= 1
            self.returned[tag].set()


def _fails_and_sets(event):
    def parse(*args):
        event.set()
        raise ParseError("scripted failure")

    return parse


def _untimed(trace):
    return [dataclasses.replace(step, wall_ms=0, start_ms=0) for step in trace.steps]


def test_hypothesis_runs_alongside_planning_search_and_reading():
    backend = GatedBackend(entries_for(MCQ, S2_FULL, "A"))
    # Walked one stage at a time, reading would wait in vain for hypothesis.
    backend.gates["HYPOTHESES"] = backend.arrived["PLAN"]
    backend.gates["READING"] = backend.arrived["HYPOTHESES"]
    result = Engine(backend, retriever=SpyRetriever()).answer(MCQ, S2_FULL)
    assert result.final_answer == "A"
    assert result.trace.agent_sequence() == list(SYSTEM2_STAGES)
    start = {step.agent: step.start_ms for step in result.trace.steps}
    assert start[Agent.HYPOTHESIS] <= start[Agent.READING]
    assert backend.inner.remaining == 0


@pytest.mark.parametrize(
    "held, until", [("PLAN", "HYPOTHESES"), ("HYPOTHESES", "READING")],
    ids=["hypothesis-first", "hypothesis-last"],
)
def test_steps_merge_in_canonical_order_whichever_branch_finishes_first(held, until):
    reference = run(MCQ, S2_FULL, entries_for(MCQ, S2_FULL, "A"), retriever=SpyRetriever())
    backend = GatedBackend(entries_for(MCQ, S2_FULL, "A"))
    backend.gates[held] = backend.returned[until]
    result = Engine(backend, retriever=SpyRetriever()).answer(MCQ, S2_FULL)
    assert result.trace.agent_sequence() == list(SYSTEM2_STAGES)
    assert _untimed(result.trace) == _untimed(reference.trace)


def _raises_with_partial_trace(backend, config, agent, sequence):
    with pytest.raises(ParseError) as info:
        Engine(backend, retriever=SpyRetriever()).answer(MCQ, config)
    assert backend.inflight == 0, "a worker call outlived answer"
    assert info.value.agent == agent
    trace = info.value.trace
    assert trace.agent_sequence() == sequence
    assert trace.total_usage == sum_usage(step.usage for step in trace.steps)
    assert trace.total_usage.total > 0


def test_planning_failure_while_hypothesis_is_in_flight(monkeypatch):
    config = dataclasses.replace(S2_FULL, max_parse_retries=0)
    backend = GatedBackend(entries_for(MCQ, config, "A"))
    planning_failed = threading.Event()
    monkeypatch.setattr(engine_module, "parse_plan", _fails_and_sets(planning_failed))
    backend.gates["PLAN"] = backend.arrived["HYPOTHESES"]
    backend.gates["HYPOTHESES"] = planning_failed
    _raises_with_partial_trace(backend, config, "planning", [Agent.PLANNING, Agent.HYPOTHESIS])


def test_hypothesis_failure_while_planning_search_and_reading_run(monkeypatch):
    config = dataclasses.replace(S2_FULL, max_parse_retries=0)
    backend = GatedBackend(entries_for(MCQ, config, "A"))
    hypothesis_failed = threading.Event()
    monkeypatch.setattr(engine_module, "parse_hypotheses", _fails_and_sets(hypothesis_failed))
    backend.gates["HYPOTHESES"] = backend.arrived["PLAN"]
    backend.gates["READING"] = hypothesis_failed
    _raises_with_partial_trace(
        backend, config, "hypothesis",
        [Agent.PLANNING, Agent.SEARCH, Agent.READING, Agent.HYPOTHESIS],
    )


@pytest.mark.parametrize("first", ["planning", "hypothesis"])
def test_when_both_branches_fail_the_earlier_stage_error_is_raised(monkeypatch, first):
    config = dataclasses.replace(S2_FULL, max_parse_retries=0)
    backend = GatedBackend(entries_for(MCQ, config, "A"))
    failed = {"planning": threading.Event(), "hypothesis": threading.Event()}
    monkeypatch.setattr(engine_module, "parse_plan", _fails_and_sets(failed["planning"]))
    monkeypatch.setattr(engine_module, "parse_hypotheses", _fails_and_sets(failed["hypothesis"]))
    if first == "planning":
        backend.gates["HYPOTHESES"] = failed["planning"]
    else:
        backend.gates["PLAN"] = failed["hypothesis"]
    _raises_with_partial_trace(backend, config, "planning", [Agent.PLANNING, Agent.HYPOTHESIS])
    assert failed["planning"].is_set() and failed["hypothesis"].is_set()


class RoutedBackend:
    """Replies by the question in the prompt and the block tag it asks for,
    so concurrent answers cannot take each other's replies."""

    def __init__(self, scripts):
        self.scripts = scripts  # question text -> {block tag marker: completion}
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, request):
        question = request.user_text.split("\n", 2)[1]
        tag = re.search(r"BEGIN [A-Z]+", request.user_text).group(0)
        with self._lock:
            self.calls += 1
        text = self.scripts[question][tag]
        return Completion(text=text, usage=TokenUsage(len(request.user_text), len(text)))


def test_concurrent_answers_keep_their_own_stages_and_tokens():
    questions = [
        dataclasses.replace(MCQ, id=f"q{i}", text=f"Which city hosts tower number {i}?")
        for i in range(24)
    ]
    answers = {q.id: "AB"[i % 2] for i, q in enumerate(questions)}
    backend = RoutedBackend({
        q.text: {e.matcher: e.completion for e in entries_for(q, S2_FULL, answers[q.id])}
        for q in questions
    })
    engine = Engine(backend, retriever=SpyRetriever())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            results = list(pool.map(lambda q: engine.answer(q, S2_FULL), questions))
    finally:
        sys.setswitchinterval(interval)
    assert backend.calls == len(questions) * len(SYSTEM2_STAGES)
    for question, result in zip(questions, results):
        assert result.chosen_option == answers[question.id]
        assert result.trace.question_id == question.id
        assert result.trace.agent_sequence() == list(SYSTEM2_STAGES)
        assert all(question.text in step.prompt for step in result.trace.steps)
        assert result.trace.total_usage == sum_usage(s.usage for s in result.trace.steps)


def test_a_script_without_matchers_gets_one_call_at_a_time():
    # Entries without a matcher answer whichever call comes first, so an
    # overlapping hypothesis call could take planning's reply.
    backend = scripted_backend(*(e.completion for e in entries_for(MCQ, S2_FULL, "A")))
    assert backend.ordered
    threads = []
    complete = backend.complete
    backend.complete = lambda request: threads.append(threading.current_thread()) or complete(
        request
    )
    result = Engine(backend, retriever=SpyRetriever()).answer(MCQ, S2_FULL)
    assert threads == [threading.current_thread()] * len(SYSTEM2_STAGES)
    assert result.final_answer == "A"
    assert result.trace.agent_sequence() == list(SYSTEM2_STAGES)
    assert not backend.ordered


def test_a_script_is_ordered_while_an_entry_without_a_matcher_is_left():
    assert not scripted_backend(("BEGIN PLAN", "x")).ordered
    backend = scripted_backend(("BEGIN PLAN", "x"), "y")
    assert backend.ordered
    backend.complete(ChatRequest(system_text="", user_text="BEGIN PLAN"))
    backend.complete(ChatRequest(system_text="", user_text="BEGIN PLAN"))
    assert not backend.ordered


def test_every_concurrent_answer_has_its_hypothesis_call_in_flight_at_once():
    questions = [
        dataclasses.replace(MCQ, id=f"q{i}", text=f"Which city hosts tower number {i}?")
        for i in range(40)
    ]
    backend = RoutedBackend({
        q.text: {e.matcher: e.completion for e in entries_for(q, S2_FULL, "A")}
        for q in questions
    })
    # Each hypothesis call waits until all of them have arrived.
    barrier = threading.Barrier(len(questions), timeout=5)
    complete = backend.complete

    def held(request):
        if re.search(r"BEGIN [A-Z]+", request.user_text).group(0) == "BEGIN HYPOTHESES":
            barrier.wait()
        return complete(request)

    backend.complete = held
    engine = Engine(backend, retriever=SpyRetriever())
    with ThreadPoolExecutor(len(questions)) as pool:
        results = list(pool.map(lambda q: engine.answer(q, S2_FULL), questions))
    assert [r.chosen_option for r in results] == ["A"] * len(questions)
    assert backend.calls == len(questions) * len(SYSTEM2_STAGES)


# --- the stage memo's key ---------------------------------------------------------

#: The config values in the memo key: a parser or search may read them unshown.
MEMO_KEY = {"max_parse_retries", "max_hypotheses", "k_retrieval"}

#: How each run field a parser may read shows in the stage's rendered prompt.
SHOWN = {
    "question": lambda run, prompt: run.question.text in prompt
    and all(f"{label}: {text}" in prompt for label, text in run.question.options),
    "quick": lambda run, prompt: all(
        f"SQ{step.index}: {step.subquestion}" in prompt for step in run.quick.steps
    ),
    "plan": lambda run, prompt: all(
        f"{item.id}: {item.text}" in prompt for item in run.plan.subquestions
    ),
    "docs_by_subquestion": lambda run, prompt: all(
        doc.doc_id in prompt for docs in run.docs_by_subquestion.values() for doc in docs
    ),
    "insights": lambda run, prompt: all(
        f"{i.id} (for {i.subquestion_id}" in prompt for i in run.insights
    ),
    "hypotheses": lambda run, prompt: all(
        engine_module._hypothesis_line(h) in prompt for h in run.hypotheses
    ),
    "evidence_ids()": lambda run, prompt: all(
        re.search(rf"^{re.escape(evidence_id)}[ :]", prompt, re.M)
        for evidence_id in run.evidence_ids()
    ),
}


class Recorder:
    """Stands in for a ``_Run`` or its config and records each field read;
    a method call is recorded as one read, of its result."""

    def __init__(self, inner, reads, prefix=""):
        self.__dict__.update(_inner=inner, _reads=reads, _prefix=prefix)

    def __getattr__(self, name):
        value = getattr(self._inner, name)
        if name == "config":
            return Recorder(value, self._reads, "config.")
        self._reads.add(self._prefix + name + ("()" if callable(value) else ""))
        return value


def _answered_run(monkeypatch, question, config, entries, retriever):
    """Answers a question; returns the engine, its finished ``_Run`` and trace."""
    runs = []

    class KeptRun(engine_module._Run):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            runs.append(self)

    monkeypatch.setattr(engine_module, "_Run", KeptRun)
    engine = Engine(ScriptedBackend(entries), retriever=retriever)
    trace = engine.answer(question, config).trace
    return engine, runs[0], trace


KEY_CASES = {
    "mcq-full": (
        MCQ,
        dataclasses.replace(FULL, k_retrieval=2),
        lambda: [
            ScriptEntry(quick_completion("A"), matcher="BEGIN QUICK"),
            ScriptEntry(reflection_completion(Verdict.ESCALATE), matcher="BEGIN REFLECTION"),
        ] + _retrieval_entries(),
        {"iron lattice tower": [("dA", "tower text")], "tower champ de mars": [("dC", "mars")]},
    ),
    "mcq-no-reading": (
        MCQ, NO_READING, _no_reading_entries, {"iron lattice tower": [("dA", "tower text")]}
    ),
    "open-full": (OPEN, FULL, lambda: entries_for(OPEN, FULL, "nitrogen"), {}),
}


@pytest.mark.parametrize("case", sorted(KEY_CASES))
def test_every_value_a_parser_or_search_reads_is_in_the_prompt_or_the_memo_key(
    monkeypatch, case
):
    question, config, entries, docs = KEY_CASES[case]
    engine, run, trace = _answered_run(
        monkeypatch, question, config, entries(), SpyRetriever(docs)
    )
    library = engine_module.PromptLibrary.default()
    checked = set()
    for step in trace.steps:
        stage = engine_module._STAGES[step.agent]
        reads = set()
        stage.parse(step.completion, Recorder(run, reads))
        own = set(stage.fields)
        if step.agent is Agent.SEARCH:
            engine._retrieve(Recorder(run, reads), run.decisions)
            own.add("docs_by_subquestion")
        for read in sorted(reads - own):
            name = read.removeprefix("config.")
            if read.startswith("config.") and name not in MEMO_KEY:
                changed = dataclasses.replace(
                    run, config=dataclasses.replace(config, **{name: getattr(config, name) + 1})
                )
                _, prompt = library.get(step.agent).render(**stage.values(changed))
                assert prompt != step.prompt, f"{step.agent.value} reads {read} unshown"
            elif not read.startswith("config."):
                assert read in SHOWN, f"{step.agent.value} reads {read}: add it to SHOWN"
                assert SHOWN[read](run, step.prompt), f"{step.agent.value}: {read} unshown"
            checked.add(read)
    assert {"question", "plan", "hypotheses", "evidence_ids()", "config.max_hypotheses"} <= checked
    assert ("quick" in checked) == config.system1_enabled
    assert ("config.k_retrieval" in checked) == bool(docs)


def test_hypothesis_reads_only_the_question_and_the_config(monkeypatch):
    question, config, entries, docs = KEY_CASES["mcq-full"]
    _, run, trace = _answered_run(monkeypatch, question, config, entries(), SpyRetriever(docs))
    stage = engine_module._STAGES[Agent.HYPOTHESIS]
    reads = set()
    stage.values(Recorder(run, reads))
    step = next(step for step in trace.steps if step.agent is Agent.HYPOTHESIS)
    stage.parse(step.completion, Recorder(run, reads))
    assert {read.split(".")[0] for read in reads} == {"question", "config"}


@pytest.mark.parametrize("name", sorted(MEMO_KEY))
def test_a_stage_replays_from_the_memo_only_under_the_same_key_values(name):
    question, config, entries, docs = KEY_CASES["mcq-full"]
    backend = RoutedBackend({question.text: {e.matcher: e.completion for e in entries()}})
    retriever = SpyRetriever(docs)
    engine = Engine(backend, retriever=retriever, memo={})
    first = engine.answer(question, config).trace
    calls, searches = backend.calls, len(retriever.calls)
    again = engine.answer(question, config).trace
    assert (backend.calls, len(retriever.calls)) == (calls, searches)
    assert all(step.cached and step.wall_ms == 0 for step in again.steps)
    assert _untimed(again) == [dataclasses.replace(s, cached=True) for s in _untimed(first)]
    assert (again.cached_usage, again.final_answer) == (first.total_usage, first.final_answer)
    engine.answer(question, dataclasses.replace(config, **{name: getattr(config, name) + 1}))
    assert backend.calls == 2 * calls
