import pytest

from dualthink.errors import ParseError
from dualthink.parsers import (
    extract_choice,
    parse_decision,
    parse_hypotheses,
    parse_integration,
    parse_plan,
    parse_quick,
    parse_reading,
    parse_reflection,
    parse_search,
)
from dualthink.types import (
    Hypothesis,
    HypothesisStatus,
    Plan,
    PlanItem,
    Verdict,
)

PLAN_2 = Plan(
    subquestions=(
        PlanItem("P1", "Who designed the tower?"),
        PlanItem("P2", "When was it finished?"),
    )
)

HYPS_MCQ = (
    Hypothesis(id="H1", statement="The tower is in Paris.", option_label="A"),
    Hypothesis(id="H2", statement="The tower is in London.", option_label="B"),
)


# --- quick ---------------------------------------------------------------


def test_quick_happy_path():
    raw = (
        "Thinking out loud first.\n"
        "BEGIN QUICK\n"
        "SQ1: What kind of tower is it?\n"
        "SA1: A wrought-iron lattice tower.\n"
        "SQ2: Where does it stand?\n"
        "SA2: On the Champ de Mars.\n"
        "ANSWER: Paris\n"
        "END QUICK\n"
    )
    quick = parse_quick(raw)
    assert [s.index for s in quick.steps] == [1, 2]
    assert quick.steps[0].subanswer == "A wrought-iron lattice tower."
    assert quick.final_answer == "Paris"


def test_quick_requires_paired_and_contiguous_steps():
    with pytest.raises(ParseError):
        parse_quick("BEGIN QUICK\nSQ1: a?\nANSWER: x\nEND QUICK")  # SA1 missing
    with pytest.raises(ParseError):
        parse_quick("BEGIN QUICK\nSA1: a\nANSWER: x\nEND QUICK")  # SQ1 missing
    with pytest.raises(ParseError):
        parse_quick(
            "BEGIN QUICK\nSQ1: a?\nSA1: a\nSQ3: b?\nSA3: b\nANSWER: x\nEND QUICK"
        )  # gap
    with pytest.raises(ParseError):
        parse_quick("BEGIN QUICK\nANSWER: x\nEND QUICK")  # zero steps


def test_quick_requires_answer():
    with pytest.raises(ParseError):
        parse_quick("BEGIN QUICK\nSQ1: a?\nSA1: b\nEND QUICK")
    with pytest.raises(ParseError):
        parse_quick("BEGIN QUICK\nSQ1: a?\nSA1: b\nANSWER:\nEND QUICK")


def test_quick_rejects_foreign_keys():
    with pytest.raises(ParseError):
        parse_quick("BEGIN QUICK\nSQ1: a?\nSA1: b\nNOTE: hm\nANSWER: x\nEND QUICK")


# --- reflection ----------------------------------------------------------


def test_reflection_accept_and_escalate():
    accept = parse_reflection(
        "BEGIN REFLECTION\nDECISION: ACCEPT\nRATIONALE: Steps check out.\nEND REFLECTION"
    )
    assert accept.decision is Verdict.ACCEPT
    assert accept.rationale == "Steps check out."
    assert accept.flagged_steps == ()

    escalate = parse_reflection(
        "BEGIN REFLECTION\nDECISION: escalate\nFLAGGED: 2, 3\nEND REFLECTION",
        valid_steps=[1, 2, 3],
    )
    assert escalate.decision is Verdict.ESCALATE
    assert escalate.flagged_steps == (2, 3)
    assert escalate.rationale == ""


def test_reflection_rejects_bad_decisions_and_flags():
    with pytest.raises(ParseError):
        parse_reflection("BEGIN REFLECTION\nDECISION: MAYBE\nEND REFLECTION")
    with pytest.raises(ParseError):
        parse_reflection("BEGIN REFLECTION\nRATIONALE: no decision\nEND REFLECTION")
    with pytest.raises(ParseError):
        parse_reflection(
            "BEGIN REFLECTION\nDECISION: ACCEPT\nFLAGGED: 9\nEND REFLECTION",
            valid_steps=[1, 2],
        )
    for flagged in ("one", "\u00b2"):
        with pytest.raises(ParseError):
            parse_reflection(
                f"BEGIN REFLECTION\nDECISION: ACCEPT\nFLAGGED: {flagged}\nEND REFLECTION"
            )


# --- plan ----------------------------------------------------------------


def test_plan_accepts_p_prefixed_and_bare_numbers():
    plan = parse_plan("BEGIN PLAN\nP1: first?\nP2: second?\nEND PLAN", 5)
    assert plan.ids == ("P1", "P2")
    bare = parse_plan("BEGIN PLAN\n1: first?\n2: second?\nEND PLAN", 5)
    assert bare.ids == ("P1", "P2")
    assert bare.subquestions[1].text == "second?"


def test_plan_limits_and_gaps():
    with pytest.raises(ParseError):
        parse_plan("BEGIN PLAN\nP1: a?\nP2: b?\nP3: c?\nEND PLAN", 2)
    with pytest.raises(ParseError):
        parse_plan("BEGIN PLAN\nP1: a?\nP3: c?\nEND PLAN", 5)
    with pytest.raises(ParseError):
        parse_plan("BEGIN PLAN\nEND PLAN", 5)
    with pytest.raises(ParseError):
        parse_plan("BEGIN PLAN\nP1: a?\n1: again\nEND PLAN", 5)  # same index twice
    with pytest.raises(ParseError):
        parse_plan("BEGIN PLAN\nSTEP: a?\nEND PLAN", 5)


# --- search --------------------------------------------------------------


def test_search_mixed_verdicts():
    raw = (
        "BEGIN SEARCH\n"
        "P1: RETRIEVE\n"
        "P1.Q1: tower designer\n"
        "P1.Q2: lattice tower engineer\n"
        "P2: INTERNAL\n"
        "END SEARCH"
    )
    decisions = parse_search(raw, PLAN_2)
    assert decisions[0].needs_retrieval is True
    assert decisions[0].queries == ("tower designer", "lattice tower engineer")
    assert decisions[1].needs_retrieval is False
    assert decisions[1].queries == ()


def test_search_verdicts_must_cover_the_plan_exactly():
    with pytest.raises(ParseError):
        parse_search("BEGIN SEARCH\nP1: INTERNAL\nEND SEARCH", PLAN_2)
    with pytest.raises(ParseError):
        parse_search(
            "BEGIN SEARCH\nP1: INTERNAL\nP2: INTERNAL\nP3: INTERNAL\nEND SEARCH", PLAN_2
        )


def test_search_retrieve_needs_queries_and_internal_forbids_them():
    with pytest.raises(ParseError):
        parse_search("BEGIN SEARCH\nP1: RETRIEVE\nP2: INTERNAL\nEND SEARCH", PLAN_2)
    with pytest.raises(ParseError):
        parse_search(
            "BEGIN SEARCH\nP1: INTERNAL\nP1.Q1: stray\nP2: INTERNAL\nEND SEARCH", PLAN_2
        )
    with pytest.raises(ParseError):
        parse_search(
            "BEGIN SEARCH\nP1: RETRIEVE\nP1.Q2: gap\nP2: INTERNAL\nEND SEARCH", PLAN_2
        )
    with pytest.raises(ParseError):
        parse_search("BEGIN SEARCH\nP1: MAYBE\nP2: INTERNAL\nEND SEARCH", PLAN_2)


# --- reading -------------------------------------------------------------

AVAILABLE = {"P1": ["d1", "d2"], "P2": []}


def test_reading_insights_with_and_without_sources():
    raw = (
        "BEGIN READING\n"
        "K1 SUBQUESTION: P1\n"
        "K1 SOURCES: d2, d1\n"
        "K1 TEXT: Designed by a famous engineering firm.\n"
        "K2 SUBQUESTION: P2\n"
        "K2 SOURCES:\n"
        "K2 TEXT: Finished in 1889.\n"
        "END READING"
    )
    insights = parse_reading(raw, AVAILABLE)
    assert insights[0].id == "K1"
    assert insights[0].source_doc_ids == ("d2", "d1")
    assert insights[1].source_doc_ids == ()
    assert insights[1].subquestion_id == "P2"


def test_reading_rejects_unknown_references_and_missing_parts():
    with pytest.raises(ParseError):
        parse_reading(
            "BEGIN READING\nK1 SUBQUESTION: P9\nK1 SOURCES:\nK1 TEXT: x\nEND READING",
            AVAILABLE,
        )
    with pytest.raises(ParseError):
        parse_reading(
            "BEGIN READING\nK1 SUBQUESTION: P2\nK1 SOURCES: d1\nK1 TEXT: x\nEND READING",
            AVAILABLE,
        )  # d1 was not retrieved for P2
    with pytest.raises(ParseError):
        parse_reading(
            "BEGIN READING\nK1 SUBQUESTION: P1\nK1 TEXT: x\nEND READING", AVAILABLE
        )  # SOURCES line missing
    with pytest.raises(ParseError):
        parse_reading("BEGIN READING\nEND READING", AVAILABLE)  # no insights


# --- hypotheses ----------------------------------------------------------


def test_hypotheses_mcq_one_per_option():
    raw = (
        "BEGIN HYPOTHESES\n"
        "H1 OPTION: A\n"
        "H1 STATEMENT: The tower is in Paris.\n"
        "H2 OPTION: B\n"
        "H2 STATEMENT: The tower is in London.\n"
        "END HYPOTHESES"
    )
    hyps = parse_hypotheses(raw, ("A", "B"), 4)
    assert [h.option_label for h in hyps] == ["A", "B"]
    assert hyps[0].id == "H1"


def test_hypotheses_mcq_must_cover_every_option_once():
    missing = "BEGIN HYPOTHESES\nH1 OPTION: A\nH1 STATEMENT: x\nEND HYPOTHESES"
    with pytest.raises(ParseError):
        parse_hypotheses(missing, ("A", "B"), 4)
    doubled = (
        "BEGIN HYPOTHESES\n"
        "H1 OPTION: A\nH1 STATEMENT: x\n"
        "H2 OPTION: A\nH2 STATEMENT: y\n"
        "END HYPOTHESES"
    )
    with pytest.raises(ParseError):
        parse_hypotheses(doubled, ("A", "B"), 4)
    unknown = (
        "BEGIN HYPOTHESES\n"
        "H1 OPTION: A\nH1 STATEMENT: x\n"
        "H2 OPTION: Z\nH2 STATEMENT: y\n"
        "END HYPOTHESES"
    )
    with pytest.raises(ParseError):
        parse_hypotheses(unknown, ("A", "B"), 4)


def test_hypotheses_open_forbids_option_lines_and_caps_count():
    raw = (
        "BEGIN HYPOTHESES\n"
        "H1 STATEMENT: It is nitrogen.\n"
        "H2 STATEMENT: It is oxygen.\n"
        "END HYPOTHESES"
    )
    hyps = parse_hypotheses(raw, (), 4)
    assert [h.option_label for h in hyps] == [None, None]
    with pytest.raises(ParseError):
        parse_hypotheses(
            "BEGIN HYPOTHESES\nH1 OPTION: A\nH1 STATEMENT: x\nEND HYPOTHESES", (), 4
        )
    five = "BEGIN HYPOTHESES\n" + "".join(
        f"H{i} STATEMENT: guess {i}\n" for i in range(1, 6)
    ) + "END HYPOTHESES"
    with pytest.raises(ParseError):
        parse_hypotheses(five, (), 4)


# --- integration -----------------------------------------------------------


def test_integration_statuses_citations_and_merge():
    raw = (
        "BEGIN INTEGRATION\n"
        "H1 STATUS: SUPPORTED\n"
        "H1 EVIDENCE: K1, K2\n"
        "H1 JUSTIFICATION: Both insights agree.\n"
        "H2 STATUS: REFUTED\n"
        "H2 EVIDENCE: K2\n"
        "H2 JUSTIFICATION: Contradicted directly.\n"
        "INTEGRATED: The tower is in Paris.\n"
        "INTEGRATED FROM: H1\n"
        "END INTEGRATION"
    )
    verdicts, integrated = parse_integration(raw, HYPS_MCQ, ("K1", "K2"))
    assert verdicts[0].status is HypothesisStatus.SUPPORTED
    assert verdicts[0].cited_insights == ("K1", "K2")
    assert verdicts[1].status is HypothesisStatus.REFUTED
    assert integrated.text == "The tower is in Paris."
    assert integrated.supporting_hypothesis_ids == ("H1",)


def test_integration_inconclusive_may_cite_nothing():
    raw = (
        "BEGIN INTEGRATION\n"
        "H1 STATUS: INCONCLUSIVE\n"
        "H2 STATUS: inconclusive\n"
        "INTEGRATED: Evidence does not settle it.\n"
        "END INTEGRATION"
    )
    verdicts, integrated = parse_integration(raw, HYPS_MCQ, ())
    assert all(v.status is HypothesisStatus.INCONCLUSIVE for v in verdicts)
    assert all(v.cited_insights == () for v in verdicts)
    assert integrated.supporting_hypothesis_ids == ()


def test_integration_supported_requires_real_evidence():
    uncited = (
        "BEGIN INTEGRATION\n"
        "H1 STATUS: SUPPORTED\n"
        "H2 STATUS: INCONCLUSIVE\n"
        "INTEGRATED: x\n"
        "END INTEGRATION"
    )
    with pytest.raises(ParseError):
        parse_integration(uncited, HYPS_MCQ, ("K1",))
    phantom = (
        "BEGIN INTEGRATION\n"
        "H1 STATUS: SUPPORTED\n"
        "H1 EVIDENCE: K9\n"
        "H2 STATUS: INCONCLUSIVE\n"
        "INTEGRATED: x\n"
        "END INTEGRATION"
    )
    with pytest.raises(ParseError):
        parse_integration(phantom, HYPS_MCQ, ("K1",))
    # with no evidence pool at all, SUPPORTED cannot be expressed
    with pytest.raises(ParseError):
        parse_integration(
            "BEGIN INTEGRATION\nH1 STATUS: SUPPORTED\nH1 EVIDENCE: K1\n"
            "H2 STATUS: INCONCLUSIVE\nINTEGRATED: x\nEND INTEGRATION",
            HYPS_MCQ,
            (),
        )


def test_integration_covers_every_hypothesis_and_known_ids_only():
    with pytest.raises(ParseError):
        parse_integration(
            "BEGIN INTEGRATION\nH1 STATUS: INCONCLUSIVE\nINTEGRATED: x\nEND INTEGRATION",
            HYPS_MCQ,
            (),
        )
    with pytest.raises(ParseError):
        parse_integration(
            "BEGIN INTEGRATION\nH1 STATUS: INCONCLUSIVE\nH2 STATUS: INCONCLUSIVE\n"
            "H3 STATUS: INCONCLUSIVE\nINTEGRATED: x\nEND INTEGRATION",
            HYPS_MCQ,
            (),
        )


def test_integration_from_must_point_at_supported_ids():
    raw = (
        "BEGIN INTEGRATION\n"
        "H1 STATUS: INCONCLUSIVE\n"
        "H2 STATUS: INCONCLUSIVE\n"
        "INTEGRATED: x\n"
        "INTEGRATED FROM: H1\n"
        "END INTEGRATION"
    )
    with pytest.raises(ParseError):
        parse_integration(raw, HYPS_MCQ, ())


def test_integration_requires_integrated_line():
    raw = (
        "BEGIN INTEGRATION\n"
        "H1 STATUS: INCONCLUSIVE\n"
        "H2 STATUS: INCONCLUSIVE\n"
        "END INTEGRATION"
    )
    with pytest.raises(ParseError):
        parse_integration(raw, HYPS_MCQ, ())


# --- decision --------------------------------------------------------------


def test_decision_mcq_with_ranking():
    raw = (
        "BEGIN DECISION\n"
        "ANSWER: A\n"
        "RANKING: H1, H2\n"
        "JUSTIFICATION: Best supported.\n"
        "END DECISION"
    )
    decision = parse_decision(raw, HYPS_MCQ, ("A", "B"))
    assert decision.answer == "A"
    assert decision.chosen_option == "A"
    assert decision.ranking == ("H1", "H2")


def test_decision_open_without_hypotheses():
    decision = parse_decision(
        "BEGIN DECISION\nANSWER: nitrogen\nEND DECISION", (), ()
    )
    assert decision.answer == "nitrogen"
    assert decision.chosen_option is None
    assert decision.ranking == ()


def test_decision_ranking_rules():
    with pytest.raises(ParseError):
        parse_decision("BEGIN DECISION\nANSWER: A\nEND DECISION", HYPS_MCQ, ("A", "B"))
    with pytest.raises(ParseError):
        parse_decision(
            "BEGIN DECISION\nANSWER: A\nRANKING: H1\nEND DECISION", HYPS_MCQ, ("A", "B")
        )
    with pytest.raises(ParseError):
        parse_decision(
            "BEGIN DECISION\nANSWER: A\nRANKING: H1, H9\nEND DECISION",
            HYPS_MCQ,
            ("A", "B"),
        )
    with pytest.raises(ParseError):
        parse_decision(
            "BEGIN DECISION\nANSWER: nitrogen\nRANKING: H1\nEND DECISION", (), ()
        )


def test_decision_mcq_answer_must_resolve_to_a_label():
    with pytest.raises(ParseError):
        parse_decision(
            "BEGIN DECISION\nANSWER: maybe C\nRANKING: H1, H2\nEND DECISION",
            HYPS_MCQ,
            ("A", "B"),
        )


# --- choice extraction -------------------------------------------------------


def test_extract_choice_exact_and_prefix_forms():
    labels = ("A", "B", "C")
    assert extract_choice("B", labels) == "B"
    assert extract_choice("  b  ", labels) == "B"
    assert extract_choice("B) because of the evidence", labels) == "B"
    assert extract_choice("(C) the last one", labels) == "C"
    assert extract_choice("A. definitely", labels) == "A"
    assert extract_choice('"B": quoted', labels) == "B"


def test_extract_choice_rejects_everything_else():
    with pytest.raises(ParseError):
        extract_choice("The answer is B", ("A", "B"))
    with pytest.raises(ParseError):
        extract_choice("D", ("A", "B"))
    with pytest.raises(ParseError):
        extract_choice("B", ())


def test_extract_choice_returns_canonical_label_case():
    assert extract_choice("a", ("A", "B")) == "A"


# --- fields given twice --------------------------------------------------------


@pytest.mark.parametrize(
    "parse, raw",
    [
        (parse_quick, "BEGIN QUICK\nSQ1: a?\nSA1: b\nSQ01: c?\nANSWER: x\nEND QUICK"),
        (
            lambda raw: parse_search(raw, PLAN_2),
            "BEGIN SEARCH\nP1: RETRIEVE\nP1.Q1: alpha\nP1.Q01: beta\nP2: INTERNAL\nEND SEARCH",
        ),
        (
            lambda raw: parse_reading(raw, AVAILABLE),
            "BEGIN READING\nK1 SUBQUESTION: P1\nK1 SOURCES: d1\nK1 TEXT: x\nK01 TEXT: y\n"
            "END READING",
        ),
        (
            lambda raw: parse_hypotheses(raw, (), 4),
            "BEGIN HYPOTHESES\nH1 STATEMENT: x\nH01 STATEMENT: y\nEND HYPOTHESES",
        ),
    ],
    ids=["quick", "search", "reading", "hypotheses"],
)
def test_a_field_given_twice_with_a_leading_zero_is_rejected(parse, raw):
    with pytest.raises(ParseError, match="repeats a field"):
        parse(raw)
