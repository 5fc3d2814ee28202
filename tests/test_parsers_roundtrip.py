"""serialize -> parse recovers the original payload, for every block type."""

import random

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

import payload_gen as gen
from scripting import (
    serialize_decision,
    serialize_hypotheses,
    serialize_integration,
    serialize_plan,
    serialize_quick,
    serialize_reading,
    serialize_reflection,
    serialize_search,
)

ROUNDS = 40


def test_quick_round_trip():
    rng = random.Random(101)
    for _ in range(ROUNDS):
        quick = gen.gen_quick(rng)
        parsed = parse_quick(serialize_quick(quick))
        assert parsed == quick


def test_reflection_round_trip():
    rng = random.Random(102)
    for _ in range(ROUNDS):
        verdict = gen.gen_reflection(rng)
        assert parse_reflection(serialize_reflection(verdict), valid_steps=range(1, 6)) == verdict


def test_plan_round_trip():
    rng = random.Random(103)
    for _ in range(ROUNDS):
        plan = gen.gen_plan(rng)
        assert parse_plan(serialize_plan(plan), max_subquestions=5) == plan


def test_search_round_trip():
    rng = random.Random(104)
    for _ in range(ROUNDS):
        plan = gen.gen_plan(rng)
        decisions = gen.gen_search(rng, plan)
        assert parse_search(serialize_search(decisions), plan) == decisions


def test_reading_round_trip():
    rng = random.Random(105)
    for _ in range(ROUNDS):
        plan = gen.gen_plan(rng)
        available = gen.gen_available(rng, gen.gen_search(rng, plan))
        insights = gen.gen_reading(rng, available)
        assert parse_reading(serialize_reading(insights), available) == insights


def test_hypotheses_round_trip_both_kinds():
    rng = random.Random(106)
    for _ in range(ROUNDS):
        labels = ("A", "B", "C", "D")[: rng.randint(2, 4)] if rng.random() < 0.5 else ()
        hyps = gen.gen_hypotheses(rng, labels)
        assert parse_hypotheses(serialize_hypotheses(hyps), labels, 4) == hyps


def test_integration_round_trip():
    rng = random.Random(107)
    for _ in range(ROUNDS):
        hyps = gen.gen_hypotheses(rng, ())
        evidence = tuple(f"K{i}" for i in range(1, rng.randint(2, 6)))
        verdicts, integrated = gen.gen_integration(rng, hyps, evidence)
        parsed_v, parsed_i = parse_integration(
            serialize_integration(verdicts, integrated), hyps, evidence
        )
        assert parsed_v == verdicts
        assert parsed_i == integrated


def test_integration_round_trip_with_empty_evidence_pool():
    rng = random.Random(108)
    for _ in range(ROUNDS):
        hyps = gen.gen_hypotheses(rng, ("A", "B"))
        verdicts, integrated = gen.gen_integration(rng, hyps, ())
        parsed_v, parsed_i = parse_integration(
            serialize_integration(verdicts, integrated), hyps, ()
        )
        assert parsed_v == verdicts
        assert parsed_i == integrated


def test_decision_round_trip():
    rng = random.Random(109)
    for _ in range(ROUNDS):
        labels = ("A", "B", "C") if rng.random() < 0.5 else ()
        hyps = gen.gen_hypotheses(rng, labels) if rng.random() < 0.7 else ()
        decision = gen.gen_decision(rng, hyps, labels)
        assert parse_decision(serialize_decision(decision), hyps, labels) == decision
