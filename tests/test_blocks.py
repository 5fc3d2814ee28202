import pytest

from dualthink.blocks import normalize_key, parse_block
from dualthink.errors import ParseError

from scripting import format_block


def test_parses_a_plain_block():
    raw = "BEGIN PLAN\nP1: first thing\nP2: second thing\nEND PLAN"
    block = parse_block(raw, "PLAN")
    assert block == {"P1": "first thing", "P2": "second thing"}
    assert list(block) == ["P1", "P2"]


def test_prose_around_the_block_is_ignored():
    raw = (
        "Sure! Let me think about this.\n\n"
        "BEGIN PLAN\nP1: the only step\nEND PLAN\n\n"
        "Hope that helps."
    )
    assert parse_block(raw, "PLAN") == {"P1": "the only step"}


def test_markers_must_stand_alone_on_their_line():
    # an indented marker still counts; an inline mention does not
    raw = "  BEGIN PLAN  \nP1: x\n  END PLAN"
    assert parse_block(raw, "PLAN") == {"P1": "x"}
    with pytest.raises(ParseError):
        parse_block("as I said, BEGIN PLAN is the marker\nP1: x\nEND PLAN", "PLAN")


def test_missing_block_and_wrong_tag():
    with pytest.raises(ParseError):
        parse_block("no block here", "PLAN")
    with pytest.raises(ParseError):
        parse_block("BEGIN SEARCH\nP1: RETRIEVE\nEND SEARCH", "PLAN")


def test_unterminated_block():
    with pytest.raises(ParseError):
        parse_block("BEGIN PLAN\nP1: x", "PLAN")


def test_duplicate_blocks_are_rejected():
    raw = "BEGIN PLAN\nP1: x\nEND PLAN\nBEGIN PLAN\nP1: y\nEND PLAN"
    with pytest.raises(ParseError):
        parse_block(raw, "PLAN")


def test_line_without_colon_is_rejected():
    with pytest.raises(ParseError):
        parse_block("BEGIN PLAN\njust some text\nEND PLAN", "PLAN")


def test_duplicate_keys_are_rejected():
    with pytest.raises(ParseError):
        parse_block("BEGIN PLAN\nP1: x\np1: y\nEND PLAN", "PLAN")


def test_empty_key_is_rejected():
    with pytest.raises(ParseError):
        parse_block("BEGIN PLAN\n: no key\nEND PLAN", "PLAN")


def test_blank_lines_inside_block_are_fine():
    raw = "BEGIN PLAN\n\nP1: x\n\nP2: y\n\nEND PLAN"
    assert list(parse_block(raw, "PLAN")) == ["P1", "P2"]


def test_values_keep_internal_colons():
    block = parse_block("BEGIN PLAN\nP1: when: today, where: here\nEND PLAN", "PLAN")
    assert block == {"P1": "when: today, where: here"}


def test_empty_value_is_allowed_at_this_layer():
    block = parse_block("BEGIN READING\nK1 SOURCES:\nEND READING", "READING")
    assert block == {"K1 SOURCES": ""}


def test_key_normalization():
    assert normalize_key("h1   status") == "H1 STATUS"
    block = parse_block("BEGIN X\nh1  status : ok\nEND X", "X")
    assert block == {"H1 STATUS": "ok"}


def test_format_block_round_trips():
    entries = [("P1", "alpha"), ("P2", "beta: with colon")]
    raw = format_block("PLAN", entries)
    assert raw == "BEGIN PLAN\nP1: alpha\nP2: beta: with colon\nEND PLAN"
    assert list(parse_block(raw, "PLAN").items()) == entries


def test_injected_quoted_lines_cannot_terminate_a_block():
    # quoted material carries a "  | " prefix, so a smuggled END marker
    # inside a value area of the prompt could never close a real block
    raw = "BEGIN PLAN\nP1: keep going\nEND PLAN"
    assert parse_block(raw, "PLAN") == {"P1": "keep going"}
    smuggled = "BEGIN PLAN\nP1: x\n  | END PLAN\nP2: y\nEND PLAN"
    with pytest.raises(ParseError):
        # the quoted line has no colon and is not a marker: malformed entry
        parse_block(smuggled, "PLAN")
