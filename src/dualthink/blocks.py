"""Fenced key-value blocks: the wire format every agent replies in.

A block looks like::

    BEGIN PLAN
    P1: Who designed the tower?
    P2: When was it finished?
    END PLAN

Prose outside the fences is ignored. Inside, every non-blank line must be
``KEY: value``; keys are case/whitespace-insensitive and must be unique.
:func:`parse_block` returns the entries as a plain dict in source order;
what the keys mean is left to the per-agent readers in ``parsers``. The
writer, ``format_block``, builds scripted replies and lives with the tests.
"""

from __future__ import annotations

from .errors import ParseError


def normalize_key(key: str) -> str:
    """Uppercase and collapse internal whitespace: 'h1  status' -> 'H1 STATUS'."""
    return " ".join(key.upper().split())


def parse_block(raw: str, tag: str) -> dict[str, str]:
    """Extract the single ``BEGIN tag``/``END tag`` block from a completion.

    Returns its entries as ``{normalized key: stripped value}`` in source
    order. Raises ParseError if the block is missing, unterminated,
    duplicated, or contains a malformed or duplicate entry.
    """
    begin_marker = f"BEGIN {tag}"
    end_marker = f"END {tag}"
    lines = [line.strip() for line in raw.splitlines()]
    begin_indices = [i for i, line in enumerate(lines) if line == begin_marker]
    if not begin_indices:
        raise ParseError(f"no {begin_marker!r} line found")
    if len(begin_indices) > 1:
        raise ParseError(f"multiple {begin_marker!r} lines found; expected exactly one")
    start = begin_indices[0]
    end = next((i for i in range(start + 1, len(lines)) if lines[i] == end_marker), None)
    if end is None:
        raise ParseError(f"{begin_marker!r} without matching {end_marker!r}")

    entries: dict[str, str] = {}
    for line in lines[start + 1 : end]:
        if not line:
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ParseError(f"line inside {tag} block has no ':' separator: {line!r}")
        normalized = normalize_key(key)
        if not normalized:
            raise ParseError(f"line inside {tag} block has an empty key: {line!r}")
        if normalized in entries:
            raise ParseError(f"duplicate key {normalized!r} inside {tag} block")
        entries[normalized] = value.strip()
    return entries

