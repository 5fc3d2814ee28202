"""Stand-in chat model for the offline benchmark.

The model reads the rendered prompt the way a provider's model would see it:
it finds the agent by the prompt's ``BEGIN <TAG>`` marker and the ids it must
refer to by the prompt's section headers, and replies with a valid block. A
reply is a pure function of the seed and the request. A prompt the model
cannot read is counted as an error and refused; the model never guesses.

Behaviour keyed on a hash of the request, so a run repeats exactly:

- the committed answer: an option label for multiple choice, two vocabulary
  words otherwise; every path through the pipeline ends on it;
- the reflection gate escalates a question when its hash falls below
  ``ESCALATE_SHARE``;
- ``FAIL_SHARE`` of first attempts come back truncated (no ``END`` line), so
  the engine's parse-retry path runs;
- the service time is a seeded base plus a per-completion-token term.

Two forms share the model: ``workload.StandInBackend`` calls it in-process,
and ``python3 bench/standin.py --seed N ...`` serves an OpenAI-style
``POST /v1/chat/completions`` on loopback, printing ``PORT <n>`` once ready.
``GET /stats?since=N`` returns the server's call records from index ``N``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import http.server
import itertools
import json
import random
import re
import socket
import sys
import threading
import time
from dataclasses import dataclass
from urllib.parse import parse_qs, urlparse

#: Zipf vocabulary shared by the corpus generator and the model's queries.
VOCAB_SIZE = 30_000
ZIPF_EXPONENT = 1.0
ESCALATE_SHARE = 0.35
FAIL_SHARE = 0.05
RETRY_MARKER = "Your previous reply could not be parsed"

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]

_TAG_RE = re.compile(r"^BEGIN ([A-Z]+)$", re.MULTILINE)
_OPTION_RE = re.compile(r"^(\S+): (.*)$")
_HYPOTHESIS_RE = re.compile(r"^(H\d+)(?: \(option (\S+)\))?: (.*?)(?: \[[A-Z]+\])?$")


def term(rank: int) -> str:
    """The vocabulary word of Zipf rank ``rank`` (0-based); one BM25 token."""
    n = rank + len(_SYLLABLES)
    out = []
    while n:
        n, digit = divmod(n, len(_SYLLABLES))
        out.append(_SYLLABLES[digit])
    return "".join(reversed(out))


class Zipf:
    """Draws vocabulary words with P(rank r) proportional to 1 / (r + 1)^s."""

    def __init__(self, size: int = VOCAB_SIZE, exponent: float = ZIPF_EXPONENT):
        self.words = [term(r) for r in range(size)]
        self.cum = list(itertools.accumulate(1.0 / (r + 1) ** exponent for r in range(size)))

    def draw(self, rng: random.Random, k: int) -> list[str]:
        total = self.cum[-1]
        return [self.words[bisect.bisect(self.cum, rng.random() * total)] for _ in range(k)]


def _digest(seed: int, kind: str, text: str) -> int:
    data = f"{seed}\x00{kind}\x00{text}".encode()
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


def _unit(seed: int, kind: str, text: str) -> float:
    return _digest(seed, kind, text) / 2.0**64


def estimate_tokens(text: str) -> int:
    return (len(text) + 3) // 4


class Unreadable(Exception):
    """The model could not find what it needs in the prompt."""


@dataclass(frozen=True)
class Reply:
    text: str
    prompt_tokens: int
    completion_tokens: int
    service_s: float
    question: str


def _section(text: str, start: str, end: str) -> str:
    i = text.find(start)
    if i < 0:
        raise Unreadable(f"no {start.strip()!r} section")
    i += len(start)
    j = text.find(end, i)
    if j < 0:
        raise Unreadable(f"section {start.strip()!r} has no end {end.strip()!r}")
    return text[i:j]


def _options(user: str, header: str, end: str) -> list[str]:
    labels = []
    for line in _section(user, header, end).splitlines():
        match = _OPTION_RE.match(line)
        if not match:
            raise Unreadable(f"bad option line {line!r}")
        labels.append(match.group(1))
    if not labels:
        raise Unreadable("no options listed")
    return labels


class StandIn:
    """The reply function, plus the call records a provider would bill."""

    def __init__(self, seed: int, base_ms: float, per_token_ms: float):
        self.seed = seed
        self.base_s = base_ms / 1000.0
        self.per_token_s = per_token_ms / 1000.0
        self.zipf = Zipf()
        self._lock = threading.Lock()
        #: One (question, start, end, prompt_tokens, completion_tokens) per
        #: answered call, in completion order.
        self.records: list[tuple[str, float, float, int, int]] = []
        self.errors = 0

    # -- the model's committed behaviour -------------------------------------

    def escalates(self, question: str) -> bool:
        return _unit(self.seed, "gate", question) < ESCALATE_SHARE

    def committed_answer(self, question: str, labels: list[str] | tuple[str, ...] = ()) -> str:
        pick = _digest(self.seed, "answer", question)
        if labels:
            return labels[pick % len(labels)]
        return f"{term(100 + pick % 4000)} {term(100 + (pick >> 20) % 4000)}"

    def wants_failure(self, system: str, user: str) -> bool:
        return RETRY_MARKER not in user and _unit(self.seed, "fail", system + user) < FAIL_SHARE

    # -- replies -------------------------------------------------------------

    def reply(self, system: str, user: str) -> Reply:
        """Reply to one request; raises Unreadable, never guesses."""
        started = time.monotonic()
        tags = _TAG_RE.findall(user)
        if len(tags) != 1:
            raise Unreadable(f"expected one BEGIN marker, found {len(tags)}")
        if not user.startswith("Question:\n"):
            raise Unreadable("prompt does not open with a Question section")
        question = user[len("Question:\n") :].split("\n", 1)[0]
        rng = random.Random(_digest(self.seed, "reply", system + user))
        body = getattr(self, "_" + tags[0].lower(), None)
        if body is None:
            raise Unreadable(f"unknown block tag {tags[0]!r}")
        lines = body(question, user, rng)
        if self.wants_failure(system, user):
            text = "\n".join([f"BEGIN {tags[0]}", *lines])
        else:
            text = "\n".join([f"BEGIN {tags[0]}", *lines, f"END {tags[0]}"])
        completion_tokens = estimate_tokens(text)
        latency = self.base_s * (0.5 + _unit(self.seed, "latency", system + user))
        latency += self.per_token_s * completion_tokens
        remaining = latency - (time.monotonic() - started)
        if remaining > 0:
            time.sleep(remaining)
        return Reply(
            text,
            estimate_tokens(system) + estimate_tokens(user),
            completion_tokens,
            time.monotonic() - started,
            question,
        )

    def record(self, reply: Reply, started: float, ended: float) -> None:
        with self._lock:
            self.records.append(
                (reply.question, started, ended, reply.prompt_tokens, reply.completion_tokens)
            )

    def count_error(self) -> None:
        with self._lock:
            self.errors += 1

    def stats(self, since: int = 0) -> dict:
        with self._lock:
            return {
                "count": len(self.records),
                "records": self.records[since:],
                "errors": self.errors,
            }

    def _words(self, rng: random.Random, k: int) -> str:
        return " ".join(self.zipf.draw(rng, k))

    def _quick(self, question, user, rng):
        labels = _options(user, "\n\nOptions:\n", "\n\n") if "\n\nOptions:\n" in user else []
        lines = []
        for i in range(1, 2 + rng.randrange(3)):
            lines.append(f"SQ{i}: {self._words(rng, 5)}?")
            lines.append(f"SA{i}: {self._words(rng, 4)}")
        lines.append(f"ANSWER: {self.committed_answer(question, labels)}")
        return lines

    def _reflection(self, question, user, rng):
        audited = _section(user, "Quick reasoning to audit:\n", "\n\nDecide whether")
        if "\n  | SQ1: " not in "\n" + audited:
            raise Unreadable("no SQ1 step in the audited reasoning")
        if self.escalates(question):
            return ["DECISION: ESCALATE", f"RATIONALE: {self._words(rng, 8)}", "FLAGGED: 1"]
        return ["DECISION: ACCEPT", f"RATIONALE: {self._words(rng, 8)}"]

    def _plan(self, question, user, rng):
        match = re.search(r"^Produce at most (\d+) subquestions", user, re.MULTILINE)
        if not match:
            raise Unreadable("no subquestion limit")
        n = min(int(match.group(1)), 2 + rng.randrange(3))
        return [f"P{i}: {self._words(rng, 6)}?" for i in range(1, n + 1)]

    def _search(self, question, user, rng):
        listing = _section(user, "\n\nSubquestions:\n", "\n\nFor every subquestion")
        ids = [line.split(":", 1)[0] for line in listing.splitlines()]
        if not ids or not all(re.fullmatch(r"P\d+", pid) for pid in ids):
            raise Unreadable(f"bad subquestion listing {listing[:80]!r}")
        lines = []
        for pid in ids:
            lines.append(f"{pid}: RETRIEVE")
            for j in range(1, 2 + rng.randrange(2)):
                lines.append(f"{pid}.Q{j}: {self._words(rng, 3 + rng.randrange(6))}")
        return lines

    def _reading(self, question, user, rng):
        material = _section(
            user, "Material, grouped by subquestion:\n", "\n\nExtract the key insights"
        )
        docs: dict[str, list[str]] = {}
        current = None
        for line in material.splitlines():
            if line.startswith("  |") or not line or line.startswith("(no documents"):
                continue
            if line.startswith("[") and line.endswith("]") and current is not None:
                docs[current].append(line[1:-1])
                continue
            pid = line.split(":", 1)[0]
            if not re.fullmatch(r"P\d+", pid):
                raise Unreadable(f"bad material line {line[:80]!r}")
            current = pid
            docs[pid] = []
        if not docs:
            raise Unreadable("no subquestions in the material")
        lines = []
        for k, (pid, doc_ids) in enumerate(docs.items(), start=1):
            lines.append(f"K{k} SUBQUESTION: {pid}")
            lines.append(f"K{k} SOURCES: {', '.join(doc_ids[:2])}")
            lines.append(f"K{k} TEXT: {self._words(rng, 10)}")
        return lines

    def _hypotheses(self, question, user, rng):
        if "The question has these options:\n" in user:
            labels = _options(user, "The question has these options:\n", "\nState exactly one")
            lines = []
            for i, label in enumerate(labels, start=1):
                lines.append(f"H{i} OPTION: {label}")
                lines.append(f"H{i} STATEMENT: The answer is option {label}.")
            return lines
        match = re.search(r"State between 1 and (\d+) distinct candidate", user)
        if not match:
            raise Unreadable("no hypothesis brief")
        n = min(int(match.group(1)), 1 + rng.randrange(3))
        answers = [self.committed_answer(question)]
        answers += [self._words(rng, 2) for _ in range(n - 1)]
        rng.shuffle(answers)
        return [f"H{i} STATEMENT: The answer is {a}." for i, a in enumerate(answers, start=1)]

    def _hypothesis_lines(self, text: str) -> list[tuple[str, str | None, str]]:
        found = []
        for line in text.splitlines():
            match = _HYPOTHESIS_RE.match(line)
            if not match:
                raise Unreadable(f"bad hypothesis line {line[:80]!r}")
            found.append(match.groups())
        if not found:
            raise Unreadable("no hypotheses listed")
        return found

    def _favoured(self, question: str, hypotheses) -> str:
        """The id of the hypothesis that states the committed answer."""
        labels = [label for _, label, _ in hypotheses if label is not None]
        if labels:
            answer = self.committed_answer(question, labels)
            found = [hid for hid, label, _ in hypotheses if label == answer]
        else:
            wanted = f"The answer is {self.committed_answer(question)}."
            found = [hid for hid, _, statement in hypotheses if statement == wanted]
        if len(found) != 1:
            raise Unreadable("no hypothesis states the committed answer")
        return found[0]

    def _integration(self, question, user, rng):
        hypotheses = self._hypothesis_lines(_section(user, "\n\nHypotheses:\n", "\n\nEvidence:\n"))
        evidence = _section(user, "\n\nEvidence:\n", "\n\nFor every hypothesis give")
        ids = [
            line.split(" ", 1)[0].rstrip(":")
            for line in evidence.splitlines()
            if line.endswith(":") and not line.startswith("  |")
        ]
        if not ids and evidence != "(no evidence was collected)":
            raise Unreadable(f"bad evidence section {evidence[:80]!r}")
        favoured = self._favoured(question, hypotheses)
        lines = []
        for i, (hid, _, _) in enumerate(hypotheses):
            if not ids:
                status, cited = "INCONCLUSIVE", ""
            else:
                status = "SUPPORTED" if hid == favoured else "REFUTED"
                cited = ids[i % len(ids)]
            lines += [
                f"{hid} STATUS: {status}",
                f"{hid} EVIDENCE: {cited}",
                f"{hid} JUSTIFICATION: {self._words(rng, 7)}",
            ]
        lines.append(f"INTEGRATED: {self._words(rng, 9)}")
        lines.append(f"INTEGRATED FROM: {favoured if ids else ''}")
        return lines

    def _decision(self, question, user, rng):
        labels = _options(user, "\n\nOptions:\n", "\n\n") if "\n\nOptions:\n" in user else []
        lines = [f"ANSWER: {self.committed_answer(question, labels)}"]
        if "\nRANKING: <all hypothesis ids" in user:
            context = _section(user, "Deliberation so far:\n", "\n\nCommit to the final answer.")
            listing = _section("\n\n" + context + "\n\n", "\n\nHypotheses:\n", "\n\n")
            hypotheses = self._hypothesis_lines(listing)
            favoured = self._favoured(question, hypotheses)
            ranking = [favoured] + [hid for hid, _, _ in hypotheses if hid != favoured]
            lines.append(f"RANKING: {', '.join(ranking)}")
        lines.append(f"JUSTIFICATION: {self._words(rng, 8)}")
        return lines


def request_digest(system: str, user: str, temperature: float, max_tokens: int) -> int:
    """Identity of a request, for counting distinct prompts."""
    return _digest(0, "request", f"{temperature}\x00{max_tokens}\x00{system}\x00{user}")


# --- loopback HTTP form --------------------------------------------------------


class _Handler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: "_Server"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def _send(self, status: int, reason: str, body: bytes, extra: str = "") -> None:
        # Status, headers and body leave in one send: separate writes meet
        # Nagle's algorithm and the peer's delayed ACK, about 40 ms a call.
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n{extra}\r\n"
        )
        self.wfile.write(head.encode("ascii") + body)

    def do_GET(self):
        url = urlparse(self.path)
        if url.path != "/stats":
            self._send(404, "Not Found", b"{}")
            return
        since = int(parse_qs(url.query).get("since", ["0"])[0])
        self._send(200, "OK", json.dumps(self.server.model.stats(since)).encode())

    def do_POST(self):
        started = time.monotonic()
        raw = self.rfile.read(int(self.headers.get("Content-Length", "0")))
        model = self.server.model
        try:
            payload = json.loads(raw)
            messages = {m["role"]: m["content"] for m in payload["messages"]}
            system, user = messages["system"], messages["user"]
            temperature, max_tokens = payload["temperature"], payload["max_tokens"]
        except (ValueError, KeyError, TypeError) as exc:
            model.count_error()
            self._send(400, "Bad Request", json.dumps({"error": str(exc)}).encode())
            return
        digest = request_digest(system, user, temperature, max_tokens)
        if self.server.first_attempt_fails(digest):
            self._send(503, "Service Unavailable", b'{"error": "overloaded"}')
            return
        try:
            reply = model.reply(system, user)
        except Unreadable as exc:
            model.count_error()
            self._send(400, "Bad Request", json.dumps({"error": str(exc)}).encode())
            return
        body = json.dumps(
            {
                "model": "standin",
                "choices": [{"message": {"role": "assistant", "content": reply.text}}],
                "usage": {
                    "prompt_tokens": reply.prompt_tokens,
                    "completion_tokens": reply.completion_tokens,
                },
            }
        ).encode()
        model.record(reply, started, time.monotonic())
        self._send(200, "OK", body, f"X-Service-Ms: {reply.service_s * 1000:.4f}\r\n")


class _Server(http.server.ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, model: StandIn, http503_share: float):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.model = model
        self.http503_share = http503_share
        self._seen: set[int] = set()
        self._seen_lock = threading.Lock()

    def server_bind(self):
        self.socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        super().server_bind()

    def first_attempt_fails(self, digest: int) -> bool:
        """A seeded share of requests get one 503, on their first attempt only."""
        with self._seen_lock:
            if digest in self._seen:
                return False
            self._seen.add(digest)
        return _unit(self.model.seed, "503", str(digest)) < self.http503_share


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Serve the stand-in model on loopback.")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--base-ms", type=float, required=True)
    parser.add_argument("--per-token-ms", type=float, required=True)
    parser.add_argument("--http503-pct", type=float, required=True)
    args = parser.parse_args(argv)
    server = _Server(StandIn(args.seed, args.base_ms, args.per_token_ms), args.http503_pct / 100)
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
