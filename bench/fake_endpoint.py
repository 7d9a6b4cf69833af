"""In-process stand-in for a completions endpoint: no sockets, no network.

:class:`FakeSession` has the one method :class:`roomsense.RemoteScorer`
calls on its ``requests.Session`` (``post``). Each POST sleeps a fixed
latency, then answers with a completions-shaped body that echoes the
prompt with per-token logprobs. The body carries a ``model`` name, as real
servers and the test suite's mock endpoint do. Logprobs are derived from a
hash of the prompt, so every prompt always gets the same total, and
:func:`expected_total` recomputes that total without the endpoint.

The session is called from the scorer's own worker threads; its counters
are guarded by a lock.
"""

from __future__ import annotations

import hashlib
import math
import threading
import time

MODEL = "fake-completions-1"
ENDPOINT = "http://endpoint.invalid/v1/completions"


def _tokens(prompt: str) -> list[str]:
    words = prompt.split(" ")
    return [words[0]] + [" " + w for w in words[1:]]


def token_logprobs(prompt: str) -> list[float | None]:
    """Per-token logprobs for ``prompt``; the first token has none."""
    tokens = _tokens(prompt)
    values: list[float | None] = [None]
    for i in range(1, len(tokens)):
        digest = hashlib.sha256(f"{i}\x1f{prompt}".encode("utf-8")).digest()
        values.append(-0.05 - 6.0 * int.from_bytes(digest[:8], "big") / 2**64)
    return values


def expected_total(prompt: str) -> float:
    """The total log probability a scorer must report for ``prompt``."""
    return math.fsum(v for v in token_logprobs(prompt) if v is not None)


class FakeResponse:
    status_code = 200

    def __init__(self, body: dict):
        self._body = body

    def raise_for_status(self) -> None:
        return None

    def json(self) -> dict:
        return self._body


class FakeSession:
    """Fixed-latency completions endpoint with POST and in-flight counters.

    ``post_times`` holds one ``(start, end, tag)`` triple per POST: two
    ``perf_counter`` readings, from which waiting and concurrency are
    computed, and the value of ``tag()`` at the POST (the caller's span in
    a traced run), or -1 when no ``tag`` is set.
    """

    def __init__(self, latency_s: float):
        self.latency_s = latency_s
        self._lock = threading.Lock()
        self.posts = 0
        self.inflight = 0
        self.inflight_max = 0
        self.post_times: list[tuple[float, float, int]] = []
        self.tag = None

    def post(self, url, json=None, headers=None, timeout=None):
        tag = self.tag() if self.tag is not None else -1
        start = time.perf_counter()
        with self._lock:
            self.posts += 1
            self.inflight += 1
            self.inflight_max = max(self.inflight_max, self.inflight)
        try:
            if self.latency_s > 0:
                time.sleep(self.latency_s)
            prompt = json["prompt"]
            body = {
                "model": MODEL,
                "choices": [
                    {
                        "logprobs": {
                            "tokens": _tokens(prompt),
                            "token_logprobs": token_logprobs(prompt),
                        }
                    }
                ],
            }
        finally:
            end = time.perf_counter()
            with self._lock:
                self.inflight -= 1
                self.post_times.append((start, end, tag))
        return FakeResponse(body)
