"""Sentence scoring: total log probability under an autoregressive LM.

A scorer maps a sentence to the sum of its per-token conditional log
probabilities. Two backends ship here:

* :class:`OfflineScorer`: fully deterministic, no model. A seeded
  hash-derived base value plus table-driven bonuses for (object label,
  room label) substring pairs. Meant for tests and desk-scale runs.
* :class:`RemoteScorer`: any completion service that echoes the prompt
  with per-token logprobs (GPT-J deployments are one such service).

Both honor the same contract: ``score(s).sentence == s`` and identical
sentences get identical totals for a fixed backend identity. Real LM
totals are always <= 0; the offline scorer may exceed 0 by at most the
summed bonus mass of its table (documented slack).

Backends that cannot return a logprob for the first token (no empty-prefix
conditioning) leave it absent; totals sum only the available terms and
``token_count`` counts those. The omission is uniform across candidate
sentences sharing their first token, so downstream argmaxes are unaffected.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import struct
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import requests
from requests.adapters import HTTPAdapter

logger = logging.getLogger(__name__)

ENDPOINT_ENV = "ROOMSENSE_LM_ENDPOINT"
API_KEY_ENV = "ROOMSENSE_LM_API_KEY"
MODEL_ENV = "ROOMSENSE_LM_MODEL"


# Statuses that no retry can turn into a success: a bad request, bad or
# missing credentials, or a wrong endpoint path.
_NOT_RETRIED = frozenset({400, 401, 403, 404})


class TransportError(Exception):
    """Backend unreachable or response malformed; carries the sentence."""

    def __init__(self, message: str, sentence: str = ""):
        super().__init__(message)
        self.sentence = sentence


@dataclass(frozen=True)
class TokenLogProb:
    """One token and its conditional log probability.

    ``logprob`` is None for the first token when the backend cannot
    condition on an empty prefix; when present it is finite and <= 0 for
    real LM backends.
    """

    token: str
    logprob: float | None


@dataclass(frozen=True)
class SentenceScore:
    sentence: str
    total_logprob: float
    token_count: int
    backend: str
    tokens: tuple[TokenLogProb, ...] | None = None


def perplexity(score: SentenceScore) -> float:
    """Per-token perplexity: exp(-total / token_count). Diagnostic only."""
    if score.token_count <= 0:
        raise ValueError("perplexity needs token_count > 0")
    return math.exp(-score.total_logprob / score.token_count)


class SentenceScorer:
    """Interface contract shared by every backend.

    ``max_inflight`` is how many :meth:`score` calls :func:`score_totals`
    may run at once; a backend that computes locally keeps 1, so its
    sentences are scored in the calling thread.
    """

    max_inflight = 1

    @property
    def identity(self) -> str:
        raise NotImplementedError

    def score(self, sentence: str) -> SentenceScore:
        raise NotImplementedError


def _require_sentence(sentence: str) -> None:
    if not sentence:
        raise ValueError("cannot score an empty sentence")


def score_totals(
    scorer: SentenceScorer, sentences: Iterable[str]
) -> list[float | TransportError]:
    """Score every sentence; return the total log probabilities in order.

    A transport failure does not abort the others: its slot holds the
    :class:`TransportError` instead. ``scorer.max_inflight`` workers pull
    sentences from one shared iterator, so up to that many calls are in
    flight until the last sentence is taken. Only totals are kept, never
    whole :class:`SentenceScore` records.
    """
    sentences = list(sentences)
    totals: list = [None] * len(sentences)
    # an enumerate over a list hands out each item once, even across threads
    pending = enumerate(sentences)

    def drain() -> None:
        for i, sentence in pending:
            try:
                totals[i] = scorer.score(sentence).total_logprob
            except TransportError as err:
                totals[i] = err

    workers = min(scorer.max_inflight, len(sentences))
    if workers <= 1:
        drain()
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for future in [pool.submit(drain) for _ in range(workers)]:
                future.result()
    return totals


_BIG_ENDIAN_U64 = struct.Struct(">Q")


def _unit_float(digest: bytes) -> float:
    """A SHA-256 digest mapped into [0, 1) by its first 8 bytes, big-endian."""
    return _BIG_ENDIAN_U64.unpack_from(digest)[0] / 2**64


def load_bonus_table(path) -> dict[tuple[str, str], float]:
    """Read a bonus fixture file: tab-separated object, room, bonus rows."""
    table: dict[tuple[str, str], float] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields")
        table[(fields[0].strip().lower(), fields[1].strip().lower())] = float(fields[2])
    return table


class OfflineScorer(SentenceScorer):
    """Deterministic scorer requiring no model.

    The total for a sentence is a hash-derived base in [-8, -4) plus the
    summed bonus of every (object label, room label) pair from the table
    whose two labels both occur in the sentence as substrings. The total is
    spread over whitespace tokens with hash-derived weights so per-token
    logprobs are available and sum back to it exactly.

    With a bonus table the total can exceed 0 by at most the table's total
    positive mass; real backends never do.
    """

    def __init__(
        self,
        seed: int = 0,
        bonus_table: dict[tuple[str, str], float] | None = None,
    ):
        self.seed = seed
        self.bonus_table = dict(bonus_table or {})
        if self.bonus_table:
            canon = json.dumps(sorted(
                (o, r, b) for (o, r), b in self.bonus_table.items()
            ))
            digest = hashlib.sha256(canon.encode("utf-8")).hexdigest()[:8]
        else:
            digest = "none"
        self._identity = f"offline:seed={seed}:bonus={digest}"

    @property
    def identity(self) -> str:
        return self._identity

    def base_value(self, sentence: str) -> float:
        key = f"base\x1f{self.seed}\x1f{sentence}".encode("utf-8")
        return -(4.0 + 4.0 * _unit_float(hashlib.sha256(key).digest()))

    def bonus_value(self, sentence: str) -> float:
        return sum(
            bonus
            for (obj, room), bonus in self.bonus_table.items()
            if obj in sentence and room in sentence
        )

    def score(self, sentence: str) -> SentenceScore:
        _require_sentence(sentence)
        total = self.base_value(sentence) + self.bonus_value(sentence)
        # whitespace-only input still needs one token to carry the total
        words = sentence.split() or [sentence]
        # every token hashes "tok", seed, sentence, index and word joined by
        # \x1f; SHA-256 streams, so the shared prefix is hashed once
        prefix = hashlib.sha256(f"tok\x1f{self.seed}\x1f{sentence}\x1f".encode("utf-8"))
        weights = []
        for i, word in enumerate(words):
            token_hash = prefix.copy()
            token_hash.update(f"{i}\x1f{word}".encode("utf-8"))
            weights.append(1.0 + _unit_float(token_hash.digest()))
        weight_sum = math.fsum(weights)
        values = [total * w / weight_sum for w in weights]
        tokens = tuple(map(TokenLogProb, words, values))
        return SentenceScore(
            sentence=sentence,
            total_logprob=math.fsum(values),
            token_count=len(tokens),
            backend=self._identity,
            tokens=tokens,
        )


def _parse_logprob_payload(payload: dict) -> tuple[list[str], list[float | None], str]:
    """Pull (tokens, per-token logprobs, model id) out of a response body.

    Accepts the documented flat shape and the completions-style nested one;
    anything else is treated as a malformed response.
    """
    model = str(payload.get("model", ""))
    source = payload
    if "choices" in payload:
        choices = payload["choices"]
        if not isinstance(choices, list) or not choices:
            raise KeyError("choices")
        source = choices[0].get("logprobs") or {}
    tokens = source["tokens"]
    logprobs = source["token_logprobs"]
    if not isinstance(tokens, list) or not isinstance(logprobs, list):
        raise TypeError("tokens/token_logprobs must be lists")
    if len(tokens) != len(logprobs):
        raise ValueError("token/logprob length mismatch")
    return [str(t) for t in tokens], logprobs, model


class RemoteScorer(SentenceScorer):
    """Score sentences against a completion endpoint with echoed logprobs.

    Wire contract (see README): the request carries the full sentence with
    echo-logprobs enabled and zero completion tokens; the response carries
    the token list and per-token logprobs (first entry may be null). Any
    other shape, HTTP failure, or non-real logprob is a transport error.

    Transient faults (connection errors, timeouts, 408, 429, 5xx) are
    retried with exponential backoff up to ``max_attempts``; long batch
    evaluations must survive them. 400, 401, 403 and 404 and malformed
    bodies (a missing field, a logprob that is not a finite non-positive
    number, no usable logprob) fail after one POST: the same request gets
    the same answer again. ``max_inflight`` is the number of concurrent
    requests :func:`score_totals` makes; a session the scorer builds itself
    keeps that many connections open. An injected ``session`` is used as
    given.
    """

    def __init__(
        self,
        endpoint: str | None = None,
        api_key: str | None = None,
        model: str | None = None,
        max_inflight: int = 4,
        max_attempts: int = 5,
        backoff_base: float = 0.5,
        timeout: float = 60.0,
        session: requests.Session | None = None,
    ):
        self.endpoint = endpoint or os.environ.get(ENDPOINT_ENV, "")
        if not self.endpoint:
            raise ValueError(
                f"remote scorer needs an endpoint ({ENDPOINT_ENV} or argument)"
            )
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        self.model = model if model is not None else os.environ.get(MODEL_ENV, "")
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.max_inflight = max_inflight
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.timeout = timeout
        if session is None:
            session = requests.Session()
            adapter = HTTPAdapter(pool_maxsize=max_inflight)
            session.mount("http://", adapter)
            session.mount("https://", adapter)
        self._session = session

    @property
    def identity(self) -> str:
        return f"remote:{self.model or self.endpoint}"

    def _request_body(self, sentence: str) -> dict:
        body = {
            "prompt": sentence,
            "echo": True,
            "logprobs": 1,
            "max_tokens": 0,
        }
        if self.model:
            body["model"] = self.model
        return body

    def _post_once(self, sentence: str) -> SentenceScore:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        response = self._session.post(
            self.endpoint,
            json=self._request_body(sentence),
            headers=headers,
            timeout=self.timeout,
        )
        response.raise_for_status()
        try:
            tokens, logprobs, model = _parse_logprob_payload(response.json())
        except (AttributeError, KeyError, TypeError, ValueError) as err:
            raise TransportError(f"malformed response: {err}", sentence) from err

        parsed: list[TokenLogProb] = []
        for token, lp in zip(tokens, logprobs):
            if lp is None:
                parsed.append(TokenLogProb(token=token, logprob=None))
                continue
            try:
                value = float(lp)
            except (TypeError, ValueError) as err:
                raise TransportError(
                    f"logprob {lp!r} for token {token!r} is not a number", sentence
                ) from err
            if not math.isfinite(value) or value > 0:
                raise TransportError(
                    f"logprob {value!r} for token {token!r} is not a log probability",
                    sentence,
                )
            parsed.append(TokenLogProb(token=token, logprob=value))
        present = [t.logprob for t in parsed if t.logprob is not None]
        if not present:
            raise TransportError("response carried no usable logprobs", sentence)
        return SentenceScore(
            sentence=sentence,
            total_logprob=math.fsum(present),
            token_count=len(present),
            backend=self.identity if self.model else f"remote:{model or self.endpoint}",
            tokens=tuple(parsed),
        )

    def score(self, sentence: str) -> SentenceScore:
        _require_sentence(sentence)
        last: Exception | None = None
        for attempt in range(self.max_attempts):
            try:
                return self._post_once(sentence)
            except requests.HTTPError as err:
                if err.response is not None and err.response.status_code in _NOT_RETRIED:
                    raise TransportError(
                        f"backend refused the request: {err}", sentence
                    ) from err
                last = err
            except requests.RequestException as err:
                last = err
            if attempt + 1 < self.max_attempts:
                delay = self.backoff_base * 2**attempt
                logger.warning(
                    "retrying score (%d/%d) after %.1fs: %s",
                    attempt + 1, self.max_attempts, delay, last,
                )
                time.sleep(delay)
        raise TransportError(
            f"backend failed after {self.max_attempts} attempts: {last}", sentence
        )


class CachingScorer(SentenceScorer):
    """Transparent append-only score cache keyed by (backend id, sentence).

    Cache hits reproduce the stored total and token count (token detail is
    not cached); downstream predictions are identical either way because
    they consume totals only. Safe for concurrent use within one scorer. A
    cache file has a single writer: the scorer opens one append handle on
    its first miss, keeps it until it is collected, and flushes every
    record as it is written, so an interrupted run resumes where it stopped.
    """

    def __init__(self, inner: SentenceScorer, path):
        self.inner = inner
        self.path = Path(path)
        self._lock = threading.Lock()
        self._memory: dict[tuple[str, str], tuple[float, int]] = {}
        self._handle = None
        if self.path.exists():
            self._load()

    @property
    def identity(self) -> str:
        return self.inner.identity

    @property
    def max_inflight(self) -> int:
        return self.inner.max_inflight

    def _load(self) -> None:
        for lineno, raw in enumerate(self.path.read_text(encoding="utf-8").splitlines(), 1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                key = (record["backend"], record["sentence"])
                self._memory[key] = (record["total_logprob"], record["token_count"])
            except (ValueError, KeyError):
                # a torn trailing record from an interrupted run is expected;
                # skip it and let the sentence be re-scored
                logger.warning("skipping malformed cache record %s:%d", self.path, lineno)

    def _append(self, score: SentenceScore) -> None:
        record = {
            "backend": score.backend,
            "sentence_sha256": hashlib.sha256(score.sentence.encode("utf-8")).hexdigest(),
            "sentence": score.sentence,
            "total_logprob": score.total_logprob,
            "token_count": score.token_count,
        }
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            self._memory[(score.backend, score.sentence)] = (
                score.total_logprob,
                score.token_count,
            )
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = self.path.open("a", encoding="utf-8")
                weakref.finalize(self, self._handle.close)
            self._handle.write(line)
            self._handle.flush()

    def _hit(self, sentence: str) -> SentenceScore | None:
        cached = self._memory.get((self.inner.identity, sentence))
        if cached is None:
            return None
        total, count = cached
        return SentenceScore(
            sentence=sentence,
            total_logprob=total,
            token_count=count,
            backend=self.inner.identity,
            tokens=None,
        )

    def score(self, sentence: str) -> SentenceScore:
        _require_sentence(sentence)
        hit = self._hit(sentence)
        if hit is not None:
            return hit
        fresh = self.inner.score(sentence)
        self._append(fresh)
        return fresh


def make_scorer(
    backend: str,
    seed: int = 0,
    bonus_file=None,
    cache_path=None,
    max_inflight: int = 4,
    endpoint: str | None = None,
    model: str | None = None,
    max_attempts: int = 5,
) -> SentenceScorer:
    """Construct a scorer from CLI-level settings."""
    if backend == "offline":
        table = load_bonus_table(bonus_file) if bonus_file else None
        scorer: SentenceScorer = OfflineScorer(seed=seed, bonus_table=table)
    elif backend == "remote":
        scorer = RemoteScorer(
            endpoint=endpoint,
            model=model,
            max_inflight=max_inflight,
            max_attempts=max_attempts,
        )
    else:
        raise ValueError(f"unknown backend {backend!r}")
    if cache_path is not None:
        scorer = CachingScorer(scorer, cache_path)
    return scorer
