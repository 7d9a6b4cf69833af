"""Sentence scoring: total log probability under an autoregressive LM.

A scorer maps a sentence to the sum of its per-token conditional log
probabilities. Two backends ship here:

* :class:`OfflineScorer`: fully deterministic, no model. A seeded
  hash-derived base value plus table-driven bonuses for (object label,
  room label) pairs found in the sentence as whole words. Meant for tests
  and desk-scale runs.
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

:class:`TokenLogProb` and :class:`SentenceScore` are named tuples:
immutable, compared and hashed as the tuples of their fields, and cheap to
build once per token and once per scored sentence.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import re
import struct
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache, partial
from itertools import repeat
from pathlib import Path
from typing import Iterable, NamedTuple
from urllib.parse import urlsplit, urlunsplit

from .atomic import read_lines
from .scene_model import normalize_label

logger = logging.getLogger(__name__)

ENDPOINT_ENV = "ROOMSENSE_LM_ENDPOINT"
API_KEY_ENV = "ROOMSENSE_LM_API_KEY"
MODEL_ENV = "ROOMSENSE_LM_MODEL"


# The only statuses worth another POST: a request timeout, a rate limit, or
# a server fault. Any other status outside 2xx asks the client to change its
# request (RFC 9110 section 15.5), so the same POST would fail again.
_RETRIED = frozenset({408, 429, *range(500, 600)})

# Seconds to wait for a connection or a response, per POST.
_TIMEOUT_S = 60.0

# Seconds slept before the first retry; each later retry sleeps twice the last.
_BACKOFF_BASE_S = 0.5

# The one way the scoring layer waits; tests replace it with a simulated clock.
_sleep = time.sleep


class _RetriedStatus(Exception):
    """A response whose status is in :data:`_RETRIED`."""


def _is_finite_number(value) -> bool:
    """Whether ``value`` is a JSON int or float (not a bool) whose float value is finite."""
    try:
        # an exact type test: bool is an int subclass
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


class TransportError(Exception):
    """Backend unreachable or response malformed; carries the sentence."""

    def __init__(self, message: str, sentence: str = ""):
        super().__init__(message)
        self.sentence = sentence


class TokenLogProb(NamedTuple):
    """One token and its conditional log probability.

    ``logprob`` is None for the first token when the backend cannot
    condition on an empty prefix; when present it is finite and <= 0 for
    real LM backends.
    """

    token: str
    logprob: float | None


class SentenceScore(NamedTuple):
    """One scored sentence: its total log probability and where it came from.

    ``token_count`` counts the tokens whose logprobs make up the total;
    ``tokens`` holds them, or is None where token detail is not kept (a
    cache hit).
    """

    sentence: str
    total_logprob: float
    token_count: int
    backend: str
    tokens: tuple[TokenLogProb, ...] | None = None


# Builds a SentenceScore from a tuple of all five fields without running any
# Python code: both the keyword constructor and ``_make`` do.
_score_from_fields = partial(tuple.__new__, SentenceScore)


def _tokens_from_pairs(pairs) -> tuple[TokenLogProb, ...]:
    """TokenLogProb records from (token, logprob) pairs, in one call that
    runs no Python code per token."""
    return tuple(map(tuple.__new__, repeat(TokenLogProb), pairs))


class SentenceScorer:
    """Interface contract shared by every backend.

    A backend names itself by its ``identity`` string, and ``score(sentence)``
    returns the sentence's :class:`SentenceScore`. ``max_inflight`` is how
    many ``score`` calls :func:`score_totals` may run at once; a backend that
    computes locally keeps 1. Both are fixed when the scorer is built. A
    stage calls ``close()`` on the scorer it made once its scoring ends.
    """

    max_inflight = 1

    def close(self) -> None:
        """Release what the scorer holds; most backends hold nothing."""


def _require_sentence(sentence: str) -> None:
    if not sentence:
        raise ValueError("cannot score an empty sentence")


def score_totals(
    scorer: SentenceScorer, groups: Iterable[Iterable[str]]
) -> list[list[float] | TransportError]:
    """Score groups of sentences; return each group's totals, in order.

    A group's entry is the list of its sentences' total log probabilities,
    or the :class:`TransportError` of its first sentence that failed; a
    failed group does not abort the others. Each distinct sentence is
    scored once, in order of first occurrence across the groups.
    ``scorer.max_inflight`` workers pull distinct sentences from one shared
    iterator, so up to that many calls are in flight until the last one is
    taken. Any other exception, in a worker or in the waiting thread (an
    interrupt), stops every worker after the sentence it is on, and
    propagates. Only totals are kept, never whole :class:`SentenceScore`
    records.
    """
    slot_of: dict[str, int] = {}
    slots = [[slot_of.setdefault(s, len(slot_of)) for s in group] for group in groups]
    if not slot_of:
        return [[] for _ in slots]
    distinct = list(slot_of)
    totals: list = [None] * len(distinct)
    # an enumerate over a list hands out each item once, even across threads,
    # and hands out nothing more once the list is cleared
    pending = enumerate(distinct)

    def drain() -> None:
        try:
            for i, sentence in pending:
                try:
                    totals[i] = scorer.score(sentence).total_logprob
                except TransportError as err:
                    totals[i] = err
        finally:
            distinct.clear()

    workers = min(scorer.max_inflight, len(distinct))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        try:
            for future in [pool.submit(drain) for _ in range(workers)]:
                future.result()
        finally:
            distinct.clear()
    # each group's first failure, or its totals if none failed
    rows = ([totals[i] for i in group] for group in slots)
    return [next((t for t in row if isinstance(t, TransportError)), row) for row in rows]


_DIGEST_SIZE = hashlib.sha256().digest_size


@lru_cache(maxsize=256)
def _leading_u64s(count: int) -> struct.Struct:
    """Reads the first 8 bytes, big-endian, of each of ``count`` joined digests."""
    return struct.Struct(">" + f"Q{_DIGEST_SIZE - 8}x" * count)


def _unit_floats(digests: bytes) -> list[float]:
    """Joined SHA-256 digests, each mapped into [0, 1] by its first 8 bytes.

    Those bytes are read as a big-endian integer and scaled by 2**-64: a
    power of two, so the product is the exact quotient by 2**64, rounded
    once. Eight zero bytes give 0.0, and eight 0xff bytes round up to 1.0.
    """
    return [v * 2.0**-64 for v in _leading_u64s(len(digests) // _DIGEST_SIZE).unpack(digests)]


def load_bonus_table(path) -> dict[tuple[str, str], float]:
    """Read a bonus fixture file: tab-separated object, room, bonus rows.

    Labels are normalized as scene labels are (:func:`normalize_label`), so
    a label matches the sentences rendered from it. Whitespace around a row
    or a field is ignored. A row without three fields, or whose bonus is
    empty or not a finite number, is a ``ValueError`` naming its
    ``path:line``.
    """
    table: dict[tuple[str, str], float] = {}
    for lineno, raw in enumerate(read_lines(path), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        # split before stripping the end, so a tab before an empty bonus
        # still counts; tabs after the bonus are trailing whitespace
        fields = raw.lstrip().split("\t")
        if not "".join(fields[3:]).strip():
            del fields[3:]
        if len(fields) != 3:
            raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields")
        text = fields[2].strip()
        try:
            bonus = float(text)
        except ValueError:
            bonus = math.nan
        if not math.isfinite(bonus):
            raise ValueError(f"{path}:{lineno}: bonus {text!r} is not a finite number")
        table[(normalize_label(fields[0]), normalize_label(fields[1]))] = bonus
    return table


def _word_pattern(label: str) -> re.Pattern:
    """Matches ``label`` where no word character touches either end.

    So "bed" is found in "a bed." but not in "a bedroom."
    """
    return re.compile(rf"(?<!\w){re.escape(label)}(?!\w)")


class OfflineScorer(SentenceScorer):
    """Deterministic scorer requiring no model.

    The total for a sentence is a hash-derived base in [-8, -4] plus the
    summed bonus of every (object label, room label) pair from the table
    whose two labels both occur in the sentence as whole words: no word
    character touches either end of the match. The total is spread over
    whitespace tokens with hash-derived weights so per-token logprobs are
    available and sum back to it exactly.

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
        self._bonus_rules = [
            (_word_pattern(obj), _word_pattern(room), bonus)
            for (obj, room), bonus in self.bonus_table.items()
        ]
        if self.bonus_table:
            # the matching rule is part of the digest, so a cache filled
            # under the old substring rule is never served
            canon = json.dumps(["whole words", sorted(
                (o, r, b) for (o, r), b in self.bonus_table.items()
            )])
            digest = hashlib.sha256(canon.encode("utf-8")).hexdigest()[:8]
        else:
            digest = "none"
        self.identity = f"offline:seed={seed}:bonus={digest}"

    def bonus_value(self, sentence: str) -> float:
        return sum(
            bonus
            for obj, room, bonus in self._bonus_rules
            if obj.search(sentence) and room.search(sentence)
        )

    def score(self, sentence: str) -> SentenceScore:
        _require_sentence(sentence)
        # whitespace-only input still needs one token to carry the total
        words = sentence.split() or [sentence]
        # the base hashes "base", seed and sentence joined by \x1f; every
        # token hashes "tok", seed, sentence, index and word. SHA-256
        # streams, so the tokens' shared prefix is hashed once, and all the
        # digests are decoded in one call.
        digests = [hashlib.sha256(f"base\x1f{self.seed}\x1f{sentence}".encode("utf-8")).digest()]
        prefix = hashlib.sha256(f"tok\x1f{self.seed}\x1f{sentence}\x1f".encode("utf-8"))
        for i, word in enumerate(words):
            token_hash = prefix.copy()
            token_hash.update(f"{i}\x1f{word}".encode("utf-8"))
            digests.append(token_hash.digest())
        base, *units = _unit_floats(b"".join(digests))
        total = -(4.0 + 4.0 * base)
        if self.bonus_table:
            # an empty table adds the integer 0, which leaves the base as is
            total += self.bonus_value(sentence)
        weights = [1.0 + u for u in units]
        weight_sum = math.fsum(weights)
        values = [total * w / weight_sum for w in weights]
        tokens = _tokens_from_pairs(zip(words, values))
        return _score_from_fields(
            (sentence, math.fsum(values), len(tokens), self.identity, tokens)
        )


def _parse_response(body) -> tuple[tuple[TokenLogProb, ...], float, int, str]:
    """``(tokens, total, token count, model id)`` from a response body.

    Accepts the documented flat shape and the completions-style nested one,
    whose first choice carries the logprobs. Anything else is a
    ``ValueError`` that names the fault: a missing field, token and logprob
    fields that are not lists of one length, a logprob that is neither null
    nor a finite JSON number <= 0, no logprob at all, or logprobs whose sum
    is beyond float range.
    """
    try:
        source = body["choices"][0]["logprobs"] if "choices" in body else body
        words, logprobs = source["tokens"], source["token_logprobs"]
    except (KeyError, IndexError, TypeError) as err:
        raise ValueError(f"missing field ({err!r})") from err
    if type(words) is not list or type(logprobs) is not list or len(words) != len(logprobs):
        raise ValueError("'tokens' and 'token_logprobs' must be lists of one length")
    pairs = []
    present = []
    for word, lp in zip(words, logprobs):
        if lp is not None:
            if not _is_finite_number(lp) or lp > 0:
                raise ValueError(f"logprob {lp!r} for token {word!r} is not a number <= 0")
            lp = float(lp)
            present.append(lp)
        pairs.append((str(word), lp))
    if not present:
        raise ValueError("no usable logprobs")
    try:
        total = math.fsum(present)
    except OverflowError:
        raise ValueError("logprobs sum beyond float range") from None
    return _tokens_from_pairs(pairs), total, len(present), str(body.get("model", ""))


# Serializes a request body as requests does for ``json=``.
_to_json = json.JSONEncoder(allow_nan=False).encode


class _Response(NamedTuple):
    """The part of a ``requests.Response`` the scorer reads."""

    status_code: int
    content: bytes

    def json(self):
        return json.loads(self.content)


def _close_all(connections: list) -> None:
    for connection in connections:
        connection.close()
    connections.clear()


def _begin(connection, target: str, body: bytes, headers):
    """Send one POST on ``connection``; return its response, body unread."""
    connection.request("POST", target, body, headers)
    return connection.getresponse()


class _Session:
    """Keep-alive JSON POSTs over ``http.client`` to the origin of ``url``.

    It has the one method the scorer calls on a session, with the signature
    of ``requests.Session.post``; a POST goes to its ``url``'s path on that
    origin. A POST takes an idle connection, opening a new one only when
    none is idle, and gives it back once the response is read whole, so no
    more connections are kept than POSTs were ever in flight at once. A
    POST that fails with a connection error on a reused connection before
    any response arrives (the server closed it while it sat idle) is sent
    once more on a fresh connection, as urllib3 does. An
    ``http.client.HTTPException`` is raised as a ``ConnectionError``, so a
    caller needs to catch only ``OSError``. Proxies, ``.netrc`` and
    redirects are not handled.
    """

    def __init__(self, url: str):
        import http.client
        import ssl

        parts = urlsplit(url)
        if parts.scheme == "https":
            self._connect = partial(
                http.client.HTTPSConnection, parts.hostname, parts.port,
                context=ssl.create_default_context(),
            )
        elif parts.scheme == "http" and parts.hostname:
            self._connect = partial(http.client.HTTPConnection, parts.hostname, parts.port)
        else:
            raise ValueError(f"endpoint {url!r} is not an http:// or https:// URL")
        self._http_error = http.client.HTTPException
        self._lock = threading.Lock()
        self._idle: list = []
        weakref.finalize(self, _close_all, self._idle)

    def post(self, url, *, json, headers, timeout) -> _Response:
        parts = urlsplit(url)
        target = urlunsplit(("", "", parts.path or "/", parts.query, ""))
        body = _to_json(json).encode("utf-8")
        with self._lock:
            reused = self._idle.pop() if self._idle else None
        connection = reused if reused is not None else self._connect(timeout=timeout)
        try:
            try:
                response = _begin(connection, target, body, headers)
            except ConnectionError:
                if connection is not reused:
                    raise
                # the server closed the connection while it sat idle
                connection.close()
                connection = self._connect(timeout=timeout)
                response = _begin(connection, target, body, headers)
            content = response.read()
        except BaseException as err:
            connection.close()
            if isinstance(err, self._http_error):
                raise ConnectionError(f"{type(err).__name__}: {err}") from err
            raise
        if response.will_close:
            connection.close()
        else:
            with self._lock:
                self._idle.append(connection)
        return _Response(response.status, content)

    def close(self) -> None:
        """Close the idle connections."""
        with self._lock:
            _close_all(self._idle)


class RemoteScorer(SentenceScorer):
    """Score sentences against a completion endpoint with echoed logprobs.

    Wire contract (see README): the request carries the full sentence with
    echo-logprobs enabled and zero completion tokens; the response carries
    the token list and per-token logprobs (first entry may be null). Any
    other shape, HTTP failure, or logprob that is not a JSON number is a
    transport error.

    Transient faults (connection errors, timeouts, 408, 429, 5xx) are
    retried with exponential backoff, for at most ``max_attempts`` POSTs;
    long batch evaluations must survive them. Every other status outside
    2xx, a redirect included, and every malformed body (see
    :func:`_parse_response`) fails after one POST: the same request gets the
    same answer again. ``max_inflight`` is the number of concurrent
    requests :func:`score_totals` makes.

    ``session`` is anything with ``post(url, json=, headers=, timeout=)``
    returning an object with ``status_code`` and ``json()``, such as a
    ``requests.Session``; it is used as given, and the scorer retries any
    ``OSError`` it raises. Without one the scorer builds its own, a
    standard-library session that keeps no more connections open than POSTs
    were in flight at once: under :func:`score_totals`, ``max_inflight``.
    It ignores ``HTTP(S)_PROXY`` and ``.netrc``, and verifies https
    against the system's CA store. ``http.client`` is imported only then,
    and nowhere else in the package: offline runs and injected sessions
    never load it, and no :meth:`score` call pays for the import.
    """

    def __init__(
        self,
        endpoint: str | None = None,
        api_key: str | None = None,
        model: str | None = None,
        max_inflight: int = 4,
        max_attempts: int = 5,
        session=None,
    ):
        self.endpoint = endpoint or os.environ.get(ENDPOINT_ENV, "")
        if not self.endpoint:
            raise ValueError(
                f"remote scorer needs an endpoint ({ENDPOINT_ENV} or argument)"
            )
        api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        self.model = model if model is not None else os.environ.get(MODEL_ENV, "")
        self.identity = f"remote:{self.model or self.endpoint}"
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_inflight = max_inflight
        self.max_attempts = max_attempts
        self._headers = {"Content-Type": "application/json"}
        if api_key:  # kept only in the headers, so no record or message holds it
            self._headers["Authorization"] = f"Bearer {api_key}"
        if session is None:
            session = _Session(self.endpoint)
        self._session = session

    def _post_once(self, sentence: str) -> SentenceScore:
        """Send one POST; raise a fault worth a retry as an ``OSError`` or a
        :class:`_RetriedStatus`, and any other fault as a
        :class:`TransportError`."""
        body = {"prompt": sentence, "echo": True, "logprobs": 1, "max_tokens": 0}
        if self.model:
            body["model"] = self.model
        response = self._session.post(
            self.endpoint, json=body, headers=self._headers, timeout=_TIMEOUT_S
        )
        status = response.status_code
        if status in _RETRIED:
            raise _RetriedStatus(f"HTTP {status}")
        if not 200 <= status < 300:
            raise TransportError(f"backend refused the request: HTTP {status}", sentence)
        try:
            tokens, total, count, model = _parse_response(response.json())
        except ValueError as err:
            raise TransportError(f"malformed response: {err}", sentence) from err
        backend = self.identity if self.model else f"remote:{model or self.endpoint}"
        return _score_from_fields((sentence, total, count, backend, tokens))

    def score(self, sentence: str) -> SentenceScore:
        _require_sentence(sentence)
        for attempt in range(self.max_attempts):
            try:
                return self._post_once(sentence)
            except (OSError, _RetriedStatus) as err:
                last = err
            if attempt + 1 < self.max_attempts:
                delay = _BACKOFF_BASE_S * 2**attempt
                logger.warning(
                    "retrying score (%d/%d) after %.1fs: %s",
                    attempt + 1, self.max_attempts, delay, last,
                )
                _sleep(delay)
        raise TransportError(
            f"backend failed after {self.max_attempts} attempts: {last}", sentence
        )


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _sync_and_close(handle) -> None:
    """Flush ``handle``, force its file to disk and close it."""
    with handle:
        handle.flush()
        os.fsync(handle.fileno())


class CachingScorer(SentenceScorer):
    """Transparent append-only score cache keyed by (backend id, sentence).

    Cache hits reproduce the stored total and token count (token detail is
    not cached); downstream predictions are identical either way because
    they consume totals only. Safe for concurrent use within one scorer. It
    takes the identity and ``max_inflight`` of ``inner`` when it is built.
    A cache file has a single writer: the scorer opens one append handle on
    its first miss and flushes every record as it is written, so an
    interrupted run resumes where it stopped. :meth:`close`, or collecting
    the scorer, forces the file to disk once and closes the handle. A torn
    last line left by an interrupted run is ended before the first new
    record, so only the torn record is lost. Only records whose backend is
    this scorer's identity can hit, so only they are indexed, by sentence,
    and only if the ``sentence_sha256`` they carry is the sentence's.
    """

    def __init__(self, inner: SentenceScorer, path):
        self.inner = inner
        self.identity = inner.identity
        self.max_inflight = inner.max_inflight
        self.path = Path(path)
        self._lock = threading.Lock()
        self._memory: dict[str, tuple[float, int]] = {}
        self._handle = None
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        # a line that is not UTF-8 reads as U+FFFD, which is not JSON, so it
        # is skipped as a malformed record
        identity = self.identity
        for lineno, raw in enumerate(read_lines(self.path, undecodable="\ufffd"), 1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                backend, sentence = record["backend"], record["sentence"]
                total, count = record["total_logprob"], record["token_count"]
                # bool is an int subclass
                if not _is_finite_number(total) or type(count) is not int or count < 0:
                    raise ValueError("cached values are not numbers")
                if type(backend) is not str or type(sentence) is not str:
                    raise TypeError("cached keys are not strings")
                if backend == identity:
                    hashed = "sentence_sha256" in record
                    if hashed and record["sentence_sha256"] != _sha256(sentence):
                        raise ValueError("sentence_sha256 is not the sentence's")
                    self._memory[sentence] = (total, count)
            except (ValueError, KeyError, TypeError):
                # a torn trailing record from an interrupted run is expected;
                # skip it, or any record whose values are not numbers, whose
                # keys are not strings or whose hash is not its sentence's,
                # and let the sentence be re-scored
                logger.warning("skipping malformed cache record %s:%d", self.path, lineno)

    def _append(self, score: SentenceScore) -> None:
        record = {
            "backend": score.backend,
            "sentence_sha256": _sha256(score.sentence),
            "sentence": score.sentence,
            "total_logprob": score.total_logprob,
            "token_count": score.token_count,
        }
        line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        with self._lock:
            if score.backend == self.identity:
                self._memory[score.sentence] = (score.total_logprob, score.token_count)
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = self.path.open("a+b")
                self._closer = weakref.finalize(self, _sync_and_close, self._handle)
                # end a torn last line, so this record is not glued onto it
                end = self._handle.seek(0, os.SEEK_END)
                if end:
                    self._handle.seek(end - 1)
                    if self._handle.read(1) != b"\n":
                        self._handle.write(b"\n")
            self._handle.write(line)
            self._handle.flush()

    def _hit(self, sentence: str) -> SentenceScore | None:
        cached = self._memory.get(sentence)
        if cached is None:
            return None
        return _score_from_fields((sentence, *cached, self.identity, None))

    def score(self, sentence: str) -> SentenceScore:
        _require_sentence(sentence)
        hit = self._hit(sentence)
        if hit is not None:
            return hit
        fresh = self.inner.score(sentence)
        self._append(fresh)
        return fresh

    def close(self) -> None:
        """Force the records written so far to disk and close the append
        handle; a later miss opens it again."""
        with self._lock:
            if self._handle is not None:
                self._closer()
                self._handle = None


def make_scorer(
    backend: str, seed: int = 0, bonus_file=None, cache_path=None, **remote
) -> SentenceScorer:
    """Construct a scorer from CLI-level settings; ``remote`` goes to :class:`RemoteScorer`."""
    if backend == "offline":
        table = load_bonus_table(bonus_file) if bonus_file else None
        scorer: SentenceScorer = OfflineScorer(seed=seed, bonus_table=table)
    elif backend == "remote":
        scorer = RemoteScorer(**remote)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    if cache_path is not None:
        scorer = CachingScorer(scorer, cache_path)
    return scorer
