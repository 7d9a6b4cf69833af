import gc
import json
import logging
import math
import sys
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from pathlib import Path

import pytest
import requests

from roomsense.cooccurrence import count_ground_truth
from roomsense.inference import classify_graph
from roomsense.lm_scoring import (
    CachingScorer,
    OfflineScorer,
    RemoteScorer,
    SentenceScore,
    SentenceScorer,
    TokenLogProb,
    TransportError,
    load_bonus_table,
    make_scorer,
    perplexity,
    score_totals,
)

from conftest import build_graph
from test_inference import BATH_BONUSES


class FixtureScorer(SentenceScorer):
    """Scripted backend: sentence -> list of (token, logprob-or-None)."""

    def __init__(self, script):
        self.script = script

    @property
    def identity(self):
        return "fixture"

    def score(self, sentence):
        if not sentence:
            raise ValueError("cannot score an empty sentence")
        if sentence not in self.script:
            raise TransportError("not scripted", sentence)
        tokens = tuple(TokenLogProb(t, lp) for t, lp in self.script[sentence])
        present = [t.logprob for t in tokens if t.logprob is not None]
        return SentenceScore(
            sentence=sentence,
            total_logprob=math.fsum(present),
            token_count=len(present),
            backend=self.identity,
            tokens=tokens,
        )


class TestScoreContract:
    def test_summation_of_token_logprobs(self):
        scorer = FixtureScorer({"abc": [("a", -1.0), ("b", -2.0), ("c", -0.5)]})
        score = scorer.score("abc")
        assert score.total_logprob == pytest.approx(-3.5, abs=1e-6)
        assert score.token_count == 3

    def test_absent_first_token_skipped(self):
        scorer = FixtureScorer({"ab": [("a", None), ("b", -2.0)]})
        score = scorer.score("ab")
        assert score.total_logprob == pytest.approx(-2.0, abs=1e-6)
        assert score.token_count == 1

    def test_empty_sentence_rejected(self):
        with pytest.raises(ValueError):
            OfflineScorer().score("")

    def test_sentence_echoed(self):
        score = OfflineScorer().score("hello world")
        assert score.sentence == "hello world"

    def test_whitespace_only_sentence_scores_without_crashing(self):
        score = OfflineScorer().score("   ")
        assert score.token_count == 1
        assert math.isfinite(score.total_logprob)


# float.hex of the total and of every token logprob, keyed by (seed, with
# BATH_BONUSES, sentence); recorded from the scorer that hashed the whole
# "tok", seed, sentence, index, word join once per token.
PINNED_BITS = {
    (0, False, "A room containing toilet is called a bathroom."): (
        "-0x1.c2bdf73ecce43p+2",
        (
            "-0x1.a9d3411b74ea1p-1", "-0x1.9b2fc6b4bc440p-1", "-0x1.1e34130b2645dp+0",
            "-0x1.9861f37dc82a8p-1", "-0x1.893e914af49d9p-1", "-0x1.55acf864e3607p-1",
            "-0x1.fceacd8d28ba6p-1", "-0x1.102620aa90428p+0",
        ),
    ),
    (0, False, "   "): (
        "-0x1.47ba7c82e98b0p+2",
        (
            "-0x1.47ba7c82e98b0p+2",
        ),
    ),
    (0, False, "A room containing évier is called a cuisine 浴室."): (
        "-0x1.9c80e72987b6ep+2",
        (
            "-0x1.446cd79af536ep-1", "-0x1.828924bb788d4p-1", "-0x1.6f2475a9343b0p-1",
            "-0x1.2d69da812ad19p-1", "-0x1.5bf11e7516862p-1", "-0x1.77738dcc414e0p-1",
            "-0x1.a48ce432b8967p-1", "-0x1.79b7f50029041p-1", "-0x1.8ed9675737777p-1",
        ),
    ),
    (0, True, "A room containing toilet is called a bathroom."): (
        "0x1.1f5082304cc6ep+4",
        (
            "0x1.0f6e8e1a7fa0bp+1", "0x1.0619d120f85dbp+1", "0x1.6cdde15ca0475p+1",
            "0x1.045041c44b1efp+1", "0x1.f553fa1ecc8f4p+0", "0x1.b395e839868aap+0",
            "0x1.4465953c496e0p+1", "0x1.5af308bd8fd7bp+1",
        ),
    ),
    (0, True, "   "): (
        "-0x1.47ba7c82e98b0p+2",
        (
            "-0x1.47ba7c82e98b0p+2",
        ),
    ),
    (0, True, "A room containing évier is called a cuisine 浴室."): (
        "-0x1.9c80e72987b6ep+2",
        (
            "-0x1.446cd79af536ep-1", "-0x1.828924bb788d4p-1", "-0x1.6f2475a9343b0p-1",
            "-0x1.2d69da812ad19p-1", "-0x1.5bf11e7516862p-1", "-0x1.77738dcc414e0p-1",
            "-0x1.a48ce432b8967p-1", "-0x1.79b7f50029041p-1", "-0x1.8ed9675737777p-1",
        ),
    ),
    (7, False, "A room containing toilet is called a bathroom."): (
        "-0x1.aff5d4153eed8p+2",
        (
            "-0x1.c2171cadadcc5p-1", "-0x1.69089ccb86cedp-1", "-0x1.dbf1367f6b476p-1",
            "-0x1.f30717102d6fap-1", "-0x1.d35e975ae5757p-1", "-0x1.0606c3ec9df90p+0",
            "-0x1.600b111889456p-1", "-0x1.461f69547f6d0p-1",
        ),
    ),
    (7, False, "   "): (
        "-0x1.27f25b67a4e5ap+2",
        (
            "-0x1.27f25b67a4e5ap+2",
        ),
    ),
    (7, False, "A room containing évier is called a cuisine 浴室."): (
        "-0x1.05150323bb1c9p+2",
        (
            "-0x1.ea1b5e4697be1p-2", "-0x1.3a36414a3d360p-2", "-0x1.07f3dcfe05df1p-1",
            "-0x1.6477836e55cd6p-2", "-0x1.0f3c9fb8503b1p-1", "-0x1.21b0488e9bd4ep-1",
            "-0x1.41abc9e135110p-2", "-0x1.2421aafb30fcbp-1", "-0x1.ccd664db0c1f6p-2",
        ),
    ),
    (7, True, "A room containing toilet is called a bathroom."): (
        "0x1.24028afab044ap+4",
        (
            "0x1.30441a21c8de7p+1", "0x1.e820207c16424p+0", "0x1.41be02fd96f6bp+1",
            "0x1.5159277c71605p+1", "0x1.3bf26c501e760p+1", "0x1.6243faa91f0a7p+1",
            "0x1.dbf862d360bcbp+0", "0x1.b8ecd5316fdf2p+0",
        ),
    ),
    (7, True, "   "): (
        "-0x1.27f25b67a4e5ap+2",
        (
            "-0x1.27f25b67a4e5ap+2",
        ),
    ),
    (7, True, "A room containing évier is called a cuisine 浴室."): (
        "-0x1.05150323bb1c9p+2",
        (
            "-0x1.ea1b5e4697be1p-2", "-0x1.3a36414a3d360p-2", "-0x1.07f3dcfe05df1p-1",
            "-0x1.6477836e55cd6p-2", "-0x1.0f3c9fb8503b1p-1", "-0x1.21b0488e9bd4ep-1",
            "-0x1.41abc9e135110p-2", "-0x1.2421aafb30fcbp-1", "-0x1.ccd664db0c1f6p-2",
        ),
    ),
}


class TestOfflineScorer:
    def test_deterministic_across_instances(self):
        a = OfflineScorer(seed=7).score("A room containing bed is called a bedroom.")
        b = OfflineScorer(seed=7).score("A room containing bed is called a bedroom.")
        assert a == b

    def test_seed_changes_scores(self):
        sentence = "A room containing bed is called a bedroom."
        assert OfflineScorer(seed=1).score(sentence) != OfflineScorer(seed=2).score(sentence)

    def test_total_matches_token_sum(self):
        score = OfflineScorer(seed=3).score("one two three four")
        assert score.total_logprob == pytest.approx(
            math.fsum(t.logprob for t in score.tokens), abs=1e-6
        )

    def test_base_range_without_bonus(self):
        for i in range(50):
            total = OfflineScorer(seed=0).score(f"sentence number {i}").total_logprob
            assert -8.0 <= total < -4.0

    def test_bonus_applied_when_both_labels_present(self):
        plain = OfflineScorer(seed=0)
        boosted = OfflineScorer(seed=0, bonus_table={("toilet", "bathroom"): 9.0})
        sentence = "A room containing toilet is called a bathroom."
        assert boosted.score(sentence).total_logprob == pytest.approx(
            plain.score(sentence).total_logprob + 9.0
        )
        unrelated = "A room containing toilet is called a kitchen."
        assert boosted.score(unrelated).total_logprob == pytest.approx(
            plain.score(unrelated).total_logprob
        )

    def test_bonus_table_changes_identity(self):
        assert (
            OfflineScorer(seed=0).identity
            != OfflineScorer(seed=0, bonus_table={("a", "b"): 1.0}).identity
        )

    @pytest.mark.parametrize("seed, bonus, sentence", sorted(PINNED_BITS))
    def test_pinned_bits(self, seed, bonus, sentence):
        scorer = OfflineScorer(seed=seed, bonus_table=BATH_BONUSES if bonus else None)
        score = scorer.score(sentence)
        total, logprobs = PINNED_BITS[(seed, bonus, sentence)]
        assert score.total_logprob.hex() == total
        assert tuple(t.logprob.hex() for t in score.tokens) == logprobs
        assert tuple(t.token for t in score.tokens) == tuple(sentence.split() or [sentence])

    def test_pinned_identity(self):
        assert OfflineScorer(seed=7).identity == "offline:seed=7:bonus=none"
        scorer = OfflineScorer(seed=7, bonus_table=BATH_BONUSES)
        assert scorer.identity == "offline:seed=7:bonus=a9fc1bcc"
        assert scorer.score("a bed").backend == scorer.identity

    def test_bonus_file_loader(self, tmp_path):
        path = tmp_path / "bonus.tsv"
        path.write_text("# pairs\ntoilet\tbathroom\t5.5\nbed\tbedroom\t2\n")
        assert load_bonus_table(path) == {
            ("toilet", "bathroom"): 5.5,
            ("bed", "bedroom"): 2.0,
        }


class TestPerplexity:
    def test_one_token_half_probability(self):
        score = SentenceScore("s", -math.log(2), 1, "x")
        assert perplexity(score) == pytest.approx(2.0)

    def test_certain_sentence(self):
        assert perplexity(SentenceScore("s", 0.0, 4, "x")) == pytest.approx(1.0)

    def test_three_tokens(self):
        assert perplexity(SentenceScore("s", -3.0, 3, "x")) == pytest.approx(math.e)

    def test_zero_tokens_rejected(self):
        with pytest.raises(ValueError):
            perplexity(SentenceScore("s", -1.0, 0, "x"))


class TestScoreBatch:
    """:func:`score_totals` over a batch of sentences."""

    def test_matches_sequential_calls(self):
        scorer = OfflineScorer(seed=5)
        sentences = ["alpha beta", "gamma", "delta epsilon zeta"]
        totals = score_totals(scorer, sentences)
        assert totals == [scorer.score(s).total_logprob for s in sentences]

    def test_empty_batch(self):
        assert score_totals(OfflineScorer(), []) == []

    def test_partial_failure_marks_slot(self):
        scorer = FixtureScorer({"good": [("good", -1.0)]})
        results = score_totals(scorer, ["good", "bad", "good"])
        assert results[0] == -1.0
        assert isinstance(results[1], TransportError)
        assert results[1].sentence == "bad"
        assert results[2] == -1.0

    def test_many_workers_score_each_sentence_once(self):
        class Counting(SentenceScorer):
            max_inflight = 16
            identity = "counting"

            def __init__(self):
                self.lock = threading.Lock()
                self.calls = {}

            def score(self, sentence):
                with self.lock:
                    self.calls[sentence] = self.calls.get(sentence, 0) + 1
                return SentenceScore(sentence, -float(len(sentence)), 1, self.identity)

        sentences = [f"sentence {i % 700}" for i in range(2000)]
        scorer = Counting()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            totals = score_totals(scorer, sentences)
        finally:
            sys.setswitchinterval(interval)
        assert totals == [-float(len(s)) for s in sentences]
        assert scorer.calls == Counter(sentences)

    def test_errors_other_than_transport_propagate(self):
        scorer = FixtureScorer({"fine": [("fine", -1.0)]})
        with pytest.raises(ValueError):
            score_totals(scorer, ["fine", "", "unscripted"])


class TestCachingScorer:
    def test_transparent_totals(self, tmp_path):
        inner = OfflineScorer(seed=9)
        cached = CachingScorer(OfflineScorer(seed=9), tmp_path / "cache.jsonl")
        sentence = "A room containing sink is called a kitchen."
        first = cached.score(sentence)
        second = cached.score(sentence)  # served from cache
        assert first.total_logprob == inner.score(sentence).total_logprob
        assert second.total_logprob == first.total_logprob
        assert second.token_count == first.token_count

    def test_cache_survives_reload(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        CachingScorer(OfflineScorer(seed=9), path).score("hello there")

        class Exploding(SentenceScorer):
            @property
            def identity(self):
                return OfflineScorer(seed=9).identity

            def score(self, sentence):
                raise AssertionError("cache miss hit the backend")

        reloaded = CachingScorer(Exploding(), path)
        assert reloaded.score("hello there").total_logprob == pytest.approx(
            OfflineScorer(seed=9).score("hello there").total_logprob
        )

    def test_append_only_records(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cached = CachingScorer(OfflineScorer(seed=1), path)
        score_totals(cached, ["one", "two"])
        cached.score("one")
        records = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(records) == 2
        assert {r["sentence"] for r in records} == {"one", "two"}
        assert all("sentence_sha256" in r and "token_count" in r for r in records)

    def test_batch_mixes_hits_and_misses(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cached = CachingScorer(OfflineScorer(seed=2), path)
        cached.score("warm")
        results = score_totals(cached, ["warm", "cold"])
        plain = OfflineScorer(seed=2)
        assert results == [
            plain.score("warm").total_logprob,
            plain.score("cold").total_logprob,
        ]

    def test_distinct_backends_do_not_collide(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        CachingScorer(OfflineScorer(seed=1), path).score("shared sentence")
        other = CachingScorer(OfflineScorer(seed=2), path)
        assert other.score("shared sentence").total_logprob == pytest.approx(
            OfflineScorer(seed=2).score("shared sentence").total_logprob
        )

    def test_torn_trailing_record_is_skipped(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cached = CachingScorer(OfflineScorer(seed=1), path)
        cached.score("intact sentence")
        with path.open("a") as handle:
            handle.write('{"backend": "offline:seed=1:bonus=none", "sent')  # killed mid-write
        reloaded = CachingScorer(OfflineScorer(seed=1), path)
        assert reloaded.score("intact sentence").total_logprob == pytest.approx(
            OfflineScorer(seed=1).score("intact sentence").total_logprob
        )
        assert reloaded.score("fresh sentence")  # torn record does not block new work

    def test_misses_open_the_cache_file_once(self, tmp_path, monkeypatch):
        path = tmp_path / "nested" / "cache.jsonl"
        opened = []
        real_open = Path.open

        def counting_open(self, *args, **kwargs):
            if self == path:
                opened.append(self)
            return real_open(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counting_open)
        cached = CachingScorer(OfflineScorer(seed=1), path)
        score_totals(cached, [f"sentence {i}" for i in range(20)])
        assert len(opened) == 1
        assert len(path.read_text(encoding="utf-8").splitlines()) == 20

    def test_each_miss_is_on_disk_before_the_next(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cached = CachingScorer(OfflineScorer(seed=1), path)
        for i in range(5):
            cached.score(f"sentence {i}")
            lines = path.read_text(encoding="utf-8").splitlines()
            assert len(lines) == i + 1
            assert json.loads(lines[-1])["sentence"] == f"sentence {i}"

    def test_fresh_scorer_replays_an_open_cache(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        sentences = [f"sentence {i}" for i in range(30)]
        writer = CachingScorer(OfflineScorer(seed=4), path)
        expected = score_totals(writer, sentences)

        class Exploding(SentenceScorer):
            identity = writer.identity

            def score(self, sentence):
                raise AssertionError("cache miss hit the backend")

        # the writer is still alive and holds its append handle
        assert score_totals(CachingScorer(Exploding(), path), sentences) == expected

    def test_handle_closed_when_scorer_is_collected(self, tmp_path):
        cached = CachingScorer(OfflineScorer(seed=1), tmp_path / "cache.jsonl")
        assert cached._handle is None  # opened on the first miss only
        cached.score("one")
        handle = cached._handle
        assert not handle.closed
        del cached
        gc.collect()
        assert handle.closed

    def test_concurrent_misses_leave_whole_lines(self, tmp_path):
        class Threaded(OfflineScorer):
            max_inflight = 16

        path = tmp_path / "cache.jsonl"
        sentences = [f"distinct sentence {i}" for i in range(500)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            totals = score_totals(CachingScorer(Threaded(seed=5), path), sentences)
        finally:
            sys.setswitchinterval(interval)
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        assert len(records) == 500
        assert sorted(r["sentence"] for r in records) == sorted(sentences)
        by_sentence = {r["sentence"]: r["total_logprob"] for r in records}
        assert [by_sentence[s] for s in sentences] == totals


class _Handler(BaseHTTPRequestHandler):
    behaviors = []  # list of callables(payload) -> (status, body dict)
    calls = 0

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        behavior = _Handler.behaviors[min(_Handler.calls, len(_Handler.behaviors) - 1)]
        _Handler.calls += 1
        status, body = behavior(payload)
        data = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def mock_endpoint():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Handler.calls = 0
    yield f"http://127.0.0.1:{server.server_port}/v1/completions"
    server.shutdown()
    server.server_close()
    thread.join()


def _echo_logprobs(payload):
    words = payload["prompt"].split()
    return 200, {
        "model": "test-lm",
        "tokens": words,
        "token_logprobs": [None] + [-1.0] * (len(words) - 1),
    }


def _openai_shape(payload):
    words = payload["prompt"].split()
    return 200, {
        "model": "test-lm",
        "choices": [
            {"logprobs": {"tokens": words, "token_logprobs": [None] + [-0.5] * (len(words) - 1)}}
        ],
    }


class TestRemoteScorer:
    def test_flat_payload(self, mock_endpoint):
        _Handler.behaviors = [_echo_logprobs]
        scorer = RemoteScorer(endpoint=mock_endpoint, model="test-lm", backoff_base=0.0)
        score = scorer.score("a b c d")
        assert score.total_logprob == pytest.approx(-3.0)
        assert score.token_count == 3  # first-token logprob absent
        assert score.tokens[0].logprob is None

    def test_completions_payload(self, mock_endpoint):
        _Handler.behaviors = [_openai_shape]
        scorer = RemoteScorer(endpoint=mock_endpoint, model="test-lm", backoff_base=0.0)
        assert scorer.score("a b c").total_logprob == pytest.approx(-1.0)

    def test_retry_then_success(self, mock_endpoint):
        _Handler.behaviors = [lambda p: (500, {"error": "flake"}), _echo_logprobs]
        scorer = RemoteScorer(
            endpoint=mock_endpoint, model="test-lm", max_attempts=3, backoff_base=0.0
        )
        assert scorer.score("x y").total_logprob == pytest.approx(-1.0)
        assert _Handler.calls == 2

    def test_bounded_attempts_then_transport_error(self, mock_endpoint):
        _Handler.behaviors = [lambda p: (500, {"error": "down"})]
        scorer = RemoteScorer(
            endpoint=mock_endpoint, model="test-lm", max_attempts=2, backoff_base=0.0
        )
        with pytest.raises(TransportError) as excinfo:
            scorer.score("x y")
        assert excinfo.value.sentence == "x y"
        assert _Handler.calls == 2

    def test_malformed_payload_is_transport_error(self, mock_endpoint):
        _Handler.behaviors = [lambda p: (200, {"weird": True})]
        scorer = RemoteScorer(
            endpoint=mock_endpoint, model="test-lm", max_attempts=1, backoff_base=0.0
        )
        with pytest.raises(TransportError):
            scorer.score("x y")

    def test_positive_logprob_rejected(self, mock_endpoint):
        _Handler.behaviors = [
            lambda p: (200, {"model": "m", "tokens": ["a"], "token_logprobs": [0.5]})
        ]
        scorer = RemoteScorer(
            endpoint=mock_endpoint, model="test-lm", max_attempts=1, backoff_base=0.0
        )
        with pytest.raises(TransportError):
            scorer.score("a")

    def test_batch_preserves_order_and_marks_failures(self, mock_endpoint):
        def selective(payload):
            if "bad" in payload["prompt"]:
                return 500, {"error": "no"}
            return _echo_logprobs(payload)

        _Handler.behaviors = [selective]
        scorer = RemoteScorer(
            endpoint=mock_endpoint,
            model="test-lm",
            max_attempts=1,
            backoff_base=0.0,
            max_inflight=2,
        )
        results = score_totals(scorer, ["ok one", "bad two", "ok three four"])
        assert results[0] == pytest.approx(-1.0)
        assert isinstance(results[1], TransportError)
        assert results[1].sentence == "bad two"
        assert results[2] == pytest.approx(-2.0)

    def test_missing_endpoint_rejected(self, monkeypatch):
        monkeypatch.delenv("ROOMSENSE_LM_ENDPOINT", raising=False)
        with pytest.raises(ValueError):
            RemoteScorer()

    def test_max_inflight_bounds_concurrency(self, counting_endpoint):
        scorer = RemoteScorer(
            endpoint=counting_endpoint.url,
            model="test-lm",
            max_inflight=2,
            backoff_base=0.0,
        )
        results = score_totals(scorer, [f"sentence {i} x" for i in range(10)])
        assert all(isinstance(r, float) for r in results)
        assert counting_endpoint.peak <= 2

    def test_non_numeric_logprob_is_transport_error(self, mock_endpoint):
        _Handler.behaviors = [
            lambda p: (200, {"model": "m", "tokens": ["a", "b"], "token_logprobs": [None, "oops"]})
        ]
        scorer = RemoteScorer(
            endpoint=mock_endpoint, model="test-lm", max_attempts=1, backoff_base=0.0
        )
        with pytest.raises(TransportError) as excinfo:
            scorer.score("a b")
        assert excinfo.value.sentence == "a b"

    def test_non_numeric_logprob_fails_only_its_room(self, mock_endpoint):
        def oops_for_stove(payload):
            if "stove" in payload["prompt"]:
                return 200, {"model": "m", "tokens": ["a", "b"], "token_logprobs": [None, "oops"]}
            return _echo_logprobs(payload)

        _Handler.behaviors = [oops_for_stove]
        graph = build_graph(
            {"r-bath": ("bathroom", ["toilet"]), "r-kitchen": ("kitchen", ["stove"])},
            room_labels=("bathroom", "kitchen"),
        )
        table = count_ground_truth(graph, "things")
        scorer = RemoteScorer(
            endpoint=mock_endpoint, model="test-lm", max_attempts=1, backoff_base=0.0
        )
        result = classify_graph(graph, table, scorer, k=3)
        assert [p.room_id for p in result.predictions] == ["r-bath"]
        assert [f.room_id for f in result.failures] == ["r-kitchen"]
        assert "not a number" in result.failures[0].reason

    @pytest.mark.parametrize("status", [400, 401, 403, 404])
    def test_client_errors_are_not_retried(self, mock_endpoint, status):
        _Handler.behaviors = [lambda p: (status, {"error": "refused"})]
        scorer = RemoteScorer(
            endpoint=mock_endpoint, model="test-lm", max_attempts=5, backoff_base=0.0
        )
        with pytest.raises(TransportError) as excinfo:
            scorer.score("x y")
        assert excinfo.value.sentence == "x y"
        assert _Handler.calls == 1

    @pytest.mark.parametrize(
        "body",
        [
            {"model": "m", "tokens": ["a", "b"], "token_logprobs": [None, "oops"]},
            {"model": "m", "tokens": ["a", "b"], "token_logprobs": [None, 0.5]},
            {"model": "m", "tokens": ["a", "b"], "token_logprobs": [None, float("nan")]},
            {"model": "m", "tokens": ["a", "b"], "token_logprobs": [None, None]},
            {"model": "m", "tokens": ["a", "b"]},
            {"model": "m", "choices": [1]},
            [1, 2],
        ],
        ids=["oops", "positive", "nan", "no-usable", "missing-field", "bad-choice", "list"],
    )
    def test_malformed_body_is_not_retried(self, mock_endpoint, body):
        _Handler.behaviors = [lambda p: (200, body), _echo_logprobs]
        scorer = RemoteScorer(
            endpoint=mock_endpoint, model="test-lm", max_attempts=5, backoff_base=0.0
        )
        with pytest.raises(TransportError) as excinfo:
            scorer.score("a b")
        assert excinfo.value.sentence == "a b"
        assert _Handler.calls == 1

    @pytest.mark.parametrize("status", [408, 429])
    def test_timeout_and_rate_limit_statuses_retry(self, mock_endpoint, status):
        _Handler.behaviors = [lambda p: (status, {"error": "later"}), _echo_logprobs]
        scorer = RemoteScorer(
            endpoint=mock_endpoint, model="test-lm", max_attempts=3, backoff_base=0.0
        )
        assert scorer.score("x y").total_logprob == pytest.approx(-1.0)
        assert _Handler.calls == 2

    def test_own_session_pool_holds_max_inflight_connections(self, counting_endpoint, caplog):
        scorer = RemoteScorer(
            endpoint=counting_endpoint.url, model="test-lm", max_inflight=16, backoff_base=0.0
        )
        with caplog.at_level(logging.WARNING, logger="urllib3.connectionpool"):
            results = score_totals(scorer, [f"sentence {i} x" for i in range(64)])
        scorer._session.close()
        assert all(isinstance(r, float) for r in results)
        # 64 requests, 16 at a time, over at most 16 kept-alive connections
        assert len(counting_endpoint.clients) <= 16
        assert "Connection pool is full" not in caplog.text

    def test_injected_session_is_left_as_given(self):
        session = requests.Session()
        adapter = session.get_adapter("http://127.0.0.1/")
        RemoteScorer(endpoint="http://127.0.0.1/", max_inflight=16, session=session)
        assert session.get_adapter("http://127.0.0.1/") is adapter


class _CountingEndpoint:
    """Keep-alive endpoint that records requests in flight and client ports."""

    def __init__(self, latency_s: float):
        self.lock = threading.Lock()
        self.active = 0
        self.peak = 0
        self.posts = 0
        self.clients: set[int] = set()
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self):
                with endpoint.lock:
                    endpoint.active += 1
                    endpoint.posts += 1
                    endpoint.peak = max(endpoint.peak, endpoint.active)
                    endpoint.clients.add(self.client_address[1])
                time.sleep(latency_s)
                length = int(self.headers["Content-Length"])
                payload = json.loads(self.rfile.read(length))
                _, body = _echo_logprobs(payload)
                data = json.dumps(body).encode()
                with endpoint.lock:
                    endpoint.active -= 1
                self.send_response(200)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.server.server_port}/"


@pytest.fixture
def counting_endpoint():
    endpoint = _CountingEndpoint(latency_s=0.05)
    thread = threading.Thread(target=endpoint.server.serve_forever, daemon=True)
    thread.start()
    yield endpoint
    endpoint.server.shutdown()
    endpoint.server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


class TestFlatScoringStage:
    """Each stage scores all of its sentences through one pool."""

    def test_classify_graph_fills_max_inflight(self, counting_endpoint):
        rooms = ["bed", "oven", "sink", "stove", "toilet", "lamp", "table", "chair"]
        graph = build_graph(
            {f"r{i}": ("bathroom", [label]) for i, label in enumerate(rooms)},
            room_labels=("bathroom", "kitchen"),
        )
        scorer = RemoteScorer(
            endpoint=counting_endpoint.url, model="test-lm", max_inflight=4, backoff_base=0.0
        )
        result = classify_graph(graph, count_ground_truth(graph, "things"), scorer, k=3)
        scorer._session.close()
        assert len(result.predictions) == len(rooms) and result.failures == ()
        # two sentences per room: a per-room barrier would cap this at 2
        assert counting_endpoint.peak == 4


class TestMakeScorer:
    def test_offline_with_cache(self, tmp_path):
        scorer = make_scorer("offline", seed=4, cache_path=tmp_path / "c.jsonl")
        assert scorer.score("abc").total_logprob == pytest.approx(
            OfflineScorer(seed=4).score("abc").total_logprob
        )

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            make_scorer("quantum")
