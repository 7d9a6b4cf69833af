import gc
import hashlib
import json
import logging
import math
import os
import re
import socket
import socketserver
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from roomsense import lm_scoring
from roomsense.cli import main
from roomsense.cooccurrence import count_ground_truth, write_table
from roomsense.inference import classify_graph
from roomsense.ingest import write_scene_file
from roomsense.lm_scoring import (
    CachingScorer,
    OfflineScorer,
    RemoteScorer,
    SentenceScore,
    SentenceScorer,
    TokenLogProb,
    TransportError,
    _unit_floats,
    load_bonus_table,
    make_scorer,
)

from conftest import build_graph, score_each
from endpoint import Endpoint, echo_logprobs
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

    @pytest.mark.parametrize("sentence, bonus", [
        ("A room containing lamp is called a bedroom.", 0),
        ("A room containing bedside lamp is called a bedroom.", 0),
        ("A room containing lamp and bed is called a bedroom.", 25.0),
        ("A room containing bed, lamp and rug is called a bedroom.", 25.0),
    ])
    def test_bonus_labels_match_whole_words_only(self, sentence, bonus):
        assert OfflineScorer(seed=0, bonus_table=BATH_BONUSES).bonus_value(sentence) == bonus

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
        assert scorer.identity == "offline:seed=7:bonus=d0b88e74"
        assert scorer.score("a bed").backend == scorer.identity

    def test_bonus_file_loader(self, tmp_path):
        path = tmp_path / "bonus.tsv"
        path.write_text("# pairs\ntoilet\tbathroom\t5.5\nbed\tbedroom\t2\n")
        assert load_bonus_table(path) == {
            ("toilet", "bathroom"): 5.5,
            ("bed", "bedroom"): 2.0,
        }

    @pytest.mark.parametrize("bonus", ["abc", "nan", "-inf", "Infinity", "1e999", ""])
    def test_bonus_file_rejects_a_value_that_is_not_a_finite_number(self, tmp_path, bonus):
        path = tmp_path / "bonus.tsv"
        path.write_text(f"toilet\tbathroom\t5.5\nbed\tbedroom\t{bonus}\n")
        with pytest.raises(ValueError) as caught:
            load_bonus_table(path)
        assert str(caught.value) == (
            f"{path}:2: bonus {bonus!r} is not a finite number"
        )

    def test_bonus_file_labels_are_normalized_like_scene_labels(self, tmp_path):
        clean = tmp_path / "clean.tsv"
        clean.write_text("washing machine\tlaundry room\t5\n")
        messy = tmp_path / "messy.tsv"
        messy.write_text(" Washing  machine \tLaundry   Room\t5\n")
        assert load_bonus_table(messy) == {("washing machine", "laundry room"): 5.0}
        scorer = OfflineScorer(seed=0, bonus_table=load_bonus_table(messy))
        sentence = "A room containing washing machine is called a laundry room."
        assert scorer.bonus_value(sentence) == 5.0
        assert scorer.identity == OfflineScorer(seed=0, bonus_table=load_bonus_table(clean)).identity

    @pytest.mark.parametrize("row", ["bed\tbedroom\t  ", "bed\tbedroom\t\t"])
    def test_bonus_file_blank_bonus_is_a_bad_bonus(self, tmp_path, row):
        path = tmp_path / "bonus.tsv"
        path.write_text(f"toilet\tbathroom\t5.5\n{row}\n")
        with pytest.raises(ValueError) as caught:
            load_bonus_table(path)
        assert str(caught.value) == f"{path}:2: bonus '' is not a finite number"

    @pytest.mark.parametrize("row", ["bed\tbedroom", "bed\tbedroom ", "bed", "bed\tbedroom\t2\t5"])
    def test_bonus_file_row_without_three_fields(self, tmp_path, row):
        path = tmp_path / "bonus.tsv"
        path.write_text(f"toilet\tbathroom\t5.5\n{row}\n")
        with pytest.raises(ValueError) as caught:
            load_bonus_table(path)
        assert str(caught.value) == f"{path}:2: expected 3 tab-separated fields"

    def test_bonus_file_whitespace_line_ends_and_comments_still_load(self, tmp_path):
        path = tmp_path / "bonus.tsv"
        path.write_bytes(
            b"# pairs\r\n  # indented comment\n\n"
            b"toilet\tbathroom\t5.5  \r\n"
            b"bed\tbedroom\t2\t\n"
            b"  sink\tbathroom\t1.5\t \n"
        )
        assert load_bonus_table(path) == {
            ("toilet", "bathroom"): 5.5,
            ("bed", "bedroom"): 2.0,
            ("sink", "bathroom"): 1.5,
        }


class TestTokenLogProb:
    def test_fields_by_name_and_position(self):
        token = TokenLogProb(token="bed", logprob=-1.5)
        assert (token.token, token.logprob) == ("bed", -1.5)
        assert tuple(token) == ("bed", -1.5)
        assert TokenLogProb._fields == ("token", "logprob")

    def test_immutable(self):
        token = TokenLogProb("bed", None)
        with pytest.raises(AttributeError):
            token.logprob = -1.0
        with pytest.raises(AttributeError):
            token.extra = 1

    def test_equality_and_hash(self):
        assert TokenLogProb("bed", -1.5) == TokenLogProb(token="bed", logprob=-1.5)
        assert TokenLogProb("bed", -1.5) != TokenLogProb("bed", -2.5)
        assert TokenLogProb("bed", None) != TokenLogProb("cot", None)
        assert hash(TokenLogProb("bed", -1.5)) == hash(TokenLogProb(token="bed", logprob=-1.5))
        assert len({TokenLogProb("bed", -1.5), TokenLogProb(token="bed", logprob=-1.5)}) == 1

    def test_bulk_built_tokens_equal_keyword_built_ones(self):
        words, values = ["a", "bed", "."], [-1.0, -2.0, -0.5]
        made = tuple(map(TokenLogProb._make, zip(words, values)))
        by_keyword = tuple(TokenLogProb(token=w, logprob=v) for w, v in zip(words, values))
        assert made == by_keyword
        score = OfflineScorer(seed=3).score("a bed .")
        assert all(type(t) is TokenLogProb for t in score.tokens)
        assert score.tokens == tuple(
            TokenLogProb(token=t.token, logprob=t.logprob) for t in score.tokens
        )


class TestSentenceScore:
    def test_fields_by_name_and_position(self):
        tokens = (TokenLogProb("a", None), TokenLogProb("bed", -1.5))
        score = SentenceScore("a bed", -1.5, 1, "fixture", tokens)
        assert (score.sentence, score.total_logprob, score.token_count, score.backend,
                score.tokens) == ("a bed", -1.5, 1, "fixture", tokens)
        assert tuple(score) == ("a bed", -1.5, 1, "fixture", tokens)
        assert SentenceScore._fields == (
            "sentence", "total_logprob", "token_count", "backend", "tokens"
        )

    def test_tokens_default_to_none(self):
        assert SentenceScore("a bed", -1.5, 1, "fixture").tokens is None
        assert SentenceScore._field_defaults == {"tokens": None}

    def test_immutable(self):
        score = SentenceScore("a bed", -1.5, 1, "fixture")
        with pytest.raises(AttributeError):
            score.total_logprob = 0.0
        with pytest.raises(AttributeError):
            score.extra = 1

    def test_equality_and_hash(self):
        a = SentenceScore("a bed", -1.5, 1, "fixture")
        b = SentenceScore(sentence="a bed", total_logprob=-1.5, token_count=1, backend="fixture")
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != SentenceScore("a bed", -2.5, 1, "fixture")
        assert a != SentenceScore("a bed", -1.5, 1, "other")

    def test_keyword_built_equals_positional(self):
        score = OfflineScorer(seed=3).score("a bed .")
        assert type(score) is SentenceScore
        assert score == SentenceScore(
            sentence=score.sentence,
            total_logprob=score.total_logprob,
            token_count=score.token_count,
            backend=score.backend,
            tokens=score.tokens,
        )
        assert score == SentenceScore(*score)


_digest_lists = st.lists(st.binary(min_size=32, max_size=32), min_size=1, max_size=64)


def _unit_float(digest: bytes) -> float:
    """One SHA-256 digest mapped into [0, 1]: its first 8 bytes as a
    big-endian integer over 2**64, the reference :func:`_unit_floats` meets."""
    return int.from_bytes(digest[:8], "big") / 2**64


class TestUnitFloats:
    """The bulk digest decode against the one-digest rule and a reference."""

    @given(_digest_lists)
    def test_bulk_decode_matches_one_digest_at_a_time(self, digests):
        bulk = _unit_floats(b"".join(digests))
        assert [v.hex() for v in bulk] == [_unit_float(d).hex() for d in digests]

    @pytest.mark.parametrize("lead", [b"\x00" * 8, b"\x00" * 7 + b"\x01", b"\xff" * 8,
                                      b"\x80" + b"\x00" * 7, b"\xff" * 7 + b"\xfe"])
    def test_edge_values_match_the_reference(self, lead):
        digest = lead + bytes(24)
        expected = (int.from_bytes(lead, "big") / 2**64).hex()
        assert _unit_floats(digest)[0].hex() == expected
        assert [v.hex() for v in _unit_floats(bytes(32) + digest)] == [(0.0).hex(), expected]


def _reference_score(seed, bonus_table, sentence):
    """Per-token loop as the offline scorer is specified: (total, token logprobs)."""
    base_key = f"base\x1f{seed}\x1f{sentence}".encode("utf-8")
    total = -(4.0 + 4.0 * _unit_float(hashlib.sha256(base_key).digest()))
    def found(label):
        return re.search(rf"(?<!\w){re.escape(label)}(?!\w)", sentence) is not None

    total = total + sum(
        bonus for (obj, room), bonus in bonus_table.items() if found(obj) and found(room)
    )
    words = sentence.split() or [sentence]
    weights = []
    for i, word in enumerate(words):
        key = f"tok\x1f{seed}\x1f{sentence}\x1f{i}\x1f{word}".encode("utf-8")
        weights.append(1.0 + _unit_float(hashlib.sha256(key).digest()))
    weight_sum = math.fsum(weights)
    values = [total * w / weight_sum for w in weights]
    return math.fsum(values), values


_sentences = st.one_of(
    st.text(min_size=1, max_size=80),
    st.lists(
        st.sampled_from(["a", "room", "containing", "toilet", "bed", "is", "called",
                         "bathroom", "bedroom", "kitchen", "sink,", "and", "."]),
        min_size=1, max_size=24,
    ).map(" ".join),
)


class TestOfflineScoreMatchesReference:
    @given(
        seed=st.integers(0, 2**31),
        sentence=_sentences,
        pair=st.none() | st.sampled_from(sorted(BATH_BONUSES)),
        bonus=st.booleans(),
    )
    def test_bits_match_a_per_token_loop(self, seed, sentence, pair, bonus):
        if pair is not None:
            # a sentence that earns a bonus when the table is given
            sentence = f"{sentence} {pair[0]} in the {pair[1]}"
        table = BATH_BONUSES if bonus else {}
        score = OfflineScorer(seed=seed, bonus_table=table).score(sentence)
        total, values = _reference_score(seed, table, sentence)
        assert score.total_logprob.hex() == total.hex()
        assert [t.logprob.hex() for t in score.tokens] == [v.hex() for v in values]
        assert [t.token for t in score.tokens] == (sentence.split() or [sentence])
        assert score.token_count == len(values)


def perplexity(score: SentenceScore) -> float:
    """Per-token perplexity: exp(-total / token_count)."""
    if score.token_count <= 0:
        raise ValueError("perplexity needs token_count > 0")
    return math.exp(-score.total_logprob / score.token_count)


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
    """:func:`score_totals` over a batch of sentences, each its own group."""

    def test_matches_sequential_calls(self):
        scorer = OfflineScorer(seed=5)
        sentences = ["alpha beta", "gamma", "delta epsilon zeta"]
        totals = score_each(scorer, sentences)
        assert totals == [scorer.score(s).total_logprob for s in sentences]

    def test_empty_batch(self):
        assert score_each(OfflineScorer(), []) == []

    def test_partial_failure_marks_slot(self):
        scorer = FixtureScorer({"good": [("good", -1.0)]})
        results = score_each(scorer, ["good", "bad", "good"])
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
            totals = score_each(scorer, sentences)
        finally:
            sys.setswitchinterval(interval)
        assert totals == [-float(len(s)) for s in sentences]
        # one call per distinct sentence, not per occurrence
        assert scorer.calls == {s: 1 for s in sentences}

    def test_worker_error_stops_every_worker(self):
        class Failing(SentenceScorer):
            max_inflight = 4
            identity = "failing"

            def __init__(self):
                self.calls = []

            def score(self, sentence):
                self.calls.append(sentence)
                if sentence == "sentence 10":
                    raise RuntimeError("scorer bug")
                time.sleep(0.005)
                return SentenceScore(sentence, -1.0, 1, self.identity)

        scorer = Failing()
        with pytest.raises(RuntimeError, match="scorer bug"):
            score_each(scorer, [f"sentence {i}" for i in range(200)])
        # the failing sentence is the 11th; each of the other 3 workers ends
        # with the sentence it is on
        assert len(scorer.calls) <= 11 + 4

    def test_interrupt_stops_every_worker(self):
        # a child interpreter takes the SIGINT, so pytest never sees it
        done = subprocess.run(
            [sys.executable, "-c", _INTERRUPTED_POOL,
             str(Path(lm_scoring.__file__).resolve().parents[1])],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert 0 < int(done.stdout) < 200

    def test_repeats_are_scored_once(self):
        class Recording(SentenceScorer):
            identity = "recording"

            def __init__(self):
                self.calls = []

            def score(self, sentence):
                self.calls.append(sentence)
                return SentenceScore(sentence, -float(len(sentence)), 1, self.identity)

        scorer = Recording()
        assert score_each(scorer, ["a", "b", "a"]) == [-1.0, -1.0, -1.0]
        assert scorer.calls == ["a", "b"]
        assert score_each(scorer, ["ccc", "a", "ccc"]) == [-3.0, -1.0, -3.0]

    def test_errors_other_than_transport_propagate(self):
        scorer = FixtureScorer({"fine": [("fine", -1.0)]})
        with pytest.raises(ValueError):
            score_each(scorer, ["fine", "", "unscripted"])


def _cache_line(sentence, total="-3.5", count="2"):
    """A cache record for ``OfflineScorer(seed=1)`` with raw JSON values."""
    record = {
        "backend": OfflineScorer(seed=1).identity,
        "sentence": sentence,
        "total_logprob": "@total",
        "token_count": "@count",
    }
    return json.dumps(record).replace('"@total"', total).replace('"@count"', count)


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
        score_each(cached, ["one", "two"])
        cached.score("one")
        records = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(records) == 2
        assert {r["sentence"] for r in records} == {"one", "two"}
        assert all("sentence_sha256" in r and "token_count" in r for r in records)

    def test_batch_mixes_hits_and_misses(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cached = CachingScorer(OfflineScorer(seed=2), path)
        cached.score("warm")
        results = score_each(cached, ["warm", "cold"])
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

    @pytest.mark.parametrize("line", [
        *(pytest.param(_cache_line("bad record", total=value), id=f"total-{name}")
          for name, value in (
              ("string", '"oops"'), ("nan", "NaN"), ("inf", "Infinity"),
              ("-inf", "-Infinity"), ("bool", "true"), ("null", "null"), ("list", "[1]"),
              ("huge-int", "1" + "0" * 400),
          )),
        *(pytest.param(_cache_line("bad record", count=value), id=f"count-{name}")
          for name, value in (
              ("string", '"2"'), ("negative", "-1"), ("float", "2.0"), ("bool", "true"),
              ("null", "null"), ("list", "[1]"),
          )),
        *(pytest.param(line, id=f"record-{name}")
          for name, line in (("list", "[1]"), ("string", '"bad record"'), ("null", "null"),
                             ("number", "7"))),
    ])
    def test_record_whose_values_are_not_numbers_is_scored_again(self, tmp_path, caplog, line):
        path = tmp_path / "cache.jsonl"
        path.write_text(line + "\n")
        with caplog.at_level(logging.WARNING, logger="roomsense.lm_scoring"):
            cached = CachingScorer(OfflineScorer(seed=1), path)
        assert f"skipping malformed cache record {path}:1" in caplog.text
        assert score_each(cached, ["bad record"]) == score_each(
            OfflineScorer(seed=1), ["bad record"]
        )
        assert len(path.read_text().splitlines()) == 2

    def test_record_with_an_int_total_is_served(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text(_cache_line("int record", total="-3", count="0") + "\n")

        class Exploding(SentenceScorer):
            identity = OfflineScorer(seed=1).identity

            def score(self, sentence):
                raise AssertionError("cache miss hit the backend")

        hit = CachingScorer(Exploding(), path).score("int record")
        assert (hit.total_logprob, hit.token_count) == (-3, 0)

    def test_record_after_a_torn_line_survives_reload(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        CachingScorer(OfflineScorer(seed=1), path).score("intact")
        with path.open("a") as handle:
            handle.write('{"backend": "offline:seed=1:bonus=none", "sent')  # killed mid-write
        CachingScorer(OfflineScorer(seed=1), path).score("fresh")

        class Exploding(SentenceScorer):
            identity = OfflineScorer(seed=1).identity

            def score(self, sentence):
                raise AssertionError("cache miss hit the backend")

        reloaded = CachingScorer(Exploding(), path)
        assert score_each(reloaded, ["intact", "fresh"]) == score_each(
            OfflineScorer(seed=1), ["intact", "fresh"]
        )
        assert len(path.read_text(encoding="utf-8").splitlines()) == 3

    def test_record_that_is_not_utf8_is_skipped(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        path.write_bytes(
            (_cache_line("first") + "\n").encode()
            + _cache_line("garbled @").encode().replace(b"@", b"\xff") + b"\n"
            + (_cache_line("third") + "\n").encode()
        )

        class Exploding(SentenceScorer):
            identity = OfflineScorer(seed=1).identity

            def score(self, sentence):
                raise AssertionError("cache miss hit the backend")

        with caplog.at_level(logging.WARNING, logger="roomsense.lm_scoring"):
            reloaded = CachingScorer(Exploding(), path)
        assert f"skipping malformed cache record {path}:2" in caplog.text
        assert score_each(reloaded, ["first", "third"]) == [-3.5, -3.5]

    def test_blank_lines_are_skipped_without_a_warning(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        path.write_text("\n" + _cache_line("first") + "\n \t\n" + _cache_line("second") + "\n")

        class Exploding(SentenceScorer):
            identity = OfflineScorer(seed=1).identity

            def score(self, sentence):
                raise AssertionError("cache miss hit the backend")

        with caplog.at_level(logging.WARNING, logger="roomsense.lm_scoring"):
            reloaded = CachingScorer(Exploding(), path)
        assert caplog.records == []
        assert score_each(reloaded, ["first", "second"]) == [-3.5, -3.5]

    def test_reload_indexes_only_the_scorers_own_identity(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        score_each(CachingScorer(OfflineScorer(seed=1), path), ["mine", "shared"])
        score_each(CachingScorer(OfflineScorer(seed=2), path), ["theirs", "shared"])
        assert len(path.read_text().splitlines()) == 4
        reloaded = CachingScorer(OfflineScorer(seed=1), path)
        reloaded.score("one more")
        own = OfflineScorer(seed=1).score("shared")
        assert set(reloaded._memory) == {"mine", "shared", "one more"}
        assert reloaded._memory["shared"] == (own.total_logprob, own.token_count)

    def test_a_score_under_another_backend_is_not_indexed(self, tmp_path):
        class Relabelling(SentenceScorer):
            identity = "remote:http://endpoint"

            def score(self, sentence):
                return SentenceScore(sentence, -1.0, 1, "remote:served-model")

        cached = CachingScorer(Relabelling(), tmp_path / "cache.jsonl")
        cached.score("a sentence")
        assert cached._memory == {}

    @pytest.mark.parametrize("line", [
        _cache_line("bad record", total='"oops"'),
        _cache_line("bad record").replace('"bad record"', '["bad record"]'),
        _cache_line("bad record").replace('"offline:', '["offline:').replace('none"', 'none"]'),
    ], ids=["total", "sentence", "backend"])
    def test_malformed_record_of_another_identity_is_reported(self, tmp_path, caplog, line):
        path = tmp_path / "cache.jsonl"
        path.write_text(line.replace(":seed=1:", ":seed=2:") + "\n")
        with caplog.at_level(logging.WARNING, logger="roomsense.lm_scoring"):
            cached = CachingScorer(OfflineScorer(seed=1), path)
        assert f"skipping malformed cache record {path}:1" in caplog.text
        assert cached._memory == {}

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
        score_each(cached, [f"sentence {i}" for i in range(20)])
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
        expected = score_each(writer, sentences)

        class Exploding(SentenceScorer):
            identity = writer.identity

            def score(self, sentence):
                raise AssertionError("cache miss hit the backend")

        # the writer is still alive and holds its append handle
        assert score_each(CachingScorer(Exploding(), path), sentences) == expected

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
            totals = score_each(CachingScorer(Threaded(seed=5), path), sentences)
        finally:
            sys.setswitchinterval(interval)
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        assert len(records) == 500
        assert sorted(r["sentence"] for r in records) == sorted(sentences)
        by_sentence = {r["sentence"]: r["total_logprob"] for r in records}
        assert [by_sentence[s] for s in sentences] == totals

    @pytest.mark.parametrize("tamper", [
        pytest.param(lambda r: r.update(sentence="kitchen sinks"), id="sentence-changed"),
        pytest.param(lambda r: r.update(sentence_sha256="0" * 64), id="hash-changed"),
        pytest.param(lambda r: r.update(sentence_sha256=None), id="hash-null"),
    ])
    def test_record_whose_hash_is_not_its_sentences_is_scored_again(
        self, tmp_path, caplog, tamper
    ):
        path = tmp_path / "cache.jsonl"
        CachingScorer(OfflineScorer(seed=1), path).score("kitchen sink")
        record = json.loads(path.read_text(encoding="utf-8"))
        tamper(record)
        record["total_logprob"] = -0.25  # what a hit would serve
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="roomsense.lm_scoring"):
            cached = CachingScorer(OfflineScorer(seed=1), path)
        assert f"skipping malformed cache record {path}:1" in caplog.text
        assert cached._memory == {}
        sentence = record["sentence"]
        assert score_each(cached, [sentence]) == score_each(OfflineScorer(seed=1), [sentence])
        assert len(path.read_text(encoding="utf-8").splitlines()) == 2

    def test_close_syncs_the_file_once_and_a_later_miss_reopens_it(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.jsonl"
        synced = []
        real_fsync = os.fsync

        def fsync(fd):
            synced.append(os.path.samestat(os.fstat(fd), os.stat(path)))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        cached = CachingScorer(OfflineScorer(seed=1), path)
        cached.close()  # nothing written, nothing to sync
        assert synced == []
        cached.score("one")
        handle = cached._handle
        cached.close()
        cached.close()
        assert synced == [True]
        assert handle.closed and cached._handle is None
        cached.score("two")  # opens the file again
        handle = cached._handle
        del cached
        gc.collect()
        assert synced == [True, True]  # collecting the scorer syncs too
        assert handle.closed
        assert [json.loads(line)["sentence"] for line in path.read_text().splitlines()] == [
            "one", "two"
        ]


@pytest.fixture(autouse=True)
def no_backoff(clock):
    """Retries in these tests sleep on the simulated clock, not in real time."""


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
        scorer = RemoteScorer(endpoint=mock_endpoint.url, model="test-lm")
        score = scorer.score("a b c d")
        assert score.total_logprob == pytest.approx(-3.0)
        assert score.token_count == 3  # first-token logprob absent
        assert score.tokens[0].logprob is None

    def test_completions_payload(self, mock_endpoint):
        mock_endpoint.behaviors = [_openai_shape]
        scorer = RemoteScorer(endpoint=mock_endpoint.url, model="test-lm")
        assert scorer.score("a b c").total_logprob == pytest.approx(-1.0)

    def test_retry_then_success(self, mock_endpoint):
        mock_endpoint.behaviors = [lambda p: (500, {"error": "flake"}), echo_logprobs]
        scorer = RemoteScorer(
            endpoint=mock_endpoint.url, model="test-lm", max_attempts=3
        )
        assert scorer.score("x y").total_logprob == pytest.approx(-1.0)
        assert mock_endpoint.posts == 2

    def test_bounded_attempts_then_transport_error(self, mock_endpoint):
        mock_endpoint.behaviors = [lambda p: (500, {"error": "down"})]
        scorer = RemoteScorer(
            endpoint=mock_endpoint.url, model="test-lm", max_attempts=2
        )
        with pytest.raises(TransportError) as excinfo:
            scorer.score("x y")
        assert excinfo.value.sentence == "x y"
        assert mock_endpoint.posts == 2

    def test_malformed_payload_is_transport_error(self, mock_endpoint):
        mock_endpoint.behaviors = [lambda p: (200, {"weird": True})]
        scorer = RemoteScorer(
            endpoint=mock_endpoint.url, model="test-lm", max_attempts=1
        )
        with pytest.raises(TransportError):
            scorer.score("x y")

    def test_positive_logprob_rejected(self, mock_endpoint):
        mock_endpoint.behaviors = [
            lambda p: (200, {"model": "m", "tokens": ["a"], "token_logprobs": [0.5]})
        ]
        scorer = RemoteScorer(
            endpoint=mock_endpoint.url, model="test-lm", max_attempts=1
        )
        with pytest.raises(TransportError):
            scorer.score("a")

    def test_batch_preserves_order_and_marks_failures(self, mock_endpoint):
        def selective(payload):
            if "bad" in payload["prompt"]:
                return 500, {"error": "no"}
            return echo_logprobs(payload)

        mock_endpoint.behaviors = [selective]
        scorer = RemoteScorer(
            endpoint=mock_endpoint.url,
            model="test-lm",
            max_attempts=1,
            max_inflight=2,
        )
        results = score_each(scorer, ["ok one", "bad two", "ok three four"])
        assert results[0] == pytest.approx(-1.0)
        assert isinstance(results[1], TransportError)
        assert results[1].sentence == "bad two"
        assert results[2] == pytest.approx(-2.0)

    def test_missing_endpoint_rejected(self, monkeypatch):
        monkeypatch.delenv("ROOMSENSE_LM_ENDPOINT", raising=False)
        with pytest.raises(ValueError):
            RemoteScorer()

    @pytest.mark.parametrize("setting", [{"max_inflight": 0}, {"max_attempts": 0}],
                             ids=["max_inflight", "max_attempts"])
    def test_budgets_below_one_rejected(self, setting):
        with pytest.raises(ValueError, match=next(iter(setting))):
            RemoteScorer(endpoint="http://127.0.0.1:9/", **setting)

    @pytest.mark.parametrize("endpoint", ["ftp://127.0.0.1/", "localhost:8000/v1", "http:///v1"])
    def test_endpoint_that_is_not_http_rejected(self, endpoint):
        with pytest.raises(ValueError, match="not an http:// or https:// URL"):
            RemoteScorer(endpoint=endpoint)

    def test_max_inflight_bounds_concurrency(self, counting_endpoint):
        scorer = RemoteScorer(
            endpoint=counting_endpoint.url,
            model="test-lm",
            max_inflight=2,
        )
        results = score_each(scorer, [f"sentence {i} x" for i in range(10)])
        assert all(isinstance(r, float) for r in results)
        assert counting_endpoint.peak <= 2

    def test_non_numeric_logprob_is_transport_error(self, mock_endpoint):
        mock_endpoint.behaviors = [
            lambda p: (200, {"model": "m", "tokens": ["a", "b"], "token_logprobs": [None, "oops"]})
        ]
        scorer = RemoteScorer(
            endpoint=mock_endpoint.url, model="test-lm", max_attempts=1
        )
        with pytest.raises(TransportError) as excinfo:
            scorer.score("a b")
        assert excinfo.value.sentence == "a b"

    def test_non_numeric_logprob_fails_only_its_room(self, mock_endpoint):
        def oops_for_stove(payload):
            if "stove" in payload["prompt"]:
                return 200, {"model": "m", "tokens": ["a", "b"], "token_logprobs": [None, "oops"]}
            return echo_logprobs(payload)

        mock_endpoint.behaviors = [oops_for_stove]
        graph = build_graph(
            {"r-bath": ("bathroom", ["toilet"]), "r-kitchen": ("kitchen", ["stove"])},
            room_labels=("bathroom", "kitchen"),
        )
        table = count_ground_truth(graph, "things")
        scorer = RemoteScorer(
            endpoint=mock_endpoint.url, model="test-lm", max_attempts=1
        )
        result = classify_graph(graph, table, scorer, k=3)
        assert [p.room_id for p in result.predictions] == ["r-bath"]
        assert [f.room_id for f in result.failures] == ["r-kitchen"]
        assert "not a number" in result.failures[0].reason

    def test_huge_int_logprob_fails_only_its_room(self, mock_endpoint):
        def huge_for_stove(payload):
            if "stove" in payload["prompt"]:
                return 200, {"model": "m", "tokens": ["a", "b"], "token_logprobs": [None, -10**400]}
            return echo_logprobs(payload)

        mock_endpoint.behaviors = [huge_for_stove]
        graph = build_graph(
            {"r-bath": ("bathroom", ["toilet"]), "r-kitchen": ("kitchen", ["stove"])},
            room_labels=("bathroom", "kitchen"),
        )
        table = count_ground_truth(graph, "things")
        scorer = RemoteScorer(endpoint=mock_endpoint.url, model="test-lm", max_attempts=1)
        result = classify_graph(graph, table, scorer, k=3)
        assert [p.room_id for p in result.predictions] == ["r-bath"]
        assert [f.room_id for f in result.failures] == ["r-kitchen"]
        assert "malformed response" in result.failures[0].reason

    @pytest.mark.parametrize("status", [400, 401, 403, 404, 405, 413, 422])
    def test_client_errors_are_not_retried(self, mock_endpoint, status):
        mock_endpoint.behaviors = [lambda p: (status, {"error": "refused"})]
        scorer = RemoteScorer(
            endpoint=mock_endpoint.url, model="test-lm", max_attempts=5
        )
        with pytest.raises(TransportError) as excinfo:
            scorer.score("x y")
        assert excinfo.value.sentence == "x y"
        assert mock_endpoint.posts == 1

    @pytest.mark.parametrize(
        "body",
        [
            {"model": "m", "tokens": ["a", "b"], "token_logprobs": [None, "oops"]},
            {"model": "m", "tokens": ["a", "b"], "token_logprobs": [None, 0.5]},
            {"model": "m", "tokens": ["a", "b"], "token_logprobs": [None, float("nan")]},
            {"model": "m", "tokens": ["a", "b"], "token_logprobs": [None, "-1.5"]},
            {"model": "m", "tokens": ["a", "b"], "token_logprobs": [None, " -2 "]},
            {"model": "m", "tokens": ["a", "b"], "token_logprobs": [None, False]},
            {"model": "m", "tokens": ["a", "b"], "token_logprobs": [None, -10**400]},
            {"model": "m", "tokens": ["a", "b", "c"], "token_logprobs": [None, -1e308, -1e308]},
            {"model": "m", "tokens": ["a", "b"], "token_logprobs": [None, None]},
            {"model": "m", "tokens": ["a", "b"]},
            {"model": "m", "tokens": ["a", "b"], "token_logprobs": [-1.0]},
            {"model": "m", "choices": [1]},
            [1, 2],
        ],
        ids=["oops", "positive", "nan", "numeric-string", "padded-string", "false",
             "huge-int", "sum-overflows", "no-usable", "missing-field", "length-mismatch",
             "bad-choice", "list"],
    )
    def test_malformed_body_is_not_retried(self, mock_endpoint, body):
        mock_endpoint.behaviors = [lambda p: (200, body), echo_logprobs]
        scorer = RemoteScorer(
            endpoint=mock_endpoint.url, model="test-lm", max_attempts=5
        )
        with pytest.raises(TransportError) as excinfo:
            scorer.score("a b")
        assert excinfo.value.sentence == "a b"
        assert mock_endpoint.posts == 1

    @pytest.mark.parametrize("status", [408, 429, 500, 503])
    def test_timeout_and_rate_limit_statuses_retry(self, mock_endpoint, status):
        mock_endpoint.behaviors = [lambda p: (status, {"error": "later"}), echo_logprobs]
        scorer = RemoteScorer(
            endpoint=mock_endpoint.url, model="test-lm", max_attempts=3
        )
        assert scorer.score("x y").total_logprob == pytest.approx(-1.0)
        assert mock_endpoint.posts == 2

    def test_own_session_pool_holds_max_inflight_connections(self, counting_endpoint):
        scorer = RemoteScorer(
            endpoint=counting_endpoint.url, model="test-lm", max_inflight=16
        )
        # switch threads often, so two workers racing for one idle connection
        # would show as a failed POST
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = score_each(scorer, [f"sentence {i} x" for i in range(64)])
        finally:
            sys.setswitchinterval(interval)
            scorer.close()
        assert all(isinstance(r, float) for r in results)
        # 64 requests, 16 at a time, over at most 16 kept-alive connections
        assert len(set(counting_endpoint.connections)) <= 16

    def test_injected_session_is_left_as_given(self, tmp_path):
        # a fresh interpreter, because pytest has already imported http.client
        done = subprocess.run(
            [sys.executable, "-c", _INJECTED_SESSION,
             str(Path(lm_scoring.__file__).resolve().parents[1]), str(tmp_path / "c.jsonl")],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr

    def test_https_endpoint_that_refuses_fails_after_its_attempts(self):
        scorer = RemoteScorer(endpoint="https://127.0.0.1:9/", max_attempts=1)
        with pytest.raises(TransportError, match="failed after 1 attempts"):
            scorer.score("x y")

    def test_a_reply_that_is_not_http_is_retried(self, clock):
        connections = []

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                connections.append(self.client_address)
                headers = {}
                while (line := self.rfile.readline().strip()):
                    name, _, value = line.decode().partition(":")
                    headers[name.lower()] = value.strip()
                self.rfile.read(int(headers["content-length"]))
                self.wfile.write(b"garbage\r\n\r\n")

        server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        thread.start()
        scorer = RemoteScorer(
            endpoint=f"http://127.0.0.1:{server.server_address[1]}/", max_attempts=2
        )
        try:
            with pytest.raises(TransportError, match="after 2 attempts: BadStatusLine"):
                scorer.score("x y")
        finally:
            server.shutdown()
            server.server_close()
            thread.join()
        assert len(connections) == 2
        assert clock.sleeps == [0.5]

    def test_a_connection_closed_while_idle_is_sent_again(self, counting_endpoint):
        scorer = RemoteScorer(endpoint=counting_endpoint.url, model="test-lm", max_attempts=1)
        connections = counting_endpoint.connections
        try:
            assert scorer.score("a b").total_logprob == -1.0
            # the server drops the connection the scorer keeps alive
            connections[0].shutdown(socket.SHUT_RDWR)
            assert scorer.score("c d").total_logprob == -1.0
        finally:
            scorer.close()
        assert len(connections) == 2 and connections[1] is not connections[0]


class TestFailingEndpointTime:
    """What a failing endpoint costs per distinct sentence today, in POSTs
    and in simulated seconds, at one POST in flight and the default
    ``max_attempts`` of 5. A paper-scale proxy ``cooc`` scores 32,085
    distinct sentences (1,395 object rows x 23 room labels), 4 in flight."""

    SENTENCES = ["a toilet", "a stove", "a toilet", "a bed"]  # three distinct

    def _all_fail(self, scorer) -> None:
        results = score_each(scorer, self.SENTENCES)
        assert all(isinstance(r, TransportError) for r in results)

    def test_dead_endpoint(self, mock_endpoint, clock):
        """503 on every POST: 5 POSTs and 0.5 + 1 + 2 + 4 = 7.5 s per
        sentence, so 32,085 x 7.5 s / 4 = 16.7 h before the stage exits 3."""
        mock_endpoint.behaviors = [lambda p: (503, {"error": "unavailable"})]
        self._all_fail(RemoteScorer(endpoint=mock_endpoint.url, max_inflight=1))
        assert mock_endpoint.posts == 5 * 3
        assert clock.sleeps == [0.5, 1.0, 2.0, 4.0] * 3
        assert clock.now == 7.5 * 3

    def test_hung_endpoint(self, clock):
        """Every POST times out: 5 POSTs and 5 x 60 s + 7.5 s = 307.5 s per
        sentence, so 32,085 x 307.5 s / 4 = 685 h before the stage exits 3."""
        posts = []

        class Hung:
            def post(self, url, *, json, headers, timeout):
                posts.append(json["prompt"])
                clock.now += timeout
                raise TimeoutError("timed out")

        self._all_fail(
            RemoteScorer(endpoint="http://127.0.0.1:9/", max_inflight=1, session=Hung())
        )
        assert len(posts) == 5 * 3
        assert clock.now == 307.5 * 3

    def test_unauthorised_endpoint(self, mock_endpoint, clock):
        """401 on every POST: 1 POST per sentence and no sleep, so 32,085
        POSTs before the stage exits 3."""
        mock_endpoint.behaviors = [lambda p: (401, {"error": "unauthorised"})]
        self._all_fail(RemoteScorer(endpoint=mock_endpoint.url, max_inflight=1))
        assert mock_endpoint.posts == 3
        assert clock.sleeps == []


_INTERRUPTED_POOL = """
import os
import signal
import sys
import threading
import time

sys.path.insert(0, sys.argv[1])
from roomsense.lm_scoring import SentenceScore, SentenceScorer, score_totals

calls = []


class Slow(SentenceScorer):
    max_inflight = 4
    identity = "slow"

    def score(self, sentence):
        calls.append(sentence)
        time.sleep(0.05)
        return SentenceScore(sentence, -1.0, 1, self.identity)


threading.Timer(0.3, os.kill, (os.getpid(), signal.SIGINT)).start()
try:
    score_totals(Slow(), [[f"sentence {i}"] for i in range(200)])
except KeyboardInterrupt:
    print(len(calls))
"""

_INJECTED_SESSION = """
import sys

sys.path.insert(0, sys.argv[1])
from roomsense.lm_scoring import CachingScorer, RemoteScorer


class Response:
    status_code = 200

    def json(self):
        return {"model": "stub", "tokens": ["a", "b"], "token_logprobs": [None, -1.5]}


class Session:
    def post(self, url, json=None, headers=None, timeout=None):
        return Response()

    def close(self):
        raise AssertionError("the scorer closed an injected session")


session = Session()
scorer = RemoteScorer(endpoint="http://127.0.0.1:9/", session=session)
assert scorer._session is session
assert scorer.score("a b").total_logprob == -1.5
assert "http.client" not in sys.modules
scorer.close()
CachingScorer(scorer, sys.argv[2]).close()
"""


@pytest.fixture
def counting_endpoint():
    with Endpoint(latency_s=0.05).serving() as endpoint:
        yield endpoint


class TestReferenceEndpoint:
    """The tests' one endpoint (``tests/endpoint.py``), seen through the scorer."""

    @pytest.mark.parametrize("refusing", [True, False], ids=["refusing", "next-test"])
    def test_each_test_starts_from_an_empty_schedule(self, mock_endpoint, refusing):
        # the second case runs after the first, which leaves a refusal scheduled
        state = mock_endpoint.behaviors, mock_endpoint.posts, mock_endpoint.authorizations
        assert state == ([], 0, [])
        if refusing:
            mock_endpoint.behaviors = [lambda p: (400, {"error": "refused"})]
        scorer = RemoteScorer(endpoint=mock_endpoint.url, max_attempts=1, api_key="sk-test")
        assert isinstance(score_each(scorer, ["x y"])[0], TransportError) is refusing
        assert mock_endpoint.authorizations == ["Bearer sk-test"]

    def test_the_script_serves_echo_until_sigterm(self):
        script = Path(__file__).with_name("endpoint.py")
        with subprocess.Popen([sys.executable, str(script)], stdout=subprocess.PIPE,
                              text=True) as server:
            try:
                port = int(server.stdout.readline())
                scorer = RemoteScorer(endpoint=f"http://127.0.0.1:{port}/v1/completions",
                                      max_attempts=1)
                assert scorer.score("a b c").total_logprob == -2.0
                scorer.close()
            finally:
                server.terminate()
            assert server.wait(timeout=30) == 0


class TestCloseReleasesConnections:
    """``close()`` closes every connection the scorer's own session opened,
    also through a cache (``test_injected_session_is_left_as_given`` shows
    that an injected session is not closed)."""

    @pytest.mark.parametrize("cached", [False, True], ids=["remote", "cached-remote"])
    def test_every_connection_the_scorer_opened_is_closed(
        self, counting_endpoint, tmp_path, cached
    ):
        scorer = RemoteScorer(endpoint=counting_endpoint.url, model="test-lm", max_inflight=4)
        if cached:
            scorer = CachingScorer(scorer, tmp_path / "scores.jsonl")
        results = score_each(scorer, [f"sentence {i} x" for i in range(8)])
        assert all(isinstance(r, float) for r in results)
        # kept alive, until the scorer is closed
        assert counting_endpoint.opened > 1 and counting_endpoint.closed == 0
        scorer.close()
        assert counting_endpoint.all_closed()
        # a closed scorer still scores, on a new connection
        assert isinstance(score_each(scorer, ["one more x"])[0], float)
        assert counting_endpoint.closed < counting_endpoint.opened
        scorer.close()
        assert counting_endpoint.all_closed()


class TestFlatScoringStage:
    """Each stage scores all of its sentences through one pool."""

    def test_classify_graph_fills_max_inflight(self, counting_endpoint):
        rooms = ["bed", "oven", "sink", "stove", "toilet", "lamp", "table", "chair"]
        graph = build_graph(
            {f"r{i}": ("bathroom", [label]) for i, label in enumerate(rooms)},
            room_labels=("bathroom", "kitchen"),
        )
        scorer = RemoteScorer(
            endpoint=counting_endpoint.url, model="test-lm", max_inflight=4
        )
        result = classify_graph(graph, count_ground_truth(graph, "things"), scorer, k=3)
        scorer.close()
        assert len(result.predictions) == len(rooms) and result.failures == ()
        # two sentences per room: a per-room barrier would cap this at 2
        assert counting_endpoint.peak == 4


class TestDistinctSentences:
    """A stage sends one request per distinct sentence."""

    def test_rooms_with_the_same_objects_share_their_posts(self, mock_endpoint):
        graph = build_graph(
            {
                "r-a": ("bathroom", ["toilet", "sink"]),
                "r-b": ("bathroom", ["sink", "toilet"]),
                "r-c": ("kitchen", ["stove"]),
            },
            room_labels=("bathroom", "kitchen"),
        )
        scorer = RemoteScorer(
            endpoint=mock_endpoint.url, model="test-lm", max_inflight=2
        )
        result = classify_graph(graph, count_ground_truth(graph, "things"), scorer, k=3)
        scorer.close()
        assert [p.room_id for p in result.predictions] == ["r-a", "r-b", "r-c"]
        a, b, _ = result.predictions
        assert a.selected_objects == b.selected_objects
        assert a.candidates == b.candidates
        # 6 sentences rendered, 4 distinct: r-a and r-b render the same two
        assert mock_endpoint.posts == 4

    def test_a_failing_shared_sentence_fails_every_room_using_it(self, mock_endpoint):
        def refuse_toilet_kitchen(payload):
            if "toilet" in payload["prompt"] and "kitchen" in payload["prompt"]:
                return 400, {"error": "refused"}
            return echo_logprobs(payload)

        mock_endpoint.behaviors = [refuse_toilet_kitchen]
        graph = build_graph(
            {
                "r-a": ("bathroom", ["toilet"]),
                "r-b": ("bathroom", ["toilet"]),
                "r-c": ("kitchen", ["stove"]),
            },
            room_labels=("bathroom", "kitchen"),
        )
        scorer = RemoteScorer(
            endpoint=mock_endpoint.url, model="test-lm", max_attempts=5
        )
        result = classify_graph(graph, count_ground_truth(graph, "things"), scorer, k=3)
        scorer.close()
        assert [p.room_id for p in result.predictions] == ["r-c"]
        assert [f.room_id for f in result.failures] == ["r-a", "r-b"]
        reasons = [f.reason.split(": ", 1)[1] for f in result.failures]
        assert reasons[0] == reasons[1]
        assert "backend refused the request" in reasons[0] and "400" in reasons[0]
        # the refused sentence is sent once and not retried
        assert mock_endpoint.posts == 4


class TestRemoteResumeThroughCli:
    """An ``infer`` cut short by a refusing endpoint resumes from its cache."""

    OK_POSTS = 5

    @pytest.mark.parametrize("model_flags", [
        pytest.param(["--model", "test-lm"], id="model"),
        pytest.param([], id="no-model",
                     marks=pytest.mark.xfail(strict=True, reason="ROADMAP bug (a)")),
    ])
    def test_rerun_posts_only_what_is_not_cached(
        self, tmp_path, mock_endpoint, monkeypatch, model_flags
    ):
        monkeypatch.delenv(lm_scoring.MODEL_ENV, raising=False)
        graph = build_graph(
            {
                "r-bath": ("bathroom", ["toilet", "shower", "sink"]),
                "r-bed": ("bedroom", ["bed", "pillow", "lamp"]),
                "r-kitchen": ("kitchen", ["stove", "oven", "table"]),
                "r-study": ("bedroom", ["chair", "table", "lamp"]),
            }
        )
        graph_path, cooc, out = tmp_path / "graph.txt", tmp_path / "cooc.tsv", tmp_path / "p.jsonl"
        write_scene_file(graph, graph_path)
        write_table(count_ground_truth(graph, "things"), cooc)
        cache = tmp_path / "cache"
        argv = [
            "infer", "--graph", str(graph_path), "--cooc", str(cooc), "--out", str(out),
            "--backend", "remote", "--endpoint", mock_endpoint.url, *model_flags,
            "--max-inflight", "1", "--cache-dir", str(cache),
        ]

        def run(behaviors):
            mock_endpoint.prompts.clear()
            mock_endpoint.behaviors = behaviors
            assert main(argv) == 0
            return list(mock_endpoint.prompts)

        # the endpoint refuses every POST after the first few, without a retry
        run([echo_logprobs] * self.OK_POSTS + [lambda p: (400, {"error": "quota exhausted"})])
        records = (cache / "scores.jsonl").read_text(encoding="utf-8").splitlines()
        cached = {json.loads(line)["sentence"] for line in records}
        assert len(cached) == self.OK_POSTS

        resumed_posts = run([echo_logprobs])
        resumed = out.read_bytes()

        # the same command from an empty cache on a healthy endpoint
        (cache / "scores.jsonl").unlink()
        out.unlink()
        distinct = run([echo_logprobs])
        assert len(distinct) == len(set(distinct)) > self.OK_POSTS
        assert sorted(resumed_posts) == sorted(set(distinct) - cached)
        assert resumed == out.read_bytes()


class TestMakeScorer:
    def test_offline_with_cache(self, tmp_path):
        scorer = make_scorer("offline", seed=4, cache_path=tmp_path / "c.jsonl")
        assert scorer.score("abc").total_logprob == pytest.approx(
            OfflineScorer(seed=4).score("abc").total_logprob
        )

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            make_scorer("quantum")
