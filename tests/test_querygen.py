import pytest
from hypothesis import given, strategies as st

from roomsense.querygen import (
    ARTICLE_LITERAL,
    QueryTemplate,
    render_proxy_query,
    render_room_queries,
)

from conftest import render_room_query

GRAMMATICAL = QueryTemplate()
LITERAL = QueryTemplate(article_mode=ARTICLE_LITERAL)

label = st.text(
    alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz"), min_size=1, max_size=8
)

# room labels: vowel-initial, the article exceptions, multi-word, and ones
# that only normalizing makes match a clean label
room_label = st.one_of(
    label,
    st.lists(label, min_size=2, max_size=3).map(" ".join),
    st.sampled_from([
        "utility room", "utility closet", "Utility  Room", " UTILITY closet ", "office",
        "entryway", "Upper Hall", "bathroom", "living\troom", "x",
    ]),
)


class TestGoldenSentences:
    def test_single_object(self):
        assert (
            render_room_query(["bed"], "bedroom", GRAMMATICAL)
            == "A room containing bed is called a bedroom."
        )

    def test_two_objects(self):
        assert (
            render_room_query(["desk", "chair"], "office", GRAMMATICAL)
            == "A room containing desk and chair is called an office."
        )

    def test_three_objects(self):
        assert (
            render_room_query(["toilet", "shower", "sink"], "bathroom", GRAMMATICAL)
            == "A room containing toilet, shower and sink is called a bathroom."
        )

    def test_five_objects(self):
        assert (
            render_room_query(["a", "b", "c", "d", "e"], "kitchen", GRAMMATICAL)
            == "A room containing a, b, c, d and e is called a kitchen."
        )

    def test_literal_article(self):
        assert (
            render_room_query(["toilet"], "bathroom", LITERAL)
            == "A room containing toilet is called a(n) bathroom."
        )
        assert (
            render_room_query(["desk"], "office", LITERAL)
            == "A room containing desk is called a(n) office."
        )

    def test_vowel_article(self):
        assert render_room_query(["desk"], "office", GRAMMATICAL).endswith(
            "is called an office."
        )

    def test_article_exception_list(self):
        assert render_room_query(["mop"], "utility room", GRAMMATICAL).endswith(
            "is called a utility room."
        )

    def test_multiword_labels_pass_through(self):
        assert (
            render_room_query(["washing machine", "dryer"], "laundry room", GRAMMATICAL)
            == "A room containing washing machine and dryer is called a laundry room."
        )

    def test_labels_lowercased(self):
        assert (
            render_room_query(["Toilet"], "Bathroom", GRAMMATICAL)
            == "A room containing toilet is called a bathroom."
        )


class TestProxyQuery:
    def test_matches_single_object_form(self):
        assert render_proxy_query("toilet", "bathroom") == render_room_query(
            ["toilet"], "bathroom"
        )

    def test_vowel_rule(self):
        assert render_proxy_query("oven", "office").endswith("an office.")

    def test_byte_identical_repeats(self):
        first = render_proxy_query("toilet", "bathroom")
        assert all(
            render_proxy_query("toilet", "bathroom") == first for _ in range(100)
        )


class TestContract:
    def test_empty_object_list_rejected(self):
        with pytest.raises(ValueError):
            render_room_query([], "bathroom")

    def test_unknown_article_mode_rejected(self):
        with pytest.raises(ValueError):
            render_room_query(["bed"], "bedroom", QueryTemplate(article_mode="shouting"))

    def test_version_tag_distinguishes_modes(self):
        assert QueryTemplate().version == "v1-grammatical"
        assert LITERAL.version == "v1-literal"

    @given(st.lists(label, min_size=1, max_size=6, unique=True), label)
    def test_object_list_round_trips_in_order(self, objects, room):
        sentence = render_room_query(objects, room)
        segment = sentence[len("A room containing "):sentence.index(" is called")]
        head, _, last = segment.rpartition(" and ")
        parsed = (head.split(", ") if head else []) + [last]
        assert parsed == objects

    @given(st.lists(label, min_size=1, max_size=8))
    def test_separator_and_conjunction_counts(self, objects):
        sentence = render_room_query(objects, "zzz")
        segment = sentence[len("A room containing "):sentence.index(" is called")]
        # a label may itself be "and", so the conjunction is found by position
        head, conjunction, last = segment.rpartition(" and ")
        n = len(objects)
        assert head.count(", ") == max(n - 2, 0)
        assert " and " not in head
        assert conjunction == (" and " if n >= 2 else "")
        assert last == objects[-1]


class TestRenderRoomQueries:
    @given(
        objects=st.lists(
            st.one_of(label, st.sampled_from(["Washing  Machine", " TV ", "and"])),
            min_size=1, max_size=6,
        ),
        room_labels=st.lists(room_label, max_size=8),
        template=st.sampled_from([GRAMMATICAL, LITERAL]),
    )
    def test_equals_one_label_at_a_time(self, objects, room_labels, template):
        assert render_room_queries(objects, room_labels, template) == [
            render_room_query(objects, r, template) for r in room_labels
        ]

    def test_one_sentence_per_label_in_label_order(self):
        assert render_room_queries(["Toilet", "sink"], ["Utility  Room", "office", "bathroom"]) == [
            "A room containing toilet and sink is called a utility room.",
            "A room containing toilet and sink is called an office.",
            "A room containing toilet and sink is called a bathroom.",
        ]

    def test_empty_object_list_rejected(self):
        with pytest.raises(ValueError):
            render_room_queries([], ["bathroom", "kitchen"])
