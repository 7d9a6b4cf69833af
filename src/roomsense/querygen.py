"""Render candidate query sentences from object labels and a room label.

Rendering is pure and byte-deterministic: the same inputs and template
version always produce the identical string. Every report and cache file
records the template version tag so results are traceable to the exact
string format.

The sentence shape is fixed: ``A room containing o1, o2 and o3 is called
a(n) label.`` with a plain separator between all but the last pair of
objects and a final conjunction (no Oxford comma) before the last one.
Object labels are inserted verbatim, lowercased, with no pluralization or
determiners; multi-word labels pass through unmodified.

A room's candidate sentences differ only in their tail (article and room
label), so :func:`render_room_queries` normalizes and joins the object
phrase once and renders one tail per room label. :func:`render_proxy_query`
is its one-object, one-label case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .scene_model import normalize_label

ARTICLE_GRAMMATICAL = "grammatical"
ARTICLE_LITERAL = "literal"

# Room labels whose leading vowel letter takes "a" anyway (consonant sound).
_AN_EXCEPTIONS = frozenset({"utility room", "utility closet"})

_VOWELS = frozenset("aeiou")


@dataclass(frozen=True)
class QueryTemplate:
    """String format for query sentences.

    ``article_mode`` selects how "a(n)" is resolved: ``grammatical`` picks
    "a"/"an" from the room label's leading letter (with an exception list
    for vowel-letter/consonant-sound labels such as "utility room"),
    ``literal`` keeps the unresolved "a(n)" for ablation runs.
    """

    article_mode: str = ARTICLE_GRAMMATICAL

    @property
    def version(self) -> str:
        """Tag identifying the exact rendered format."""
        return f"v1-{self.article_mode}"


def _article_for(room_label: str, mode: str) -> str:
    if mode == ARTICLE_LITERAL:
        return "a(n)"
    if mode != ARTICLE_GRAMMATICAL:
        raise ValueError(f"unknown article mode {mode!r}")
    if room_label in _AN_EXCEPTIONS:
        return "a"
    if room_label and room_label[0] in _VOWELS:
        return "an"
    return "a"


def _join_objects(labels: list[str]) -> str:
    if len(labels) == 1:
        return labels[0]
    return ", ".join(labels[:-1]) + " and " + labels[-1]


def render_room_queries(
    objects: Iterable[str],
    room_labels: Iterable[str],
    template: QueryTemplate | None = None,
) -> list[str]:
    """Render one candidate sentence per room label, in room-label order.

    ``objects`` must already be ordered ascending by entropy; every sentence
    preserves the given order exactly. Raises ``ValueError`` on an empty
    object list.
    """
    if template is None:
        template = QueryTemplate()
    labels = [normalize_label(o) for o in objects]
    if not labels:
        raise ValueError("query needs at least one object label")
    head = f"A room containing {_join_objects(labels)} is called"
    mode = template.article_mode
    return [
        f"{head} {_article_for(room, mode)} {room}."
        for room in map(normalize_label, room_labels)
    ]


def render_proxy_query(
    object_label: str, room_label: str, template: QueryTemplate | None = None
) -> str:
    """Single-object sentence used when building proxy co-occurrence rows."""
    return render_room_queries([object_label], [room_label], template)[0]
