import contextlib
import json
import os
import re
import stat

import pytest
from hypothesis import example, given, strategies as st

from roomsense import house_convert, ingest
from roomsense.atomic import atomic_write, read_lines
from roomsense.cooccurrence import read_table
from roomsense.inference import read_predictions
from roomsense.ingest import DataError
from roomsense.lm_scoring import load_bonus_table


class Interrupted(Exception):
    pass


def test_completed_block_replaces_the_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with atomic_write(path) as handle:
        handle.write("new\n")
        assert path.read_text() == "old\n"  # nothing visible until the block ends
    assert path.read_text() == "new\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_failed_block_leaves_previous_file_and_no_stray_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with pytest.raises(Interrupted):
        with atomic_write(path) as handle:
            handle.write("half of the new")
            raise Interrupted
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_failed_first_write_creates_nothing(tmp_path):
    path = tmp_path / "out.txt"
    with pytest.raises(Interrupted):
        with atomic_write(path):
            raise Interrupted
    assert os.listdir(tmp_path) == []


def test_permissions_match_a_plain_open(tmp_path):
    plain = tmp_path / "plain.txt"
    with open(plain, "w", encoding="utf-8") as handle:
        handle.write("x")
    replaced = tmp_path / "replaced.txt"
    with atomic_write(replaced) as handle:
        handle.write("x")
    assert stat.S_IMODE(replaced.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)


# every separator str.splitlines knows
SEPARATORS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")

pieces = st.one_of(st.sampled_from(SEPARATORS), st.text(max_size=12))
texts = st.one_of(
    st.lists(pieces).map("".join),
    # a "\r\n" that straddles the 8 KiB read buffer, or sits at its end
    st.tuples(st.integers(8186, 8194), st.lists(pieces)).map(
        lambda t: "x" * t[0] + "\r\n" + "".join(t[1])
    ),
    # many 16 KiB blocks of lines
    st.tuples(st.lists(pieces, min_size=1), st.integers(1, 4000)).map(
        lambda t: "".join(t[0]) * t[1]
    ),
)


@given(text=texts)
@example(text="")
@example(text="one\ntwo\n")
@example(text="a\r\nb\r")
def test_read_lines_gives_the_lines_splitlines_gives(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "lines.txt"
    path.write_bytes(text.encode("utf-8"))
    assert list(read_lines(path)) == path.read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("lines_before", [0, 5000], ids=["first-block", "later-block"])
def test_line_that_is_not_utf8_names_path_and_line(tmp_path, lines_before):
    path = tmp_path / "in.txt"
    path.write_bytes(b"line\n" * lines_before + b"first\x0bsecond\nthird \xff\nfourth\n")
    seen = []
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{lines_before + 3}: "):
        seen.extend(read_lines(path))
    # the lines before the one at fault were yielded first, in order
    assert seen == ["line"] * lines_before + ["first", "second"]
    assert not open_fds_on(path)


def test_undecodable_line_can_be_replaced(tmp_path):
    path = tmp_path / "in.txt"
    path.write_bytes(b"first\n\xff\x0b\xfe\nlast")
    assert list(read_lines(path, undecodable="?")) == ["first", "?", "last"]


def open_fds_on(path) -> list[str]:
    """The descriptors this process holds open on ``path``."""
    fd_dir = "/proc/self/fd"
    if not os.path.isdir(fd_dir):
        pytest.skip("needs /proc/self/fd")
    target = os.path.realpath(path)
    found = []
    for fd in os.listdir(fd_dir):
        with contextlib.suppress(OSError):
            if os.readlink(os.path.join(fd_dir, fd)) == target:
                found.append(fd)
    return found


def test_file_closes_when_the_caller_stops_early(tmp_path):
    path = tmp_path / "in.txt"
    path.write_text("a\nb\nc\n")
    lines = read_lines(path)
    assert next(lines) == "a"
    assert open_fds_on(path)
    lines.close()
    assert not open_fds_on(path)
    lines = read_lines(path)
    next(lines)
    del lines
    assert not open_fds_on(path)


_PREDICTIONS_HEADER = json.dumps({
    "kind": "header", "format": "roomsense-predictions/v1", "object_space": "nyuclass",
    "provenance": "ground_truth", "k": 3, "template_version": "v1", "backend": "offline",
})

# every reader of a text file, with a valid first line and an invalid second one
READERS = [
    pytest.param(ingest.parse_scene_file, "scenegraph\tv1\tspaces=a\trooms=bathroom,kitchen",
                 "bogus", id="scene"),
    pytest.param(ingest.load_spelling_fixes, "chiar\tchair", "one field", id="spelling"),
    pytest.param(house_convert.parse_house_file, "H house", "R x", id="house"),
    pytest.param(house_convert.load_category_map, "index\tnyuClass", "x\tchair",
                 id="category-map"),
    pytest.param(read_table, "# roomsense-cooccurrence v1", "# alpha: nan", id="table"),
    pytest.param(read_predictions, _PREDICTIONS_HEADER, "{", id="predictions"),
    pytest.param(load_bonus_table, "bed\tbedroom\t1.0", "bed", id="bonus"),
]


@pytest.mark.parametrize("reader, first, bad", READERS)
def test_reader_names_the_line_that_is_not_utf8(tmp_path, reader, first, bad):
    path = tmp_path / "input"
    path.write_bytes(first.encode() + b"\nnot \xff UTF-8\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: not UTF-8: "):
        reader(path)


@pytest.mark.parametrize("reader, first, bad", READERS)
def test_reader_that_raises_mid_file_leaves_it_closed(tmp_path, reader, first, bad):
    path = tmp_path / "input"
    path.write_text("\n".join([first, bad, *["# never read"] * 10_000]) + "\n")
    with pytest.raises((ValueError, DataError)) as raised:
        reader(path)
    # the traceback, which holds the reader's frame, is still alive here
    assert raised.traceback
    assert not open_fds_on(path)
