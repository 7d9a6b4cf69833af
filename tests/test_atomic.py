import contextlib
import json
import os
import re
import signal
import stat
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from roomsense import atomic, house_convert, ingest
from roomsense.atomic import atomic_write, read_lines
from roomsense.cli import main
from roomsense.cooccurrence import read_table
from roomsense.inference import read_predictions
from roomsense.lm_scoring import CachingScorer, load_bonus_table

from test_house_convert import HOUSE_TEXT


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


# A child that SIGKILLs itself inside the block, after its first write.
_KILLED_WRITER = """
import os, signal, sys
sys.path.insert(0, sys.argv[1])
from roomsense.atomic import atomic_write
with atomic_write(sys.argv[2]) as handle:
    handle.write("half of the new")
    handle.flush()
    os.kill(os.getpid(), signal.SIGKILL)
"""


@pytest.mark.skipif(os.name != "posix", reason="killed writers are swept on POSIX only")
def test_a_rerun_removes_the_file_a_killed_writer_left(tmp_path):
    path = tmp_path / "p.jsonl"
    src = Path(atomic.__file__).resolve().parents[1]
    child = subprocess.run([sys.executable, "-c", _KILLED_WRITER, src, path], timeout=60)
    assert child.returncode == -signal.SIGKILL
    (left,) = os.listdir(tmp_path)
    pid = re.fullmatch(r"\.p\.jsonl\.([0-9]+)\.[0-9a-f]{8}\.tmp", left)[1]
    # a live writer's file, and files no writer of p.jsonl names so, stay
    kept = [f".p.jsonl.{os.getpid()}.0123abcd.tmp", f".p.jsonl.{pid}.0123abcd.tmp.bak",
            f".q.jsonl.{pid}.0123abcd.tmp"]
    for name in kept:
        (tmp_path / name).write_text("")
    with atomic_write(path) as handle:
        handle.write("new\n")
    assert sorted(os.listdir(tmp_path)) == sorted(["p.jsonl", *kept])


def test_permissions_match_a_plain_open(tmp_path):
    plain = tmp_path / "plain.txt"
    with open(plain, "w", encoding="utf-8") as handle:
        handle.write("x")
    replaced = tmp_path / "replaced.txt"
    with atomic_write(replaced) as handle:
        handle.write("x")
    assert stat.S_IMODE(replaced.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)


@pytest.mark.skipif(os.name != "posix", reason="a directory is fsynced on POSIX only")
def test_every_file_the_chain_writes_reaches_disk_before_and_after_its_rename(
    tmp_path, monkeypatch
):
    # the order of calls an OS crash could cut (Pillai et al., OSDI 2014):
    # each file's data is synced before it is renamed into place, and its
    # directory after, so the new name never points at unsynced data. What a
    # power loss leaves behind cannot be tested from inside the process.
    monkeypatch.chdir(tmp_path)
    Path("h0.house").write_text(HOUSE_TEXT)
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def identity(st):
        return st.st_dev, st.st_ino

    def fsync(fd):
        calls.append(("fsync", identity(os.fstat(fd))))
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", identity(os.stat(src)), os.fspath(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    for argv in [
        ("convert", "--house", "h0.house", "--out", "scene.txt"),
        ("ingest", "--scene", "scene.txt", "--out", "clean.txt"),
        ("cooc", "--graph", "clean.txt", "--out", "gt.tsv"),
        ("cooc", "--graph", "clean.txt", "--out", "proxy.tsv", "--mode", "proxy"),
        ("infer", "--graph", "clean.txt", "--cooc", "gt.tsv", "--out", "gt.jsonl"),
        ("infer", "--graph", "clean.txt", "--cooc", "proxy.tsv", "--out", "proxy.jsonl"),
        ("eval", "gt.jsonl", "proxy.jsonl", "--out-dir", "reports"),
    ]:
        assert main(list(argv)) == 0

    replaced = []
    for at, call in enumerate(calls):
        if call[0] == "replace":
            _, temporary, path = call
            directory = identity(os.stat(os.path.dirname(os.path.abspath(path))))
            assert calls[at - 1:at + 2] == [("fsync", temporary), call, ("fsync", directory)]
            replaced.append(path)
    assert len(calls) == 3 * len(replaced)
    data = [
        "scene.txt", "clean.txt", "gt.tsv", "proxy.tsv", "gt.jsonl", "proxy.jsonl",
        *(f"reports/{stem}.report.json" for stem in ("gt", "proxy")),
        "reports/conditions.txt",
    ]
    assert sorted(replaced) == sorted([
        *data,
        *(f"{path}.manifest.json" for path in data),
        *(f"reports/{stem}.{kind}" for stem in ("gt", "proxy")
          for kind in ("report.txt", "breakdown.csv")),
    ])


def test_score_cache_reaches_disk_once_per_stage_after_its_last_record(tmp_path, monkeypatch):
    # never once per record: each scoring stage syncs the cache when its
    # scoring ends, so its records are on disk before its output is written
    monkeypatch.chdir(tmp_path)
    Path("h0.house").write_text(HOUSE_TEXT)
    for argv in [
        ("convert", "--house", "h0.house", "--out", "scene.txt"),
        ("ingest", "--scene", "scene.txt", "--out", "clean.txt"),
    ]:
        assert main(list(argv)) == 0
    calls = []
    real_fsync, real_replace = os.fsync, os.replace
    real_append = CachingScorer._append

    def fsync(fd):
        calls.append(("fsync", os.fstat(fd)))
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", os.fspath(dst)))
        real_replace(src, dst)

    def append(self, score):
        real_append(self, score)
        calls.append(("append",))

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(CachingScorer, "_append", append)
    cache = Path("cache", "scores.jsonl")
    for argv, out in [
        (("cooc", "--graph", "clean.txt", "--mode", "proxy"), "proxy.tsv"),
        (("infer", "--graph", "clean.txt", "--cooc", "proxy.tsv"), "proxy.jsonl"),
    ]:
        calls.clear()
        assert main([*argv, "--out", out, "--cache-dir", "cache"]) == 0
        seen = [
            call[0] for call in calls
            if call[0] == "append" or call == ("replace", out)
            or call[0] == "fsync" and os.path.samestat(call[1], os.stat(cache))
        ]
        appends = seen.count("append")
        assert appends > 0
        assert seen == ["append"] * appends + ["fsync", "replace"]


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
    with pytest.raises(ValueError) as raised:
        reader(path)
    # the traceback, which holds the reader's frame, is still alive here
    assert raised.traceback
    assert not open_fds_on(path)
