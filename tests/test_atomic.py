import os
import stat

import pytest

from roomsense.atomic import atomic_write


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
