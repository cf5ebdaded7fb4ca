"""Atomic file writes: unique temp files, cleanup on failure, final mode."""

import os

import pytest

from hardyframes import io


def current_umask():
    mask = os.umask(0o22)
    os.umask(mask)
    return mask


def test_replaces_target_with_text(tmp_path):
    target = tmp_path / "report.json"
    target.write_text("stale", encoding="utf-8")
    io.write_text_atomic(target, "fresh\n")
    assert target.read_text(encoding="utf-8") == "fresh\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_final_mode_follows_umask(tmp_path):
    target = tmp_path / "report.json"
    io.write_text_atomic(target, "{}\n")
    assert target.stat().st_mode & 0o777 == 0o666 & ~current_umask()


def test_each_write_uses_a_distinct_temp_file(tmp_path, monkeypatch):
    sources = []
    real_replace = os.replace

    def recording_replace(src, dst):
        sources.append(os.fspath(src))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", recording_replace)
    target = tmp_path / "report.json"
    for text in ("a", "b", "c"):
        io.write_text_atomic(target, text)
    assert len(set(sources)) == 3
    assert all(os.path.dirname(src) == str(tmp_path) for src in sources)
    assert all(os.path.basename(src) != "report.json.tmp" for src in sources)
    assert target.read_text(encoding="utf-8") == "c"


def test_failed_replace_removes_temp_file(tmp_path, monkeypatch):
    target = tmp_path / "report.json"
    target.write_text("stale", encoding="utf-8")

    def failing_replace(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="simulated"):
        io.write_json_atomic(target, {"a": 1})
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
    assert target.read_text(encoding="utf-8") == "stale"


def test_failed_write_removes_temp_file(tmp_path):
    target = tmp_path / "report.json"
    with pytest.raises(UnicodeEncodeError):
        io.write_text_atomic(target, "\ud800")
    assert list(tmp_path.iterdir()) == []
