"""The append-only log (`AppendLog`) and the snapshot frame
(`read_snapshot`, `write_snapshot`), driven without a store where they can
be."""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import stat
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rebel.core import Objective, PerformanceRecord, PreferenceVector
from rebel.llm import StubProvider, TranscriptRecorder, heuristic_allocate
from rebel.log import AppendLog, CorruptLogError, Prefix, read_snapshot, write_snapshot
from rebel.pipeline import generate_rules
from rebel.retrieval import ExperienceDatabase, HashedEmbedder, RulesDatabase, embed_scenario_sections
from conftest import DEEPLY_NESTED, make_scenario


def _id(payload):
    """A convert for `read_all`: the payload's id, or `KeyError`."""
    return payload["id"]


def _log_of(path, ids) -> AppendLog:
    """A log at `path` that appended one `{"id": i}` line per id."""
    log = AppendLog(path)
    for i in ids:
        log.append(log.line({"id": i}, f"entry {i}"))
    return log


def _store_one(db, objective):
    scenario = make_scenario()
    plan = heuristic_allocate(scenario, PreferenceVector.single(objective))
    embeddings = embed_scenario_sections(scenario, HashedEmbedder(dim=16))
    return db.store(objective, scenario, plan, PerformanceRecord(5, 100, 0.1), embeddings)


class TestTornLogTail:
    """A crash mid-append leaves a final line with no newline; loading skips
    it with a warning and the next append writes a clean line after it."""

    def test_torn_experience_tail_is_skipped_then_overwritten(self, tmp_path, caplog):
        path = tmp_path / "exp.jsonl"
        db = ExperienceDatabase(path)
        _store_one(db, Objective.MISSION_TIME)
        _store_one(db, Objective.HUMAN_WORKLOAD)
        with open(path, "ab") as handle:
            handle.write(b'{"emb_humans": [0.25, 0.')
        torn = path.read_bytes()
        with caplog.at_level(logging.WARNING, logger="rebel.log"):
            db = ExperienceDatabase(path)
        assert len(db) == 2
        assert "torn final line" in caplog.text
        assert path.read_bytes() == torn  # loading alone never rewrites
        _store_one(db, Objective.TASK_PERFORMANCE)
        reloaded = ExperienceDatabase(path)
        assert len(reloaded) == 3
        assert reloaded.records() == db.records()

    def test_torn_rules_tail_is_skipped_then_overwritten(self, tmp_path, caplog):
        path = tmp_path / "rules.jsonl"
        RulesDatabase(path).store(Objective.MISSION_TIME, "kept rule")
        with open(path, "ab") as handle:
            handle.write(b'{"id": 1, "kind": "ru')
        with caplog.at_level(logging.WARNING, logger="rebel.log"):
            db = RulesDatabase(path)
        assert [r.text for r in db.rules()] == ["kept rule"]
        assert "torn final line" in caplog.text
        db.store(Objective.MISSION_TIME, "next rule")
        assert [r.text for r in RulesDatabase(path).rules()] == ["kept rule", "next rule"]

    def test_complete_final_record_without_newline_is_kept(self, tmp_path):
        path = tmp_path / "log.jsonl"
        _log_of(path, [0, 1])
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        log = AppendLog(path)
        assert list(log.read_all(_id)) == [0, 1]
        log.append(log.line({"id": 2}, "entry 2"))
        assert path.read_bytes() == b'{"id": 0}\n{"id": 1}\n{"id": 2}\n'

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "log.jsonl"
        first, second = b'{"id": 0}\n', b'{"id": 1}\n'
        path.write_bytes(first + first[: len(first) // 2] + b"\n" + second)
        with pytest.raises(CorruptLogError, match=re.escape(f"{path}, line 2: not JSON: ")):
            list(AppendLog(path).read_all(_id))


class TestFailedLoadLeavesTheLog:
    """A load that fails on a bad middle line sets no repair for the next
    append, even with a torn final line after it, and rewrites nothing."""

    @pytest.mark.parametrize("bad", ['{"kind": "experience"}', '{"emb_humans": [0.25, 0.'])
    def test_no_repair_and_no_rewrite(self, tmp_path, bad):
        path = tmp_path / "log.jsonl"
        path.write_text('{"id": 0}\n' + bad + '\n{"id": 1}\n{"emb_humans": [0.25, 0.', encoding="utf-8")
        before = path.read_bytes()
        log = AppendLog(path)
        with pytest.raises(CorruptLogError, match="line 2"):
            list(log.read_all(_id))
        assert log._repair is None
        assert path.read_bytes() == before

    def test_a_bad_complete_final_line_sets_no_repair(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"id": 0}\n{"id": 1}\n{"kind": "experience"}', encoding="utf-8")
        log = AppendLog(path)
        with pytest.raises(CorruptLogError, match="line 3"):
            list(log.read_all(_id))
        assert log._repair is None


# A final line past the 64 KiB read buffer, so finding it from the end of
# the file takes more than one read.
_LONG = json.dumps({"id": 9, "text": "x" * 70_000}).encode("utf-8")

# what may follow a log's whole lines: nothing, a torn append (not JSON,
# nested too deeply, or a long one), a whole entry with no newline, or blanks
_TAILS = {
    "none": b"",
    "torn": b'{"id": 5, "te',
    "torn_nested": DEEPLY_NESTED.encode("utf-8"),
    "torn_long": _LONG[:-3],
    "unterminated": b'{"id": 5}',
    "unterminated_long": _LONG,
    "blank": b"  ",
    "long_whole_line": _LONG + b"\n",
}


class TestOneTailRule:
    """A log's first append repairs the file's final line by the rule a read
    applies (`_tail_repair`), whether or not the log read the file first, and
    finds that line at most once per log object."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 99), max_size=4), st.sampled_from(sorted(_TAILS)))
    def test_an_append_to_a_log_never_read_writes_what_one_after_a_read_does(
        self, tmp_path_factory, ids, tail
    ):
        directory = tmp_path_factory.mktemp("tail")
        unread, read = directory / "unread.jsonl", directory / "read.jsonl"
        whole = b"".join(b'{"id": %d}\n' % i for i in ids) + _TAILS[tail]
        unread.write_bytes(whole)
        read.write_bytes(whole)
        log = AppendLog(read)
        list(log.read_all(_id))
        log.append(log.line({"id": 100}, "entry 100"))
        log = AppendLog(unread)
        log.append(log.line({"id": 100}, "entry 100"))
        assert unread.read_bytes() == read.read_bytes()
        kept = whole if tail not in ("torn", "torn_nested", "torn_long") else whole[: -len(_TAILS[tail])]
        if tail.startswith("unterminated"):
            kept += b"\n"
        assert unread.read_bytes() == kept + b'{"id": 100}\n'

    def test_a_file_of_one_torn_line_is_cut_whole(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(_LONG[:-3])
        _log_of(path, [1])
        assert path.read_bytes() == b'{"id": 1}\n'

    def test_a_log_finds_its_tail_once_and_a_store_never(self, tmp_path, monkeypatch):
        calls = []
        real = AppendLog._final_line_repair

        def counting(log):
            calls.append(log.path.name)
            return real(log)

        monkeypatch.setattr(AppendLog, "_final_line_repair", counting)
        _log_of(tmp_path / "log.jsonl", [0, 1, 2])
        assert calls == ["log.jsonl"]
        rules = RulesDatabase(tmp_path / "rules.jsonl")  # no file yet
        rules.store(Objective.MISSION_TIME, "one")
        RulesDatabase(tmp_path / "rules.jsonl").store(Objective.MISSION_TIME, "two")
        db = ExperienceDatabase(tmp_path / "exp.jsonl")
        _store_one(db, Objective.MISSION_TIME)
        _store_one(ExperienceDatabase(tmp_path / "exp.jsonl"), Objective.HUMAN_WORKLOAD)
        assert calls == ["log.jsonl"]


    @pytest.mark.parametrize("round", range(10))
    def test_threads_sharing_a_log_never_read_repair_its_tail_once(self, tmp_path, round):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"id": 0}\n{"id": 1, "te')
        log = AppendLog(path)
        errors = []
        together = threading.Barrier(8, timeout=60)

        def append_all(start):
            try:
                together.wait()  # so the first appends race
                for i in range(start, 41, 8):
                    log.append(log.line({"id": i}, f"entry {i}"))
            except Exception as exc:  # reported by the assertions below
                errors.append(exc)

        threads = [threading.Thread(target=append_all, args=(start,)) for start in range(1, 9)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(thread.is_alive() for thread in threads)
        assert sorted(AppendLog(path).read_all(_id)) == list(range(41))


class TestTranscriptTornTail:
    """A transcript is never read, so its first append finds a torn final
    line itself: the next run cuts it, and every line of the file parses."""

    def _run(self, path):
        generate_rules(tuple(Objective), TranscriptRecorder(StubProvider(), path), RulesDatabase())

    def test_a_torn_exchange_is_cut_before_the_next_run(self, tmp_path, caplog):
        path = tmp_path / "t.jsonl"
        self._run(path)
        first = path.read_bytes()
        with open(path, "ab") as handle:
            handle.write(first.splitlines(keepends=True)[0][:40])
        with caplog.at_level(logging.WARNING, logger="rebel.log"):
            self._run(path)
        assert path.read_bytes() == first + first
        assert all(json.loads(line) for line in path.read_bytes().splitlines())
        assert "skipping torn final line (40 bytes)" in caplog.text

    def test_a_whole_exchange_without_a_newline_is_ended(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._run(path)
        first = path.read_bytes()
        path.write_bytes(first.removesuffix(b"\n"))
        self._run(path)
        assert path.read_bytes() == first + first


def _written(tmp_path, body=b"the records"):
    """A two-line log, a snapshot of its first line holding `body`, and
    their paths."""
    log, snapshot = tmp_path / "log.jsonl", tmp_path / "log.jsonl.snapshot"
    log.write_bytes(b'{"id": 0}\n{"id": 1}\n')
    prefix = Prefix(0, 0, 0, hashlib.sha256())
    prefix.advance(b'{"id": 0}\n', 1)
    write_snapshot(snapshot, log, lambda: body, prefix)
    return log, snapshot


def _restore(body):
    """The snapshot body as one record."""
    return [bytes(body)]


class TestSnapshotFrame:
    """A snapshot frames its records with a magic line, its own sha256 and the
    size, line count and sha256 of the log prefix it covers. A read uses one
    only when all of them hold; anything else costs a full parse, logged at
    debug level only, and neither function raises."""

    def test_a_written_snapshot_reads_back(self, tmp_path):
        log, snapshot = _written(tmp_path)
        records, prefix = read_snapshot(snapshot, log, _restore)
        assert records == [b"the records"]
        assert (prefix.size, prefix.lines, prefix.items) == (10, 1, 1)
        assert prefix.digest.digest() == hashlib.sha256(b'{"id": 0}\n').digest()
        assert sorted(os.listdir(tmp_path)) == ["log.jsonl", "log.jsonl.snapshot"]

    def test_a_corrupt_frame_is_logged_at_debug_level_only(self, tmp_path, caplog):
        log, snapshot = _written(tmp_path)
        data = bytearray(snapshot.read_bytes())
        data[-1] ^= 1
        snapshot.write_bytes(bytes(data))
        with caplog.at_level(logging.DEBUG, logger="rebel.log"):
            records, prefix = read_snapshot(snapshot, log, _restore)
        assert records == () and (prefix.size, prefix.lines, prefix.items) == (0, 0, 0)
        assert [(r.levelno, r.getMessage().split(": ")[:2]) for r in caplog.records] == [
            (logging.DEBUG, [str(snapshot), "not used, the whole log is parsed"])
        ]

    @pytest.mark.parametrize("fault", [
        "deleted", "truncated", "flipped_magic", "flipped_hash", "a_directory", "stale", "log_shorter", "ValueError",
    ])
    def test_a_faulty_snapshot_is_not_used(self, tmp_path, caplog, fault):
        log, snapshot = _written(tmp_path)
        data = snapshot.read_bytes()
        restore = _restore
        if fault == "deleted":
            snapshot.unlink()
        elif fault == "truncated":
            snapshot.write_bytes(data[:40])
        elif fault.startswith("flipped"):
            position = 0 if fault == "flipped_magic" else 30
            snapshot.write_bytes(data[:position] + bytes([data[position] ^ 1]) + data[position + 1 :])
        elif fault == "a_directory":
            snapshot.unlink()
            snapshot.mkdir()
        elif fault == "stale":
            log.write_bytes(b'{"id": 7}\n{"id": 1}\n')
        elif fault == "log_shorter":
            log.write_bytes(b'{"id"')
        else:

            def restore(body):
                raise ValueError("bad body")

        with caplog.at_level(logging.DEBUG, logger="rebel.log"):
            records, prefix = read_snapshot(snapshot, log, restore)
        assert records == () and (prefix.size, prefix.lines, prefix.items) == (0, 0, 0)
        assert [r.levelno for r in caplog.records] == [logging.DEBUG]

    @pytest.mark.parametrize("fault", ["ValueError", "OverflowError", "a_directory"])
    def test_a_failed_write_leaves_no_file(self, tmp_path, caplog, fault):
        log, snapshot = tmp_path / "log.jsonl", tmp_path / "log.jsonl.snapshot"
        log.write_bytes(b'{"id": 0}\n')
        if fault == "a_directory":
            snapshot.mkdir()

        def body():
            if fault == "a_directory":
                return b"the records"
            raise {"ValueError": ValueError, "OverflowError": OverflowError}[fault]("not encodable")

        with caplog.at_level(logging.DEBUG, logger="rebel.log"):
            write_snapshot(snapshot, log, body, Prefix(0, 0, 0, hashlib.sha256()))
        left = ["log.jsonl", "log.jsonl.snapshot"] if fault == "a_directory" else ["log.jsonl"]
        assert sorted(os.listdir(tmp_path)) == left  # no temporary file
        assert [(r.levelno, r.getMessage().split(": ")[:2]) for r in caplog.records] == [
            (logging.DEBUG, [str(snapshot), "not written"])
        ]

    def test_the_snapshot_has_the_logs_permission_bits(self, tmp_path):
        log = tmp_path / "log.jsonl"
        log.write_bytes(b'{"id": 0}\n')
        log.chmod(0o604)
        snapshot = tmp_path / "log.jsonl.snapshot"
        write_snapshot(snapshot, log, lambda: b"", Prefix(0, 0, 0, hashlib.sha256()))
        assert stat.S_IMODE(snapshot.stat().st_mode) == 0o604
