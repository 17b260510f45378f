"""Tests for the per-MDT ChangeLog."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ChangelogError, ChangelogUserError
from repro.lustre.changelog import (
    ChangeLog,
    ChangelogFlag,
    ChangelogRecord,
    RecordType,
)
from repro.lustre.fid import Fid
from repro.util.clock import ManualClock

TARGET = Fid(0x200000402, 0xA046)
PARENT = Fid(0x200000007, 0x1)


def make_log(**kwargs):
    return ChangeLog(0, clock=ManualClock(1_504_728_937.1138), **kwargs)


class TestRecordFormat:
    def test_mnemonics_match_lustre(self):
        assert RecordType.CREAT.mnemonic == "01CREAT"
        assert RecordType.MKDIR.mnemonic == "02MKDIR"
        assert RecordType.UNLNK.mnemonic == "06UNLNK"
        assert RecordType.SATTR.mnemonic == "14SATTR"

    def test_mnemonic_is_one_shared_string(self):
        # Every event of a batch then references one object, which
        # marshal writes once per batch.
        assert RecordType.CREAT.mnemonic is RecordType.CREAT.mnemonic

    def test_from_mnemonic_roundtrip(self):
        for rec_type in RecordType:
            assert RecordType.from_mnemonic(rec_type.mnemonic) is rec_type

    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(ChangelogError):
            RecordType.from_mnemonic("99NOPE")

    def test_format_matches_table1_layout(self):
        record = ChangelogRecord(
            13106, RecordType.CREAT, 1_504_728_937.1138,
            ChangelogFlag.NONE, TARGET, PARENT, "data1.txt",
        )
        fields = record.format().split()
        assert fields[0] == "13106"
        assert fields[1] == "01CREAT"
        assert fields[3] == "2017.09.06"
        assert fields[4] == "0x0"
        assert fields[5] == "t=[0x200000402:0xa046:0x0]"
        assert fields[6] == "p=[0x200000007:0x1:0x0]"
        assert fields[7] == "data1.txt"

    def test_unlink_last_flag_formats_as_0x1(self):
        record = ChangelogRecord(
            1, RecordType.UNLNK, 0.0, ChangelogFlag.UNLINK_LAST,
            TARGET, PARENT, "f",
        )
        assert record.format().split()[4] == "0x1"

    def test_parse_roundtrip(self):
        record = ChangelogRecord(
            42, RecordType.MKDIR, 1_504_728_937.5,
            ChangelogFlag.NONE, TARGET, PARENT, "DataDir",
        )
        parsed = ChangelogRecord.parse(record.format())
        assert parsed.index == 42
        assert parsed.rec_type is RecordType.MKDIR
        assert parsed.target_fid == TARGET
        assert parsed.parent_fid == PARENT
        assert parsed.name == "DataDir"
        assert parsed.timestamp == pytest.approx(record.timestamp, abs=1e-3)

    def test_parse_name_with_spaces(self):
        record = ChangelogRecord(
            1, RecordType.CREAT, 0.0, ChangelogFlag.NONE,
            TARGET, PARENT, "my data file.txt",
        )
        assert ChangelogRecord.parse(record.format()).name == "my data file.txt"

    def test_parse_short_line_rejected(self):
        with pytest.raises(ChangelogError):
            ChangelogRecord.parse("1 01CREAT")

    def test_is_namespace_change(self):
        namespace = ChangelogRecord(
            1, RecordType.CREAT, 0.0, ChangelogFlag.NONE, TARGET, PARENT, "f"
        )
        attribute = ChangelogRecord(
            2, RecordType.SATTR, 0.0, ChangelogFlag.NONE, TARGET, PARENT, "f"
        )
        assert namespace.is_namespace_change
        assert not attribute.is_namespace_change


class TestAppendRead:
    def test_indices_monotone_from_one(self):
        log = make_log()
        indices = [
            log.append(RecordType.CREAT, TARGET, PARENT, f"f{i}").index
            for i in range(3)
        ]
        assert indices == [1, 2, 3]

    def test_new_user_sees_only_future_records(self):
        log = make_log()
        log.append(RecordType.CREAT, TARGET, PARENT, "before")
        user = log.register_user()
        assert log.read(user) == []
        log.append(RecordType.CREAT, TARGET, PARENT, "after")
        assert [r.name for r in log.read(user)] == ["after"]

    def test_read_does_not_consume(self):
        log = make_log()
        user = log.register_user()
        log.append(RecordType.CREAT, TARGET, PARENT, "f")
        assert len(log.read(user)) == 1
        assert len(log.read(user)) == 1

    def test_read_respects_max_records(self):
        log = make_log()
        user = log.register_user()
        for index in range(10):
            log.append(RecordType.CREAT, TARGET, PARENT, f"f{index}")
        assert len(log.read(user, max_records=4)) == 4

    def test_unknown_user_rejected(self):
        log = make_log()
        with pytest.raises(ChangelogUserError):
            log.read("cl99")


class TestClearAndPurge:
    def test_clear_advances_bookmark(self):
        log = make_log()
        user = log.register_user()
        for index in range(5):
            log.append(RecordType.CREAT, TARGET, PARENT, f"f{index}")
        records = log.read(user)
        log.clear(user, records[2].index)
        assert [r.name for r in log.read(user)] == ["f3", "f4"]

    def test_purge_frees_records_when_all_users_cleared(self):
        log = make_log()
        user = log.register_user()
        for index in range(5):
            log.append(RecordType.CREAT, TARGET, PARENT, f"f{index}")
        log.clear(user, 5)
        assert log.backlog == 0
        assert log.first_retained_index == 6

    def test_purge_waits_for_slowest_user(self):
        log = make_log()
        fast = log.register_user()
        slow = log.register_user()
        for index in range(4):
            log.append(RecordType.CREAT, TARGET, PARENT, f"f{index}")
        log.clear(fast, 4)
        assert log.backlog == 4  # slow user still needs them
        log.clear(slow, 2)
        assert log.backlog == 2

    def test_clear_beyond_tail_rejected(self):
        log = make_log()
        user = log.register_user()
        log.append(RecordType.CREAT, TARGET, PARENT, "f")
        with pytest.raises(ChangelogError):
            log.clear(user, 2)

    def test_clear_is_monotone(self):
        log = make_log()
        user = log.register_user()
        for index in range(3):
            log.append(RecordType.CREAT, TARGET, PARENT, f"f{index}")
        log.clear(user, 3)
        log.clear(user, 1)  # going backwards must not resurrect records
        assert log.read(user) == []

    def test_deregister_releases_purge_pointer(self):
        log = make_log()
        active = log.register_user()
        lagging = log.register_user()
        for index in range(3):
            log.append(RecordType.CREAT, TARGET, PARENT, f"f{index}")
        log.clear(active, 3)
        assert log.backlog == 3
        log.deregister_user(lagging)
        assert log.backlog == 0

    def test_deregister_unknown_user_rejected(self):
        log = make_log()
        with pytest.raises(ChangelogUserError):
            log.deregister_user("cl7")


class TestCapacity:
    def test_unconsumed_log_drops_oldest_at_capacity(self):
        log = make_log(capacity=3)
        for index in range(5):
            log.append(RecordType.CREAT, TARGET, PARENT, f"f{index}")
        assert log.backlog == 3
        assert log.overflow_drops == 2
        assert log.first_retained_index == 3

    def test_consumed_log_never_drops(self):
        log = make_log(capacity=3)
        user = log.register_user()
        seen = []
        for index in range(10):
            log.append(RecordType.CREAT, TARGET, PARENT, f"f{index}")
            for record in log.read(user):
                seen.append(record.name)
            log.clear(user, log.last_index)
        assert log.overflow_drops == 0
        assert seen == [f"f{i}" for i in range(10)]


class TestDump:
    def test_dump_renders_all_retained(self):
        log = make_log()
        log.append(RecordType.CREAT, TARGET, PARENT, "data1.txt")
        log.append(RecordType.MKDIR, TARGET, PARENT, "DataDir")
        lines = list(log.dump())
        assert len(lines) == 2
        assert "01CREAT" in lines[0]
        assert "02MKDIR" in lines[1]


# ---------------------------------------------------------------------------
# Property: at-least-once, in-order consumption regardless of batch sizes
# ---------------------------------------------------------------------------


class TestConsumptionProperty:
    @settings(max_examples=50, deadline=None)
    @given(
        n_records=st.integers(0, 60),
        batch_sizes=st.lists(st.integers(1, 7), min_size=1, max_size=20),
    )
    def test_no_record_lost_or_reordered(self, n_records, batch_sizes):
        log = make_log()
        user = log.register_user()
        for index in range(n_records):
            log.append(RecordType.CREAT, TARGET, PARENT, f"f{index}")
        consumed = []
        batch_cycle = iter(batch_sizes * (n_records + 1))
        while True:
            batch = log.read(user, max_records=next(batch_cycle))
            if not batch:
                break
            consumed.extend(record.name for record in batch)
            log.clear(user, batch[-1].index)
        assert consumed == [f"f{i}" for i in range(n_records)]
        assert log.backlog == 0
