import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton import tagstream as ts


def make_header(**kw):
    return ts.StreamHeader(**kw)


def tags_of(pairs):
    """TagColumns from (channel, timestamp) pairs, in the given order."""
    pairs = list(pairs)
    return ts.TagColumns([c for c, _ in pairs], [t for _, t in pairs])


def random_sorted_tags(rng, n, t_max):
    channel = rng.integers(0, 7, n)
    timestamp = rng.integers(0, t_max, n)
    order = np.lexsort((channel, timestamp))
    return ts.TagColumns(channel[order], timestamp[order])


def stream_bytes(tags):
    buf = io.BytesIO()
    ts.write_stream(make_header(), tags, buf)
    return buf.getvalue()


def unchecked_stream(pairs):
    """Stream bytes for (channel, timestamp) records as given, bypassing the
    writer's order check."""
    records = np.zeros(len(pairs), dtype=ts.RECORD_DTYPE)
    records["channel"] = [c for c, _ in pairs]
    records["timestamp"] = [t for _, t in pairs]
    return ts.StreamHeader(record_count=len(pairs)).to_bytes() + records.tobytes()


def assert_same_tags(a, b):
    assert np.array_equal(a.channel, b.channel)
    assert np.array_equal(a.timestamp, b.timestamp)


def roundtrip(header, tags):
    buf = io.BytesIO()
    ts.write_stream(header, tags, buf)
    buf.seek(0)
    return ts.read_stream_arrays(buf)


class TestWriteStream:
    def test_empty_sequence_header_only(self):
        buf = io.BytesIO()
        n = ts.write_stream(make_header(), ts.TagColumns.empty(), buf)
        assert n == ts.HEADER_SIZE
        raw = buf.getvalue()
        assert len(raw) == ts.HEADER_SIZE
        header = ts.StreamHeader.from_bytes(raw)
        assert header.record_count == 0

    def test_single_zero_tag_bytes(self):
        buf = io.BytesIO()
        ts.write_stream(make_header(), tags_of([(0, 0)]), buf)
        raw = buf.getvalue()
        assert raw[ts.HEADER_SIZE:] == bytes(12)

    def test_unsorted_rejected_with_index(self):
        # equal timestamps, channels 3 then 1: tie-break violated at index 1
        tags = tags_of([(3, 100), (1, 100)])
        with pytest.raises(ts.RecordOrderError) as err:
            ts.write_stream(make_header(), tags, io.BytesIO())
        assert err.value.byte_offset == ts.HEADER_SIZE + 1 * ts.RECORD_SIZE

    def test_unsorted_timestamp_rejected(self):
        tags = tags_of([(0, 5), (0, 4)])
        with pytest.raises(ts.RecordOrderError):
            ts.write_stream(make_header(), tags, io.BytesIO())

    def test_channel_outside_map_rejected(self):
        with pytest.raises(ts.UnmappedChannelError):
            ts.write_stream(make_header(), tags_of([(9, 0)]), io.BytesIO())

    def test_unmapped_channel_index(self):
        # channel 17 lies inside the map's id range but is not in the map
        cmap = ts.ChannelMap(mcp=10, dld_x1=11, dld_x2=12, dld_y1=13, dld_y2=14,
                             snspd=15, sync=20)
        tags = tags_of([(10, 1), (20, 1), (11, 2), (17, 2), (0, 3)])
        with pytest.raises(ts.UnmappedChannelError) as err:
            ts.write_stream(make_header(channel_map=cmap), tags, io.BytesIO())
        assert err.value.byte_offset == ts.HEADER_SIZE + 3 * ts.RECORD_SIZE
        assert "channel 17" in str(err.value)

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ts.TimestampRangeError):
            ts.write_stream(make_header(), tags_of([(0, -1), (0, 3)]), io.BytesIO())

    def test_sort_violation_scan_matches_pairwise_oracle(self):
        rng = np.random.Generator(np.random.Philox(key=7))
        for _ in range(50):
            n = int(rng.integers(2, 40))
            tags = ts.TagColumns(rng.integers(0, 7, n), rng.integers(0, 20, n))
            expected = None
            for i in range(1, n):
                a = (tags.timestamp[i - 1], tags.channel[i - 1])
                b = (tags.timestamp[i], tags.channel[i])
                if b < a:
                    expected = i
                    break
            assert ts.first_order_violation(tags) == expected

    def test_byte_identical_for_identical_input(self):
        tags = tags_of([(0, 1), (2, 1), (5, 9)])
        a, b = io.BytesIO(), io.BytesIO()
        ts.write_stream(make_header(), tags, a)
        ts.write_stream(make_header(), tags, b)
        assert a.getvalue() == b.getvalue()

    def chunked(self, tags, rng):
        """`tags` cut at random points, with empty chunks among them."""
        cuts = np.sort(rng.integers(0, len(tags) + 1, int(rng.integers(0, 12))))
        bounds = [0, *cuts.tolist(), len(tags)]
        return [tags[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]

    def test_chunks_write_the_bytes_of_one_sequence(self):
        rng = np.random.Generator(np.random.Philox(key=17))
        for n in (0, 1, 2, 50, 300):
            tags = random_sorted_tags(rng, n, 40)
            for _ in range(5):
                buf = io.BytesIO()
                size = ts.write_stream(make_header(), iter(self.chunked(tags, rng)), buf)
                assert buf.getvalue() == stream_bytes(tags)
                assert size == len(buf.getvalue())
                assert ts.StreamHeader.from_bytes(buf.getvalue()).record_count == n

    def test_fault_in_later_chunk_names_whole_stream_index(self):
        tags = tags_of([(0, 1), (1, 1), (0, 2), (6, 2), (0, 5), (2, 5)])
        # across a chunk boundary: (0, 5) after (6, 2) is fine, (0, 2) after (0, 5) is not
        chunks = [tags[:2], tags[2:2], tags[4:5], tags[2:4]]
        with pytest.raises(ts.RecordOrderError) as err:
            ts.write_stream(make_header(), iter(chunks), io.BytesIO())
        assert err.value.byte_offset == ts.HEADER_SIZE + 3 * ts.RECORD_SIZE
        # within a later chunk: an equal timestamp on a lower channel
        bad = tags_of([(0, 1), (6, 1), (0, 2), (3, 5), (2, 5)])
        with pytest.raises(ts.RecordOrderError) as err:
            ts.write_stream(make_header(), iter([bad[:2], bad[2:]]), io.BytesIO())
        assert err.value.byte_offset == ts.HEADER_SIZE + 4 * ts.RECORD_SIZE
        unmapped = tags_of([(0, 1), (6, 1), (0, 2), (9, 3)])
        with pytest.raises(ts.UnmappedChannelError) as err:
            ts.write_stream(make_header(), iter([unmapped[:1], unmapped[1:3], unmapped[3:]]),
                            io.BytesIO())
        assert err.value.byte_offset == ts.HEADER_SIZE + 3 * ts.RECORD_SIZE
        assert "channel 9" in str(err.value)
        with pytest.raises(ts.TimestampRangeError, match="does not fit in int64") as err:
            ts.write_stream(make_header(), iter([ts.TagColumns.empty(), tags_of([(0, -1)])]),
                            io.BytesIO())
        assert err.value.byte_offset == ts.HEADER_SIZE

    def test_sink_after_fault(self):
        good = tags_of([(0, 1), (6, 1), (0, 2)])
        # a fault in the first non-empty chunk, or in one whole TagColumns,
        # writes nothing
        for tags in (tags_of([(0, 1), (0, 0)]), iter([good[:0], tags_of([(9, 1)])])):
            buf = io.BytesIO(b"kept")
            buf.seek(0, io.SEEK_END)
            with pytest.raises(ValueError):
                ts.write_stream(make_header(), tags, buf)
            assert buf.getvalue() == b"kept"
        # a fault in a later chunk leaves the earlier records behind a
        # zeroed header, which readers reject
        buf = io.BytesIO()
        with pytest.raises(ts.RecordOrderError):
            ts.write_stream(make_header(), iter([good, tags_of([(0, 0)])]), buf)
        raw = buf.getvalue()
        assert raw == bytes(ts.HEADER_SIZE) + stream_bytes(good)[ts.HEADER_SIZE:]
        with pytest.raises(ts.BadMagicError):
            ts.read_stream_arrays(io.BytesIO(raw))

    def test_header_patched_at_sink_position(self):
        buf = io.BytesIO(b"prefix")
        buf.seek(0, io.SEEK_END)
        tags = tags_of([(0, 1), (6, 1), (0, 2)])
        size = ts.write_stream(make_header(), iter([tags[:1], tags[1:]]), buf)
        assert buf.getvalue() == b"prefix" + stream_bytes(tags)
        assert buf.tell() == len(b"prefix") + size


class TestReadStream:
    def test_roundtrip_identity(self):
        rng = np.random.Generator(np.random.Philox(key=3))
        tags = random_sorted_tags(rng, 500, 10**9)
        header_in = make_header(tick_ps=25)
        header, out = roundtrip(header_in, tags)
        assert header.tick_ps == 25
        assert header.record_count == 500
        assert out.channel.dtype == np.uint16 and out.timestamp.dtype == np.int64
        assert_same_tags(out, tags)

    def test_block_reader_yields_columns(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        tags = random_sorted_tags(rng, 100, 10**6)
        raw = stream_bytes(tags)
        for block_records in (1, 7, 100, 1000):
            header, blocks = ts.iter_stream_blocks(io.BytesIO(raw), block_records=block_records)
            parts = list(blocks)
            assert header.record_count == 100
            assert all(len(p) <= block_records for p in parts)
            assert_same_tags(ts.TagColumns.concatenate(parts), tags)

    def test_unsorted_records_within_block_name_offset(self):
        raw = unchecked_stream([(0, 1), (0, 3), (0, 2), (0, 4)])
        with pytest.raises(ts.RecordOrderError) as err:
            ts.read_stream_arrays(io.BytesIO(raw))
        assert err.value.byte_offset == ts.HEADER_SIZE + 2 * ts.RECORD_SIZE
        assert isinstance(err.value, ts.StreamFormatError)
        # an equal timestamp with a lower channel also breaks the order
        with pytest.raises(ts.RecordOrderError):
            ts.read_stream_arrays(io.BytesIO(unchecked_stream([(3, 5), (1, 5)])))

    def test_unsorted_across_block_boundary_names_offset(self):
        raw = unchecked_stream([(0, 10), (0, 11), (0, 5), (0, 6)])
        for block_records in (1, 2):
            _, blocks = ts.iter_stream_blocks(io.BytesIO(raw), block_records=block_records)
            with pytest.raises(ts.RecordOrderError) as err:
                list(blocks)
            assert err.value.byte_offset == ts.HEADER_SIZE + 2 * ts.RECORD_SIZE
            assert str(err.value.byte_offset) in str(err.value)

    def test_record_count_mismatch_names_offset(self):
        raw = stream_bytes(tags_of([(0, 1), (0, 2), (0, 3)]))
        end = ts.HEADER_SIZE + 3 * ts.RECORD_SIZE
        for declared in (2, 4):
            header = ts.StreamHeader(record_count=declared).to_bytes()
            bad = header + raw[ts.HEADER_SIZE:]
            with pytest.raises(ts.RecordCountError) as err:
                ts.read_stream_arrays(io.BytesIO(bad))
            assert err.value.byte_offset == end
            _, blocks = ts.iter_stream_blocks(io.BytesIO(bad), block_records=2)
            with pytest.raises(ts.RecordCountError):
                list(blocks)
        # record_count 0 means unknown: any number of records is accepted
        unknown = ts.StreamHeader(record_count=0).to_bytes() + raw[ts.HEADER_SIZE:]
        header, tags = ts.read_stream_arrays(io.BytesIO(unknown))
        assert len(tags) == 3

    def test_unmapped_channel_names_offset(self):
        # channel 9 is not in the default map (0..6); record 5 of 8
        pairs = [(0, 1), (6, 1), (1, 2), (2, 3), (6, 4), (9, 5), (0, 6), (6, 7)]
        raw = unchecked_stream(pairs)
        offset = ts.HEADER_SIZE + 5 * ts.RECORD_SIZE
        with pytest.raises(ts.UnmappedChannelError) as err:
            ts.read_stream_arrays(io.BytesIO(raw))
        assert err.value.byte_offset == offset
        assert isinstance(err.value, ts.StreamFormatError)
        for block_records in (1, 2, 3, 5, 6, 100):
            _, blocks = ts.iter_stream_blocks(io.BytesIO(raw), block_records=block_records)
            with pytest.raises(ts.UnmappedChannelError) as err:
                list(blocks)
            assert err.value.byte_offset == offset, block_records
            assert "channel 9" in str(err.value)

    def test_remapped_channels_accepted(self):
        # ids 16..19 lie inside the map's range but are not in it
        cmap = ts.ChannelMap(mcp=10, dld_x1=11, dld_x2=12, dld_y1=13, dld_y2=14,
                             snspd=15, sync=20)
        tags = tags_of([(10, 1), (20, 1), (11, 2)])
        header, out = roundtrip(make_header(channel_map=cmap), tags)
        assert_same_tags(out, tags)
        for channel in (0, 17):
            bad = (ts.StreamHeader(channel_map=cmap).to_bytes()
                   + unchecked_stream([(channel, 1)])[ts.HEADER_SIZE:])
            with pytest.raises(ts.UnmappedChannelError):
                ts.read_stream_arrays(io.BytesIO(bad))

    def test_timestamp_beyond_int64_names_offset(self):
        # u64 timestamps of 2**63 and more wrap to negative i64 values: first
        # in a sorted block they pass the order check, after a valid one
        # they look out of order
        huge = [(0, 2**63 + 5), (0, 2**63 + 9), (0, 2**63 + 100)]
        for pairs, record in ((huge, 0), ([(0, 1), (6, 1)] + huge, 2)):
            raw = unchecked_stream(pairs)
            for block_records in (1, 2, 100):
                _, blocks = ts.iter_stream_blocks(io.BytesIO(raw), block_records=block_records)
                with pytest.raises(ts.TimestampRangeError) as err:
                    list(blocks)
                assert err.value.byte_offset == ts.HEADER_SIZE + record * ts.RECORD_SIZE
                assert isinstance(err.value, ts.StreamFormatError)
                assert str(2**63 + 5) in str(err.value)
        # the largest i64 tick is still a valid timestamp
        header, tags = ts.read_stream_arrays(io.BytesIO(unchecked_stream([(0, 2**63 - 1)])))
        assert int(tags.timestamp[0]) == 2**63 - 1

    def test_bad_magic(self):
        buf = io.BytesIO()
        ts.write_stream(make_header(), ts.TagColumns.empty(), buf)
        raw = bytearray(buf.getvalue())
        raw[:4] = b"XTAG"
        with pytest.raises(ts.BadMagicError):
            ts.read_stream_arrays(io.BytesIO(bytes(raw)))

    def test_unknown_version(self):
        buf = io.BytesIO()
        ts.write_stream(make_header(), ts.TagColumns.empty(), buf)
        raw = bytearray(buf.getvalue())
        raw[4:6] = (99).to_bytes(2, "little")
        with pytest.raises(ts.UnsupportedVersionError):
            ts.read_stream_arrays(io.BytesIO(bytes(raw)))

    def test_truncated_mid_record_names_offset(self):
        buf = io.BytesIO()
        ts.write_stream(make_header(), tags_of([(0, 1)]), buf)
        cut = ts.HEADER_SIZE + 6
        with pytest.raises(ts.TruncatedStreamError) as err:
            ts.read_stream_arrays(io.BytesIO(buf.getvalue()[:cut]))
        assert err.value.byte_offset == ts.HEADER_SIZE
        assert str(ts.HEADER_SIZE) in str(err.value)

    @pytest.mark.parametrize("block_records, n_whole", [(100, 6), (6, 11)])
    def test_truncated_in_second_window_names_offset(self, monkeypatch, block_records,
                                                     n_whole):
        # 4-record windows: the partial record follows the whole records of
        # the second window of the first or of the second block
        monkeypatch.setattr(ts, "_WINDOW_RECORDS", 4)
        raw = stream_bytes(tags_of((0, t) for t in range(n_whole + 1)))
        cut = raw[:ts.HEADER_SIZE + n_whole * ts.RECORD_SIZE + 5]
        offset = ts.HEADER_SIZE + n_whole * ts.RECORD_SIZE
        _, blocks = ts.iter_stream_blocks(io.BytesIO(cut), block_records=block_records)
        with pytest.raises(ts.TruncatedStreamError) as err:
            list(blocks)
        assert err.value.byte_offset == offset
        with pytest.raises(ts.TruncatedStreamError) as err:
            ts.read_stream_arrays(io.BytesIO(cut))
        assert err.value.byte_offset == offset

    def test_block_records_below_one_rejected(self):
        raw = stream_bytes(tags_of([(0, 1)]))
        with pytest.raises(ValueError, match="block_records must be at least 1"):
            ts.iter_stream_blocks(io.BytesIO(raw), block_records=0)

    def test_order_fault_across_windows_of_one_block(self, monkeypatch):
        # records 3 and 4 are the last of one window and the first of the next
        monkeypatch.setattr(ts, "_WINDOW_RECORDS", 4)
        pairs = [(0, t) for t in (1, 2, 3, 9, 4, 10, 11)]
        raw = unchecked_stream(pairs)
        _, blocks = ts.iter_stream_blocks(io.BytesIO(raw), block_records=100)
        with pytest.raises(ts.RecordOrderError) as err:
            list(blocks)
        assert err.value.byte_offset == ts.HEADER_SIZE + 4 * ts.RECORD_SIZE
        # the window does not change the blocks
        tags = tags_of(sorted(pairs, key=lambda p: p[1]))
        _, blocks = ts.iter_stream_blocks(io.BytesIO(stream_bytes(tags)), block_records=3)
        parts = list(blocks)
        assert [len(p) for p in parts] == [3, 3, 1]
        assert_same_tags(ts.TagColumns.concatenate(parts), tags)

    def test_header_invariants(self):
        with pytest.raises(ValueError):
            make_header(tick_ps=0)
        with pytest.raises(ValueError):
            make_header(channel_count=5)
        with pytest.raises(ValueError):
            ts.ChannelMap(mcp=1, dld_x1=1)


class TestWholeStreamReader:
    """read_stream_arrays decodes every block straight into its slice of
    the whole-stream columns, so blocks after the first must land after
    it and keep the cross-block checks."""

    def multi_block_stream(self):
        rng = np.random.Generator(np.random.Philox(key=13))
        tags = random_sorted_tags(rng, 2 * ts._BLOCK_RECORDS + 5, 10**12)
        return tags, stream_bytes(tags)

    def test_matches_block_reader_over_many_blocks(self):
        tags, raw = self.multi_block_stream()
        header, out = ts.read_stream_arrays(io.BytesIO(raw))
        assert header.record_count == len(tags)
        assert out.channel.dtype == np.uint16 and out.timestamp.dtype == np.int64
        assert_same_tags(out, tags)

    def test_fault_in_later_block_names_offset(self):
        tags, raw = self.multi_block_stream()
        k = ts._BLOCK_RECORDS + 3
        records = np.frombuffer(bytearray(raw[ts.HEADER_SIZE:]), dtype=ts.RECORD_DTYPE).copy()
        records["timestamp"][k] = 0
        bad = raw[:ts.HEADER_SIZE] + records.tobytes()
        with pytest.raises(ts.RecordOrderError) as err:
            ts.read_stream_arrays(io.BytesIO(bad))
        assert err.value.byte_offset == ts.HEADER_SIZE + k * ts.RECORD_SIZE
        records["timestamp"][k] = 2**63
        with pytest.raises(ts.TimestampRangeError) as err:
            ts.read_stream_arrays(io.BytesIO(raw[:ts.HEADER_SIZE] + records.tobytes()))
        assert err.value.byte_offset == ts.HEADER_SIZE + k * ts.RECORD_SIZE


@st.composite
def faulty_records(draw):
    """(channel, timestamp) records sorted by (timestamp, channel), then
    given up to two faults, each an unmapped channel, a record below the one
    before it, or a u64 timestamp of 2**63 or more."""
    pairs = sorted(draw(st.lists(st.tuples(st.integers(0, 6), st.integers(1, 40)),
                                 min_size=1, max_size=60)), key=lambda p: (p[1], p[0]))
    for fault in draw(st.lists(st.sampled_from(["channel", "order", "range"]), max_size=2)):
        i = draw(st.integers(fault == "order" and len(pairs) > 1, len(pairs) - 1))
        channel, timestamp = pairs[i]
        if fault == "channel":
            pairs[i] = (draw(st.integers(7, 0xFFFF)), timestamp)
        elif fault == "order" and i:
            prev_channel, prev_timestamp = pairs[i - 1]
            if (prev_timestamp, prev_channel) == (0, 0):
                continue    # an earlier order fault left no record below it
            timestamp = draw(st.integers(0, prev_timestamp))
            if timestamp == prev_timestamp and prev_channel == 0:
                timestamp -= 1
            top = prev_channel - 1 if timestamp == prev_timestamp else 6
            pairs[i] = (draw(st.integers(0, top)), timestamp)
        elif fault == "range":
            pairs[i] = (channel, draw(st.integers(2**63, 2**64 - 1)))
    return pairs


def first_fault(pairs):
    """(error class, byte offset) of the first faulty record, or None: a
    record's channel is checked first, then its u64 timestamp, then its
    (timestamp, channel) order in i64 against the record before it."""
    prev = None
    for i, (channel, timestamp) in enumerate(pairs):
        at = ts.HEADER_SIZE + i * ts.RECORD_SIZE
        if channel > 6:
            return ts.UnmappedChannelError, at
        if timestamp >= 2**63:
            return ts.TimestampRangeError, at
        if prev is not None and (timestamp, channel) < prev:
            return ts.RecordOrderError, at
        prev = (timestamp, channel)
    return None


class TestReaderWriterAgree:
    """The writer rejects what the reader rejects, with the same error at
    the same byte offset, however the records are cut into chunks and
    blocks: the first faulty record's."""

    @settings(max_examples=300, deadline=None)
    @given(pairs=faulty_records(), cuts=st.lists(st.integers(0, 60), max_size=8),
           block_records=st.integers(1, 64))
    def test_writer_raises_what_the_reader_raises(self, pairs, cuts, block_records):
        raw = unchecked_stream(pairs)
        # the writer's i64 column holds a u64 timestamp of 2**63 or more as
        # a negative value, which is written as the same record bytes
        tags = tags_of((c, t - 2**64 if t >= 2**63 else t) for c, t in pairs)
        bounds = [0, *sorted(min(k, len(tags)) for k in cuts), len(tags)]
        chunks = [tags[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
        sink = io.BytesIO()
        outcomes = []
        for run in (lambda: list(ts.iter_stream_blocks(io.BytesIO(raw), block_records)[1]),
                    lambda: ts.write_stream(make_header(), iter(chunks), sink)):
            try:
                run()
                outcomes.append(None)
            except ValueError as exc:
                outcomes.append((type(exc), exc.byte_offset, str(exc)))
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0] and outcomes[0][:2]) == first_fault(pairs)
        if outcomes[0] is None:
            assert sink.getvalue() == raw

    @pytest.mark.parametrize("pairs, error, byte_offset", [
        ([(0, 5), (0, 3), (9, 7)], ts.RecordOrderError, 46),
        ([(0, 2**63 + 5), (0, 3), (0, 2)], ts.TimestampRangeError, 34)])
    @pytest.mark.parametrize("block_records", [1, 2, 100])
    def test_first_fault_for_any_block_size(self, pairs, error, byte_offset, block_records):
        raw = unchecked_stream(pairs)
        with pytest.raises(error) as err:
            list(ts.iter_stream_blocks(io.BytesIO(raw), block_records)[1])
        assert err.value.byte_offset == byte_offset
        tags = tags_of((c, t - 2**64 if t >= 2**63 else t) for c, t in pairs)
        chunks = [tags[lo:lo + block_records] for lo in range(0, len(tags), block_records)]
        with pytest.raises(error) as err:
            ts.write_stream(make_header(), chunks, io.BytesIO())
        assert err.value.byte_offset == byte_offset
