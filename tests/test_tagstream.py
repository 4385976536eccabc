import io

import numpy as np
import pytest

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
        with pytest.raises(ts.UnsortedTagsError) as err:
            ts.write_stream(make_header(), tags, io.BytesIO())
        assert err.value.index == 1

    def test_unsorted_timestamp_rejected(self):
        tags = tags_of([(0, 5), (0, 4)])
        with pytest.raises(ts.UnsortedTagsError):
            ts.write_stream(make_header(), tags, io.BytesIO())

    def test_channel_outside_map_rejected(self):
        with pytest.raises(ts.UnknownChannelError):
            ts.write_stream(make_header(), tags_of([(9, 0)]), io.BytesIO())

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError):
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

    def test_header_invariants(self):
        with pytest.raises(ValueError):
            make_header(tick_ps=0)
        with pytest.raises(ValueError):
            make_header(channel_count=5)
        with pytest.raises(ValueError):
            ts.ChannelMap(mcp=1, dld_x1=1)


class TestMergeSorted:
    def test_empty_inputs(self):
        assert len(ts.merge_sorted([])) == 0
        assert len(ts.merge_sorted([ts.TagColumns.empty(), ts.TagColumns.empty()])) == 0

    def test_single_stream_passthrough(self):
        a = tags_of([(0, 3)])
        out = ts.merge_sorted([a, ts.TagColumns.empty()])
        assert out.timestamp.tolist() == [3]

    def test_matches_concat_sort_oracle(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        streams = [random_sorted_tags(rng, 1000, 10**6) for _ in range(3)]
        merged = ts.merge_sorted(streams)
        # pairwise-comparison oracle: Python's stable sort of (timestamp, channel)
        oracle = sorted((int(t), int(c)) for s in streams
                        for c, t in zip(s.channel, s.timestamp))
        assert list(zip(merged.timestamp.tolist(), merged.channel.tolist())) == oracle
        assert ts.first_order_violation(merged) is None
