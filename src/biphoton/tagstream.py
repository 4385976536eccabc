"""Time-tag data model and the `.ttag` binary stream format.

File layout (all little-endian):

    header, 34 bytes:
        magic          4 bytes  b"TTAG"
        version        u16      currently 1
        tick_ps        u32      picoseconds per tick
        channel_count  u16      number of device channels (>= 7)
        channel ids    7 x u16  mcp, dld_x1, dld_x2, dld_y1, dld_y2, snspd, sync
        record_count   u64      0 means unknown / streaming
    records, 12 bytes each:
        channel        u16
        reserved       u16      zero
        timestamp      u64      tick count

Records are sorted by (timestamp, channel) and use only the channels of
the header's channel map. Identical input produces a byte-identical file.
In memory a tag sequence is a `TagColumns`: one u16 channel column and one
i64 timestamp column.
"""

import io
import struct
from dataclasses import dataclass, fields, replace
from typing import BinaryIO

import numpy as np

MAGIC = b"TTAG"
VERSION = 1
HEADER_SIZE = 34
RECORD_SIZE = 12

_HEADER_STRUCT = struct.Struct("<4sHIH7HQ")

#: on-disk record layout
RECORD_DTYPE = np.dtype([("channel", "<u2"), ("reserved", "<u2"), ("timestamp", "<u8")])

_BLOCK_RECORDS = 1 << 20

#: records decoded or encoded at a time: a block's columns are filled, and
#: a written chunk's records made, through one window of this many records,
#: so neither the reader nor the writer holds a block-sized buffer
_WINDOW_RECORDS = 1 << 14


class StreamFormatError(ValueError):
    """Malformed `.ttag` data; the message names the fault and
    `byte_offset` locates it in the file when it is known."""

    def __init__(self, message, byte_offset=None):
        if byte_offset is not None:
            message = f"{message} (at byte offset {byte_offset})"
        super().__init__(message)
        self.byte_offset = byte_offset


@dataclass(eq=False)
class TagColumns:
    """A tag sequence as two equal-length columns: `channel` (u16) and
    `timestamp` (i64 ticks). Indexing with a slice, mask or index array
    selects tags and returns TagColumns (a view for slices)."""

    channel: np.ndarray
    timestamp: np.ndarray

    def __post_init__(self):
        self.channel = np.asarray(self.channel, dtype=np.uint16)
        self.timestamp = np.asarray(self.timestamp, dtype=np.int64)
        if len(self.channel) != len(self.timestamp):
            raise ValueError("channel and timestamp columns differ in length")

    def __len__(self):
        return len(self.timestamp)

    def __getitem__(self, index):
        return TagColumns(self.channel[index], self.timestamp[index])

    @classmethod
    def empty(cls):
        return cls(np.zeros(0, dtype=np.uint16), np.zeros(0, dtype=np.int64))

    @classmethod
    def empty_of(cls, n):
        """Uninitialised columns for n tags. np.empty, unlike np.zeros, gets
        huge pages, which halves the cost of first touching the columns."""
        return cls(np.empty(n, dtype=np.uint16), np.empty(n, dtype=np.int64))

    def copy(self):
        return TagColumns(self.channel.copy(), self.timestamp.copy())

    @classmethod
    def concatenate(cls, parts):
        parts = list(parts)
        if not parts:
            return cls.empty()
        return cls(np.concatenate([p.channel for p in parts]),
                   np.concatenate([p.timestamp for p in parts]))


@dataclass(frozen=True)
class ChannelMap:
    """Role assignment for the seven instrument channels."""

    mcp: int = 0
    dld_x1: int = 1
    dld_x2: int = 2
    dld_y1: int = 3
    dld_y2: int = 4
    snspd: int = 5
    sync: int = 6

    def __post_init__(self):
        ids = self.ids()
        if len(set(ids)) != 7:
            raise ValueError(f"channel ids must be distinct, got {ids}")
        if any(c < 0 or c > 0xFFFF for c in ids):
            raise ValueError(f"channel ids must fit in u16, got {ids}")

    def ids(self):
        return tuple(getattr(self, f.name) for f in fields(self))


@dataclass
class StreamHeader:
    tick_ps: int = 25
    channel_count: int = 7
    channel_map: ChannelMap = ChannelMap()
    record_count: int = 0

    def __post_init__(self):
        if self.tick_ps < 1:
            raise ValueError(f"tick_ps must be >= 1, got {self.tick_ps}")
        if self.channel_count < 7:
            raise ValueError(f"channel_count must be >= 7, got {self.channel_count}")

    def to_bytes(self):
        return _HEADER_STRUCT.pack(
            MAGIC, VERSION, self.tick_ps, self.channel_count,
            *self.channel_map.ids(), self.record_count,
        )

    @classmethod
    def from_bytes(cls, raw):
        if len(raw) < 4 or raw[:4] != MAGIC:
            raise StreamFormatError(f"expected magic {MAGIC!r}, got {raw[:4]!r}")
        if len(raw) < HEADER_SIZE:
            raise StreamFormatError("incomplete header", len(raw))
        magic, version, tick_ps, channel_count, *ids, record_count = _HEADER_STRUCT.unpack(raw[:HEADER_SIZE])
        if version != VERSION:
            raise StreamFormatError(f"unsupported stream version {version}")
        return cls(tick_ps=tick_ps, channel_count=channel_count,
                   channel_map=ChannelMap(*ids), record_count=record_count)


def first_order_violation(tags: TagColumns, after=None):
    """Index of the first tag breaking the (timestamp, channel) sort order,
    or None when sorted. `after`, a (timestamp, channel) pair, is the tag
    that precedes the sequence."""
    t, c = tags.timestamp, tags.channel
    if after is not None and len(t) and (int(t[0]), int(c[0])) < tuple(after):
        return 0
    # one full pass: only equal or decreasing timestamps can break the order
    suspect = np.flatnonzero(t[1:] <= t[:-1])
    bad = suspect[(t[suspect + 1] < t[suspect]) | (c[suspect + 1] < c[suspect])]
    return int(bad[0]) + 1 if bad.size else None


def _unmapped_finder(channel_map):
    """Returns `first(channel)`: the index of the first entry of a channel
    column that is not an id of `channel_map`, or None."""
    mapped = np.zeros(1 << 16, dtype=bool)
    mapped[list(channel_map.ids())] = True

    def first(channel):
        # min and max are cheap; the per-tag lookup runs only when the
        # channel range holds an unmapped id
        if not len(channel) or mapped[channel.min():int(channel.max()) + 1].all():
            return None
        known = np.take(mapped, channel)
        return None if known.all() else int(np.argmin(known))
    return first


def _check_records(block: TagColumns, last, first_unmapped, offset):
    """The record check of the reader and the writer: `last` is the
    (timestamp, channel) before the non-empty `block`, or None, and `offset`
    the byte offset of its first record. Raises for the first faulty record,
    whatever the partition into blocks: a channel outside the map, else a
    u64 timestamp beyond int64, else a record out of order. Returns the
    block's last (timestamp, channel)."""
    # a u64 timestamp of 2**63 or more is negative in the i64 column, so
    # after a valid record the first one is also the first out of order
    bad = 0 if block.timestamp[0] < 0 else first_order_violation(block, after=last)
    unmapped = first_unmapped(block.channel)
    if unmapped is not None and (bad is None or unmapped <= bad):
        raise StreamFormatError(
            f"record on channel {block.channel[unmapped]}, which is not in the "
            "header's channel map", offset + unmapped * RECORD_SIZE)
    if bad is not None:
        if block.timestamp[bad] < 0:
            raise StreamFormatError(
                f"record timestamp {int(block.timestamp[bad]) % 2**64} does not fit in int64",
                offset + bad * RECORD_SIZE)
        raise StreamFormatError("record out of (timestamp, channel) order",
                                offset + bad * RECORD_SIZE)
    return int(block.timestamp[-1]), int(block.channel[-1])


def write_stream(header, tags, sink: BinaryIO):
    """Write header + records to a seekable binary sink. Returns the byte
    count.

    `tags` is one TagColumns or an iterable of TagColumns chunks, each
    checked as the reader checks its blocks, then written. A fault raises
    the reader's error at the byte offset the record would have. The
    header, with the record_count of all chunks, is written last in the
    room left for it. After a fault the sink holds the earlier chunks'
    records behind a zeroed header, which no reader accepts, or nothing
    new when there are none.
    """
    if isinstance(tags, TagColumns):
        tags = [tags]
    start = sink.tell()
    sink.seek(start + HEADER_SIZE)
    first_unmapped = _unmapped_finder(header.channel_map)
    window = np.zeros(_WINDOW_RECORDS, dtype=RECORD_DTYPE)
    written, last = 0, None
    for chunk in tags:
        if not len(chunk):
            continue
        last = _check_records(chunk, last, first_unmapped,
                              HEADER_SIZE + RECORD_SIZE * written)
        for lo in range(0, len(chunk), _WINDOW_RECORDS):
            part = chunk[lo:lo + _WINDOW_RECORDS]
            out = window[:len(part)]
            out["channel"], out["timestamp"] = part.channel, part.timestamp
            sink.write(out)
        written += len(chunk)
        del chunk, part  # a generated chunk is freed before the next is made
    end = sink.tell()
    sink.seek(start)
    sink.write(replace(header, record_count=written).to_bytes())
    sink.seek(end)
    return HEADER_SIZE + RECORD_SIZE * written


def iter_stream_blocks(source: BinaryIO, block_records=_BLOCK_RECORDS):
    """Read the header eagerly, then yield TagColumns in bounded blocks.

    Returns (header, block_iterator). Single pass; memory bounded by
    block_records. Each block of up to block_records records is decoded,
    `_WINDOW_RECORDS` records at a time, into fresh columns. When the block
    holding the fault is reached, raises a StreamFormatError naming its byte
    offset for a partial record, a record on a channel outside the header's
    channel map, a timestamp of 2**63 ticks or more, a record out of
    (timestamp, channel) order, within a block or across a block boundary,
    and a non-zero header record_count that differs from the records
    present.
    """
    if block_records < 1:
        raise ValueError(f"block_records must be at least 1, got {block_records}")
    header = StreamHeader.from_bytes(source.read(HEADER_SIZE))
    first_unmapped = _unmapped_finder(header.channel_map)

    def blocks():
        # one record window for the whole pass: every block is decoded out
        # of it, so the window can be refilled
        window = np.empty(min(block_records, _WINDOW_RECORDS), dtype=RECORD_DTYPE)
        seen, last, at_end = 0, None, False
        while not at_end:
            block = TagColumns.empty_of(block_records)
            filled = 0
            while filled < block_records and not at_end:
                want = min(len(window), block_records - filled)
                whole, leftover = divmod(source.readinto(window[:want]), RECORD_SIZE)
                if leftover:
                    raise StreamFormatError("stream truncated mid-record",
                                            HEADER_SIZE + RECORD_SIZE * (seen + filled + whole))
                block.channel[filled:filled + whole] = window["channel"][:whole]
                block.timestamp[filled:filled + whole] = window["timestamp"][:whole]
                filled += whole
                at_end = whole < want
            if filled:
                block = block[:filled]
                last = _check_records(block, last, first_unmapped,
                                      HEADER_SIZE + RECORD_SIZE * seen)
                seen += filled
                yield block
            del block   # not held while the next block is read
        if header.record_count and seen != header.record_count:
            raise StreamFormatError(f"header declares {header.record_count} records, found {seen}",
                                    HEADER_SIZE + RECORD_SIZE * seen)

    return header, blocks()


def read_stream_arrays(source: BinaryIO):
    """Eager reader for a seekable source: returns (header, TagColumns with
    all records), decoded as one block one record longer than the source
    can hold, so that the block reader reaches the end inside it."""
    start = source.tell()
    size = source.seek(0, io.SEEK_END) - start
    source.seek(start)
    n = max(size - HEADER_SIZE, 0) // RECORD_SIZE
    header, blocks = iter_stream_blocks(source, block_records=n + 1)
    return header, [TagColumns.empty(), *blocks][-1]
