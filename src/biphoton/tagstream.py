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

Records are sorted by (timestamp, channel). Identical input produces a
byte-identical file. In memory a tag sequence is a `TagColumns`: one u16
channel column and one i64 timestamp column.
"""

import io
import struct
from dataclasses import dataclass, fields
from typing import BinaryIO, Iterable

import numpy as np

MAGIC = b"TTAG"
VERSION = 1
HEADER_SIZE = 34
RECORD_SIZE = 12

_HEADER_STRUCT = struct.Struct("<4sHIH7HQ")

#: on-disk record layout
RECORD_DTYPE = np.dtype([("channel", "<u2"), ("reserved", "<u2"), ("timestamp", "<u8")])

_BLOCK_RECORDS = 1 << 20


class StreamFormatError(Exception):
    """Base class for malformed `.ttag` data; `byte_offset` locates the
    fault in the file when it is known."""

    def __init__(self, message, byte_offset=None):
        if byte_offset is not None:
            message = f"{message} (at byte offset {byte_offset})"
        super().__init__(message)
        self.byte_offset = byte_offset


class BadMagicError(StreamFormatError):
    pass


class UnsupportedVersionError(StreamFormatError):
    pass


class TruncatedStreamError(StreamFormatError):
    pass


class RecordCountError(StreamFormatError):
    """The header's non-zero record_count differs from the records present."""


class RecordOrderError(StreamFormatError):
    """A record breaks the (timestamp, channel) order of the stream."""


class UnsortedTagsError(ValueError):
    def __init__(self, index):
        super().__init__(f"tags not sorted by (timestamp, channel): first violation at index {index}")
        self.index = index


class UnknownChannelError(ValueError):
    def __init__(self, index, channel):
        super().__init__(f"tag {index} uses channel {channel} which is not in the channel map")
        self.index = index
        self.channel = channel


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
    version: int = VERSION

    def __post_init__(self):
        if self.tick_ps < 1:
            raise ValueError(f"tick_ps must be >= 1, got {self.tick_ps}")
        if self.channel_count < 7:
            raise ValueError(f"channel_count must be >= 7, got {self.channel_count}")

    def to_bytes(self):
        return _HEADER_STRUCT.pack(
            MAGIC, self.version, self.tick_ps, self.channel_count,
            *self.channel_map.ids(), self.record_count,
        )

    @classmethod
    def from_bytes(cls, raw):
        if len(raw) < 4 or raw[:4] != MAGIC:
            raise BadMagicError(f"expected magic {MAGIC!r}, got {raw[:4]!r}")
        if len(raw) < HEADER_SIZE:
            raise TruncatedStreamError("incomplete header", len(raw))
        magic, version, tick_ps, channel_count, *ids, record_count = _HEADER_STRUCT.unpack(raw[:HEADER_SIZE])
        if version != VERSION:
            raise UnsupportedVersionError(f"unsupported stream version {version}")
        header = cls(tick_ps=tick_ps, channel_count=channel_count,
                     channel_map=ChannelMap(*ids), record_count=record_count,
                     version=version)
        return header


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


def write_stream(header, tags: TagColumns, sink: BinaryIO):
    """Write header + records to a binary sink. Returns the byte count.

    Tags must be sorted by (timestamp, channel), have non-negative
    timestamps and use only mapped channels.
    """
    violation = first_order_violation(tags)
    if violation is not None:
        raise UnsortedTagsError(violation)
    if len(tags) and tags.timestamp[0] < 0:
        raise ValueError(f"negative timestamp {int(tags.timestamp[0])} at tag 0")
    allowed = np.array(header.channel_map.ids(), dtype=np.uint16)
    ok = np.isin(tags.channel, allowed)
    if not ok.all():
        idx = int(np.flatnonzero(~ok)[0])
        raise UnknownChannelError(idx, int(tags.channel[idx]))

    header = StreamHeader(tick_ps=header.tick_ps, channel_count=header.channel_count,
                          channel_map=header.channel_map, record_count=len(tags),
                          version=header.version)
    sink.write(header.to_bytes())
    records = np.zeros(min(len(tags), _BLOCK_RECORDS), dtype=RECORD_DTYPE)
    for lo in range(0, len(tags), _BLOCK_RECORDS):
        block = tags[lo:lo + _BLOCK_RECORDS]
        out = records[:len(block)]
        out["channel"] = block.channel
        out["timestamp"] = block.timestamp
        sink.write(out)
    return HEADER_SIZE + RECORD_SIZE * len(tags)


def iter_stream_blocks(source: BinaryIO, block_records=_BLOCK_RECORDS):
    """Read the header eagerly, then yield TagColumns in bounded blocks.

    Returns (header, block_iterator). Single pass; memory bounded by
    block_records. When the block holding the fault is reached, raises a
    StreamFormatError naming its byte offset for a partial record, a record
    out of (timestamp, channel) order, within a block or across a block
    boundary, and a non-zero header record_count that differs from the
    records present.
    """
    header = StreamHeader.from_bytes(source.read(HEADER_SIZE))

    def blocks():
        # one record buffer for the whole pass: every block is decoded into
        # fresh columns, so the buffer can be refilled
        buffer = np.empty(block_records, dtype=RECORD_DTYPE)
        offset = HEADER_SIZE
        seen = 0
        last = None
        while size := source.readinto(buffer):
            whole, leftover = divmod(size, RECORD_SIZE)
            if leftover:
                raise TruncatedStreamError("stream truncated mid-record",
                                           offset + whole * RECORD_SIZE)
            records = buffer[:whole]
            block = TagColumns(records["channel"].copy(), records["timestamp"])
            bad = first_order_violation(block, after=last)
            if bad is not None:
                raise RecordOrderError("record out of (timestamp, channel) order",
                                       offset + bad * RECORD_SIZE)
            last = (int(block.timestamp[-1]), int(block.channel[-1]))
            offset += size
            seen += whole
            yield block
        if header.record_count and seen != header.record_count:
            raise RecordCountError(
                f"header declares {header.record_count} records, found {seen}", offset)

    return header, blocks()


def read_stream_arrays(source: BinaryIO):
    """Eager reader for a seekable source: returns (header, TagColumns with
    all records), filled block by block into preallocated columns."""
    start = source.tell()
    size = source.seek(0, io.SEEK_END) - start
    source.seek(start)
    n = max(size - HEADER_SIZE, 0) // RECORD_SIZE
    # np.empty, unlike np.zeros, gets huge pages, which halves the cost of
    # first touching the columns
    tags = TagColumns(np.empty(n, dtype=np.uint16), np.empty(n, dtype=np.int64))
    header, blocks = iter_stream_blocks(source)
    filled = 0
    for block in blocks:
        tags.channel[filled:filled + len(block)] = block.channel
        tags.timestamp[filled:filled + len(block)] = block.timestamp
        filled += len(block)
    return header, tags[:filled]


def merge_sorted(streams: Iterable[TagColumns]):
    """Merge (timestamp, channel)-sorted TagColumns into one sorted
    TagColumns. The tag multiset is preserved; equal tags keep input order."""
    merged = TagColumns.concatenate(streams)
    return merged[np.lexsort((merged.channel, merged.timestamp))]
