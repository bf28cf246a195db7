"""Hypothesis properties of the chunked result-streaming codec.

The streaming path (worker -> coordinator -> client) is only as sound
as its framing codec, so the codec's invariants get generative coverage
at 200 examples each -- well past the suite's default profile:

* **Round-trip** -- for ANY byte string (empty included) and ANY chunk
  size down to one byte, splitting with :func:`iter_chunks` and feeding
  the chunks through a :class:`ChunkAssembler` reproduces the input
  exactly, whether the sink is memory or a spool file.  Sizes that
  straddle chunk boundaries (``k*chunk_size - 1 .. + 1``) are drawn
  explicitly, since off-by-ones live exactly there.
* **Integrity** -- flipping any single byte of any chunk is rejected by
  the per-chunk sha256 before the sink is touched, and a finish whose
  declared size or whole-stream hash disagrees with what arrived is
  rejected too.
* **Ordering** -- a replayed, skipped, or otherwise out-of-order offset
  raises ``bad_offset`` without corrupting the verified prefix.
* **Result encoding** -- ``decode_result(encode_result(r)) == r`` for
  arbitrary JSON-object results, and the encoding is canonical (equal
  dicts encode to equal bytes regardless of key order).
"""

from __future__ import annotations

import io
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ChunkIntegrityError, ChunkOffsetError, MalformedRequestError
from repro.service import ChunkAssembler, decode_result, encode_result, iter_chunks
from repro.service.streams import chunk_sha256, stream_sha256

pytestmark = pytest.mark.dedicated

_blobs = st.binary(max_size=4096)
_chunk_sizes = st.integers(min_value=1, max_value=257)

# JSON-object results: scalars, and one level of list/dict nesting --
# enough to cover what runners actually return.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 31), max_value=2 ** 31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
)
_results = st.dictionaries(
    st.text(max_size=10),
    st.one_of(_scalars, st.lists(_scalars, max_size=5),
              st.dictionaries(st.text(max_size=10), _scalars, max_size=5)),
    max_size=8,
)


def _assemble(data: bytes, chunk_size: int, sink=None) -> ChunkAssembler:
    asm = ChunkAssembler(sink)
    for chunk in iter_chunks(data, chunk_size):
        asm.feed(chunk.offset, chunk.data, chunk.sha256)
    asm.finish(len(data), stream_sha256(data))
    return asm


class TestRoundTrip:
    @given(data=_blobs, chunk_size=_chunk_sizes)
    @settings(max_examples=200, deadline=None)
    def test_split_and_reassemble_is_identity(self, data, chunk_size):
        asm = _assemble(data, chunk_size)
        assert asm.getvalue() == data
        assert asm.bytes_received == len(data)

    @given(chunk_size=_chunk_sizes,
           k=st.integers(min_value=1, max_value=5),
           delta=st.integers(min_value=-1, max_value=1))
    @settings(max_examples=200, deadline=None)
    def test_boundary_straddling_sizes(self, chunk_size, k, delta):
        """Sizes of k*chunk_size - 1, exactly k chunks, and one byte over."""
        size = max(0, k * chunk_size + delta)
        data = bytes(i % 251 for i in range(size))
        chunks = list(iter_chunks(data, chunk_size))
        assert len(chunks) == (size + chunk_size - 1) // chunk_size
        assert sum(len(c.data) for c in chunks) == size
        # Every chunk but the last is full; offsets tile [0, size).
        for i, c in enumerate(chunks):
            assert c.offset == i * chunk_size
            if i < len(chunks) - 1:
                assert len(c.data) == chunk_size
        assert _assemble(data, chunk_size).getvalue() == data

    @given(data=_blobs, chunk_size=_chunk_sizes)
    @settings(max_examples=200, deadline=None)
    def test_file_sink_spools_identical_bytes(self, data, chunk_size):
        with tempfile.TemporaryDirectory() as td:
            path = os.path.join(td, "spool.part")
            with open(path, "wb") as fh:
                _assemble(data, chunk_size, sink=fh)
            with open(path, "rb") as fh:
                assert fh.read() == data

    def test_empty_stream_is_just_a_finish(self):
        assert list(iter_chunks(b"", 64)) == []
        asm = ChunkAssembler()
        assert asm.finish(0, stream_sha256(b"")) == 0
        assert asm.getvalue() == b""

    def test_chunk_size_must_be_positive(self):
        with pytest.raises(ValueError):
            list(iter_chunks(b"xy", 0))


class TestIntegrity:
    @given(data=st.binary(min_size=1, max_size=2048),
           chunk_size=_chunk_sizes,
           pos=st.integers(min_value=0),
           flip=st.integers(min_value=1, max_value=255))
    @settings(max_examples=200, deadline=None)
    def test_any_flipped_byte_is_rejected_before_the_sink(
            self, data, chunk_size, pos, flip):
        pos %= len(data)
        corrupt = bytearray(data)
        corrupt[pos] ^= flip
        asm = ChunkAssembler()
        with pytest.raises(ChunkIntegrityError):
            for chunk in iter_chunks(bytes(corrupt), chunk_size):
                # Declared hashes are those of the *original* bytes, as
                # if the flip happened in transit.
                asm.feed(chunk.offset, chunk.data,
                         chunk_sha256(data[chunk.offset:
                                           chunk.offset + chunk_size]))
        # Only chunks before the corrupt one made it into the sink.
        assert asm.getvalue() == data[:asm.bytes_received]
        assert asm.bytes_received <= pos

    @given(data=_blobs, chunk_size=_chunk_sizes,
           delta=st.integers(min_value=-3, max_value=3).filter(bool))
    @settings(max_examples=200, deadline=None)
    def test_finish_rejects_wrong_size(self, data, chunk_size, delta):
        asm = ChunkAssembler()
        for chunk in iter_chunks(data, chunk_size):
            asm.feed(chunk.offset, chunk.data, chunk.sha256)
        with pytest.raises(ChunkOffsetError):
            asm.finish(len(data) + delta, stream_sha256(data))

    @given(data=_blobs, chunk_size=_chunk_sizes)
    @settings(max_examples=200, deadline=None)
    def test_finish_rejects_wrong_stream_hash(self, data, chunk_size):
        asm = ChunkAssembler()
        for chunk in iter_chunks(data, chunk_size):
            asm.feed(chunk.offset, chunk.data, chunk.sha256)
        with pytest.raises(ChunkIntegrityError):
            asm.finish(len(data), stream_sha256(data + b"!"))


class TestOrdering:
    @given(data=st.binary(min_size=2, max_size=2048),
           chunk_size=st.integers(min_value=1, max_value=64),
           skew=st.integers(min_value=-5, max_value=5).filter(bool))
    @settings(max_examples=200, deadline=None)
    def test_out_of_order_offset_is_rejected(self, data, chunk_size, skew):
        chunks = list(iter_chunks(data, chunk_size))
        asm = ChunkAssembler()
        asm.feed(chunks[0].offset, chunks[0].data, chunks[0].sha256)
        bad = max(0, chunks[0].offset + len(chunks[0].data) + skew)
        if bad == asm.bytes_received:  # skew happened to cancel out
            bad += 1
        with pytest.raises(ChunkOffsetError):
            asm.feed(bad, chunks[-1].data, chunks[-1].sha256)
        # The verified prefix survives the rejected frame.
        assert asm.getvalue() == chunks[0].data

    @given(data=st.binary(min_size=1, max_size=512),
           chunk_size=st.integers(min_value=1, max_value=64))
    @settings(max_examples=200, deadline=None)
    def test_replayed_chunk_is_rejected(self, data, chunk_size):
        chunks = list(iter_chunks(data, chunk_size))
        asm = ChunkAssembler()
        for chunk in chunks:
            asm.feed(chunk.offset, chunk.data, chunk.sha256)
        with pytest.raises(ChunkOffsetError):
            asm.feed(chunks[-1].offset, chunks[-1].data, chunks[-1].sha256)


class TestResultEncoding:
    @given(result=_results)
    @settings(max_examples=200, deadline=None)
    def test_encode_decode_round_trip(self, result):
        assert decode_result(encode_result(result)) == result

    @given(result=_results)
    @settings(max_examples=200, deadline=None)
    def test_encoding_is_canonical(self, result):
        shuffled = dict(reversed(list(result.items())))
        assert encode_result(result) == encode_result(shuffled)

    def test_non_object_results_are_rejected(self):
        with pytest.raises(MalformedRequestError):
            encode_result(["not", "a", "dict"])
        with pytest.raises(MalformedRequestError):
            decode_result(b"[1,2,3]")
        with pytest.raises(ChunkIntegrityError):
            decode_result(b"{truncated")
