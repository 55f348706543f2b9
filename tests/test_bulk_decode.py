"""Capture decode: one path, :meth:`StreamAssembler.feed_chunk` + ``finish``.

:func:`~repro.core.assembly.assemble_with_diagnostics` hands the whole
capture to one ``feed_chunk`` call, which slices clean single-frame
streams out of a numpy payload matrix and replays everything else through
the per-frame :meth:`StreamAssembler.feed`.  Its contract is strict
equivalence with ``feed`` on every frame: identical messages *and*
identical diagnostics on any capture, whole or chunked, hardened or not,
which the fuzzer here checks on adversarial mixes of valid traffic,
malformed PCIs, truncations, sequence gaps and timestamp ties.
"""

import random

import pytest

from repro.can import CanFrame
from repro.core import TRANSPORT_BMW, TRANSPORT_ISOTP, screen
from repro.core.assembly import StreamAssembler, assemble_with_diagnostics
from repro.transport import segment, segment_bmw
from repro.transport.arrays import FrameArrays
from repro.transport.base import DEFAULT_HARDENING


def per_frame_assemble(frames, transport, hardening=None):
    """The reference: :meth:`StreamAssembler.feed` on every frame."""
    assembler = StreamAssembler(transport, hardening=hardening)
    for frame in frames:
        assembler.feed(frame)
    return assembler.finish()


def assert_equivalent(decoded, reference):
    messages, diagnostics = decoded
    ref_messages, ref_diagnostics = reference
    assert [
        (m.can_id, m.payload, m.t_first, m.t_last, m.n_frames, m.ecu_address)
        for m in messages
    ] == [
        (m.can_id, m.payload, m.t_first, m.t_last, m.n_frames, m.ecu_address)
        for m in ref_messages
    ]
    assert diagnostics.to_dict() == ref_diagnostics.to_dict()


def random_capture(rng, transport):
    """A noisy capture: valid SFs, multi-frame trains, malformed traffic."""
    frames = []
    ids = [0x700 + i for i in range(rng.randint(1, 5))]
    for can_id in ids:
        for __ in range(rng.randint(1, 12)):
            roll = rng.random()
            if transport == TRANSPORT_BMW:
                address = rng.randrange(256)
                if roll < 0.55:  # valid single frame
                    n = rng.randint(1, 6)
                    frames.extend(segment_bmw(bytes(rng.randrange(256) for __ in range(n)), can_id, address))
                elif roll < 0.75:  # multi-frame train (may be truncated below)
                    n = rng.randint(7, 30)
                    frames.extend(segment_bmw(bytes(rng.randrange(256) for __ in range(n)), can_id, address))
                else:  # malformed: bad PCI / short frame
                    frames.append(CanFrame(can_id, bytes([address, rng.randrange(256)])))
            else:
                if roll < 0.5:
                    n = rng.randint(1, 7)
                    frames.extend(segment(bytes(rng.randrange(256) for __ in range(n)), can_id))
                elif roll < 0.7:
                    n = rng.randint(8, 40)
                    frames.extend(segment(bytes(rng.randrange(256) for __ in range(n)), can_id))
                elif roll < 0.85:  # flow control / high-nibble junk
                    frames.append(CanFrame(can_id, bytes([0x30 | rng.randrange(3), 0, 0])))
                else:  # SF claiming more bytes than the frame carries
                    frames.append(CanFrame(can_id, bytes([0x07, 1, 2])))
    # Truncate some multi-frame trains and drop random frames (gaps).
    frames = [f for f in frames if rng.random() > 0.08]
    rng.shuffle(frames)
    # Timestamps: mostly increasing, with deliberate ties.
    t = 0.0
    stamped = []
    for frame in frames:
        if rng.random() > 0.15:
            t += rng.choice([0.001, 0.01, 0.5])
        stamped.append(frame.with_timestamp(t))
    return stamped


def fuzz_captures(transport, cases=40):
    rng = random.Random(hash(transport) & 0xFFFF)
    return [random_capture(rng, transport) for __ in range(cases)]


class TestFuzzEquivalence:
    @pytest.mark.parametrize("transport", [TRANSPORT_ISOTP, TRANSPORT_BMW])
    def test_bulk_matches_event_path_on_noisy_captures(self, transport):
        for frames in fuzz_captures(transport):
            assert_equivalent(
                assemble_with_diagnostics(frames, transport),
                per_frame_assemble(screen(frames, transport), transport),
            )

    @pytest.mark.parametrize("transport", [TRANSPORT_ISOTP, TRANSPORT_BMW])
    @pytest.mark.parametrize("size", [9, 113])
    def test_chunked_matches_per_frame_feed(self, transport, size):
        # 113 is the chunk size of the service-session tests; 9, just
        # above MIN_CHUNK_FRAMES, splits every fuzz capture into several
        # chunks, most of them cutting a multi-frame train.
        for frames in fuzz_captures(transport):
            chunked = StreamAssembler(transport)
            for start in range(0, len(frames), size):
                chunked.feed_chunk(frames[start : start + size])
            assert_equivalent(chunked.finish(), per_frame_assemble(frames, transport))

    @pytest.mark.parametrize("transport", [TRANSPORT_ISOTP, TRANSPORT_BMW])
    def test_hardened_matches_hardened_per_frame_feed(self, transport):
        for frames in fuzz_captures(transport):
            assert_equivalent(
                assemble_with_diagnostics(frames, transport, hardening=DEFAULT_HARDENING),
                per_frame_assemble(frames, transport, hardening=DEFAULT_HARDENING),
            )

    def test_clean_single_frame_capture(self):
        frames = [
            frame.with_timestamp(0.001 * i)
            for i, frame in enumerate(
                segment(b"\x22\xf4\x0d", 0x7E0) + segment(b"\x62\xf4\x0d\x50", 0x7E8)
            )
        ]
        assert_equivalent(
            assemble_with_diagnostics(frames, TRANSPORT_ISOTP),
            per_frame_assemble(frames, TRANSPORT_ISOTP),
        )

    def test_empty_capture(self):
        messages, diagnostics = assemble_with_diagnostics([], TRANSPORT_ISOTP)
        assert messages == [] and diagnostics.messages == 0


class TestOnePath:
    def test_traced_and_untraced_decode_share_feed_chunk(self, monkeypatch):
        from repro.observability.trace import Tracer, activated

        chunks = []
        original = StreamAssembler.feed_chunk

        def spy(self, frames):
            chunks.append(len(frames))
            return original(self, frames)

        monkeypatch.setattr(StreamAssembler, "feed_chunk", spy)
        frames = fuzz_captures(TRANSPORT_ISOTP, cases=1)[0]
        untraced = assemble_with_diagnostics(frames, TRANSPORT_ISOTP)
        with activated(Tracer()) as tracer:
            traced = assemble_with_diagnostics(frames, TRANSPORT_ISOTP)
        assert_equivalent(traced, untraced)
        assert chunks == [len(frames), len(frames)]
        assert "decode" in {span.name for span in tracer.spans}


class TestFrameArrays:
    def test_payload_matrix_zero_padded_and_masked(self):
        import numpy as np

        frames = [
            CanFrame(0x10, b"\x12\x34", timestamp=1.0),
            CanFrame(0x11, b"", timestamp=2.0),
            CanFrame(0x12, bytes(range(8)), timestamp=3.0),
        ]
        arrays = FrameArrays.from_frames(frames)
        assert arrays.dlcs.tolist() == [2, 0, 8]
        assert arrays.payloads[0].tolist() == [0x12, 0x34, 0, 0, 0, 0, 0, 0]
        assert arrays.payloads[1].tolist() == [0] * 8
        assert np.array_equal(arrays.nibbles(0), [0x1, 0x0, 0x0])
