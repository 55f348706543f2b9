"""Step 1 of diagnostic-frames analysis: screening (§3.2).

Captured traffic mixes payload-carrying frames with pure control frames.
Screening removes the latter:

* **ISO 15765-2** — flow-control frames (PCI nibble ``0x3``) only notify the
  sender of receiver properties; drop them, keep SF/FF/CF.
* **VW TP 2.0** — broadcast/channel-setup, channel-parameter and ACK frames
  carry no payload; keep only data-transmission frames.
* **BMW extended addressing** — same as ISO-TP after the address byte
  (handled by the assembler); screening drops flow control at offset 1.

The module also auto-detects which transport a capture uses, so the
pipeline needs no per-vehicle configuration.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List

from ..can import CanFrame
from ..transport.isotp import PciType
from ..transport.vwtp import (
    BROADCAST_ID_BASE,
    VwTpFrameKind,
    classify_vwtp_frame,
)

#: Known transports, in the vocabulary of this module.
TRANSPORT_ISOTP = "isotp"
TRANSPORT_VWTP = "vwtp"
TRANSPORT_BMW = "bmw"


def _isotp_pci_nibble(data: bytes, offset: int = 0) -> int:
    if len(data) <= offset:
        return -1
    return data[offset] >> 4


def detect_transport(frames: Iterable[CanFrame]) -> str:
    """Guess the transport family of a capture.

    VW TP 2.0 reveals itself through channel-setup frames in the broadcast
    id range; BMW extended addressing through frames whose *second* byte
    carries a valid ISO-TP PCI while the first byte repeats per CAN id (the
    ECU address).  Plain ISO-TP is the default.
    """
    frames = list(frames)
    for frame in frames:
        if (
            BROADCAST_ID_BASE <= frame.can_id <= BROADCAST_ID_BASE + 0xFF
            and len(frame.data) >= 2
            and frame.data[1] in (0xC0, 0xD0)
        ):
            return TRANSPORT_VWTP
    # BMW heuristic: per-id *dominant* first byte + valid PCI at offset 1,
    # while offset 0 is *not* a globally valid PCI for a decent fraction.
    # A lossy sniffer tap flips the occasional bit, so strict per-id
    # constancy would abandon the whole BMW decode over a single corrupted
    # frame; instead require the most common first byte to account for the
    # overwhelming majority of each id's traffic.
    votes_bmw = 0
    votes_isotp = 0
    first_bytes: Dict[int, Counter] = {}
    for frame in frames:
        if len(frame.data) < 2:
            continue
        first_bytes.setdefault(frame.can_id, Counter())[frame.data[0]] += 1
        pci0 = _isotp_pci_nibble(frame.data, 0)
        pci1 = _isotp_pci_nibble(frame.data, 1)
        if pci0 in (0x0, 0x1, 0x2, 0x3):
            # Could still be BMW if byte 0 is an address that happens to
            # have a low nibble; disambiguate via per-id dominance below.
            votes_isotp += 1
        if pci1 in (0x0, 0x1, 0x2, 0x3):
            votes_bmw += 1
    dominant = {
        can_id: counts.most_common(1)[0]
        for can_id, counts in first_bytes.items()
    }
    if (
        first_bytes
        and all(
            count >= 0.9 * sum(first_bytes[can_id].values())
            for can_id, (__, count) in dominant.items()
        )
        and votes_bmw >= votes_isotp
        and any(byte not in range(0x00, 0x40) for byte, __ in dominant.values())
    ):
        return TRANSPORT_BMW
    return TRANSPORT_ISOTP


def frame_passes_screen(frame: CanFrame, transport: str) -> bool:
    """Per-frame screening predicate (the stateless core of :func:`screen`).

    Screening never looks across frames, so a live stream can screen each
    frame as it arrives and reach exactly the batch decision.
    """
    if transport == TRANSPORT_VWTP:
        return classify_vwtp_frame(frame) == VwTpFrameKind.DATA
    if transport == TRANSPORT_BMW:
        offset = 1
    elif transport == TRANSPORT_ISOTP:
        offset = 0
    else:
        raise ValueError(f"unknown transport {transport!r}")
    nibble = _isotp_pci_nibble(frame.data, offset)
    return nibble in (PciType.SINGLE, PciType.FIRST, PciType.CONSECUTIVE)


def screen_mask(arrays, transport: str):
    """Vectorised :func:`frame_passes_screen`: a keep-mask over a chunk.

    Takes a :class:`~repro.transport.arrays.FrameArrays` and returns a
    boolean numpy array marking the frames the per-frame screen would
    keep, or ``None`` on VW TP 2.0, whose frame classification only
    :func:`frame_passes_screen` implements.  The ``dlcs > offset`` term
    reproduces the "too short to hold a PCI" rejection that zero padding
    would otherwise hide.
    """
    if transport == TRANSPORT_BMW:
        offset = 1
    elif transport == TRANSPORT_ISOTP:
        offset = 0
    else:
        return None
    return (arrays.dlcs > offset) & (arrays.nibbles(offset) <= PciType.CONSECUTIVE)


def screen(frames: Iterable[CanFrame], transport: str) -> List[CanFrame]:
    """Keep the frames :func:`frame_passes_screen` keeps, in order."""
    if transport not in (TRANSPORT_ISOTP, TRANSPORT_VWTP, TRANSPORT_BMW):
        raise ValueError(f"unknown transport {transport!r}")
    return [frame for frame in frames if frame_passes_screen(frame, transport)]
