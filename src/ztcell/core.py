"""Shared domain types and pure PRB arithmetic used by every other module."""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import IntEnum
from typing import NamedTuple

# Identifier widths are fixed by the wire layout: UE ids are 64-bit, cell and
# E2 connection ids 32-bit, slice ids 16-bit. Slice id 0 means "no slice".
UeId = int
CellId = int
E2Id = int
SliceId = int

FRAME_MS = 10  # the radio frame: every clock in the simulator counts whole frames

KPM_FIELDS = ("snr_db", "cqi", "tx_packets", "tx_power_dbm", "throughput_mbps")


class SliceKind(IntEnum):
    NORMAL = 0
    VERIFICATION = 1
    RESTRICTED = 2


class SlicePriority(IntEnum):
    COMMERCIAL = 0
    MISSION_CRITICAL = 1


class SplitError(ValueError):
    """Raised for an impossible equal split (n = 0 or n > total PRBs)."""


@dataclass(frozen=True)
class PRBMask:
    """Fixed-length bit vector over the cell's PRBs; bit i set = PRB i owned.

    Serialized form is a big-endian bit string with PRB 0 in the most
    significant bit of the first byte, padded to whole bytes (13 bytes for a
    100-PRB cell). The slice-control message embeds exactly this layout.
    """

    size: int
    bits: int = 0

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("mask size must be >= 1")
        if self.bits < 0 or self.bits >> self.size:
            raise ValueError("mask bits outside PRB range")

    @classmethod
    def from_range(cls, start: int, count: int, size: int) -> PRBMask:
        if start < 0 or count < 0 or start + count > size:
            raise ValueError(f"PRB range [{start}, {start + count}) outside cell of {size}")
        return cls(size=size, bits=((1 << count) - 1) << start)

    def popcount(self) -> int:
        return self.bits.bit_count()

    def to_bytes(self) -> bytes:
        # Little-endian bytes put PRB 8k at bit 0 of byte k; the wire wants bit 7.
        return self.bits.to_bytes((self.size + 7) // 8, "little").translate(_REVERSED_BYTE)

    @classmethod
    def from_bytes(cls, data: bytes, size: int) -> PRBMask:
        nbytes = (size + 7) // 8
        if len(data) != nbytes:
            raise ValueError(f"expected {nbytes} mask bytes for {size} PRBs, got {len(data)}")
        bits = int.from_bytes(data.translate(_REVERSED_BYTE), "little")
        if bits >> size:
            raise ValueError("padding bits beyond the last PRB must be zero")
        return cls(size=size, bits=bits)


# Byte value -> the same byte with its bit order mirrored (bit i -> bit 7 - i).
_REVERSED_BYTE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


@dataclass(frozen=True)
class SliceSpec:
    id: SliceId
    mask: PRBMask
    priority: SlicePriority = SlicePriority.COMMERCIAL
    kind: SliceKind = SliceKind.NORMAL

    def __post_init__(self) -> None:
        if not 0 < self.id <= 0xFFFF:
            raise ValueError(f"slice id {self.id} outside 1..65535")
        if self.mask.popcount() == 0:
            # Applies to restricted slices too: isolation still grants >= 1 PRB.
            raise ValueError(f"slice {self.id} has an empty mask")

    def budget(self) -> int:
        return self.mask.popcount()


class KPMReport(NamedTuple):
    """One periodic per-UE measurement record carried over E2.

    A tuple in wire order: `ue`, `cell`, `seq`, then `KPM_FIELDS`.
    """

    ue: UeId
    cell: CellId
    seq: int
    snr_db: float
    cqi: int
    tx_packets: int
    tx_power_dbm: float
    throughput_mbps: float

    def validate(self) -> None:
        if not 0 <= self.cqi <= 15:
            raise ValueError(f"cqi {self.cqi} outside 0..15")
        if self.tx_packets < 0:
            raise ValueError("tx_packets must be >= 0")
        if self.throughput_mbps < 0:
            raise ValueError("throughput_mbps must be >= 0")
        if self.seq < 0:
            raise ValueError("seq must be >= 0")


@dataclass(frozen=True)
class FieldStats:
    """Per-KPM-field profile entry: sample stats plus the accepted range.

    flag_low controls whether a window mean below `lo` counts as a deviation.
    Traffic-volume fields are checked one-sided (above `hi` only) because the
    scheduler itself drives served volume down for throttled slices.
    """

    mean: float
    std: float
    lo: float
    hi: float
    flag_low: bool = True

    def __post_init__(self) -> None:
        if self.std < 0:
            raise ValueError("std must be >= 0")
        if self.lo > self.hi:
            raise ValueError("accepted range lo > hi")


@dataclass(frozen=True)
class BehaviorProfile:
    """Per-UE mean/std and accepted range for every KPM field it is assessed on."""

    ue: UeId
    fields: dict[str, FieldStats] = field(default_factory=dict)


@dataclass(frozen=True)
class SliceTableViolation:
    kind: str
    slices: tuple[SliceId, ...]
    detail: str


def ordered_sum(values: Iterable[float]) -> float:
    """Add floats strictly left to right from 0.0.

    Built-in sum() compensates float rounding from Python 3.12 on, so its
    last digit depends on the interpreter; outputs must not.
    """
    total = 0.0
    for v in values:
        total += v
    return total


def equal_split(total_prbs: int, n: int) -> list[int]:
    """Split total_prbs into n budgets with spread <= 1.

    Remainder PRBs go to the lowest-index slices, so the output is
    deterministic and order-stable.
    """
    if n < 1 or n > total_prbs:
        raise SplitError(f"cannot split {total_prbs} PRBs into {n} slices")
    base, rem = divmod(total_prbs, n)
    return [base + 1 if i < rem else base for i in range(n)]


def validate_slice_table(slices: list[SliceSpec], total_prbs: int) -> list[SliceTableViolation]:
    """Check a slice table for repeated ids, foreign mask sizes and overlap.

    Returns an empty list when the table is valid. One pass ORs each mask
    into the PRBs owned so far; an overlap names the earlier owner of the
    first shared PRB and the later slice. Disjoint masks sized for the cell
    cannot over-allocate it, so there is no separate budget check.
    Violations are the return value, never exceptions.
    """
    violations: list[SliceTableViolation] = []
    seen_ids: set[SliceId] = set()
    owned = 0
    for i, spec in enumerate(slices):
        if spec.id in seen_ids:
            violations.append(
                SliceTableViolation("duplicate_id", (spec.id,), f"slice id {spec.id} repeats")
            )
        seen_ids.add(spec.id)
        if spec.mask.size != total_prbs:
            violations.append(
                SliceTableViolation(
                    "size_mismatch",
                    (spec.id,),
                    f"mask sized for {spec.mask.size} PRBs in a {total_prbs}-PRB cell",
                )
            )
        shared = owned & spec.mask.bits
        if shared:
            first = (shared & -shared).bit_length() - 1
            owner = next(s.id for s in slices[:i] if s.mask.bits >> first & 1)
            violations.append(
                SliceTableViolation(
                    "overlap", (owner, spec.id), f"slices {owner} and {spec.id} share PRB {first}"
                )
            )
        owned |= spec.mask.bits
    return violations
