"""Container-granular PHV allocation (Table VI of the paper).

Every header and metadata field carried across the pipe occupies PHV
container bits.  Containers come in 8/16/32-bit sizes; a field is packed
into the smallest container(s) that hold it, and two fields never share a
container here (a conservative model — bf-p4c packs more cleverly, but
occupancy *ratios* between programs are preserved, which is what Table VI
compares).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.tofino.chip import ChipSpec, TOFINO_1


@dataclass
class PhvReport:
    used_8: int
    used_16: int
    used_32: int
    chip: ChipSpec
    header_bits: int
    metadata_bits: int
    local_bits: int

    @property
    def used_bits(self) -> int:
        return self.used_8 * 8 + self.used_16 * 16 + self.used_32 * 32

    @property
    def occupancy(self) -> float:
        """Worst-case PHV occupancy, as a fraction of all container bits."""
        return self.used_bits / self.chip.phv.total_bits


class PhvError(Exception):
    pass


class PhvAllocator:
    def __init__(self, chip: ChipSpec = TOFINO_1) -> None:
        self.chip = chip

    def allocate(
        self,
        header_fields: list[int],
        metadata_fields: list[int],
        local_fields: list[int],
    ) -> PhvReport:
        """Pack fields (bit widths) into containers; raise if they exhaust
        the inventory."""
        used = {8: 0, 16: 0, 32: 0}

        def pack(bits: int) -> None:
            remaining = bits
            # Whole 32-bit containers for the bulk.
            while remaining > 16:
                used[32] += 1
                remaining -= 32
            if remaining > 8:
                used[16] += 1
                remaining -= 16
            if remaining > 0:
                used[8] += 1

        for f in header_fields + metadata_fields + local_fields:
            if f > 0:
                pack(f)

        spec = self.chip.phv
        # Rebalance across size classes: an overflowing 32-bit demand splits
        # into two 16-bit containers; an overflowing 16-bit demand into two
        # 8-bit containers; small fields may also be promoted upward when
        # only larger containers remain free.
        over_32 = max(0, used[32] - spec.containers_32)
        used[32] -= over_32
        used[16] += over_32 * 2
        over_16 = max(0, used[16] - spec.containers_16)
        used[16] -= over_16
        free_32 = spec.containers_32 - used[32]
        promote_16 = min(over_16, free_32)
        used[32] += promote_16
        used[8] += (over_16 - promote_16) * 2
        over_8 = max(0, used[8] - spec.containers_8)
        used[8] -= over_8
        free_16 = spec.containers_16 - used[16]
        promote_8 = min(over_8, free_16)
        used[16] += promote_8
        over_8 -= promote_8
        if over_8 > 0:
            free_32 = spec.containers_32 - used[32]
            promote_8_32 = min(over_8, free_32)
            used[32] += promote_8_32
            over_8 -= promote_8_32
        if over_8 > 0 or used[16] > spec.containers_16 or used[32] > spec.containers_32:
            raise PhvError(
                f"PHV allocation failed: demand {used} exceeds container "
                f"inventory ({spec.containers_8}x8b, {spec.containers_16}x16b, "
                f"{spec.containers_32}x32b)"
            )
        return PhvReport(
            used[8],
            used[16],
            used[32],
            self.chip,
            header_bits=sum(header_fields),
            metadata_bits=sum(metadata_fields),
            local_bits=sum(local_fields),
        )
