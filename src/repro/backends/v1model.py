"""The v1model (software switch) backend.

The v1model executes any valid P4, so this backend skips the Tofino
memory passes' constraints and fits against an effectively unconstrained
"chip" — reaching the end of the common pipeline stage already guarantees
compilability (§VI-B).  It is the TNA backend with the ``v1`` dialect, the
:data:`~repro.tofino.chip.V1MODEL` chip and no ordering of kernel tables
after the runtime dispatch.
"""

from __future__ import annotations

from repro.backends.tna import TnaBackend
from repro.tofino.chip import V1MODEL, ChipSpec


class V1ModelBackend(TnaBackend):
    target = "v1model"
    dialect = "v1"
    after_dispatch = False

    def __init__(self, chip: ChipSpec = V1MODEL) -> None:
        super().__init__(chip)
