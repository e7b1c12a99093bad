"""repro.collective — hierarchical in-network collectives.

A NCCL-like collective-communication subsystem on top of the repro
stack: :class:`CollectiveJob` operations (``allreduce``,
``reduce_scatter``, ``allgather``, ``broadcast``) over named float32
tensors, block-quantized to fixed-point integers and aggregated by a
two-level switch tree (worker -> ToR leaf-sum -> spine root-sum ->
broadcast down).  See ``docs/COLLECTIVE.md``.

* :mod:`repro.collective.protocol` — the shared windowed slot-stream
  machinery (also the engine under :mod:`repro.apps.agg`);
* :mod:`repro.collective.quantize` — block quantization to fixed point
  with per-chunk max-exponent scaling and a provable error bound;
* :mod:`repro.collective.job` — the :class:`CollectiveJob` API and the
  per-rank :class:`CollectiveWorker` (exponent stream + reduce stream);
* :mod:`repro.collective.tree` — role compilation, the tree's shape
  (:func:`collective_topology`) and the worker wiring;
* :mod:`repro.collective.baseline` — the host-based ring allreduce the
  telemetry compares against;
* :mod:`repro.collective.tenant` — the same tree submitted to
  :mod:`repro.service` as a multi-tenant workload;
* :mod:`repro.collective.scenarios` — the chaos acceptance run
  (``python -m repro.collective``).
"""

from repro.collective.baseline import RingResult, run_host_ring
from repro.collective.job import (
    COMP_EXPMAX,
    COMP_REDUCE,
    OPS,
    CollectiveJob,
    CollectiveWorker,
    contribution,
    shard_range,
)
from repro.collective.protocol import (
    NUM_SLOTS,
    SlotCluster,
    SlotStream,
    StallError,
    StreamStats,
    require_all_done,
    resync_streams,
)
from repro.collective.quantize import (
    EXP_BIAS,
    MANTISSA_BITS,
    chunk_exponent,
    dequantize_chunk,
    quantization_error_bound,
    quantize_chunk,
)
from repro.collective.tree import (
    COLL_MCAST_GROUP,
    ROOT_DEVICE,
    CollectiveCluster,
    build_collective_cluster,
    collective_topology,
    compile_role,
    leaf_device,
    standby_device,
    wire_workers,
)


__all__ = [
    "COLL_MCAST_GROUP",
    "COMP_EXPMAX",
    "COMP_REDUCE",
    "CollectiveCluster",
    "CollectiveJob",
    "CollectiveWorker",
    "EXP_BIAS",
    "MANTISSA_BITS",
    "NUM_SLOTS",
    "OPS",
    "ROOT_DEVICE",
    "RingResult",
    "SlotCluster",
    "SlotStream",
    "StallError",
    "StreamStats",
    "build_collective_cluster",
    "chunk_exponent",
    "collective_topology",
    "compile_role",
    "contribution",
    "dequantize_chunk",
    "leaf_device",
    "quantization_error_bound",
    "quantize_chunk",
    "require_all_done",
    "resync_streams",
    "run_host_ring",
    "shard_range",
    "standby_device",
    "wire_workers",
]
