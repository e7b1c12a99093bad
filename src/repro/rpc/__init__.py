"""repro.rpc — in-network accelerated RPC.

A NetRPC-style RPC framework on top of the repro stack: dataclass-schema
methods (:mod:`repro.rpc.idl`) invoked over
:class:`~repro.reliability.ReliableChannel`, with three switch-side
accelerators compiled from ``apps/netcl/rpc.ncl``: idempotent-reply
memoization at the ToR (version-tagged invalidation), scatter-gather
reply aggregation at the spine (one request multicast to every replica,
the switch merges the partials), and per-method token-bucket admission
at the edge.  See ``docs/RPC.md``.

* :mod:`repro.rpc.idl` — wire types, encode/decode, schemas, and the
  deterministic memoization key;
* :mod:`repro.rpc.policies` — host twins of the merge policies (sum /
  min / max, plus vote and top-k encodings that ride them);
* :mod:`repro.rpc.client` / :mod:`repro.rpc.server` — the application
  endpoints (retries with fresh sequences, per-request-id at-most-once
  reply cache, pure gather partials);
* :mod:`repro.rpc.memo` — the ToR memoization control plane;
* :mod:`repro.rpc.cluster` — role compilation, the fabric's shape
  (:func:`rpc_topology`) and the application wiring;
* :mod:`repro.rpc.baseline` — the host-side fan-out the telemetry and
  benchmarks compare against;
* :mod:`repro.rpc.tenant` — the same roles submitted to
  :mod:`repro.service` as a migratable tenant;
* :mod:`repro.rpc.scenarios` — the chaos acceptance run
  (``python -m repro.rpc``).
"""

from repro.rpc.baseline import (
    FanoutResult,
    GatherComparison,
    compare_gather,
    run_host_fanout,
)
from repro.rpc.client import GatherCall, RpcClient, UnaryCall
from repro.rpc.cluster import (
    EDGE_DEVICE,
    SG_DEVICE,
    SG_MCAST_GROUP,
    RpcCluster,
    TokenRefiller,
    build_rpc_cluster,
    compile_rpc_role,
    rpc_topology,
    server_host,
    standby_device,
    tor_device,
    wire_rpc_apps,
)
from repro.rpc.idl import (
    MEMO_LINES,
    NUM_METHODS,
    RPC_WORDS,
    SG_WORDS,
    RpcMethod,
    RpcSchema,
    decode,
    encode,
    request_key,
    u8,
    u16,
    u32,
    u64,
    vec,
    word_count,
)
from repro.rpc.memo import MemoController
from repro.rpc.policies import (
    finish_topk,
    finish_vote,
    merge_words,
    one_hot,
    pack_topk,
)
from repro.rpc.server import RpcServer


__all__ = [
    "EDGE_DEVICE",
    "FanoutResult",
    "GatherCall",
    "GatherComparison",
    "MEMO_LINES",
    "MemoController",
    "NUM_METHODS",
    "RPC_WORDS",
    "RpcClient",
    "RpcCluster",
    "RpcMethod",
    "RpcSchema",
    "RpcServer",
    "SG_DEVICE",
    "SG_MCAST_GROUP",
    "SG_WORDS",
    "TokenRefiller",
    "UnaryCall",
    "build_rpc_cluster",
    "compare_gather",
    "compile_rpc_role",
    "decode",
    "encode",
    "finish_topk",
    "finish_vote",
    "merge_words",
    "one_hot",
    "pack_topk",
    "request_key",
    "rpc_topology",
    "run_host_fanout",
    "server_host",
    "standby_device",
    "tor_device",
    "u8",
    "u16",
    "u32",
    "u64",
    "vec",
    "wire_rpc_apps",
    "word_count",
]
