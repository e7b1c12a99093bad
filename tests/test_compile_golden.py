"""Hold the compiler's output and per-pass work to a golden.

For each of the 17 units a round of Table IV compiles (the six paper
programs on ``tna`` and ``v1model``, the collective root/leaf roles and
the RPC edge/sg/tor roles), the digest pins the P4 text, the fitter's
``stages_used`` and every pass run as ``(name, function, changes,
instrs_before, instrs_after)``.  A middle-end change that is meant to
make the compiler faster, not different, keeps every entry equal.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.apps import netcl_source
from repro.core import compile_netcl
from repro.telemetry.profile import Profiler

_COLL = {"LOCAL_WORKERS": 2, "NUM_RACKS": 4, "ROOT_DEV": 100, "COLL_MCAST_GROUP": 77}
_RPC = {"NUM_METHODS": 16, "FANOUT": 16, "EDGE_DEV": 90, "SG_DEV": 91, "SG_MCAST": 88}

#: (label, program, device, target, defines)
UNITS = [
    (f"{app}@{dev}/{target}", app, dev, target, None)
    for target in ("tna", "v1model")
    for app, dev in (
        ("agg", 1), ("cache", 1), ("paxos", 2), ("paxos", 5), ("paxos", 1), ("calc", 1),
    )
] + [
    ("collective-root/tna", "collective", 100, "tna", _COLL),
    (
        "collective-leaf/tna", "collective", 101, "tna",
        {**_COLL, "LEAVES": "101", "RACK_MASK": 1},
    ),
    ("rpc-edge/tna", "rpc", 90, "tna", _RPC),
    ("rpc-sg/tna", "rpc", 91, "tna", _RPC),
    ("rpc-tor/tna", "rpc", 101, "tna", {**_RPC, "TOR_DEVS": "101"}),
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _unit_digest(app, dev, target, defines) -> tuple[str, int, int, str]:
    prof = Profiler()
    cp = compile_netcl(
        netcl_source(app), dev, target=target, defines=defines,
        program_name=app, profiler=prof,
    )
    records = [
        (
            span.name,
            span.meta["function"],
            span.meta["changes"],
            span.meta["instrs_before"],
            span.meta["instrs_after"],
        )
        for span in prof.passes()
    ]
    return _sha(cp.p4_source), cp.report.stages_used, len(records), _sha(repr(records))


#: label -> (sha256[:16] of the P4 text, stages_used, pass runs,
#: sha256[:16] of the pass records).  The pass records and stages were
#: taken before the middle-end was made linear per compile; the text is
#: the printed program tree (base program, runtime and kernels).
GOLDEN: dict[str, tuple[str, int, int, str]] = {
    'agg@1/tna': ('8eec32dfa90189f8', 12, 15, '37b21aafc25e8643'),
    'cache@1/tna': ('d005e2e03e932342', 9, 15, 'fa60d637c0b89ac0'),
    'paxos@2/tna': ('9dfe148d17f1cea1', 7, 15, '07dbc1bbc96213ed'),
    'paxos@5/tna': ('38a007fb8f845232', 5, 15, 'cbe89106e47a6a29'),
    'paxos@1/tna': ('f50abfde4b2059ae', 3, 15, '3538dd411e1a5b7c'),
    'calc@1/tna': ('3a9890378a2fb161', 3, 15, 'ad08ec8944a0218f'),
    'agg@1/v1model': ('adaf3d56237d059e', 9, 8, 'f14d0ed22dfe1460'),
    'cache@1/v1model': ('3f287bd663ce0b92', 8, 8, 'ff08d921aaa06012'),
    'paxos@2/v1model': ('903071974f5ea60d', 6, 8, '0022cddf1f5c4cf4'),
    'paxos@5/v1model': ('af16cb6b8f640fd3', 5, 8, '9eaf62b7fc832197'),
    'paxos@1/v1model': ('91456657e256c81f', 3, 8, '682631f72f22a898'),
    'calc@1/v1model': ('c3a2ff461e7bc300', 6, 8, '8ffd48e62484047c'),
    'collective-root/tna': ('79e537983137a7ca', 8, 28, '07b1d1da1ab5bbd6'),
    'collective-leaf/tna': ('4face781d84c119d', 10, 28, '631529899b45fdaa'),
    'rpc-edge/tna': ('0fa5ad999ec2e692', 6, 28, '272f55f5ddff2710'),
    'rpc-sg/tna': ('a88b2d6e1c8533ba', 10, 15, '998f614771b6cf5c'),
    'rpc-tor/tna': ('ccd9c56a2bcc8c03', 7, 15, '983351f6c4ab15e8'),
}


@pytest.mark.parametrize("label,app,dev,target,defines", UNITS, ids=[u[0] for u in UNITS])
def test_compile_output_and_pass_work_match_golden(label, app, dev, target, defines):
    assert _unit_digest(app, dev, target, defines) == GOLDEN[label]
