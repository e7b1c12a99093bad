"""One program per switch program, not per device id.

A device takes its kernels and its ``_net_`` / ``_managed_`` memory from
the placement its program was compiled for (``Module.compiled_for``) and
keeps its own id for addressing and ``device.id``; so a standby runs its
primary's program, every RPC ToR runs the one compiled at ``tor(0)``, and
a build compiles only the programs that differ.  Each count below starts
from a cleared compile cache.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.chaos import run_agg_chaos, run_cache_chaos
from repro.collective import build_collective_cluster
from repro.collective.tree import leaf_device, standby_device
from repro.core import compile_cache_clear, compile_cache_info, compile_netcl
from repro.deploy import AbstractTopology
from repro.rpc import build_rpc_cluster, tor_device
from repro.rpc.scenarios import scenario_handlers, scenario_schema
from repro.runtime import DeviceConnection
from repro.runtime.control import ManagedMemoryError
from repro.runtime.message import NO_DEVICE, NetCLPacket
from repro.service.workload import BulkDriver

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def test_a_collective_standby_runs_its_primarys_program():
    compile_cache_clear()
    cluster = build_collective_cluster(4, 2, standby=True, reliable=True)
    # the root and one leaf program per rack (RACK_MASK differs)
    assert compile_cache_info().misses == 5
    for rack in range(4):
        primary = cluster.compiled[leaf_device(rack)]
        standby = cluster.compiled[standby_device(rack)]
        assert standby.module is primary.module and standby.spec is primary.spec
        assert cluster.standbys[rack].module is cluster.leaves[rack].module
        assert cluster.standbys[rack].module.compiled_for == leaf_device(rack)
    assert len({id(cp.module) for cp in cluster.compiled.values()}) == 5


def test_every_rpc_tor_runs_the_tor_program():
    compile_cache_clear()
    cluster = build_rpc_cluster(
        scenario_schema(), scenario_handlers({}), num_racks=2, standby=True
    )
    # edge, spine, and one ToR program for both racks and their standbys
    assert compile_cache_info().misses == 3
    tor = cluster.compiled[tor_device(0)].module
    assert [d.module for d in (*cluster.tors, *cluster.standbys)] == [tor] * 4
    assert tor.compiled_for == tor_device(0)


@pytest.mark.parametrize("run", [run_cache_chaos, run_agg_chaos])
def test_a_chaos_run_compiles_one_program(run):
    compile_cache_clear()
    result = run(7)
    assert result.ok, result.errors
    assert compile_cache_info().misses == 1


def test_the_bulk_tenant_compiles_agg_once():
    compile_cache_clear()
    topo = BulkDriver(None, "bulk", {"hosts": [5], "devices": 3}).build()
    assert compile_cache_info().misses == 1
    first = topo.programs[1]
    assert all(cp is first for cp in topo.programs.values())


STANDBY_SRC = """
_at(1) _managed_ unsigned m;
_at(5) _managed_ unsigned n;
_kernel(1) _at(1) void k(unsigned &x) { x = device.id + m; }
"""


def test_a_standby_holds_its_primarys_memory_and_keeps_its_own_id():
    program = compile_netcl(STANDBY_SRC, 1)
    plan = AbstractTopology.star(1, program, [1], spare=(2, program)).realise()
    standby = plan.devices[2]
    conn = DeviceConnection(standby)
    conn.managed_write("m", 10)
    with pytest.raises(ManagedMemoryError, match="not placed at device 1 .*Eq. 2"):
        conn.managed_write("n", 1)
    spec = standby.specs[1]
    packet = NetCLPacket(
        src=1, dst=1, from_=NO_DEVICE, to=2, comp=1, act=0, data=spec.plan.encode([0])
    )
    (x,) = spec.plan.decode(standby.process(packet).packet.data)
    assert x == 2 + 10  # device.id is the standby's own id


def test_no_source_text_is_repinned():
    """``_at(...)`` is never rewritten in a program's text: a device runs
    the placement its program was compiled for."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "replace"
                and any(
                    isinstance(a, ast.Constant)
                    and isinstance(a.value, str)
                    and "_at(" in a.value
                    for a in node.args
                )
            ):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not offenders, offenders
