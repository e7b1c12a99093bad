"""Keep faults and recovery on one path each.

* Link loss is a :class:`~repro.chaos.LinkFaults` in a ``ChaosPlan``
  (``apply_faults``): a :class:`~repro.netsim.Link` has no loss field and
  a :class:`~repro.netsim.Network` no loss RNG.
* Standalone failover is built by the deployment
  (:meth:`~repro.deploy.DeploymentPlan.failover`) from what the
  application handed it through ``control()`` and ``register_channel()``;
  no other ``src`` module constructs a ``FailoverManager``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.apps import compile_app
from repro.apps.cache import CACHE_DEVICE, cache_topology
from repro.chaos.scenarios import CacheAcceptance
from repro.collective import build_collective_cluster
from repro.collective.tree import leaf_device, standby_device
from repro.netsim import Link, Network
from repro.netsim.net import DEVICE
from repro.reliability import ReplicatedConnection, reliable_device

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
#: the removed per-link loss field (spelled in two parts so this file
#: does not trip its own search)
LOSS_FIELD = "loss_" + "probability"


def test_no_link_loss_field_anywhere():
    offenders = [
        f"{path.relative_to(ROOT)}:{n}"
        for top in ("src", "tests", "benchmarks", "examples")
        for path in sorted((ROOT / top).rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if LOSS_FIELD in line
    ]
    assert not offenders, (
        "describe loss with apply_faults(LinkFaults(loss=p), …): " + ", ".join(offenders)
    )


def test_a_leftover_loss_assignment_raises():
    with pytest.raises(AttributeError):
        setattr(Link(), LOSS_FIELD, 1.0)  # slotted: no silent no-op


def test_network_draws_no_loss_rng():
    assert not hasattr(Network(seed=3), "rng")


def test_only_the_deployment_constructs_failover_managers():
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) == "FailoverManager"
                or getattr(node.func, "attr", None) == "FailoverManager"
            ):
                sites.append(path.relative_to(SRC).as_posix())
    assert sites == ["deploy/planner.py"], sites


class TestDeploymentFailover:
    """Each manager gets exactly what the application registered under its
    primary: the channels in registration order and the journal
    ``control(primary)`` returned."""

    def test_collective_standby_cluster(self):
        cluster = build_collective_cluster(2, 2, standby=True, reliable=True)
        deployment = cluster.deployment
        journal = deployment.control(leaf_device(1))
        managers = deployment.failover(heartbeat_ns=50_000)
        assert [(m.primary_id, m.standby_id) for m in managers] == [
            (leaf_device(r), standby_device(r)) for r in range(2)
        ]
        for rack, mgr in enumerate(managers):
            rack_channels = [w.channel for w in cluster.workers if w.rack == rack]
            assert len(rack_channels) == 2
            assert mgr.channels == rack_channels
            assert mgr.heartbeat_ns == 50_000
        # rack 0's leaf never handed out a control connection; rack 1's did
        assert managers[0].replicated is None
        assert managers[1].replicated is journal
        assert isinstance(journal, ReplicatedConnection)

    def test_cache_chaos_deployment(self):
        program = compile_app("cache", CACHE_DEVICE)
        deployment = cache_topology(1, 2, program, spare=(2, program)).realise(seed=7, device=reliable_device())
        work = CacheAcceptance(deployment)
        hooks = []
        (mgr,) = deployment.failover(heartbeat_ns=150_000, on_failover=hooks.append)
        assert (mgr.primary_id, mgr.standby_id) == (CACHE_DEVICE, 2)
        assert mgr.channels == [work.client.channel, work.server.channel]
        assert mgr.replicated is deployment.control(CACHE_DEVICE)
        assert mgr.replicated._journal  # the installed cache lines
        # started: the crash is detected and the standby promoted
        net = deployment.network
        net.sim.at(200_000, net.crash_switch, CACHE_DEVICE)
        net.sim.run(until_ns=1_000_000)
        assert hooks == [mgr] and mgr.failed_over
        assert all(ch.target_device == 2 for ch in mgr.channels)
        assert net.is_up(DEVICE(2))
