"""What the scenario entry points share (``repro.scenario``), the shared
slot resync, and "a tenant is the cluster" for collective and rpc."""

from __future__ import annotations

import dataclasses
import importlib
import json

import pytest

from repro.collective import CollectiveCluster
from repro.collective.protocol import StallError, resync_streams
from repro.collective.tenant import submit_collective_tenant
from repro.deploy import PhysicalFabric
from repro.netsim import DEVICE, HOST
from repro.rpc import RpcCluster
from repro.rpc.scenarios import scenario_handlers, scenario_schema
from repro.rpc.tenant import submit_rpc_tenant
from repro.service import INCService

_BASE = {"seed", "ok", "errors", "sim_ns", "digest"}
_FAULTS = {"counters", "plan", "failed_over"}

#: entry point -> (cli module, argv that keeps the run small, the ``--json``
#: key set as it was before the entry points shared a harness)
ENTRY_POINTS = {
    "chaos-agg": (
        "repro.chaos.cli",
        ["--app", "agg"],
        _BASE | _FAULTS | {"app", "completed", "expected"},
    ),
    "chaos-cache": (
        "repro.chaos.cli",
        ["--app", "cache"],
        _BASE | _FAULTS | {"app", "completed", "expected"},
    ),
    "collective": (
        "repro.collective.cli",
        ["--elements", "256", "--no-baseline"],
        _BASE | _FAULTS | {
            "op", "num_racks", "workers_per_rack", "tensor_elements", "finished",
            "finished_at_ns", "max_abs_error", "error_bound",
            "innetwork_link_bytes", "ring_link_bytes", "hops_saved",
        },
    ),
    "rpc": (
        "repro.rpc.cli",
        ["--gets", "4", "--bumps", "2", "--gathers", "3", "--no-baseline"],
        _BASE | _FAULTS | {
            "num_racks", "servers_per_rack", "clients", "unary_calls",
            "gather_calls", "memo_hits", "replays", "finished_at_ns",
            "innetwork_link_bytes", "fanout_link_bytes",
        },
    ),
    "service": (
        "repro.service.cli",
        [],
        _BASE | {"tenants", "rejected", "report"},
    ),
}


@pytest.fixture(params=sorted(ENTRY_POINTS))
def entry(request):
    module, argv, keys = ENTRY_POINTS[request.param]
    return importlib.import_module(module), argv, keys


class TestScenarioMain:
    def test_json_report_keeps_its_keys(self, entry, capsys):
        cli, argv, keys = entry
        assert cli.main([*argv, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == keys
        assert report["ok"] is True and len(report["digest"]) == 64

    def test_check_determinism_passes(self, entry, capsys):
        cli, argv, _ = entry
        assert cli.main([*argv, "--check-determinism"]) == 0
        assert "deterministic: two runs produced digest" in capsys.readouterr().err

    def test_checked_json_report_is_only_json(self, capsys):
        cli, argv, keys = ENTRY_POINTS["chaos-agg"]
        main = importlib.import_module(cli).main
        assert main([*argv, "--check-determinism", "--json"]) == 0
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert set(report) == keys
        assert f"deterministic: two runs produced digest {report['digest']}" in err

    def test_digest_mismatch_exits_2(self, entry, capsys, monkeypatch):
        cli, argv, _ = entry
        real_run, digests = cli._run, []

        def run(args):
            result = real_run(args)
            if digests:  # the second run disagrees
                result = dataclasses.replace(result, digest="f" * 64)
            digests.append(result.digest)
            return result

        monkeypatch.setattr(cli, "_run", run)
        assert cli.main([*argv, "--check-determinism"]) == 2
        err = capsys.readouterr().err
        assert "NOT deterministic" in err
        assert digests[0] in err and digests[1] in err and digests[0] != digests[1]

    def test_failing_scenario_exits_1(self, entry, capsys, monkeypatch):
        cli, argv, _ = entry
        real_run = cli._run
        monkeypatch.setattr(
            cli,
            "_run",
            lambda args: dataclasses.replace(
                real_run(args), ok=False, errors=["injected failure"]
            ),
        )
        assert cli.main(argv) == 1
        assert "ERROR: injected failure" in capsys.readouterr().out


class TestBadInputIsANamedError:
    """Bad input ends in ``prog: error: <the builder's own message>`` and
    exit status 2, not in a traceback."""

    def _usage_error(self, main, argv, capsys) -> str:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return err

    def test_collective_racks_out_of_range(self, capsys):
        from repro.collective.cli import main

        err = self._usage_error(main, ["--racks", "1"], capsys)
        assert "python -m repro.collective: error: num_racks must be in [2, 16]" in err

    def test_rpc_fanout_out_of_range(self, capsys):
        from repro.rpc.cli import main

        err = self._usage_error(main, ["--servers-per-rack", "9"], capsys)
        assert "python -m repro.rpc: error: fanout must be in [1, 16]" in err

    def test_chaos_plan_file_missing(self, capsys, tmp_path):
        from repro.chaos.cli import main

        missing = tmp_path / "nonexistent.json"
        err = self._usage_error(main, ["--plan", str(missing)], capsys)
        assert "python -m repro.chaos: error:" in err and "nonexistent.json" in err

    def test_chaos_plan_malformed(self, capsys, tmp_path):
        from repro.chaos.cli import main

        plan = tmp_path / "plan.json"
        plan.write_text("{not json")
        err = self._usage_error(main, ["--plan", str(plan)], capsys)
        assert "python -m repro.chaos: error: Expecting property name" in err

    def test_service_plan_malformed(self, capsys, tmp_path):
        from repro.service.cli import main

        plan = tmp_path / "plan.json"
        plan.write_text("[1, 2")
        err = self._usage_error(main, ["--plan", str(plan), "--dump-plan"], capsys)
        assert "python -m repro.service: error: Expecting" in err

    def test_other_exceptions_keep_their_traceback(self, monkeypatch):
        from repro.collective import cli

        def stalled(args):
            raise StallError("1 rank(s) stalled", ["rank 0: ..."])

        monkeypatch.setattr(cli, "_run", stalled)
        with pytest.raises(StallError):
            cli.main([])


class _Stream:
    """The two methods ``resync_streams`` needs, recording restarts."""

    def __init__(self, in_flight: dict[int, int]) -> None:
        self._in_flight = in_flight
        self.restarts: list[tuple[int, int]] = []

    def in_flight(self) -> dict[int, int]:
        return dict(self._in_flight)

    def resync_slot(self, slot: int, chunk: int) -> None:
        self.restarts.append((slot, chunk))


class TestResyncStreams:
    def test_each_slot_restarts_at_its_earliest_round(self):
        a = _Stream({0: 8, 1: 9, 2: 2})
        b = _Stream({1: 1, 0: 16})  # ahead on slot 0, behind on slot 1, idle on 2
        resync_streams([a, b])
        assert a.restarts == b.restarts == [(0, 8), (1, 1), (2, 2)]

    def test_none_streams_are_skipped(self):
        a = _Stream({3: 11})
        resync_streams([None, a, None])
        assert a.restarts == [(3, 11)]
        resync_streams([None])  # nothing but placeholders: no error

    def test_nothing_in_flight_is_a_no_op(self):
        a, b = _Stream({}), _Stream({})
        resync_streams([a, b])
        resync_streams([])
        assert a.restarts == b.restarts == []

    def test_real_streams_report_in_flight_by_slot(self):
        from repro.apps.agg import build_agg_cluster

        cluster = build_agg_cluster(num_workers=2, tensor_elements=32 * 40, window=4)
        w = cluster.workers[0]
        assert w.in_flight() == {}
        cluster.run(until_ms=0.001)  # started, nothing returned yet
        assert w.in_flight() == {0: 0, 1: 1, 2: 2, 3: 3}
        cluster.run(require_done=True)
        assert w.in_flight() == {}


def _fabric(switches, hosts, free_stages=12) -> PhysicalFabric:
    """A full mesh of ``switches`` with every host wired to every switch."""
    fab = PhysicalFabric()
    for sid in switches:
        fab.add_switch(sid, free_stages=free_stages)
    for a in switches:
        for b in switches:
            if a < b:
                fab.link(DEVICE(a), DEVICE(b))
    for h in hosts:
        fab.add_host(h)
        for sid in switches:
            fab.link(HOST(h), DEVICE(sid))
    return fab


class TestTenantIsTheCluster:
    def test_collective_tenant_resets_only_its_own_slices(self, monkeypatch):
        svc = INCService(_fabric(range(1, 7), range(1, 9)), seed=5).start()
        a = submit_collective_tenant(svc, "a", [1, 2, 3, 4], num_racks=2)
        b = submit_collective_tenant(svc, "b", [5, 6, 7, 8], num_racks=2)
        assert isinstance(a, CollectiveCluster)
        assert [a.root, *a.leaves] == [a.deployment.devices[d] for d in (1, 2, 3)]

        resets: list[tuple[str, int]] = []
        for ct in (a, b):
            for dev in ct.deployment.devices.values():
                real = dev.reset_state

                def spy(real=real, who=(ct.tenant_id, dev.abstract_id)):
                    resets.append(who)
                    real()

                monkeypatch.setattr(dev, "reset_state", spy)

        tensors = [[float(r + i) for i in range(64)] for r in range(4)]
        for ct in (a, b):
            ct.submit_job("allreduce", tensors)
            ct.run(until_ms=50, require_done=True)
        assert resets == []  # a first job wipes nothing
        second = a.submit_job("allreduce", tensors)
        assert sorted(resets) == [("a", 1), ("a", 2), ("a", 3)]
        a.run(until_ms=50, require_done=True)
        assert second.results[0] == second.results[3]
        assert a.jobs_run == 2 and b.jobs_run == 1

    def test_rpc_tenant_is_an_rpc_cluster(self):
        svc = INCService(_fabric(range(1, 6), range(1, 7)), seed=5).start()
        rt = submit_rpc_tenant(
            svc, "rpc", scenario_schema(), scenario_handlers({}),
            client_hosts=[1], server_hosts=[3, 4, 5, 6], num_racks=2,
        )
        assert isinstance(rt, RpcCluster)
        assert rt.network is svc.network and rt.fanout == 4
        assert [rt.edge, rt.sg, *rt.tors] == [rt.deployment.devices[d] for d in (1, 2, 3, 4)]
        assert rt.edge_conn is svc.control("rpc", 1)
        assert rt.link_bytes() == 0 and rt.all_done
