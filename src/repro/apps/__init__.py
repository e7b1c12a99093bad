"""The paper's evaluation applications (§VII, Table III).

NetCL sources live in ``netcl/*.ncl``; our handwritten P4-16 baselines
(the paper's "P4" column — the authors also re-wrote all baselines
themselves) live in ``p4/*.p4``.  Each application also has a host-side
driver module building the simulated cluster:

* :mod:`repro.apps.agg`   — SwitchML streaming aggregation (AGG)
* :mod:`repro.apps.cache` — NetCache-style KV cache (CACHE)
* :mod:`repro.apps.paxos` — in-network Paxos (P4XOS)
* :mod:`repro.apps.calc`  — the P4-tutorial calculator (CALC)
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

APPS_DIR = Path(__file__).parent
NETCL_DIR = APPS_DIR / "netcl"
P4_DIR = APPS_DIR / "p4"

#: application name -> NetCL source file
NETCL_SOURCES = {
    "agg": NETCL_DIR / "agg.ncl",
    "cache": NETCL_DIR / "cache.ncl",
    "collective": NETCL_DIR / "collective.ncl",
    "paxos": NETCL_DIR / "paxos.ncl",
    "rpc": NETCL_DIR / "rpc.ncl",
    "calc": NETCL_DIR / "calc.ncl",
}

#: application name -> handwritten P4 baseline
P4_SOURCES = {
    "agg": P4_DIR / "agg.p4",
    "cache": P4_DIR / "cache.p4",
    "paxos_acceptor": P4_DIR / "paxos_acceptor.p4",
    "paxos_learner": P4_DIR / "paxos_learner.p4",
    "paxos_leader": P4_DIR / "paxos_leader.p4",
    "calc": P4_DIR / "calc.p4",
}


def netcl_source(name: str) -> str:
    """Read one application's NetCL source text."""
    return NETCL_SOURCES[name].read_text()


def p4_source(name: str) -> str:
    """Read one handwritten P4 baseline's source text."""
    return P4_SOURCES[name].read_text()


def p4_backend(name: str, constant: str, value: int):
    """The handwritten P4 baseline of application ``name`` in the place of
    its compiled NetCL program (the paper's "P4" series in Fig. 14 -- the
    host program stays identical), as ``(program, device factory)`` for
    :meth:`repro.deploy.AbstractTopology.realise`.  Handwritten P4 takes
    its parameter as a compile-time constant: ``constant`` is that
    declaration up to the ``=`` and ``value`` what it is set to.  A source
    text is parsed and fitted once (an LRU of the compile cache), so its
    devices share the ``ast.Program`` and its engine code, not state."""
    from types import SimpleNamespace

    from repro.core.driver import P4_PROGRAMS
    from repro.p4 import P4NetCLSwitchDevice, p4_to_pipeline_spec, parse_p4
    from repro.tofino.report import build_report

    src = p4_source(name)
    start = src.find(constant + " = ")
    if start < 0:
        raise ValueError(f"{P4_SOURCES[name].name} declares no {constant!r}")
    src = src[:start] + f"{constant} = {value};" + src[src.index(";", start) + 1 :]
    entry = P4_PROGRAMS.get((name, src))
    if entry is None:
        prog = parse_p4(src)
        entry = prog, SimpleNamespace(report=build_report(p4_to_pipeline_spec(prog, name=name)))
        P4_PROGRAMS.put((name, src), entry)
    prog, program = entry
    return program, lambda device_id, _program, _metrics: P4NetCLSwitchDevice(
        prog, device_id
    )


def compile_app(
    name: str,
    device_id: Optional[int] = None,
    *,
    target: str = "tna",
    defines: Optional[dict[str, int]] = None,
    **kwargs,
):
    """Compile one of the paper's applications for a device."""
    from repro.core import compile_netcl

    return compile_netcl(
        netcl_source(name),
        device_id,
        target=target,
        defines=defines,
        program_name=name,
        **kwargs,
    )
