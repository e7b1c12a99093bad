"""P4-16 subset frontend, behavioral interpreter, and analysis tools.

This package is the stand-in for bmv2 and for the resource analysis of
*handwritten* P4 (the paper's baselines, Table III/V/VI, Fig. 12/13/14):

* :mod:`repro.p4.parser`    — rule table + recursive-descent grammar (on
  the shared frontend core, :mod:`repro.syntax`) for the
  TNA-flavoured P4-16 subset our handwritten baselines use (headers,
  parsers as FSMs, controls with actions/tables, ``Register`` /
  ``RegisterAction`` / ``Hash`` externs, deparsers);
* :mod:`repro.p4.interp`    — packet-in/packet-out behavioral execution by
  walking the AST: the reference semantics, and the control-plane surface
  (``insert_entry`` / ``remove_entry`` / ``register_read`` / ``register_write``);
* :mod:`repro.p4.compiled`  — :class:`P4Engine`, the same execution as
  Python generated once per program and held to the interpreter exactly;
  what the switch adapter runs;
* :mod:`repro.p4.resources` — lowering a parsed program to a
  :class:`repro.tofino.tables.PipelineSpec` for the fitter;
* :mod:`repro.p4.loc`       — line counting and the construct classifier
  behind Fig. 12;
* :mod:`repro.p4.switch`    — adapter exposing a P4 program as a netsim
  switch speaking the NetCL wire format.
"""

from repro.p4.parser import parse_p4, P4ParseError
from repro.p4.interp import P4Interpreter, P4RuntimeError
from repro.p4.compiled import P4Engine
from repro.p4.resources import p4_to_pipeline_spec
from repro.p4.loc import count_loc, classify_lines, LineCategory
from repro.p4.switch import P4NetCLSwitchDevice

__all__ = [
    "parse_p4",
    "P4ParseError",
    "P4Interpreter",
    "P4Engine",
    "P4RuntimeError",
    "p4_to_pipeline_spec",
    "count_loc",
    "classify_lines",
    "LineCategory",
    "P4NetCLSwitchDevice",
]
