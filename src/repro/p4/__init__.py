"""P4-16 subset frontend, behavioral interpreter, and analysis tools.

This package is the stand-in for bmv2 and for the resource analysis of
P4, the generated programs and the handwritten baselines (the paper's
Table III/V/VI, Fig. 12/13/14):

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
* :mod:`repro.p4.printer`   — P4 text from a program tree (the inverse of
  the parser);
* :mod:`repro.p4.resources` — reading a program's
  :class:`repro.tofino.tables.PipelineSpec` for the fitter;
* :mod:`repro.p4.loc`       — line counting and the construct classifier
  behind Fig. 12;
* :mod:`repro.p4.switch`    — adapter exposing a P4 program as a netsim
  switch speaking the NetCL wire format.
"""

import importlib

#: what the package exports -> its module, imported on first use (the
#: compiler needs only the tree, its printer and its reader)
_EXPORTS = {
    "parse_p4": "parser", "P4ParseError": "parser", "P4Interpreter": "interp",
    "P4RuntimeError": "interp", "P4Engine": "compiled", "p4_to_pipeline_spec": "resources",
    "count_loc": "loc", "classify_lines": "loc", "LineCategory": "loc", "P4NetCLSwitchDevice": "switch",
}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module 'repro.p4' has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"repro.p4.{_EXPORTS[name]}"), name)
    return value
