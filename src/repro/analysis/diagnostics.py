"""Coded diagnostics and the collecting engine behind ``ncc lint``.

Every analysis finding carries a stable ``NCLxxx`` code.  Codes in the
0xx range are lint warnings, 1xx are errors surfaced by existing checks
(frontend, dagcheck, memcheck, IR verifier) when they run in collecting
mode instead of raising.
"""

from __future__ import annotations

import json
from enum import Enum
from typing import Iterable, Optional

from repro.ir.instructions import SourceLoc
from repro.lang.errors import Diagnostic


class Severity(str, Enum):
    WARNING = "warning"
    ERROR = "error"


#: Version of the ``--json`` diagnostic payload; bump on breaking shape
#: changes so downstream tooling can dispatch.
SCHEMA_VERSION = 1


#: code -> (default severity, one-line description)
CODES: dict[str, tuple[Severity, str]] = {
    "NCL001": (Severity.WARNING, "read of a possibly-uninitialized local variable"),
    "NCL002": (Severity.WARNING, "cross-kernel shared-state hazard (conflicting access modes)"),
    "NCL003": (Severity.WARNING, "global memory is written but never read"),
    "NCL004": (Severity.WARNING, "dead store: value is overwritten before any read"),
    "NCL005": (Severity.WARNING, "implicit width truncation on assignment"),
    "NCL006": (Severity.WARNING, "unreachable code"),
    "NCL007": (Severity.WARNING, "program does not fit the chip (the fitter's verdict)"),
    "NCL008": (Severity.WARNING, "arithmetic operation provably wraps at its width"),
    "NCL009": (Severity.WARNING, "branch condition is always true or always false"),
    "NCL010": (Severity.WARNING, "division or modulo by a possibly-zero value"),
    "NCL100": (Severity.ERROR, "compile error"),
    "NCL101": (Severity.ERROR, "kernel control flow contains a cycle"),
    "NCL102": (Severity.ERROR, "global object accessed more than once on a path"),
    "NCL103": (Severity.ERROR, "accesses to a global object are too far apart"),
    "NCL104": (Severity.ERROR, "inconsistent cross-object access order"),
    "NCL110": (Severity.ERROR, "internal IR verification failure"),
}


class DiagnosticEngine:
    """Collects :class:`Diagnostic` records instead of raising.

    One engine spans a whole ``ncc lint`` invocation; checks call
    :meth:`emit` and the CLI renders the sorted result.  ``-Wno-<code>``
    suppressions drop matching warnings entirely; ``--Werror`` promotes
    surviving warnings to errors for exit-code purposes (severity labels
    are preserved so the text output still says "warning").
    """

    def __init__(
        self,
        *,
        werror: bool = False,
        suppressed: Iterable[str] = (),
        source_name: str = "<input>",
    ) -> None:
        self.werror = werror
        self.suppressed = {s.upper() for s in suppressed}
        self.source_name = source_name
        self.diagnostics: list[Diagnostic] = []

    # -- emission -------------------------------------------------------------
    def emit(
        self,
        code: str,
        message: str,
        loc: Optional[SourceLoc] = None,
        severity: Optional[str] = None,
    ) -> Optional[Diagnostic]:
        """Record one finding; returns None when the code is suppressed."""
        if code in self.suppressed:
            return None
        if severity is None:
            severity = CODES[code][0].value if code in CODES else Severity.WARNING.value
        diag = Diagnostic(
            message,
            line=loc.line if loc is not None else 0,
            col=loc.col if loc is not None else 0,
            severity=severity,
            code=code,
        )
        self.diagnostics.append(diag)
        return diag

    def extend(self, diags: Iterable[Diagnostic]) -> None:
        for d in diags:
            if d.code and d.code in self.suppressed:
                continue
            self.diagnostics.append(d)

    # -- queries --------------------------------------------------------------
    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.WARNING.value]

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.ERROR.value]

    def codes(self) -> list[str]:
        return [d.code for d in self.diagnostics]

    @property
    def exit_code(self) -> int:
        if self.errors:
            return 1
        if self.werror and self.warnings:
            return 1
        return 0

    # -- rendering ------------------------------------------------------------
    def sorted(self) -> list[Diagnostic]:
        """Deterministic render order: file, line, col, code, message.

        Location-less diagnostics (line 0) sort last.  Emission order
        never leaks into output, so two lint runs over the same input
        byte-match.
        """
        return sorted(
            self.diagnostics,
            key=lambda d: (
                self.source_name,
                d.line or 1 << 30,
                d.col,
                d.code or "",
                d.message,
            ),
        )

    def render_text(self) -> str:
        lines = []
        for d in self.sorted():
            pos = f"{d.line}:{d.col}" if d.col else (f"{d.line}" if d.line else "")
            prefix = f"{self.source_name}:{pos}: " if pos else f"{self.source_name}: "
            tag = f" [{d.code}]" if d.code else ""
            lines.append(f"{prefix}{d.severity}: {d.message}{tag}")
        nw, ne = len(self.warnings), len(self.errors)
        if nw or ne:
            parts = []
            if ne:
                parts.append(f"{ne} error{'s' if ne != 1 else ''}")
            if nw:
                parts.append(f"{nw} warning{'s' if nw != 1 else ''}")
            lines.append(f"{' and '.join(parts)} generated.")
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "source": self.source_name,
            "diagnostics": [
                {
                    "code": d.code,
                    "severity": d.severity,
                    "line": d.line,
                    "col": d.col,
                    "message": d.message,
                }
                for d in self.sorted()
            ],
            "counts": {"errors": len(self.errors), "warnings": len(self.warnings)},
            "exit_code": self.exit_code,
        }
        return json.dumps(payload, indent=2)
