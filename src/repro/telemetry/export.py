"""Rendering and serialization of the compile profile: the text table
feeds ``ncc --profile``, the JSON writer ``ncc --profile-json``."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.telemetry.profile import Profiler


def render_profile_text(profiler: Profiler) -> str:
    """Phase table + per-pass breakdown, aligned for terminal output."""
    lines = ["-- compile profile -------------------------------------------"]
    phases = profiler.phases()
    total = sum(s.seconds for s in phases if s.parent is None) or 1e-12
    lines.append(f"  {'phase':<12} {'ms':>10} {'%':>7}")
    for sp in phases:
        if sp.parent is not None:
            continue
        lines.append(f"  {sp.name:<12} {sp.seconds * 1e3:>10.3f} {sp.seconds / total:>6.1%}")
    lines.append(f"  {'total':<12} {total * 1e3:>10.3f} {'':>7}")

    rows = profiler.pass_summary()
    if rows:
        lines.append("")
        lines.append(f"  {'pass':<18} {'runs':>5} {'ms':>10} {'changes':>8} {'Δinstrs':>8}")
        for row in rows:
            lines.append(
                f"  {row['name']:<18} {row['runs']:>5} {row['seconds'] * 1e3:>10.3f} "
                f"{row['changes']:>8} {row['instrs_delta']:>+8}"
            )
    return "\n".join(lines)


def profile_to_json(profiler: Profiler) -> str:
    return json.dumps(profiler.to_dict(), indent=2)


def write_profile_json(path: Union[str, Path], profiler: Profiler) -> Path:
    path = Path(path)
    path.write_text(profile_to_json(profiler) + "\n")
    return path


