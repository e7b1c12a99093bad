"""``bench check A.json B.json``: is B worse than A?

A and B are result files written by ``bench run`` (or ``bench trace``)
for the same seed.  One row per workload x metric:

* metrics with a bound in ``BENCHMARK.json`` (host time, memory) are
  compared by the value a run reports (the lower quartile of its
  samples).  ``REGRESSION`` needs that value to be worse
  by more than the bound *and* every sample of B to be worse than every
  sample of A; when the two sample ranges overlap, or either side's own
  spread (interquartile range over median) is wider than the bound, the
  row is ``unresolved`` rather than ``ok`` — unless every sample of B is
  better than every sample of A.
* facts (simulated time, bytes on links, retransmissions, generated P4
  size, fitted stages) and the failed-op count repeat exactly per seed,
  so they are compared exactly: any increase is a ``REGRESSION``.
* per-layer metrics have no bound and are listed for information.

Exit status 1 if any row is a regression, 2 if the files cannot be
compared, else 0.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from bench.harness import REPO_ROOT, typical


def load_bounds() -> dict[str, float]:
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def samples_of(detail: dict, metric: str) -> list[float]:
    """Every sample behind a reported value (one value if unsampled)."""
    if metric == "wall_s":
        return detail["wall_samples_s"]
    if metric == "setup_s":
        return [detail["import_s"] + s for s in detail["setup_samples_s"]]
    return [detail["metrics"][metric]]


def judge(a: list[float], b: list[float], bound: float) -> tuple[str, float]:
    """Verdict for a lower-is-better metric, and B's reported value (the
    lower quartile of its samples) over A's - 1."""
    change = typical(b) / typical(a) - 1.0
    if max(b) < min(a):
        return "better", change
    if change > bound:
        return ("REGRESSION" if min(b) > max(a) else "unresolved"), change
    return ("unresolved" if max(_spread(a), _spread(b)) > bound else "ok"), change


def _spread(samples: list[float]) -> float:
    """Interquartile range over the median (0 for a single sample)."""
    if len(samples) < 2:
        return 0.0
    q = statistics.quantiles(samples, n=4)
    return (q[2] - q[0]) / statistics.median(samples)


def judge_exact(a: float, b: float) -> str:
    if b == a:
        return "same"
    return "REGRESSION" if b > a else "lower"


def compare(res_a: dict, res_b: dict, bounds: dict[str, float]) -> list[tuple]:
    """Rows of (workload, metric, A, B, change, verdict)."""
    rows = []
    for name in res_a:
        if name not in res_b:
            rows.append((name, "-", "-", "-", "-", "REGRESSION (workload missing)"))
            continue
        a, b = res_a[name], res_b[name]
        for metric, value in a["metrics"].items():
            other = b["metrics"].get(metric)
            if other is None:
                rows.append((name, metric, value, "-", "-", "REGRESSION (metric missing)"))
            elif metric in bounds:
                verdict, change = judge(
                    samples_of(a, metric), samples_of(b, metric), bounds[metric]
                )
                rows.append((name, metric, value, other, f"{change:+.1%}", verdict))
            else:
                change = f"{other / value - 1.0:+.1%}" if value else "-"
                rows.append((name, metric, value, other, change, "info"))
        exact = [("failed", a["failed"], b["failed"])] + [
            (k, v, b["facts"].get(k, float("inf"))) for k, v in a["facts"].items()
        ]
        for metric, va, vb in exact:
            rows.append((name, metric, va, vb, "exact", judge_exact(va, vb)))
    return rows


def main(path_a: str, path_b: str) -> int:
    res_a = json.loads(Path(path_a).read_text())
    res_b = json.loads(Path(path_b).read_text())
    seeds = {d["seed"] for res in (res_a, res_b) for d in res.values()}
    if len(seeds) != 1:
        print(f"cannot compare: the files hold seeds {sorted(seeds)}; exact "
              "metrics only repeat for one seed")
        return 2
    rows = compare(res_a, res_b, load_bounds())
    print(f"{'workload':16s} {'metric':30s} {'A':>14s} {'B':>14s} {'change':>8s}  verdict")
    def fmt(v) -> str:
        return f"{v:>14.6g}" if isinstance(v, (int, float)) else f"{v:>14s}"

    for workload, metric, a, b, change, verdict in rows:
        print(f"{workload:16s} {metric:30s} {fmt(a)} {fmt(b)} {change:>8s}  {verdict}")
    regressions = [r for r in rows if r[5].startswith("REGRESSION")]
    unresolved = [r for r in rows if r[5] == "unresolved"]
    print(f"{len(regressions)} regression(s), {len(unresolved)} unresolved, "
          f"{len(rows)} rows")
    return 1 if regressions else 0
