"""Line counting and the construct classifier behind Table III / Fig. 12.

``count_loc`` counts non-blank, non-comment lines — the usual LoC metric.
``classify_lines`` assigns every counted line to a P4 construct category
so the breakdown of Fig. 12 ("over 65% of P4 code is packet-processing
constructs") can be reproduced on our handwritten baselines.
"""

from __future__ import annotations

import re
from collections import Counter
from enum import Enum

from repro.syntax import strip_comments


class LineCategory(str, Enum):
    HEADERS = "headers"  # header/struct/typedef/const definitions
    PARSER = "parser"  # parser states & transitions
    TABLES = "tables"  # match-action table definitions
    ACTIONS = "actions"  # action bodies
    REGISTER = "register"  # Register/RegisterAction/Hash externs
    CONTROL = "control"  # imperative apply logic
    DEPARSER = "deparser"  # deparser emit code
    OTHER = "other"  # pipeline plumbing, includes, braces

    @property
    def is_packet_processing(self) -> bool:
        """Fig. 12's "packet-processing constructs" bucket."""
        return self in (
            LineCategory.HEADERS,
            LineCategory.PARSER,
            LineCategory.TABLES,
            LineCategory.DEPARSER,
        )

    @property
    def is_compute(self) -> bool:
        """Constructs carrying computation (the paper's ~52%)."""
        return self in (
            LineCategory.ACTIONS,
            LineCategory.REGISTER,
            LineCategory.CONTROL,
        )


def count_loc(source: str) -> int:
    """Non-blank, non-comment lines."""
    return sum(1 for line in strip_comments(source).splitlines() if line.strip())


_TOP_STARTERS = [
    (re.compile(r"^\s*(header|struct)\b"), LineCategory.HEADERS),
    (re.compile(r"^\s*(typedef|const)\b"), LineCategory.HEADERS),
    (re.compile(r"^\s*parser\b"), LineCategory.PARSER),
    (re.compile(r"^\s*table\b"), LineCategory.TABLES),
    (re.compile(r"^\s*action\b"), LineCategory.ACTIONS),
    (re.compile(r"^\s*(Register|RegisterAction|Hash|Random)\b"), LineCategory.REGISTER),
    (re.compile(r"^\s*apply\b"), LineCategory.CONTROL),
]

_CONTROL_RE = re.compile(r"^\s*control\b")
_DEPARSER_NAME_RE = re.compile(r"Deparser", re.IGNORECASE)


def classify_lines(source: str) -> Counter:
    """Counter of :class:`LineCategory` over the counted lines."""
    counts: Counter = Counter()
    # A small state machine with a context stack; braces drive scope.
    stack: list[LineCategory] = []
    in_deparser = False
    for raw in strip_comments(source).splitlines():
        line = raw.strip()
        if not line:
            continue
        category = None
        if _CONTROL_RE.match(line):
            in_deparser = bool(_DEPARSER_NAME_RE.search(line))
            category = LineCategory.DEPARSER if in_deparser else LineCategory.OTHER
            opens = line.count("{") - line.count("}")
            counts[category] += 1
            if opens > 0:
                stack.extend(
                    [LineCategory.DEPARSER if in_deparser else LineCategory.OTHER] * opens
                )
            continue
        for pattern, cat in _TOP_STARTERS:
            if pattern.match(line):
                category = cat
                break
        if category is None:
            if stack:
                category = stack[-1]
                if category is LineCategory.OTHER and not in_deparser:
                    # imperative code directly inside a control body
                    category = LineCategory.CONTROL
                if in_deparser:
                    category = LineCategory.DEPARSER
            else:
                category = LineCategory.OTHER
        counts[category] += 1
        opens = line.count("{") - line.count("}")
        if opens > 0:
            push = category
            stack.extend([push] * opens)
        elif opens < 0:
            for _ in range(-opens):
                if stack:
                    stack.pop()
            if not stack:
                in_deparser = False
    return counts


def breakdown_fractions(counts: Counter) -> dict[str, float]:
    """Fractions per category plus the Fig. 12 aggregate buckets."""
    total = sum(counts.values()) or 1
    out = {cat.value: counts.get(cat, 0) / total for cat in LineCategory}
    out["packet_processing"] = sum(
        counts.get(c, 0) for c in LineCategory if c.is_packet_processing
    ) / total
    out["compute"] = sum(counts.get(c, 0) for c in LineCategory if c.is_compute) / total
    return out
