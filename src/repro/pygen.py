"""Python emission shared by the two engines that run generated code.

:mod:`repro.ir.compiled` (NetCL kernels) and :mod:`repro.p4.compiled`
(handwritten P4) both lower a program to Python source text once and run
that; what they share about *emitting* Python lives here.
"""

from __future__ import annotations

import functools
import linecache
from array import array
from typing import Callable


def lit(value: int) -> str:
    """An integer as an operand (negative ones parenthesised)."""
    return str(value) if value >= 0 else f"({value})"


def register_file(width: int, size: int) -> array:
    """Zero-filled storage for ``size`` registers of ``width`` bits: an
    ``array.array`` of the narrowest unsigned element that holds them
    (64-bit for anything wider; every writer masks first).  Generated code
    indexes it as ``R[i]`` and takes a loaded value's bit bound from
    :func:`storage_bits`."""
    code = next((c for w, c in ((8, "B"), (16, "H"), (32, "I")) if width <= w), "Q")
    return array(code, [0]) * size


def storage_bits(width: int) -> int:
    """Bits of the element a ``width``-bit register value is kept in."""
    return register_file(width, 0).itemsize * 8


@functools.lru_cache(maxsize=256)
def _compile(source: str, filename: str):
    """``compile()`` is two thirds of generation, and a fabric's racks or a
    service's tenants keep presenting the same program text."""
    return compile(source, filename, "exec")


def load(source: str, filename: str, name: str) -> Callable:
    """Execute generated ``source`` and return the function it defines as
    ``name``.  The text is registered in :mod:`linecache` under ``filename``
    so a traceback through generated code shows the generated line."""
    namespace: dict = {}
    exec(_compile(source, filename), namespace)
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    # pop: the function's globals must not point back at the function, or
    # every generated function is a reference cycle only the GC frees
    return namespace.pop(name)
