"""IR type system: fixed-width integers and array shapes.

P4 targets expose ``bit<W>`` values only, so the IR type lattice is tiny:
booleans are 1-bit integers, every scalar is an N-bit (un)signed integer
with wrapping arithmetic, and aggregates are rectangular arrays of scalars
(global device memory / message field arrays).  There are no pointers —
§V-D of the paper: the compiler must always be able to infer a base object
and a regular offset, so pointer arithmetic and casts are rejected in the
frontend and never reach the IR.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class IntType:
    """A fixed-width integer type (``bit<W>`` / ``int<W>`` in P4 terms)."""

    width: int
    signed: bool = False

    def __post_init__(self) -> None:
        if self.width < 1 or self.width > 64:
            raise ValueError(f"unsupported integer width {self.width}")

    @property
    def mask(self) -> int:
        """Bit mask selecting the value bits of this type."""
        return (1 << self.width) - 1

    def wrap(self, v: int) -> int:
        """Reduce an arbitrary Python int to this type's value range."""
        v &= self.mask
        if self.signed and v >> (self.width - 1):
            v -= 1 << self.width
        return v

    def to_unsigned(self, v: int) -> int:
        """Reinterpret a wrapped value as its unsigned bit pattern."""
        return v & self.mask

    def __str__(self) -> str:
        return f"{'i' if self.signed else 'u'}{self.width}"


@dataclass(frozen=True)
class VoidType:
    """The type of instructions that produce no value."""


BOOL = IntType(1)
U8 = IntType(8)
U16 = IntType(16)
U32 = IntType(32)
U64 = IntType(64)
I8 = IntType(8, signed=True)
I16 = IntType(16, signed=True)
I32 = IntType(32, signed=True)
I64 = IntType(64, signed=True)

VOID = VoidType()


@lru_cache(maxsize=None)
def int_type(width: int, signed: bool = False) -> IntType:
    """Interned constructor for :class:`IntType`."""
    return IntType(width, signed)


@dataclass(frozen=True)
class ArrayShape:
    """Rectangular shape of a global memory object or message field array.

    ``dims == ()`` denotes a scalar.  Dimensions are static for the lifetime
    of the program (§V-B: global memory cannot be freed or resized).
    """

    dims: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for d in self.dims:
            if d < 1:
                raise ValueError(f"array dimension must be positive, got {d}")

    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def num_elements(self) -> int:
        n = 1
        for d in self.dims:
            n *= d
        return n

    def drop_outer(self) -> "ArrayShape":
        """Shape of one slice along the outermost dimension."""
        if not self.dims:
            raise ValueError("cannot drop a dimension of a scalar shape")
        return ArrayShape(self.dims[1:])

    def __str__(self) -> str:
        return "".join(f"[{d}]" for d in self.dims) if self.dims else "scalar"
