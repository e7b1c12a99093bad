"""Block quantization for float tensors (generalizing AGG's exponent).

Switches sum *integers* (wrapping u32), so float gradients are quantized
per chunk to fixed-point mantissas against a shared scale:

* every worker computes its chunk's **biased maximum exponent**
  ``e = max(frexp(|x|)) + EXP_BIAS`` (a uint8, so the switch's
  ``atomic_max`` can negotiate the cross-worker maximum ``e*`` on the
  wire — computation 2 of ``collective.ncl``);
* values are then quantized as ``q = round(x * 2^(MANTISSA_BITS - e*))``
  encoded two's-complement in u32.  Wrapping u32 addition of
  two's-complement values *is* signed addition, so the in-network sum is
  exact as long as ``N * 2^MANTISSA_BITS < 2^31`` — with 24 mantissa
  bits that holds for up to 64 workers;
* dequantizing the switch total against ``e*`` gives the float sum with
  per-element error at most ``N * 2^(e* - EXP_BIAS - MANTISSA_BITS - 1)``
  (each worker contributes half an ulp of the shared scale).

The bound is what the property tests in
``tests/test_quantize_properties.py`` pin down, including zero, negative
and denormal-ish inputs.
"""

from __future__ import annotations

import math

#: fixed-point mantissa width.  24 bits keeps N*2^24 < 2^31 for N <= 64
#: workers while matching float32's native precision.
MANTISSA_BITS = 24

#: wire exponents are biased so the switch's unsigned max works:
#: biased = unbiased + EXP_BIAS, clamped to [0, 255].
EXP_BIAS = 128

_U32 = 1 << 32
_I32_MAX = (1 << 31) - 1
_I32_MIN = -(1 << 31)


def chunk_exponent(values: list[float]) -> int:
    """The chunk's biased maximum exponent (uint8).

    ``frexp`` gives ``|x| = m * 2^e`` with ``0.5 <= m < 1``, so ``2^e``
    strictly bounds every value; an all-zero chunk reports the minimum
    (biased 0), which never raises the negotiated maximum.

    ``frexp``'s exponent is monotone in ``|x|``, so the largest magnitude
    has the maximum -- unless a NaN or infinity (exponent 0) is there.
    """
    if math.isfinite(sum(values)):
        top = max(map(abs, values), default=0.0)
        return min(255, max(0, math.frexp(top)[1] + EXP_BIAS)) if top else 0
    e = None
    for x in values:
        if x:
            ex = math.frexp(x)[1]
            if e is None or ex > e:
                e = ex
    if e is None:
        return 0
    return min(255, max(0, e + EXP_BIAS))


def quantize_chunk(values: list[float], biased_exp: int) -> list[int]:
    """Quantize a chunk against the (negotiated) biased exponent.

    Returns u32 two's-complement fixed-point mantissas.  Values are
    saturated at int32 — only reachable when ``biased_exp`` is below the
    chunk's own exponent (i.e. outside protocol use) or the chunk
    exceeds the representable ``|x| < 2^127`` range.
    """
    scale = math.ldexp(1.0, MANTISSA_BITS - (biased_exp - EXP_BIAS))
    out = []
    for x in values:
        q = round(x * scale)
        if q > _I32_MAX:
            q = _I32_MAX
        elif q < _I32_MIN:
            q = _I32_MIN
        out.append(q & 0xFFFFFFFF)
    return out


def dequantize_chunk(qs: list[int], biased_exp: int) -> list[float]:
    """Decode u32 two's-complement mantissas back to floats."""
    scale = math.ldexp(1.0, (biased_exp - EXP_BIAS) - MANTISSA_BITS)
    return [
        (q - _U32 if q >= 1 << 31 else q) * scale
        for q in qs
    ]


def quantization_error_bound(biased_exp: int, num_workers: int = 1) -> float:
    """Per-element bound on |dequantized sum - exact float sum|.

    Each worker's rounding error is at most half an ulp of the shared
    scale ``2^(e* - MANTISSA_BITS)``; the integer summation itself is
    exact, so errors only add across workers.
    """
    return num_workers * math.ldexp(
        1.0, (biased_exp - EXP_BIAS) - MANTISSA_BITS - 1
    )
