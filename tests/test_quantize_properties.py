"""Property tests (hypothesis) on the collective's block quantization.

The wire contract of ``repro.collective``: every worker quantizes a
chunk against the *negotiated* maximum biased exponent ``e*``, the
switch sums the two's-complement mantissas with wrapping u32 adds, and
dequantizing the total against ``e*`` lands within
``N * 2^(e* - EXP_BIAS - MANTISSA_BITS - 1)`` of the exact float sum.
These tests pin that bound down over the whole float32 range — negative
values, zeros, and denormal-ish magnitudes included.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.collective import (
    EXP_BIAS,
    MANTISSA_BITS,
    chunk_exponent,
    dequantize_chunk,
    quantization_error_bound,
    quantize_chunk,
)

# float32-representable values (subnormals included); saturation only
# kicks in beyond |x| >= 2^127, which width=32 already excludes for the
# negotiated exponent.
f32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
chunks = st.lists(f32, min_size=1, max_size=16)

_U32 = 1 << 32


def _wrapping_sum(columns: list[list[int]]) -> list[int]:
    """What the switch computes: element-wise wrapping u32 addition."""
    out = [0] * len(columns[0])
    for qs in columns:
        for i, q in enumerate(qs):
            out[i] = (out[i] + q) % _U32
    return out


class TestRoundTrip:
    @given(chunks)
    def test_dequantize_quantize_error_is_bounded(self, values):
        e = chunk_exponent(values)
        back = dequantize_chunk(quantize_chunk(values, e), e)
        bound = quantization_error_bound(e, num_workers=1)
        for x, y in zip(values, back):
            assert abs(y - x) <= bound, (x, y, e)

    @given(chunks)
    def test_exact_zero_chunks_round_trip_exactly(self, values):
        zeros = [0.0 for _ in values]
        e = chunk_exponent(zeros)
        assert e == 0
        assert dequantize_chunk(quantize_chunk(zeros, e), e) == zeros

    @given(chunks, st.integers(min_value=0, max_value=40))
    def test_bound_holds_against_any_higher_exponent(self, values, bump):
        """A negotiated e* above the chunk's own maximum (another worker
        had larger values) only loosens the scale — never the bound."""
        e = min(255, chunk_exponent(values) + bump)
        back = dequantize_chunk(quantize_chunk(values, e), e)
        bound = quantization_error_bound(e, num_workers=1)
        for x, y in zip(values, back):
            assert abs(y - x) <= bound, (x, y, e)

    @given(st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False,
                              min_value=-(2.0 ** -126), max_value=2.0 ** -126),
                    min_size=1, max_size=16))
    def test_denormal_ish_magnitudes(self, values):
        """Tiny values clamp the biased exponent at 0; rounding error is
        still at most half an ulp of that floor scale."""
        e = chunk_exponent(values)
        back = dequantize_chunk(quantize_chunk(values, e), e)
        bound = quantization_error_bound(e, num_workers=1)
        for x, y in zip(values, back):
            assert abs(y - x) <= bound, (x, y, e)


class TestNetworkSum:
    @settings(deadline=None)
    @given(
        st.integers(min_value=2, max_value=8).flatmap(
            lambda n: st.lists(
                st.lists(f32, min_size=4, max_size=4), min_size=n, max_size=n
            )
        )
    )
    def test_switch_sum_is_within_per_worker_bounds(self, worker_chunks):
        """The in-network path end to end: every worker quantizes against
        the negotiated max exponent, the switch wrapping-adds, and the
        dequantized total is within N half-ulps of the exact sum."""
        n = len(worker_chunks)
        estar = max(chunk_exponent(c) for c in worker_chunks)
        total = _wrapping_sum([quantize_chunk(c, estar) for c in worker_chunks])
        got = dequantize_chunk(total, estar)
        bound = quantization_error_bound(estar, num_workers=n)
        for i in range(4):
            exact = math.fsum(c[i] for c in worker_chunks)
            assert abs(got[i] - exact) <= bound, (i, got[i], exact, estar)

    def test_wrapping_u32_add_is_signed_add(self):
        """Negative mantissas ride two's-complement: the switch's
        unsigned wrap implements signed addition exactly."""
        a = quantize_chunk([-1.5, 2.5, -0.25, 0.0], 130)
        b = quantize_chunk([1.5, -2.5, 0.75, 0.0], 130)
        got = dequantize_chunk(_wrapping_sum([a, b]), 130)
        assert got == [0.0, 0.0, 0.5, 0.0]


class TestExponent:
    @given(chunks)
    def test_exponent_strictly_bounds_every_value(self, values):
        e = chunk_exponent(values)
        if any(values):
            # |x| < 2^(e - EXP_BIAS) unless the clamp at 0/255 kicked in.
            unclamped = max(math.frexp(x)[1] for x in values if x) + EXP_BIAS
            if 0 <= unclamped <= 255:
                for x in values:
                    assert abs(x) < math.ldexp(1.0, e - EXP_BIAS)

    @given(chunks, chunks)
    def test_exponent_is_monotone_under_max(self, a, b):
        assert chunk_exponent(a + b) == max(chunk_exponent(a), chunk_exponent(b))

    def test_constants_keep_64_worker_sums_exact(self):
        # N * 2^MANTISSA_BITS must stay below 2^31 for exactness.
        assert 64 * (1 << MANTISSA_BITS) <= 1 << 31


# -- the functions against their per-element loops ---------------------------------
def _ref_chunk_exponent(values):
    e = None
    for x in values:
        if x:
            ex = math.frexp(x)[1]
            if e is None or ex > e:
                e = ex
    if e is None:
        return 0
    return min(255, max(0, e + EXP_BIAS))


def _ref_quantize_chunk(values, biased_exp):
    scale = math.ldexp(1.0, MANTISSA_BITS - (biased_exp - EXP_BIAS))
    out = []
    for x in values:
        q = round(x * scale)
        q = min(max(q, -(1 << 31)), (1 << 31) - 1)
        out.append(q & 0xFFFFFFFF)
    return out


def _ref_dequantize_chunk(qs, biased_exp):
    scale = math.ldexp(1.0, (biased_exp - EXP_BIAS) - MANTISSA_BITS)
    return [(q - _U32 if q >= 1 << 31 else q) * scale for q in qs]


def _outcome(fn, *args):
    """The result, or the exception's type and text: bit for bit."""
    try:
        result = fn(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    if isinstance(result, list):
        return [(type(x), math.copysign(1.0, x), x.hex()) if isinstance(x, float) else x
                for x in result]
    return result


special = st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 2.0**-1074 * 3, 2.0**-126]
)
any_f32 = st.floats(width=32) | special
any_f64 = st.floats() | special
exponents = st.integers(min_value=0, max_value=255)


def _edge_chunks(biased_exp):
    """Chunks whose ``max|x| * scale`` is ``2^31 - 0.5`` and one ulp
    either side: the largest magnitude that rounds into int32, and the
    first two that saturate."""
    scale = math.ldexp(1.0, MANTISSA_BITS - (biased_exp - EXP_BIAS))
    edge = (2.0**31 - 0.5) / scale
    out = []
    for top in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)):
        out += [[top, 1.0], [-top, 0.5], [0.25, -top, top]]
    return out


class TestAgainstThePerElementLoops:
    """Bit for bit, errors included, so a whole-chunk rewrite of any of
    the three is held to the loop it replaces."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(any_f32, max_size=16) | st.lists(any_f64, max_size=16))
    def test_exponent_is_the_per_element_loops(self, values):
        assert _outcome(chunk_exponent, values) == _outcome(_ref_chunk_exponent, values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(any_f32, max_size=16) | st.lists(any_f64, max_size=16), exponents)
    def test_quantize_is_the_per_element_loops(self, values, e):
        assert _outcome(quantize_chunk, values, e) == _outcome(_ref_quantize_chunk, values, e)

    @pytest.mark.parametrize("e", [0, 100, 128, 151, 152, 200, 255])
    def test_quantize_at_the_saturation_edge(self, e):
        for values in _edge_chunks(e):
            assert _outcome(quantize_chunk, values, e) == _outcome(_ref_quantize_chunk, values, e)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(0, _U32 - 1), max_size=16)
        | st.lists(st.integers(-(1 << 40), 1 << 40), max_size=16)
        | st.lists(st.booleans() | st.integers(0, 3), max_size=4),
        exponents,
    )
    def test_dequantize_is_the_per_element_loops(self, qs, e):
        assert _outcome(dequantize_chunk, qs, e) == _outcome(_ref_dequantize_chunk, qs, e)
