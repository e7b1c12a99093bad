"""Shared fixtures: canonical NetCL programs from the paper."""

from __future__ import annotations

import pytest

from repro.core import compile_cache_clear, compile_netcl
from repro.lang import analyze, lower_to_ir, parse_source

#: Figure 4 of the paper: the in-network read-only cache.
FIG4_CACHE = r"""
#define CMS_HASHES 3
#define THRESH 128
#define GET_REQ 1

_managed_ unsigned cms[CMS_HASHES][65536];

_net_ void sketch(unsigned k, unsigned &hot) {
  unsigned c[CMS_HASHES];
  c[0] = ncl::atomic_sadd_new(&cms[0][ncl::xor16(k)], 1);
  c[1] = ncl::atomic_sadd_new(&cms[1][ncl::crc32<16>(k)], 1);
  c[2] = ncl::atomic_sadd_new(&cms[2][ncl::crc16(k)], 1);
  for (auto i = 1; i < CMS_HASHES; ++i)
    if (c[i] < c[0]) c[0] = c[i];
  hot = c[0] > THRESH ? c[0] : 0;
}

_net_ _lookup_ ncl::kv<unsigned, unsigned> cache[] = {{1,42}, {2,42},
                                                      {3,42}, {4,42}};

_kernel(1) _at(1) void query(char op, unsigned k, unsigned &v,
                             char &hit, unsigned &hot) {
  if (op == GET_REQ) {
    hit = ncl::lookup(cache, k, v);
    return hit ? ncl::reflect() : sketch(k, hot);
  }
}
"""

#: A tiny kernel exercising most scalar features.
MINI_KERNEL = r"""
_net_ unsigned counter[16];

_kernel(1) void bump(unsigned slot, unsigned delta, unsigned &total) {
  total = ncl::atomic_add_new(&counter[slot & 15], delta);
  if (total > 100)
    return ncl::drop();
  return ncl::reflect();
}
"""


@pytest.fixture(autouse=True)
def cold_compile_cache():
    """Every test starts and ends with an empty compile cache, so tier-1
    exercises the real compiler (pass records, timings) in any order; the
    clear on the way out covers module-scoped fixtures of the next file,
    which are built before its first test's function-scoped set-up."""
    compile_cache_clear()
    yield
    compile_cache_clear()


@pytest.fixture
def fig4_module():
    return lower_to_ir(analyze(parse_source(FIG4_CACHE)), "fig4")


@pytest.fixture
def fig4_compiled():
    return compile_netcl(FIG4_CACHE, 1, target="tna", program_name="fig4")


@pytest.fixture
def mini_compiled():
    return compile_netcl(MINI_KERNEL, 1, target="tna", program_name="mini")
