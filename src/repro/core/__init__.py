"""The NetCL compiler driver (``ncc``).

Ties the pipeline together: NetCL source → frontend (parse, sema) →
IR lowering → middle-end passes → backend (P4 text + pipeline spec +
fitting).  :func:`compile_netcl` is the main public entry point of the
whole library; it memoises identical compiles (``compile_cache_info`` /
``compile_cache_clear`` are the cache's whole surface).
"""

from repro.core.driver import (
    CompiledProgram,
    CompileCacheInfo,
    CompileTimings,
    compile_cache_clear,
    compile_cache_info,
    compile_netcl,
    compile_netcl_file,
)

__all__ = [
    "CompiledProgram",
    "CompileCacheInfo",
    "CompileTimings",
    "compile_cache_clear",
    "compile_cache_info",
    "compile_netcl",
    "compile_netcl_file",
]
