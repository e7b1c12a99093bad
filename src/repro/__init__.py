"""repro — a from-scratch Python reproduction of NetCL (SC 2024).

NetCL is a unified programming framework for in-network computing: C/C++
extensions expressing computation as kernels over in-flight messages, a
compiler translating kernels to P4, and thin host/device runtimes.

Public API highlights:

* :func:`repro.core.compile_netcl` — compile NetCL source for a device.
* :mod:`repro.runtime` — host runtime (messages, managed memory) and the
  device runtime.
* :mod:`repro.netsim` — the discrete-event network the evaluation runs on.
* :mod:`repro.apps` — the paper's applications (AGG, CACHE, P4xos, CALC).
"""

__version__ = "1.0.0"
