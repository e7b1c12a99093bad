"""Managed-memory access: the control-plane surface (R6, §V-B).

``_managed_`` memory is writable by host code through the device's
control-plane mechanisms — reliable, slow-path operations (kernel
configuration, resets, checkpointing, cache population).  In the paper the
host runtime speaks P4Runtime; here :class:`DeviceConnection` wraps a
device's :class:`~repro.ir.interp.GlobalState` and enforces the same
permissions: only ``_managed_`` register memory may be read/written, and
only ``_managed_ _lookup_`` tables may be mutated.
"""

from __future__ import annotations

from typing import Optional

from repro.ir.interp import InterpError
from repro.ir.module import GlobalVar
from repro.runtime.device import NetCLDevice


class ManagedMemoryError(Exception):
    pass


class DeviceConnection:
    """``ncl::device_connection`` — a control-plane handle to one device."""

    def __init__(self, device: NetCLDevice) -> None:
        self.device = device
        self.module = device.module
        metrics = device.metrics
        self._reads = metrics.counter("managed.reads")
        self._writes = metrics.counter("managed.writes")
        self._table_ops = metrics.counter("managed.table_ops")

    def _resolve(self, name: str) -> GlobalVar:
        gv = self.module.globals.get(name)
        if gv is None:
            raise ManagedMemoryError(f"no global memory named '{name}'")
        site = self.module.site(self.device.device_id)
        if not gv.placed_at(site):
            raise ManagedMemoryError(
                f"'{name}' is not placed at device {site} (reference validity, Eq. 2)"
            )
        return gv

    # -- register memory -------------------------------------------------------
    def managed_read(self, name: str, index: int = 0) -> int:
        """``ncl::managed_read`` — read one element of managed memory.

        Reads are allowed for any register memory (useful for checkpoints);
        writes require ``_managed_``.
        """
        self._resolve(name)
        self._reads.inc()
        try:
            return self.device.state.cp_register_read(name, index)
        except InterpError as exc:
            raise ManagedMemoryError(str(exc)) from exc

    def managed_write(self, name: str, value: int, index: int = 0) -> None:
        """``ncl::managed_write`` — write one element of _managed_ memory."""
        gv = self._resolve(name)
        if not gv.space.is_managed:
            raise ManagedMemoryError(
                f"'{name}' is _net_ memory: writable only by device code (§V-B)"
            )
        self._writes.inc()
        try:
            self.device.state.cp_register_write(name, value, index)
        except InterpError as exc:
            raise ManagedMemoryError(str(exc)) from exc

    # -- lookup memory ------------------------------------------------------------
    def managed_insert(
        self, name: str, key: int, value: Optional[int] = None, key_hi: Optional[int] = None
    ) -> None:
        """Insert an entry into ``_managed_ _lookup_`` memory."""
        gv = self._resolve(name)
        if not gv.space.is_lookup:
            raise ManagedMemoryError(f"'{name}' is not lookup memory")
        self._table_ops.inc()
        try:
            self.device.state.cp_table_insert(name, key, key_hi, value)
        except InterpError as exc:
            raise ManagedMemoryError(str(exc)) from exc

    def managed_modify(self, name: str, key: int, value: int) -> bool:
        gv = self._resolve(name)
        if not gv.space.is_lookup:
            raise ManagedMemoryError(f"'{name}' is not lookup memory")
        self._table_ops.inc()
        try:
            return self.device.state.cp_table_modify(name, key, value)
        except InterpError as exc:
            raise ManagedMemoryError(str(exc)) from exc

    def managed_remove(self, name: str, key: int) -> bool:
        gv = self._resolve(name)
        if not gv.space.is_lookup:
            raise ManagedMemoryError(f"'{name}' is not lookup memory")
        self._table_ops.inc()
        try:
            return self.device.state.cp_table_remove(name, key)
        except InterpError as exc:
            raise ManagedMemoryError(str(exc)) from exc
