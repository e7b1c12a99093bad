"""Differential testing: compiled NetCL vs handwritten P4.

Three device implementations of each application receive identical packet
sequences — the NetCL kernels, the handwritten P4 on the engine the
switch adapter runs (generated Python) and the same P4 on the reference
interpreter; their forwarding decisions and output messages must agree.
This is the strongest evidence behind Fig. 14's "NetCL == handwritten
P4" — the two stacks share no code above the byte level.
"""

import random


from repro.apps import compile_app, p4_source
from repro.p4 import P4Engine, P4Interpreter, P4NetCLSwitchDevice, parse_p4
from repro.runtime import NetCLDevice
from repro.runtime.message import NetCLPacket, NO_DEVICE


def _p4_devices(name):
    """The handwritten P4 twice: on the engine and on the oracle."""
    program = parse_p4(p4_source(name))
    engine, oracle = P4NetCLSwitchDevice(program, 1), P4NetCLSwitchDevice(program, 1)
    oracle.interp = P4Interpreter(program)
    assert type(engine.interp) is P4Engine
    return engine, oracle


def _agg_triple():
    cp = compile_app("agg", 1, defines={"NUM_WORKERS": 2})
    ncl = NetCLDevice(1, cp.module, cp.kernels())
    return ncl, *_p4_devices("agg")


def _cache_triple():
    cp = compile_app("cache", 1)
    ncl = NetCLDevice(1, cp.module, cp.kernels())
    p4s = _p4_devices("cache")
    # install the same three keys on all three
    from repro.runtime import DeviceConnection

    conn = DeviceConnection(ncl)
    for j, key in enumerate((5, 6, 7)):
        value = [key * 11 + i for i in range(16)]
        wmap = (1 << 16) - 1
        for i, w in enumerate(value):
            conn.managed_write("Data", w, index=i * 1024 + j)
            for p4 in p4s:
                p4.register_write(f"data_{i}", j, w)
        conn.managed_insert("Index", key, value=(wmap << 16) | j)
        conn.managed_write("Valid", 1, index=j)
        for p4 in p4s:
            p4.insert_entry("cache_index", [key], "index_set", [wmap, j])
            p4.register_write("valid", j, 1)
    return ncl, *p4s


def _all_agree(devices, pkt):
    first, *others = [dev.process(pkt.copy()) for dev in devices]
    for other in others:
        _compare(first, other)
    assert devices[1].interp.interpreted == 0


def _compare(a, b):
    assert a.kind == b.kind, (a, b)
    if a.packet is None:
        assert b.packet is None
        return
    assert a.target == b.target
    assert a.packet.data == b.packet.data, (a.packet.data.hex(), b.packet.data.hex())
    assert a.packet.act == b.packet.act


class TestAggDifferential:
    def test_random_slot_traffic_agrees(self):
        devices = _agg_triple()
        rng = random.Random(42)
        # random interleaving of 2 workers over 8 slots, with duplicates
        for step in range(300):
            worker = rng.randrange(2)
            slot = rng.randrange(8)
            ver = rng.randrange(2)
            vals = [rng.randrange(0, 1 << 20) for _ in range(32)]
            exp = rng.randrange(0, 32)
            data = bytes([ver]) + slot.to_bytes(2, "big")
            data += (ver * 256 + slot).to_bytes(2, "big")
            data += (1 << worker).to_bytes(2, "big") + bytes([exp])
            for v in vals:
                data += v.to_bytes(4, "big")
            pkt = NetCLPacket(
                src=worker + 1, dst=worker + 1, from_=NO_DEVICE, to=1,
                comp=1, act=0, data=data,
            )
            _all_agree(devices, pkt)


class TestCacheDifferential:
    def test_random_get_put_del_agrees(self):
        devices = _cache_triple()
        rng = random.Random(7)
        for step in range(400):
            op = rng.choice([1, 1, 1, 2, 3])  # GET-heavy
            key = rng.choice([5, 6, 7, 100, 101, 102])
            vals = [rng.randrange(0, 1 << 30) for _ in range(16)]
            data = bytes([op]) + key.to_bytes(8, "big") + bytes([0, 0])
            for v in vals:
                data += v.to_bytes(4, "big")
            pkt = NetCLPacket(
                src=1, dst=2, from_=NO_DEVICE, to=1, comp=1, act=0, data=data
            )
            _all_agree(devices, pkt)


class TestCalcDifferential:
    def test_all_opcodes_agree(self):
        cp = compile_app("calc", 1)
        devices = NetCLDevice(1, cp.module, cp.kernels()), *_p4_devices("calc")
        rng = random.Random(3)
        ops = [ord(c) for c in "+-&|^"] + [0, 255]  # incl. invalid opcodes
        for _ in range(200):
            op = rng.choice(ops)
            a, b = rng.randrange(1 << 32), rng.randrange(1 << 32)
            data = bytes([op]) + a.to_bytes(4, "big") + b.to_bytes(4, "big") + bytes(4)
            pkt = NetCLPacket(
                src=1, dst=1, from_=NO_DEVICE, to=1, comp=1, act=0, data=data
            )
            _all_agree(devices, pkt)
