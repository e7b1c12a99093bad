#!/usr/bin/env python3
"""Hierarchical in-network AllReduce for data-parallel training.

Simulates two racks of workers running synchronous float32 gradient
aggregation through a NetCL-programmed switch tree (``repro.collective``):
each ToR leaf sums its rack's quantized mantissas, the spine root sums
the rack partials and multicasts the total back down.  Gradients are
block-quantized against a negotiated per-chunk max exponent, so every
worker gets a bit-identical result within the published error bound of
the exact float sum.  The run repeats over several "training steps" and
injects packet loss to show slot retransmission recovering.

Run:  python examples/allreduce_training.py
"""

import math
import random

from repro.chaos import LinkFaults, apply_faults
from repro.collective import build_collective_cluster, compile_role, leaf_device
from repro.collective.tree import ROOT_DEVICE

RACKS = 2
WORKERS_PER_RACK = 2
WORKERS = RACKS * WORKERS_PER_RACK


def fake_gradients(step: int, elements: int) -> list[list[float]]:
    rng = random.Random(1000 + step)
    return [
        [rng.gauss(0.0, 0.5) for _ in range(elements)]
        for _ in range(WORKERS)
    ]


def run_step(step: int, elements: int, loss: float) -> None:
    cluster = build_collective_cluster(
        RACKS, WORKERS_PER_RACK, window=32, seed=100 + step
    )
    if loss:
        apply_faults(LinkFaults(loss=loss), cluster.network)
    grads = fake_gradients(step, elements)
    job = cluster.submit("allreduce", grads)
    cluster.run(until_ms=2000, require_done=True)

    exact = [math.fsum(g[i] for g in grads) for i in range(elements)]
    bound = job.max_error_bound()
    worst = 0.0
    for rank in range(WORKERS):
        assert job.results[rank] == job.results[0], "ranks diverged bit-wise!"
        worst = max(
            worst, max(abs(a - b) for a, b in zip(job.results[rank], exact))
        )
    assert worst <= bound, "quantization error bound violated!"

    finish_ms = max(w.finished_at_ns for w in cluster.workers) / 1e6
    retx = sum(w.retransmissions for w in cluster.workers)
    rate = elements / (finish_ms / 1e3) / 1e6
    print(
        f"step {step}: {WORKERS} workers x {elements} grads "
        f"-> {finish_ms:6.2f} ms  ({rate:6.1f} M elements/s/worker, "
        f"{retx} retransmissions, max err {worst:.2e} <= bound {bound:.2e})"
    )


def main() -> None:
    print(f"== {RACKS} racks x {WORKERS_PER_RACK} workers, lossless ==")
    for step in range(3):
        run_step(step, elements=4096, loss=0.0)

    print("\n== 'training' with 1% packet loss (slot retransmission) ==")
    for step in range(3, 6):
        run_step(step, elements=2048, loss=0.01)

    leaf = compile_role(leaf_device(0), rack=0).report
    root = compile_role(ROOT_DEVICE).report
    print(
        f"\nToR leaf program: {leaf.stages_used}/12 stages, "
        f"spine root program: {root.stages_used}/12 stages"
    )


if __name__ == "__main__":
    main()
