"""The P4 printer is the inverse of the parser on both corpora: the
programs ``ncc`` builds and the handwritten baselines."""

from __future__ import annotations

import pytest

from repro.apps import P4_SOURCES, netcl_source, p4_source
from repro.backends import TnaBackend, V1ModelBackend, prepare_module_for_codegen
from repro.backends.p4tree import build_program
from repro.core.driver import lower_source
from repro.p4 import parse_p4
from repro.p4.printer import print_p4
from repro.passes import PassManager, PassOptions
from tests.test_compile_golden import UNITS


def _tree(app, dev, target, defines):
    module = lower_source(netcl_source(app), defines, app)
    PassManager(PassOptions(target=target)).run_pipeline(module, dev)
    trees = prepare_module_for_codegen(module, dev)
    kernels = [fn for fn in module.kernels() if fn.placed_at(dev)]
    return build_program(trees, dev, kernels).program


@pytest.mark.parametrize("label,app,dev,target,defines", UNITS, ids=[u[0] for u in UNITS])
def test_an_emitted_tree_prints_and_parses_back(label, app, dev, target, defines):
    tree = _tree(app, dev, target, defines)
    assert parse_p4(print_p4(tree)) == tree


@pytest.mark.parametrize("name", sorted(P4_SOURCES))
def test_a_handwritten_program_prints_and_parses_back(name):
    parsed = parse_p4(p4_source(name))
    assert parse_p4(print_p4(parsed)) == parsed


def test_the_text_ncc_emits_is_the_printed_tree():
    backend = {"tna": TnaBackend, "v1model": V1ModelBackend}
    for label, app, dev, target, defines in UNITS[:1] + UNITS[6:7]:
        module = lower_source(netcl_source(app), defines, app)
        PassManager(PassOptions(target=target)).run_pipeline(module, dev)
        cg = backend[target]().compile(module, dev, fit=False, program_name=app)
        tree = _tree(app, dev, target, defines)
        if target == "tna":
            assert parse_p4(cg.p4_source) == tree, label
        assert print_p4(tree, v1model=target == "v1model") in cg.p4_source, label
