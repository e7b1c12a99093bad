"""The P4 printer is the inverse of the parser on both corpora: the
programs ``ncc`` builds and the handwritten baselines."""

from __future__ import annotations

import pytest

from repro.apps import P4_SOURCES, netcl_source, p4_source
from repro.backends import generate_p4
from repro.core import compile_netcl
from repro.core.driver import lower_source
from repro.p4 import parse_p4
from repro.p4.printer import print_p4
from repro.passes import PassManager, PassOptions
from tests.test_compile_golden import UNITS


def _generated(app, dev, target, defines):
    """The tree and the text ``ncc`` generates for one unit."""
    module = lower_source(netcl_source(app), defines, app)
    PassManager(PassOptions(target=target)).run_pipeline(module, dev)
    tree, text, *_ = generate_p4(module, dev, target, app, None)
    return tree, text


@pytest.mark.parametrize("label,app,dev,target,defines", UNITS, ids=[u[0] for u in UNITS])
def test_an_emitted_tree_prints_and_parses_back(label, app, dev, target, defines):
    tree, _ = _generated(app, dev, target, defines)
    assert parse_p4(print_p4(tree)) == tree


@pytest.mark.parametrize("name", sorted(P4_SOURCES))
def test_a_handwritten_program_prints_and_parses_back(name):
    parsed = parse_p4(p4_source(name))
    assert parse_p4(print_p4(parsed)) == parsed


def test_the_text_ncc_emits_is_the_printed_tree():
    for label, app, dev, target, defines in UNITS[:1] + UNITS[6:7]:
        tree, text = _generated(app, dev, target, defines)
        cp = compile_netcl(netcl_source(app), dev, target=target, defines=defines, program_name=app)
        assert cp.p4_source == text, label
        if target == "tna":
            assert parse_p4(cp.p4_source) == tree, label
        assert print_p4(tree, v1model=target == "v1model") in cp.p4_source, label
