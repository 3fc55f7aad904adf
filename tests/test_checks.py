"""The property battery itself: green end to end, readable summaries."""

import numpy as np

from setnn import autodiff as ad
from setnn import checks


def test_run_all_is_green():
    results = checks.run_all(seed=0)
    assert [r.name for r in results] == list(checks.SUITES)
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"
        assert r.seconds >= 0.0
        assert r.detail


def test_summary_table_formats_pass_and_fail():
    rows = [
        checks.CheckResult("alpha", True, "all good", 0.5),
        checks.CheckResult("betagamma", False, "2 failures", 1.25),
    ]
    table = checks.summary_table(rows)
    lines = table.split("\n")
    assert lines[0].startswith("PASS  alpha")
    assert lines[1].startswith("FAIL  betagamma")
    assert "2 failures" in lines[1]


def test_gradient_cases_cover_every_primitive():
    """A primitive cannot be registered without a finite-difference case."""
    kinds = set()
    for _, f, params, _ in checks._gradient_cases(0):
        with ad.Tape() as tape:
            f(params)
        kinds |= {node.kind for node in tape.nodes}
    assert kinds - {"leaf"} == set(ad.PRIMITIVE_KINDS)


def test_every_recorded_vjp_returns_one_gradient_per_input():
    """backprop checks only the shapes of the gradients it returns; each node
    must also hand back one gradient per input, shaped like that input, and
    read only earlier nodes, when every input needs one."""
    kinds = set()
    for name, f, params, _ in checks._gradient_cases(0):
        with ad.Tape() as tape:
            f(params)
        for nid, node in enumerate(tape.nodes):
            if node.kind == "leaf":
                continue
            kinds.add(node.kind)
            grads = node.vjp(np.ones_like(node.out_data), (True,) * len(node.inputs))
            assert len(grads) == len(node.inputs), (name, node.kind)
            for iid, g in zip(node.inputs, grads):
                assert iid < nid, (name, node.kind)
                assert np.shape(g) == tape.nodes[iid].out_data.shape, (name, node.kind)
    assert kinds == set(ad.PRIMITIVE_KINDS)
