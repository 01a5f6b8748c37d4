"""Tests of the benchmark itself: seeded inputs, reference verdicts, tracer counts.

Run from the repository root: PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import netgen  # noqa: E402
import refcheck  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    first = workloads.build(workload, 7, tmp_path / "a", ROOT)
    second = workloads.build(workload, 7, tmp_path / "b", ROOT)
    assert [job.name for job in first] == [job.name for job in second]
    for job in first:
        name = f"{job.name}.json"
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    other = workloads.networks(workload, 8, ROOT)
    assert [obj for _kind, _name, obj in other] != [
        obj for _kind, _name, obj in workloads.networks(workload, 7, ROOT)
    ]


@pytest.mark.parametrize(
    "net, controllable",
    [
        (netgen.chain(6), True),
        (netgen.chain(20), True),
        (netgen.chain(6, h_zero=True), False),
        (netgen.chain(6, cut=3), False),
        (netgen.hub(random.Random(1), 4, 16), True),
        (netgen.hub(random.Random(1), 4, 16, shared=True), False),
        (netgen.hub(random.Random(2), 6, 30, shared=True, extras=2), False),
        (netgen.random_net(random.Random(3), 6, 5, 2, 2, 8, 2, forward=0), True),
        (netgen.random_net(random.Random(3), 6, 5, 2, 2, 8, 2, forward=0, blocked_last=True), False),
    ],
    ids=["chain-30", "chain-100", "chain-h-zero", "chain-cut", "hub", "hub-shared",
         "hub-shared-extras", "random-no-forward", "random-near-miss"],
)
def test_known_answer_families(net, controllable):
    assert refcheck.decide(net.to_json())[0] is controllable


def test_random_families_have_a_mixed_verdict():
    for workload in workloads.WORKLOADS:
        verdicts = [
            refcheck.decide(obj)[0]
            for _kind, name, obj in workloads.networks(workload, 3, ROOT)
            if name.startswith(("random", "pool"))
        ]
        assert len(verdicts) / 3 <= sum(verdicts) <= 2 * len(verdicts) / 3, workload


def test_replay_rejects_a_broken_certificate():
    n, plain, _shifted = refcheck.assemble(netgen.chain(2, size=2).to_json())
    # Column 5 is the external input; it drives state 1, which drives 2, ...
    good = [(5, 1), (1, 2), (2, 3), (3, 4)]
    assert refcheck.replay(n, plain, good) is None
    assert refcheck.replay(n, plain, good[:-1]) is not None
    assert refcheck.replay(n, plain, [(5, 1), (2, 3), (1, 2), (3, 4)]) is not None


def test_tracer_counts_calls_per_check():
    from strucnet import cli, network, pattern

    original = network.validate
    fixture = ROOT / "fixtures" / "three_node_network.json"
    trace = tracer.Tracer()
    trace.install()
    try:
        assert network.validate is not original
        for _ in range(2):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["check", "--json", str(fixture)]) == 0
    finally:
        trace.uninstall()
    assert network.validate is original
    assert pattern.pat_mul.__name__ == "pat_mul" and not hasattr(pattern.pat_mul, "__wrapped__")
    assert trace.missing == []
    summary = trace.summary()
    assert summary["network.validate"][0] == 10
    assert summary["network.extract_topology"][0] == 4
    assert summary["pattern.pat_mul"][0] == 6
    assert summary["cli.main"][0] == 2
    assert trace.counts["graph.forcings"] > 0
