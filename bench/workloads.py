"""The three workloads: seeded input files plus the reference answer for each.

Every workload is a fixed list of CLI invocations ("jobs") that the worker
runs round after round. Sizes are fixed per slot, and only the structure
inside a slot depends on the seed, so the cost of a round barely moves
between seeds.

- check-large: seven networks of 100-120 states from three families
  (random; identical-node chain, also with a link cut and with no input;
  hub-and-spoke, also with two spokes on one output), 3 controllable. The
  baseline spends its time in the cubic pattern-product assembly there.
- check-pool: 300 distinct random networks of at most 30 states, half
  controllable, plus the shipped network fixtures. Per-call overhead
  dominates.
- audit: `strucnet audit --trials 20 --seed 0` on networks of 5-100
  states, among them the certified-controllable chains at 30, 40 and 100
  states. Random controllable networks stay at 5 and 10 states: from 15
  states the baseline oracle falsely fails some of them on some seeds, so
  only the chains carry that defect and its count is the same in every
  run.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import netgen
import refcheck

WORKLOADS = ("check-large", "check-pool", "audit")
AUDIT_TRIALS = 20
AUDIT_SEED = 0
FIXTURES = ("three_node_network.json", "three_node_network_no_input.json")


@dataclass
class Job:
    name: str
    argv: list
    kind: str  # "check" or "audit"
    controllable: bool
    graphs: tuple  # (n, plain, shifted) from the reference


def _job(kind: str, name: str, path: Path, obj: dict) -> Job:
    verdict, graphs = refcheck.decide(obj)
    if kind == "check":
        argv = ["check", "--json", str(path)]
    else:
        argv = ["audit", "--trials", str(AUDIT_TRIALS), "--seed", str(AUDIT_SEED), str(path)]
    return Job(name, argv, kind, verdict, graphs)


def _random_networks(rng, specs) -> list:
    """One distinct random network per (dims, verdict) spec.

    A candidate without forward entries is always controllable; one with
    a forward entry or two usually is not. A third of the uncontrollable
    candidates are near misses instead (one state left unforced), so an
    off-by-one in the colorability test shows. Candidates are drawn until
    each has the verdict its spec asks for.
    """
    seen, out = set(), []
    for (nodes, size, n_in, n_out, w_extra, a_extra), want in specs:
        for _ in range(200):
            near_miss = not want and rng.random() < 1 / 3
            forward = 0 if want or near_miss else rng.randint(1, 2)
            net = netgen.random_net(rng, nodes, size, n_in, n_out, w_extra, a_extra, forward, near_miss)
            obj = net.to_json()
            text = netgen.dump(obj)
            if text not in seen and refcheck.decide(obj)[0] is want:
                break
        else:
            raise RuntimeError(f"no network with verdict {want} for dims {(nodes, size, n_in, n_out)}")
        seen.add(text)
        out.append(obj)
    return out


def _pool_specs() -> list:
    """Fixed sizes for the 300 pool slots, the same for every seed; half controllable.

    Uncontrollable slots get at least 3 nodes so forward entries exist.
    """
    rng = random.Random("check-pool sizes")
    specs = []
    for k in range(300):
        want = k % 2 == 0
        nodes = rng.randint(1 if want else 3, 6)
        dims = (nodes, rng.randint(2, 5), rng.randint(1, 2), rng.randint(1, 2),
                rng.randint(0, nodes * nodes), rng.randint(0, 2))
        specs.append((dims, want))
    return specs


def _sized(states: int, want: bool):
    """5-state nodes with 2 inputs and 2 outputs, W about 3% nonzero."""
    nodes = states // 5
    return (nodes, 5, 2, 2, max(1, round(0.03 * 4 * nodes * nodes)), 2), want


def networks(workload: str, seed: int, root: Path) -> list:
    """(kind, name, JSON object) for every job of the workload, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "check-large":
        rand_pos, rand_neg = _random_networks(rng, [_sized(100, True), _sized(100, False)])
        nets = [
            ("random-100-pos", rand_pos),
            ("chain-120", netgen.chain(24).to_json()),
            ("hub-120", netgen.hub(rng, 12, 108, extras=2).to_json()),
            ("random-100-neg", rand_neg),
            ("chain-120-cut", netgen.chain(24, cut=rng.randint(1, 23)).to_json()),
            ("chain-120-no-input", netgen.chain(24, h_zero=True).to_json()),
            ("hub-120-shared", netgen.hub(rng, 12, 108, shared=True, extras=2).to_json()),
        ]
        return [("check", name, obj) for name, obj in nets]
    if workload == "check-pool":
        pool = _random_networks(rng, _pool_specs())
        nets = [(f"pool-{k:03d}", obj) for k, obj in enumerate(pool)]
        for fixture in FIXTURES:
            nets.append((fixture, json.loads((root / "fixtures" / fixture).read_text())))
        return [("check", name, obj) for name, obj in nets]
    if workload == "audit":
        nets = [
            ("chain-30", netgen.chain(6).to_json()),
            ("chain-40", netgen.chain(8).to_json()),
            ("chain-100", netgen.chain(20).to_json()),
        ]
        specs = [_sized(5, True), _sized(10, True), _sized(10, True), _sized(20, False),
                 _sized(60, False), _sized(100, False)]
        for k, ((dims, want), obj) in enumerate(zip(specs, _random_networks(rng, specs))):
            nets.append((f"random-{dims[0] * 5}-{'pos' if want else 'neg'}-{k}", obj))
        return [("audit", name, obj) for name, obj in nets]
    raise ValueError(f"unknown workload {workload!r}")


def build(workload: str, seed: int, out_dir: Path, root: Path) -> list:
    """Write the workload's input files into out_dir and return its jobs."""
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for kind, name, obj in networks(workload, seed, root):
        path = out_dir / f"{name}.json"
        netgen.write(path, obj)
        jobs.append(_job(kind, name, path, obj))
    return jobs
