"""Seeded generators for the network files the benchmark feeds to strucnet.

Networks are built in a sparse form (per-node state patterns plus index
maps) and written as the dense JSON layout `strucnet check` reads. Every
generator takes a `random.Random`, so one seed always gives byte-identical
files.

Families:

- chain: identical lower-bidiagonal nodes linked output-to-input, driven at
  the first node. Controllable by construction; zeroing H or cutting one
  link makes it uncontrollable.
- hub: a hub node with one state, one input and one output per spoke; each
  spoke is a bidiagonal chain fed by one hub output. Controllable when
  every spoke has its own hub output; feeding two identical spokes from
  one output makes it uncontrollable.
- random: nodes placed along a hidden state order. The one-star coupling
  puts every extra entry on or above that order's subdiagonal, which keeps
  the network controllable; `forward` extra entries below it usually break
  that, and a '?' on the order's last step always does. Callers pick
  candidates by the reference verdict to fix the mix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

SYMS = ("*", "?")


@dataclass
class Node:
    size: int
    a: dict = field(default_factory=dict)  # (row, col) -> "*" | "?"
    inputs: list = field(default_factory=list)  # local state driven by each input
    outputs: list = field(default_factory=list)  # local state read by each output


@dataclass
class Net:
    nodes: list
    w: dict  # (global input, global output) -> symbol
    h: dict  # (global input, external input) -> symbol
    m: int

    def to_json(self) -> dict:
        r = sum(len(nd.inputs) for nd in self.nodes)
        p = sum(len(nd.outputs) for nd in self.nodes)
        nodes = []
        for nd in self.nodes:
            a = _grid(nd.size, nd.size, nd.a)
            b = _grid(nd.size, len(nd.inputs), {(s, k): "*" for k, s in enumerate(nd.inputs)})
            c = _grid(len(nd.outputs), nd.size, {(k, s): "*" for k, s in enumerate(nd.outputs)})
            nodes.append({"A": a, "B": b, "C": c})
        return {"nodes": nodes, "W": _grid(r, p, self.w), "H": _grid(r, self.m, self.h)}


def _grid(rows: int, cols: int, entries: dict) -> list:
    grid = [["0"] * cols for _ in range(rows)]
    for (i, j), sym in entries.items():
        grid[i][j] = sym
    return grid


def dump(obj: dict) -> str:
    """Canonical text of a JSON object: one grid row per line, sorted keys."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).replace("],[", "],\n[") + "\n"


def write(path: Path, obj: dict) -> None:
    path.write_text(dump(obj))


def _bidiagonal(size: int) -> Node:
    a = {(s, s): "*" for s in range(size)}
    a.update({(s + 1, s): "*" for s in range(size - 1)})
    return Node(size, a, [0], [size - 1])


def chain(num_nodes: int, size: int = 5, h_zero: bool = False, cut: int | None = None) -> Net:
    """Identical bidiagonal nodes; node k's output drives node k+1's input.

    `cut` removes the link into node cut+1 (0-based), `h_zero` removes the
    external input; either makes the network uncontrollable.
    """
    nodes = [_bidiagonal(size) for _ in range(num_nodes)]
    w = {(k + 1, k): "*" for k in range(num_nodes - 1) if k + 1 != cut}
    h = {} if h_zero else {(0, 0): "*"}
    return Net(nodes, w, h, 1)


def hub(rng, spokes: int, spoke_states: int, shared: bool = False, extras: int = 0) -> Net:
    """Hub with one state, input and output per spoke; spokes share `spoke_states`.

    With `shared`, one hub output feeds two identical spokes (and another
    output feeds nothing), which makes the network uncontrollable.
    """
    sizes = _split(rng, spoke_states, spokes, low=3)
    if shared:  # two equal spokes, same total
        first = min(sizes[0], (spoke_states - 3 * (spokes - 2)) // 2)
        sizes = [first, first] + _split(rng, spoke_states - 2 * first, spokes - 2, low=3)
    hub_node = Node(spokes, {(s, s): "*" for s in range(spokes)}, list(range(spokes)), list(range(spokes)))
    nodes = [hub_node] + [_bidiagonal(size) for size in sizes]
    for k, nd in enumerate(nodes[1:]):
        if shared and k == 1:
            continue  # the second spoke mirrors the first
        for _ in range(extras):
            i = rng.randrange(nd.size)
            j = rng.randrange(i, nd.size)
            if (i, j) not in nd.a:
                nd.a[(i, j)] = rng.choice(SYMS)
    if shared:
        nodes[2].a = dict(nodes[1].a)
    # Global input index: hub inputs 0..spokes-1, then spoke k's input is spokes+k.
    w = {(spokes + k, k): "*" for k in range(spokes)}
    if shared:
        del w[(spokes + 1, 1)]
        w[(spokes + 1, 0)] = "*"
    h = {(k, k): "*" for k in range(spokes)}
    return Net(nodes, w, h, spokes)


def _split(rng, total: int, parts: int, low: int) -> list:
    sizes = [low] * parts
    for _ in range(total - low * parts):
        sizes[rng.randrange(parts)] += 1
    return sizes


def random_net(
    rng,
    num_nodes: int,
    size: int,
    n_in: int,
    n_out: int,
    w_extra: int,
    a_extra: int,
    forward: int,
    blocked_last: bool = False,
) -> Net:
    """Random one-star network around a hidden chain order of the states.

    The chain runs through the nodes in a random order, over each node's
    states 0..size-1. With forward == 0 every other coupling entry lands on
    or above the subdiagonal of that order, so forcing can walk the chain
    in both assembled patterns; forward entries below it usually block it.
    `blocked_last` makes the chain's last step '?', which leaves exactly one
    state unforced in at least one pattern: a near miss.
    """
    order = list(range(num_nodes))
    rng.shuffle(order)
    rank = {node: k for k, node in enumerate(order)}
    nodes = []
    for _ in range(num_nodes):
        a = {(s + 1, s): "*" for s in range(size - 1)}
        for s in range(size):
            diag = rng.choice(("0", "*", "?"))
            if diag != "0":
                a[(s, s)] = diag
        for _ in range(a_extra):
            i = rng.randrange(size)
            j = rng.randrange(i, size)
            a.setdefault((i, j), rng.choice(SYMS))
        inputs = [0] + [rng.randrange(size) for _ in range(n_in - 1)]
        outputs = [size - 1] + [rng.randrange(size) for _ in range(n_out - 1)]
        nodes.append(Node(size, a, inputs, outputs))
    if blocked_last:
        nodes[order[-1]].a[(size - 1, size - 2)] = "?"

    in_state, out_state = [], []  # global input/output -> (node, local state)
    for k, nd in enumerate(nodes):
        in_state += [(k, s) for s in nd.inputs]
        out_state += [(k, s) for s in nd.outputs]
    in_base = [sum(len(nd.inputs) for nd in nodes[:k]) for k in range(num_nodes)]
    out_base = [sum(len(nd.outputs) for nd in nodes[:k]) for k in range(num_nodes)]

    def pos(node_state):
        node, s = node_state
        return rank[node] * size + s

    w = {}
    for k in range(num_nodes - 1):
        w[(in_base[order[k + 1]], out_base[order[k]])] = "*"
    r, p = len(in_state), len(out_state)

    def place(count, keep):
        for _ in range(50 * count):
            if count == 0:
                return
            a, b = rng.randrange(r), rng.randrange(p)
            if (a, b) not in w and keep(pos(in_state[a]), pos(out_state[b])):
                w[(a, b)] = rng.choice(SYMS)
                count -= 1

    place(w_extra, lambda t, s: t <= s)
    place(forward, lambda t, s: t > s + 1)

    h = {(in_base[order[0]], 0): "*"}
    m = 1
    if n_in > 1:
        h[(in_base[rng.randrange(num_nodes)] + 1, 1)] = rng.choice(SYMS)
        m = 2
    return Net(nodes, w, h, m)
