"""Reference verdicts and certificate replay, written without strucnet.

The reference reads the same dense JSON file strucnet reads. It assembles
the two network patterns [A+BWC BH] and [A+I+BWC BH] by the one-star
gather: every input drives exactly one state and every output reads
exactly one state, so a nonzero W[a, b] lands in entry (state driven by
a, state read by b) and a nonzero H[a, j] in entry (state driven by a,
n + j). It then decides colorability with a plain rescanning forcing rule.
The network is strongly structurally controllable iff both patterns are
colorable.

Graphs use strucnet's numbering: column vertex c (1..n+m) has an edge to
row vertex i (1..n) when entry (i, c) is nonzero.
"""

from __future__ import annotations


def _add(x: str | None, y: str) -> str:
    """Sum of an entry so far (None: none yet) and a nonzero symbol.

    Two nonzero terms may cancel, so any such sum is '?'.
    """
    return y if x is None else "?"


def _star_index(line, what: str) -> int:
    stars = [k for k, s in enumerate(line) if s != "0"]
    if len(stars) != 1 or line[stars[0]] != "*":
        raise ValueError(f"{what} is not a single '*'")
    return stars[0]


def assemble(obj: dict) -> tuple[int, dict, dict]:
    """Return (n, plain, shifted): column vertex -> {row vertex: symbol}."""
    entries: dict = {}  # (row, col), 0-based -> symbol
    in_state, out_state = [], []
    base = 0
    for k, node in enumerate(obj["nodes"]):
        a, b, c = node["A"], node["B"], node["C"]
        for i, row in enumerate(a):
            for j, sym in enumerate(row):
                if sym != "0":
                    entries[(base + i, base + j)] = sym
        cols = len(b[0])
        in_state += [base + _star_index([row[j] for row in b], f"node {k} B col {j}") for j in range(cols)]
        out_state += [base + _star_index(row, f"node {k} C row {i}") for i, row in enumerate(c)]
        base += len(a)
    n = base
    for a_idx, row in enumerate(obj["W"]):
        for b_idx, sym in enumerate(row):
            if sym != "0":
                key = (in_state[a_idx], out_state[b_idx])
                entries[key] = _add(entries.get(key), sym)
    for a_idx, row in enumerate(obj["H"]):
        for j, sym in enumerate(row):
            if sym != "0":
                key = (in_state[a_idx], n + j)
                entries[key] = _add(entries.get(key), sym)
    m = len(obj["H"][0])
    plain: dict = {c: {} for c in range(1, n + m + 1)}
    shifted: dict = {c: {} for c in range(1, n + m + 1)}
    for (i, j), sym in entries.items():
        plain[j + 1][i + 1] = sym
        shifted[j + 1][i + 1] = sym
    for i in range(n):
        shifted[i + 1][i + 1] = _add(plain[i + 1].get(i + 1), "*")
    return n, plain, shifted


def colorable(n: int, graph: dict) -> bool:
    """Rescan all columns until no column forces; colorable iff rows 1..n end black."""
    white = set(range(1, n + 1))
    changed = True
    while changed and white:
        changed = False
        for out in graph.values():
            left = [i for i in out if i in white]
            if len(left) == 1 and out[left[0]] == "*":
                white.discard(left[0])
                changed = True
    return not white


def decide(obj: dict) -> tuple[bool, tuple]:
    """(controllable, (n, plain, shifted)): the reference verdict and the graphs it rests on."""
    graphs = assemble(obj)
    n, plain, shifted = graphs
    return colorable(n, plain) and colorable(n, shifted), graphs


def replay(n: int, graph: dict, sequence) -> str | None:
    """Replay a forcing sequence on a reference graph; None when it certifies full row rank."""
    white = set(range(1, n + 1))
    for forcer, forced in sequence:
        out = graph.get(forcer, {})
        if out.get(forced) != "*":
            return f"({forcer}, {forced}) is not a '*' edge"
        if [i for i in out if i in white] != [forced]:
            return f"{forcer} does not have {forced} as its only white out-neighbour"
        white.discard(forced)
    if white:
        return f"{len(white)} rows never forced"
    return None
