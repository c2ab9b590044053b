"""Output checks that share no code with the library under test.

Everything here works from plain data (edge lists, color vectors, graph6
text) with its own decoder and its own brute-force matcher, so a bug in
nimlab's canonical forms, pin plans or bitmask matcher cannot make a
wrong answer pass.
"""

from __future__ import annotations

# ex(n, C4) for n = 1..21, OEIS A006855 (Clapham, Flockhart & Sheehan,
# "Graphs without four-cycles", 1989).
A006855 = (0, 1, 3, 4, 6, 7, 9, 11, 13, 16, 18, 21, 24, 27, 30, 33, 36, 39, 42, 46, 50)


def ex_c4(n: int) -> int:
    return A006855[n - 1]


# Values with no published table at hand.  They were produced by nimlab at
# the commit that introduced this benchmark and are re-checked on every
# run by witness freeness and edge-maximality below; relabelled patterns
# and later commits must reproduce them exactly.
REFERENCE = {
    ("ex", "k2,3", 2): 1, ("ex", "k2,3", 3): 3, ("ex", "k2,3", 4): 6,
    ("ex", "k2,3", 5): 7, ("ex", "k2,3", 6): 10, ("ex", "k2,3", 7): 12,
    ("ex", "k2,3", 8): 16, ("ex", "k2,3", 9): 19, ("ex", "k2,3", 10): 22,
    ("ex", "c6", 8): 16,
    ("exstar", "c6", (5, 6)): 12,
    ("exstar", "theta2,3", (5, 6)): 12,
    ("f", "c4", (8, 2)): 11,
    ("f", "c4", (5, 3)): 10,
}


def expected_ex(family: str, n: int) -> int:
    if family == "c4":
        return ex_c4(n)
    return REFERENCE[("ex", family, n)]


# ---------------------------------------------------------------------------
# Pattern families as plain descriptors (vertex 0..h-1, sides, weak vertex).
# ---------------------------------------------------------------------------

def _cycle(length: int) -> dict:
    edges = [[i, (i + 1) % length] for i in range(length)]
    return {"n": length, "edges": edges, "X": list(range(0, length, 2)),
            "Y": list(range(1, length, 2)), "weak": 0}


FAMILIES = {
    "c4": _cycle(4),
    "c6": _cycle(6),
    "k2,3": {"n": 5, "edges": [[a, b] for a in (0, 1) for b in (2, 3, 4)],
             "X": [0, 1], "Y": [2, 3, 4], "weak": 0},
    # two internally disjoint paths of length 3 joining hubs 0 and 1
    "theta2,3": {"n": 6, "edges": [[0, 2], [2, 3], [3, 1], [0, 4], [4, 5], [5, 1]],
                 "X": [1, 2, 4], "Y": [0, 3, 5], "weak": 2},
}


def relabeled(family: str, rng) -> dict:
    """The family's descriptor with its vertices permuted by `rng`."""
    base = FAMILIES[family]
    perm = list(range(base["n"]))
    rng.shuffle(perm)
    return {
        "name": family,
        "n": base["n"],
        "edges": [sorted((perm[u], perm[v])) for u, v in base["edges"]],
        "X": sorted(perm[v] for v in base["X"]),
        "Y": sorted(perm[v] for v in base["Y"]),
        "weak": perm[base["weak"]],
    }


def reduced_edges(desc: dict) -> tuple[int, list[tuple[int, int]]]:
    """Order and edges of the descriptor minus its weak vertex."""
    w = desc["weak"]
    remap = lambda v: v - (v > w)
    return desc["n"] - 1, [(remap(u), remap(v)) for u, v in desc["edges"] if w not in (u, v)]


# ---------------------------------------------------------------------------
# Graphs as adjacency bit rows; a graph6 decoder and a brute-force matcher.
# ---------------------------------------------------------------------------

def decode_graph6(text: str) -> tuple[int, list[int]]:
    data = [ord(c) - 63 for c in text.strip()]
    if not data or data[0] > 62:
        raise ValueError(f"unsupported graph6 header in {text!r}")
    n = data[0]
    bits = []
    for x in data[1:]:
        bits.extend((x >> s) & 1 for s in range(5, -1, -1))
    rows = [0] * n
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            idx += 1
    return n, rows


def edge_count(rows: list[int]) -> int:
    return sum(bin(r).count("1") for r in rows) // 2


def contains(rows: list[int], h: int, pedges, allowed=None) -> bool:
    """Whether the host holds a (not necessarily induced) copy of the pattern.

    Plain backtracking over injective maps in vertex order 0..h-1 of the
    pattern; `allowed[p]` optionally restricts pattern vertex p to a host
    vertex mask.
    """
    n = len(rows)
    back = [[] for _ in range(h)]
    for u, v in pedges:
        a, b = (u, v) if u < v else (v, u)
        back[b].append(a)
    img = [0] * h

    def go(p: int, used: int) -> bool:
        if p == h:
            return True
        for x in range(n):
            if (used >> x) & 1:
                continue
            if allowed is not None and not (allowed[p] >> x) & 1:
                continue
            if all((rows[img[a]] >> x) & 1 for a in back[p]):
                img[p] = x
                if go(p + 1, used | (1 << x)):
                    return True
        return False

    return go(0, 0)


def check_ex_witness(text: str, n: int, value: int, h: int, pedges) -> str | None:
    """A witness must have n vertices, `value` edges, no copy, and be edge-maximal."""
    wn, rows = decode_graph6(text)
    if wn != n:
        return f"witness {text} has {wn} vertices, expected {n}"
    if edge_count(rows) != value:
        return f"witness {text} has {edge_count(rows)} edges, expected {value}"
    if contains(rows, h, pedges):
        return f"witness {text} contains the pattern"
    for u in range(n):
        for v in range(u + 1, n):
            if not (rows[u] >> v) & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
                free = not contains(rows, h, pedges)
                rows[u] &= ~(1 << v)
                rows[v] &= ~(1 << u)
                if free:
                    return f"witness {text} is not edge-maximal: ({u},{v}) can be added"
    return None


def check_exstar_witness(text: str, m: int, n: int, value: int, h: int, pedges,
                         xside) -> str | None:
    """Bipartite host on parts 0..m-1 / m..m+n-1 with no copy whose X side
    sits in the first part."""
    wn, rows = decode_graph6(text)
    if wn != m + n:
        return f"witness {text} has {wn} vertices, expected {m + n}"
    if edge_count(rows) != value:
        return f"witness {text} has {edge_count(rows)} edges, expected {value}"
    mmask = (1 << m) - 1
    nmask = ((1 << n) - 1) << m
    if any(rows[i] & mmask for i in range(m)) or any(rows[j] & nmask for j in range(m, m + n)):
        return f"witness {text} is not bipartite on the stated parts"
    allowed = [mmask if p in xside else nmask for p in range(h)]
    if contains(rows, h, pedges, allowed):
        return f"witness {text} contains a one-sided copy"
    return None


# ---------------------------------------------------------------------------
# Colorings: NIM edges for the quadrilateral, counted by definition.
# ---------------------------------------------------------------------------

def parse_coloring(text: str) -> tuple[int, int, list[int]]:
    tok = text.split()
    n, k = int(tok[0]), int(tok[1])
    colors = [int(t) for t in tok[2:]]
    if len(colors) != n * (n - 1) // 2 or any(not 1 <= c <= k for c in colors):
        raise ValueError("malformed coloring")
    return n, k, colors


def coloring_text(n: int, k: int, colors) -> str:
    return f"{n} {k}\n" + " ".join(map(str, colors)) + "\n"


def class_rows(n: int, k: int, colors) -> list[list[int]]:
    rows = [[0] * n for _ in range(k)]
    idx = 0
    for u in range(n):
        for v in range(u + 1, n):
            r = rows[colors[idx] - 1]
            r[u] |= 1 << v
            r[v] |= 1 << u
            idx += 1
    return rows


def c4_nim_flags(n: int, k: int, colors) -> list[bool]:
    """Edge uv of color c is NIM iff no w ~ v, x ~ u (w != u, x != v) with
    x ~ w, all in color c."""
    rows = class_rows(n, k, colors)
    flags = []
    idx = 0
    for u in range(n):
        for v in range(u + 1, n):
            r = rows[colors[idx] - 1]
            nim = True
            cand = r[v] & ~(1 << u)
            ru = r[u] & ~(1 << v)
            while cand:
                w = (cand & -cand).bit_length() - 1
                cand &= cand - 1
                if r[w] & ru:
                    nim = False
                    break
            flags.append(nim)
            idx += 1
    return flags


def c4_nim_count(n: int, k: int, colors) -> int:
    return sum(c4_nim_flags(n, k, colors))


def nim_colors_present(n: int, k: int, colors) -> set[int]:
    return {c for c, f in zip(colors, c4_nim_flags(n, k, colors)) if f}
