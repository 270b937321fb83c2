"""Seeded input sets and their expected answers, one set per workload.

`make(workload, seed)` returns (ops, expect): the operations a pass runs,
in order, and for each the answer the ground truth in `truth` gives.
The set depends on the seed alone; every pass of a run replays it.
Each workload has a fixed composition (how many operations of each
class and size), and the seed only draws the members of each class, so
runs on different seeds do comparable work.
"""

from __future__ import annotations

import random

import truth as T

# wordproblem.  Query cost is heavy-tailed unless the work a query
# implies is pinned: equal pairs are drawn at an exact flip distance
# (the search for a certificate grows with it) and words to
# canonicalise from a band of flip-class sizes (the closure explored
# grows with it).  The seed draws the members; the classes, counts and
# bands are fixed, so every seed asks for comparable work.  Lengths are
# ones at which every query finishes.
SWAP_PAIRS = ((100, 16, 4), (20, 16, 6))  # (count, length, flip distance): equal by swaps
INSERT_PAIRS = (100, 12, 2)  # equal: flips, one square inserted, flips
S4_PAIRS = (100, 16)  # unequal: the S4 images differ
REP_PAIRS = (4, 8, 5, 20)  # unequal: same S4 image, a permutation representation separates;
# (count, length, flip-class band of each word): the slack search that ends in NOT-FOUND
# visits the spellings of both elements, whose number grows with their flip classes
CANON_WORDS = ((9, 9, 110, 8, 24), (7, 5, 10, 1, 1000))  # (length, geodesic length, count, flip-class band)

# presentations
DEHN_SIZES = (100, 300, 1000)  # trivial and nontrivial words, per one-relator group
DEHN_LONG = ("five", 3000)  # and one long trivial word; its reduction is quadratic today.
# It alone takes half a pass, and its cost varies by a quarter from word to word, so it is
# the same word for every seed: drawn from a stream of its own.
TEN_WORDS = (3, 40)  # trivial and nontrivial ten-generator words, length
SEARCH_WORDS = 3  # short trivial words for the bounded search

GROWTH_OPS = (
    [{"op": "sphere", "length": L, "slack": 0} for L in range(9)]
    + [{"op": "sphere", "length": L} for L in range(7)]
    + [{"op": "build_ball", "radius": 6}, {"op": "check_tiling"},
       {"op": "embed_ball"}, {"op": "render_svg"}]
)


def _geodesic_word(rng, length, geodesic_length=None):
    """A freely reduced word of `length` letters whose geodesic has
    `geodesic_length` letters (default: the word is a geodesic)."""
    want = length if geodesic_length is None else geodesic_length
    while True:
        w = T.random_word(rng, T.J4P_GENERATORS, length, involutive=True)
        if len(T.geodesic(w)) == want:
            return w


def _flips(w):
    """Breadth-first search of the square flips from w: word -> (parent,
    move), which also ranks each word by its flip distance from w."""
    tree = {w: (None, None)}
    layers = [[w]]
    while layers[-1]:
        layer = []
        for t in layers[-1]:
            for p in range(len(t) - 1):
                new = T.SWAPS.get((t[p], t[p + 1]))
                if new is not None:
                    u = t[:p] + new + t[p + 2 :]
                    if u not in tree:
                        tree[u] = (t, ("swap", p, (t[p], t[p + 1], new[1], new[0])))
                        layer.append(u)
        layers.append(layer)
    return tree, layers[:-1]


def _flip_walk(rng, w, distance, path):
    """A word at exactly `distance` flips from w, or None; the shortest
    flip path to it is appended to `path` as certificate moves."""
    tree, layers = _flips(tuple(w))
    if distance >= len(layers):
        return None
    v = rng.choice(layers[distance])
    steps = []
    t = v
    while tree[t][0] is not None:
        t, move = tree[t]
        steps.append(move)
    path.extend(reversed(steps))
    return v


def _wordproblem(rng):
    reps = T.permutation_reps()
    cases = []
    for n, L, d in SWAP_PAIRS:
        while n:
            u, path = _geodesic_word(rng, L), []
            v = _flip_walk(rng, u, d, path)
            if v is not None:
                cases.append(("equal", [u, v], {"equal": True, "path": path}))
                n -= 1
    n, L, d = INSERT_PAIRS
    while n:
        u, path = _geodesic_word(rng, L), []
        w = _flip_walk(rng, u, d, path)
        if w is None:
            continue
        p = rng.randrange(len(w) + 1)
        g = rng.choice(T.J4P_GENERATORS)
        path.append(("insert", p, (g, g)))
        v = _flip_walk(rng, w[:p] + (g, g) + w[p:], d, path)
        if v is not None:
            cases.append(("equal", [u, v], {"equal": True, "path": path}))
            n -= 1
    n, L = S4_PAIRS
    while n:
        u, v = _geodesic_word(rng, L), _geodesic_word(rng, L)
        if T.s4_image(u) != T.s4_image(v):
            cases.append(("equal", [u, v], {"equal": False}))
            n -= 1
    n, L, lo, hi = REP_PAIRS
    while n:
        u, v = _geodesic_word(rng, L), _geodesic_word(rng, L)
        if u != v and T.s4_image(u) == T.s4_image(v) and T.separated(u, v, reps) and all(
            lo <= len(_flips(w)[0]) <= hi for w in (u, v)
        ):
            cases.append(("equal", [u, v], {"equal": False}))
            n -= 1
    for length, glen, n, lo, hi in CANON_WORDS:
        while n:
            w = _geodesic_word(rng, length, glen)
            if lo <= len(_flips(T.geodesic(w))[0]) <= hi:
                cases.append(("canon", [w], {"canon": T.canonical(w)}))
                n -= 1
    rng.shuffle(cases)
    ops = [{"op": kind, "words": [list(w) for w in words]} for kind, words, _ in cases]
    return ops, [answer for _, _, answer in cases]


def _with_letter(rng, gens, w):
    """w with one extra letter: nontrivial when w is trivial, since the
    exponent sum then misses the relator's."""
    w = list(w)
    w.insert(rng.randrange(len(w) + 1), (rng.choice(gens), rng.choice((1, -1))))
    return T.free_reduce(w)


def _presentations(rng):
    ops, expect = [], []

    def add(op, answer):
        ops.append(op)
        expect.append(answer)

    for group, (gens, rel) in T.ONE_RELATOR.items():
        r = [T.parse(rel)]
        for size in DEHN_SIZES:
            w = T.relator_product(rng, gens, r, size)
            add({"op": "dehn", "group": group, "word": w}, True)
            add({"op": "dehn", "group": group, "word": _with_letter(rng, gens, w)}, False)
        if group == DEHN_LONG[0]:
            w = T.relator_product(random.Random("presentations:long"), gens, r, DEHN_LONG[1])
            add({"op": "dehn", "group": group, "word": w}, True)
    five_gens, five_rel = T.ONE_RELATOR["five"]
    for _ in range(SEARCH_WORDS):
        w = T.relator_product(rng, five_gens, [T.parse(five_rel)], 1, conj_len=3)
        add({"op": "search", "group": "five", "word": w}, True)
    ten_rels = [T.parse(t) for t in T.TEN_RELATORS]
    count, length = TEN_WORDS
    for _ in range(count):
        w = T.relator_product(rng, T.TEN_GENERATORS, ten_rels, length, conj_len=3)
        add({"op": "map", "source": "trivial", "group": "ten", "oracle": "tietze", "word": w}, True)
        w = _with_letter(rng, T.TEN_GENERATORS, w)
        add({"op": "map", "source": "trivial", "group": "ten", "oracle": "tietze", "word": w}, False)
    # x -> a1 a2 a3 a4 a5 on <x | x^2>: the square is nontrivial, but its
    # exponent sums match the relator's, so no abelian witness exists
    add({"op": "map", "source": "order2", "group": "surface", "oracle": "auto",
         "word": T.parse("a1 a2 a3 a4 a5")}, False)
    for pair in ("alt", "surface"):
        for kind in ("hom_f", "hom_g", "mutual"):
            add({"op": kind, "pair": pair}, True)
    add({"op": "tietze_eliminate"}, T.ONE_RELATOR["five"])
    for group in ("five", "alt", "surface", "ten"):
        gens, rel = T.ONE_RELATOR["five" if group == "ten" else group]
        add({"op": "abelianization", "group": group}, T.abelian_invariants(gens, rel))
    order = list(range(len(ops)))
    rng.shuffle(order)
    return [ops[i] for i in order], [expect[i] for i in order]


def make(workload: str, seed: int):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "wordproblem":
        return _wordproblem(rng)
    if workload == "presentations":
        return _presentations(rng)
    if workload == "growth":
        return [dict(op) for op in GROWTH_OPS], [None] * len(GROWTH_OPS)
    if workload == "registry":
        return [], []
    raise ValueError(f"unknown workload {workload!r}")
