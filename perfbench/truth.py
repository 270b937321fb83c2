"""Ground truth for the benchmark, built without importing cactus45.

Everything here is derived from the definitions in the paper, not from
the package under test:

* J4' (the reversals of length 2 and 3 in four strands) with its
  relators read off the interval rules, the replay of rewrite
  certificates against those relators, an exact geodesic by sinking
  each new letter through the unique square of its pair (the Cayley
  graph is the 1-skeleton of the {4,5} tiling, a median graph), and
  finite permutation representations that separate elements the
  symmetric group cannot;
* the three one-relator groups, with a small-cancellation check of
  their own (piece ratio below 1/6, then Dehn's algorithm decides the
  word problem);
* the ten-generator polygon group, reduced to the five-generator one by
  the paper's Tietze eliminations.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from typing import Dict, List, Sequence, Tuple

# ---------------------------------------------------------------------------
# J4'

Names = Tuple[str, ...]


def _intervals(n: int, lengths) -> List[Tuple[int, int]]:
    return [
        (p, q)
        for p in range(1, n)
        for q in range(p + 1, n + 1)
        if q - p + 1 in lengths
    ]


def _name(iv: Tuple[int, int]) -> str:
    return f"s{iv[0]}{iv[1]}"


_IVS = _intervals(4, {2, 3})
J4P_GENERATORS: Names = tuple(_name(iv) for iv in _IVS)
J4P_INDEX = {g: i for i, g in enumerate(J4P_GENERATORS)}


def _four_letter_relators() -> List[Names]:
    """Disjoint reversals commute; a reversal conjugates a nested one
    to its mirror image inside it (when that mirror is a generator)."""
    rels = set()
    pool = set(_IVS)
    for a in _IVS:
        for b in _IVS:
            if a < b and (a[1] < b[0] or b[1] < a[0]):
                rels.add((_name(a), _name(b), _name(a), _name(b)))
            if b[0] <= a[0] and a[1] <= b[1] and a != b:
                s = b[0] + b[1]
                mirror = (s - a[1], s - a[0])
                if mirror in pool:
                    rel = (_name(b), _name(a), _name(b), _name(mirror))
                    rels.add(min(rel[i:] + rel[:i] for i in range(4)))
    return sorted(rels)


J4P_RELATORS: Tuple[Names, ...] = tuple(_four_letter_relators())


def _swap_table() -> Dict[Tuple[str, str], Tuple[str, str]]:
    """(y1, y2) -> (y4, y3) for every rotation y1 y2 y3 y4 of a relator
    or of its reverse: the pair spells the same element both ways."""
    table: Dict[Tuple[str, str], Tuple[str, str]] = {}
    for rel in J4P_RELATORS:
        for base in (rel, rel[::-1]):
            for i in range(4):
                y = base[i:] + base[:i]
                prev = table.setdefault((y[0], y[1]), (y[3], y[2]))
                if prev != (y[3], y[2]):
                    raise AssertionError(f"two squares on the pair {y[:2]}")
    return table


SWAPS = _swap_table()
RELATOR_ROTATIONS = frozenset(
    base[i:] + base[:i]
    for rel in J4P_RELATORS
    for base in (rel, rel[::-1])
    for i in range(4)
)


def s4_image(word: Sequence[str]) -> Tuple[int, ...]:
    """Image in S4 of a J4' word; the first letter acts first."""
    perm = [0, 1, 2, 3]
    for g in word:
        p, q = int(g[1]) - 1, int(g[2]) - 1
        perm = [p + q - x if p <= x <= q else x for x in perm]
    return tuple(perm)


def replay(word: Sequence[str], moves) -> Names:
    """Apply certificate moves (kind, position, relator letters); raise
    ValueError on any move the relators do not sanction."""
    w = tuple(word)
    for kind, pos, rel in moves:
        rel = tuple(rel)
        if kind == "insert":
            if len(rel) != 2 or rel[0] != rel[1] or rel[0] not in J4P_INDEX:
                raise ValueError(f"insert of a non-square {rel}")
            if not 0 <= pos <= len(w):
                raise ValueError("insert position out of range")
            w = w[:pos] + rel + w[pos:]
            continue
        if not 0 <= pos <= len(w) - 2 or w[pos : pos + 2] != rel[:2]:
            raise ValueError(f"{kind} does not match the word at {pos}")
        if kind == "delete":
            if len(rel) != 2 or rel[0] != rel[1]:
                raise ValueError(f"delete of a non-square {rel}")
            w = w[:pos] + w[pos + 2 :]
        elif kind == "swap":
            if rel not in RELATOR_ROTATIONS:
                raise ValueError(f"swap by a non-relator {rel}")
            w = w[:pos] + (rel[3], rel[2]) + w[pos + 2 :]
        else:
            raise ValueError(f"unknown move kind {kind!r}")
    return w


def _append(w: Names, g: str) -> Names:
    cur = g
    moved: List[str] = []
    for i in range(len(w) - 1, -1, -1):
        if w[i] == cur:
            return w[:i] + tuple(reversed(moved))
        swap = SWAPS.get((w[i], cur))
        if swap is None:
            break
        cur = swap[0]
        moved.append(swap[1])
    return w + (g,)


def geodesic(word: Sequence[str]) -> Names:
    """A geodesic spelling of the element: each new letter sinks left
    through the unique square of each pair it meets and cancels if it
    meets its equal, else the word grows by that letter."""
    w: Names = ()
    for g in word:
        w = _append(w, g)
    return w


def canonical(word: Sequence[str]) -> Names:
    """Shortlex-least geodesic: geodesics of one element are connected
    by square flips, so search the flip class of one of them."""
    start = geodesic(word)
    seen = {start}
    stack = [start]
    while stack:
        t = stack.pop()
        for p in range(len(t) - 1):
            swap = SWAPS.get((t[p], t[p + 1]))
            if swap is not None:
                u = t[:p] + swap + t[p + 2 :]
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
    return min(seen, key=lambda t: [J4P_INDEX[g] for g in t])


def sphere_sizes(n: int) -> List[int]:
    """a_0..a_n with a_L = 3 a_{L-1} - a_{L-2} from L = 3 (Cannon)."""
    sizes = [1, 5, 15]
    while len(sizes) <= n:
        sizes.append(3 * sizes[-1] - sizes[-2])
    return sizes[: n + 1]


# permutation representations of J4': involutions a = s12, b = s13,
# d = s24 with a commuting with d b a b d, then s23 = b a b and
# s34 = d s23 d; every J4' relator holds by construction


def _mul(p: Tuple[int, ...], q: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(q[i] for i in p)  # apply p, then q


def _involution(rng: random.Random, k: int) -> Tuple[int, ...]:
    pts = list(range(k))
    rng.shuffle(pts)
    perm = list(range(k))
    for j in range(rng.randint(1, k // 2)):
        a, b = pts[2 * j], pts[2 * j + 1]
        perm[a], perm[b] = b, a
    return tuple(perm)


def permutation_reps(count: int = 24, seed: int = 0) -> List[Dict[str, Tuple[int, ...]]]:
    rng = random.Random(seed)
    reps = []
    while len(reps) < count:
        k = rng.randint(6, 9)
        a, b, d = (_involution(rng, k) for _ in range(3))
        c = _mul(_mul(b, a), b)
        e = _mul(_mul(d, c), d)
        if _mul(a, e) != _mul(e, a) or len({a, b, c, d, e}) < 5:
            continue
        reps.append(dict(zip(J4P_GENERATORS, (a, b, c, d, e))))
    for rep in reps:
        check_rep(rep)
    return reps


def check_rep(rep: Dict[str, Tuple[int, ...]]) -> None:
    for rel in J4P_RELATORS:
        if rep_image(rep, rel) != tuple(range(len(rep["s12"]))):
            raise AssertionError(f"relator {rel} fails in a representation")


def rep_image(rep, word: Sequence[str]) -> Tuple[int, ...]:
    perm = tuple(range(len(rep["s12"])))
    for g in word:
        perm = _mul(perm, rep[g])
    return perm


def separated(u: Sequence[str], v: Sequence[str], reps) -> bool:
    """True when S4 or some finite representation tells u and v apart,
    which proves them unequal in J4'."""
    if s4_image(u) != s4_image(v):
        return True
    return any(rep_image(r, u) != rep_image(r, v) for r in reps)


# ---------------------------------------------------------------------------
# one-relator groups and Dehn's algorithm

Letter = Tuple[str, int]
FWord = Tuple[Letter, ...]


def parse(text: str) -> FWord:
    out = []
    for tok in text.split():
        if tok.endswith("^-1"):
            out.append((tok[:-3], -1))
        else:
            out.append((tok, 1))
    return tuple(out)


def show(w: FWord) -> str:
    return " ".join(n if e == 1 else f"{n}^-1" for n, e in w) or "e"


def inverse(w: FWord) -> FWord:
    return tuple((n, -e) for n, e in reversed(w))


def free_reduce(w: Sequence[Letter]) -> FWord:
    out: List[Letter] = []
    for n, e in w:
        if out and out[-1] == (n, -e):
            out.pop()
        else:
            out.append((n, e))
    return tuple(out)


ONE_RELATOR = {
    "five": (("g2", "g4", "g8", "g9", "g10"), "g2 g9 g10^-1 g8^-1 g4 g9 g2 g10 g8^-1 g4^-1"),
    "alt": (
        ("alpha", "beta", "gamma", "delta", "epsilon"),
        "alpha gamma epsilon beta epsilon alpha^-1 delta^-1 beta gamma delta^-1",
    ),
    "surface": (("a1", "a2", "a3", "a4", "a5"), "a1 a1 a2 a2 a3 a3 a4 a4 a5 a5"),
}

TEN_GENERATORS = tuple(f"g{i}" for i in range(1, 11))
TEN_RELATORS = (
    "g3 g6^-1 g7 g9^-1 g2^-1",
    "g3 g8^-1 g4^-1",
    "g5 g9^-1 g4^-1",
    "g5 g1 g6^-1",
    "g8 g10 g7^-1",
    "g10 g1^-1 g2",
)
# generator = defining word; later definitions may use earlier ones
ELIMINATIONS = (("g1", "g2 g10"), ("g5", "g4 g9"), ("g6", "g5 g1"), ("g7", "g8 g10"), ("g3", "g4 g8"))


def substitute(w: Sequence[Letter], images: Dict[str, FWord]) -> FWord:
    out: List[Letter] = []
    for n, e in w:
        img = images.get(n, ((n, 1),))
        out.extend(img if e == 1 else inverse(img))
    return free_reduce(out)


def ten_to_five() -> Dict[str, FWord]:
    images: Dict[str, FWord] = {}
    for name, text in ELIMINATIONS:
        images[name] = substitute(parse(text), images)
    return images


class Dehn:
    """Dehn's algorithm for one cyclically reduced relator whose pieces
    are shorter than a sixth of it; it then decides the word problem
    (Greendlinger's lemma)."""

    def __init__(self, relator: str):
        r = parse(relator)
        forms = set()
        for base in (r, inverse(r)):
            for i in range(len(base)):
                forms.add(base[i:] + base[:i])
        self.forms = sorted(forms)
        self.n = len(r)
        piece = 0
        for x in self.forms:
            for y in self.forms:
                if x != y:
                    k = 0
                    while k < self.n and x[k] == y[k]:
                        k += 1
                    piece = max(piece, k)
        self.piece_ratio = Fraction(piece, self.n)
        if self.piece_ratio >= Fraction(1, 6):
            raise ValueError(f"piece ratio {self.piece_ratio} is not below 1/6")
        # more-than-half prefix of a form -> the inverse of the rest
        self.rules: Dict[FWord, FWord] = {}
        for f in self.forms:
            for take in range(self.n // 2 + 1, self.n + 1):
                self.rules[f[:take]] = inverse(f[take:])
        self.lengths = sorted({len(k) for k in self.rules}, reverse=True)

    def reduce(self, w: Sequence[Letter]) -> FWord:
        """Dehn-reduced form: empty exactly when w is trivial."""
        out: List[Letter] = []
        pending = list(reversed(free_reduce(w)))
        while pending:
            let = pending.pop()
            if out and out[-1] == (let[0], -let[1]):
                out.pop()
                continue
            out.append(let)
            for take in self.lengths:
                if take <= len(out):
                    rest = self.rules.get(tuple(out[-take:]))
                    if rest is not None:
                        del out[-take:]
                        # re-feed the replacement so cancellation and
                        # new matches to its left are found
                        pending.extend(reversed(rest))
                        break
        return tuple(out)

    def trivial(self, w: Sequence[Letter]) -> bool:
        return not self.reduce(w)


def abelian_invariants(generators: Sequence[str], relator: str) -> Tuple[int, Tuple[int, ...]]:
    """(free rank, torsion) of a one-relator group's abelianization."""
    row = [0] * len(generators)
    for n, e in parse(relator):
        row[generators.index(n)] += e
    g = 0
    for x in row:
        g = gcd(g, abs(x))
    if g == 0:
        return len(generators), ()
    return len(generators) - 1, ((g,) if g > 1 else ())


def replay_triviality(word: FWord, moves, dehn: Dehn) -> bool:
    """Replay a triviality certificate: splice symmetrized relator forms
    (or rotate), freely reducing; it must end at the empty word."""
    forms = set(dehn.forms)
    cur = free_reduce(word)
    for kind, pos, letters in moves:
        if kind == "shift":
            k = pos % max(len(cur), 1)
            cur = cur[k:] + cur[:k]
        elif kind == "insert":
            letters = tuple(tuple(x) for x in letters)
            if letters not in forms or not 0 <= pos <= len(cur):
                return False
            cur = free_reduce(cur[:pos] + letters + cur[pos:])
        else:
            return False
    return not cur


def random_word(rng: random.Random, generators: Sequence[str], length: int,
                involutive: bool = False) -> tuple:
    """A freely reduced word of exactly `length` letters; letters are
    generator names when involutive, else (name, exponent) pairs."""
    out: list = []
    while len(out) < length:
        g = rng.choice(generators)
        let = g if involutive else (g, rng.choice((1, -1)))
        if out and out[-1] == (let if involutive else (g, -let[1])):
            continue
        out.append(let)
    return tuple(out)


def relator_product(rng: random.Random, generators: Sequence[str], relators: Sequence[FWord],
                    target: int, conj_len: int = 6) -> FWord:
    """A trivial word: freely reduced product of conjugates of relators
    (each rotated and possibly inverted), grown to about `target`."""
    w: FWord = ()
    while len(w) < target:
        r = rng.choice(relators)
        k = rng.randrange(len(r))
        r = r[k:] + r[:k]
        if rng.random() < 0.5:
            r = inverse(r)
        u = random_word(rng, generators, rng.randint(0, conj_len))
        w = free_reduce(w + u + r + inverse(u))
    return w
