"""Reference oracle for the rewrite layer: the budgeted closure search
that `cactus45.rewrite` ran before its exact engine, the certificate
replay that rebuilds the whole word after every move (`apply`, with
`inverted`, the methods a `Move` carried before both certificate kinds
shared `words.replay`), the equality
test that sank each word twice (once for its normal form, once more for
the certificate's paths), the sink-and-sort sphere enumeration
that the shortlex automaton replaced, and the row and descent set that
automaton must hold at a normal form; and the seeded relator walks
that plant equal pairs for the tests.

Moves come from the stored relators: a square x·x deletes or inserts an
adjacent equal pair, and each rotation y1 y2 y3 y4 of a length-4
relator replaces the adjacent pair (y1, y2) by (y4, y3).  The slack-0
canonical form is the shortlex-least word reachable by swaps and
deletions (a descending closure, memoised per swap component); with
slack s > 0 the search may also insert pairs while the length stays at
most |w| + s.  Exponential in the word length, so only short words are
fed to it; the tests compare the exact engine against it.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Tuple

from cactus45.cactus import J4P_TO_J4, Permutation, push_s14_right
from cactus45.rewrite import EqualityCertificate, SplitSystem, system_for
from cactus45.words import (
    EQUAL,
    PROVEN_UNEQUAL,
    Move,
    Presentation,
    Verdict,
    Word,
    invert,
    rotations,
)


def _key(t):
    return (len(t), t)


class ClosureOracle:
    def __init__(self, P: Presentation):
        self.alphabet = P.alphabet
        self.names = P.alphabet.names()
        self.n = len(self.names)
        # (y1, y2) -> the pairs (y4, y3) over the relator rotations y1 y2 y3 y4
        self.flips: Dict[Tuple[int, int], list] = {}
        for r in P.relators:
            idx = tuple(self.alphabet.index(nm) for nm, _ in r.letters)
            if len(idx) == 4:
                for i in range(4):
                    rot = idx[i:] + idx[:i]
                    for y in (rot, rot[::-1]):
                        flips = self.flips.setdefault(y[:2], [])
                        if (y[3], y[2]) not in flips:
                            flips.append((y[3], y[2]))
        self._dcanon: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        self._xcanon: Dict[Tuple, Tuple[int, ...]] = {}
        self._spheres: Dict[Tuple[int, int], Tuple] = {}

    def encode(self, w: Word) -> Tuple[int, ...]:
        return tuple(self.alphabet.index(nm) for nm, _ in w.letters)

    def decode(self, t) -> Word:
        return Word(self.alphabet, [(self.names[i], 1) for i in t])

    def swap_neighbors(self, t):
        for pos in range(len(t) - 1):
            for new in self.flips.get(t[pos : pos + 2], ()):
                yield t[:pos] + new + t[pos + 2 :]

    def delete_neighbors(self, t):
        for pos in range(len(t) - 1):
            if t[pos] == t[pos + 1]:
                yield t[:pos] + t[pos + 2 :]

    def insert_neighbors(self, t):
        for pos in range(len(t) + 1):
            for g in range(self.n):
                yield t[:pos] + (g, g) + t[pos:]

    def dcanon(self, t):
        """Shortlex-least word reachable by swaps and deletions."""
        cached = self._dcanon.get(t)
        if cached is not None:
            return cached
        comp, stack, children, hit = {t}, [t], set(), None
        while stack and hit is None:
            x = stack.pop()
            for y in self.swap_neighbors(x):
                if y not in comp:
                    comp.add(y)
                    hit = self._dcanon.get(y)
                    if hit is not None:
                        break
                    stack.append(y)
            children.update(self.delete_neighbors(x))
        if hit is not None:
            best = hit
        else:
            best = min(comp)
            for ch in children:
                v = self.dcanon(ch)
                if _key(v) < _key(best):
                    best = v
        for x in comp:
            self._dcanon[x] = best
        return best

    def xcanon(self, t, cap):
        """Shortlex-least word reachable with every length <= cap."""
        c0 = self.dcanon(t)
        key = (c0, cap)
        if key not in self._xcanon:
            best, visited, queue = c0, {c0}, deque([c0])
            while queue:
                x = queue.popleft()
                nbrs = list(self.swap_neighbors(x)) + list(self.delete_neighbors(x))
                if len(x) + 2 <= cap:
                    nbrs.extend(self.insert_neighbors(x))
                for y in nbrs:
                    if y not in visited:
                        visited.add(y)
                        queue.append(y)
                        if _key(y) < _key(best):
                            best = y
            self._xcanon[key] = best
        return self._xcanon[key]

    def canonical(self, t, slack=2):
        return self.dcanon(t) if slack == 0 else self.xcanon(t, len(t) + slack)

    def sphere(self, L, slack=2):
        """Canonical forms of geodesic length exactly L, shortlex sorted."""
        key = (slack, L)
        if key not in self._spheres:
            found = {()} if L == 0 else {
                c
                for t in self.sphere(L - 1, slack)
                for g in range(self.n)
                for c in [self.canonical(t + (g,), slack)]
                if len(c) == L
            }
            self._spheres[key] = tuple(sorted(found))
        return self._spheres[key]


_ORACLES: Dict[Presentation, ClosureOracle] = {}


def oracle_for(P: Presentation) -> ClosureOracle:
    if P not in _ORACLES:
        _ORACLES[P] = ClosureOracle(P)
    return _ORACLES[P]


def sink_and_sort_spheres(P: Presentation):
    """The spheres S_0, S_1, ... as `rewrite.sphere` listed them before
    it walked the shortlex automaton: every normal form of length L - 1
    extended by every letter, sunk and sorted from the geodesic prefix,
    and the results of length L deduplicated and sorted shortlex."""
    sys = system_for(P)
    level, L = [()], 0
    while True:
        yield level
        L += 1
        level = sorted({
            c
            for t in level
            for g in range(sys.n)
            for c in [sys.normal_form(t + (g,), start=L - 1)]
            if len(c) == L
        })


def row_and_descents(P: Presentation, t):
    """What the shortlex automaton must hold at the normal form t, by
    sinking and sorting each t·z whole: the letters z for which t·z is
    its own normal form (its row), and those for which t·z is shorter
    than t (its right descents)."""
    sys = system_for(P)
    forms = {z: sys.normal_form(t + (z,)) for z in range(sys.n)}
    return (
        {z for z, c in forms.items() if c == t + (z,)},
        {z for z, c in forms.items() if len(c) < len(t)},
    )


def rewrite_neighbors(w: Word, P: Presentation, slack: int = 2):
    """All words one move away: swaps, pair deletions and, when slack
    allows a +2 excursion, pair insertions."""
    o = oracle_for(P)
    t = o.encode(w)
    out = set(o.swap_neighbors(t)) | set(o.delete_neighbors(t))
    if slack >= 2:
        out |= set(o.insert_neighbors(t))
    out.discard(t)
    return {o.decode(y) for y in out}


def _stored_moves(P: Presentation):
    """Code tuples a move may use, read off the stored relators: every
    rotation of a length-4 relator or of its reverse (swaps), and the
    squares (deletions and insertions)."""
    swaps, squares = set(), set()
    for r in P.relators:
        if len(r) == 4:
            for base in (r, invert(r)):
                swaps.update(rot.codes for rot in rotations(base))
        elif len(r) == 2 and r.codes[0] == r.codes[1]:
            squares.add(r.codes)
    return swaps, squares


def apply(move: Move, w: Word) -> Word:
    """The word the move makes of w, rebuilt whole; checks only that the
    move fits the word, not that its relator is a relator."""
    cs, rc, pos = w.codes, move.relator.codes, move.position
    width = {"insert": 0, "swap": 2}.get(move.kind, len(rc))  # codes replaced
    if not 0 <= pos <= max(len(cs) - width, 0):
        raise ValueError(f"move position {pos} out of range for {w}")
    if move.kind == "swap":
        if len(rc) != 4 or cs[pos : pos + 2] != rc[0:2]:
            raise ValueError(f"swap mismatch at {pos}: {w}")
        new = cs[:pos] + (rc[3], rc[2]) + cs[pos + 2 :]
    elif move.kind == "delete":
        if cs[pos : pos + len(rc)] != rc:
            raise ValueError(f"delete mismatch at {pos}: {w}")
        new = cs[:pos] + cs[pos + len(rc) :]
    elif move.kind == "insert":
        new = cs[:pos] + rc + cs[pos:]
    else:
        raise ValueError(f"unknown move kind {move.kind!r}")
    return Word._from_codes(w.alphabet, new)


def inverted(move: Move) -> Move:
    """The move that undoes `move`: a swap by the reversed relator, or a
    deletion for an insertion and back."""
    pos, r, kind = move
    if kind == "swap":
        return Move(pos, Word._from_codes(r.alphabet, r.codes[::-1]), "swap")
    return Move(pos, r, "insert" if kind == "delete" else "delete")


def replay(cert: EqualityCertificate, P: Presentation, w: Word) -> Word:
    """Apply the moves one by one through `apply`, which rebuilds the
    word each time; a move's relator must be one P stores."""
    if w.alphabet != P.alphabet:
        raise ValueError("word over a different alphabet")
    swaps, squares = _stored_moves(P)
    for m in cert.moves:
        allowed = swaps if m.kind == "swap" else squares
        if m.relator.alphabet != P.alphabet or m.relator.codes not in allowed:
            raise ValueError(f"{m.kind} by {m.relator}, not a relator of {P}")
        w = apply(m, w)
    return w


def _paths(sys, t1, t2):
    """Traces from t1 and from t2 to one common word: both sink to
    geodesics, and the first is flipped into the second letter by
    letter.  In J4 the words are split first, and the moves on the J4'
    parts recoded."""
    forward, backward = [], []
    if isinstance(sys, SplitSystem):
        alphabet = sys.presentation.alphabet
        u1, _ = push_s14_right(Word._from_codes(alphabet, t1), forward)
        u2, _ = push_s14_right(Word._from_codes(alphabet, t2), backward)
        for trace, inner in zip((forward, backward), _paths(sys.inner, u1.codes, u2.codes)):
            trace += [(kind, pos, tuple(J4P_TO_J4[x] for x in r)) for kind, pos, r in inner]
        return forward, backward
    g1 = sys.geodesic(t1, forward)
    for k, x in enumerate(sys.geodesic(t2, backward)):
        sys._lift(g1, k, x, forward)
    return forward, backward


def words_equal(w1: Word, w2: Word, P: Presentation, certificate: bool = False) -> Verdict:
    """Equality decided by comparing the two normal forms; the paths of
    a certificate are computed afresh from the words."""
    sys = system_for(P)
    t1, t2 = w1.codes, w2.codes
    c1, c2 = sys.normal_form(t1), sys.normal_form(t2)
    if c1 != c2:
        witness = (Word._from_codes(P.alphabet, c1), Word._from_codes(P.alphabet, c2))
        return Verdict(PROVEN_UNEQUAL, "rewrite_oracle", witness=witness)
    if not certificate:
        return Verdict(EQUAL, "rewrite_oracle")
    forward, backward = _paths(sys, t1, t2)
    moves = [Move(pos, Word._from_codes(P.alphabet, r), kind) for kind, pos, r in forward]
    moves += [
        inverted(Move(pos, Word._from_codes(P.alphabet, r), kind))
        for kind, pos, r in reversed(backward)
    ]
    return Verdict(EQUAL, "rewrite_oracle", EqualityCertificate(tuple(moves)))


def s4_image(w: Word) -> Permutation:
    """w's image in S4, read off its letters' names: s{p}{q} reverses
    the positions p to q, and the first letter acts first."""
    images = (1, 2, 3, 4)
    for name, _ in w.letters:
        p, q = int(name[1]), int(name[2])
        images = tuple(p + q - i if p <= i <= q else i for i in images)
    return Permutation(images)


def expected_route(u: Word, v: Word, want: Verdict):
    """The oracle and witness of `cactus45.rewrite.words_equal` on u and
    v, where `want` is this module's verdict on them: the two S4 images
    when they differ, else the oracle "rewrite" and want's witness (the
    normal forms of an unequal pair, None for an equal one)."""
    images = s4_image(u), s4_image(v)
    return ("s4", images) if images[0] != images[1] else ("rewrite", want.witness)


def flip_at_random(P, t, count, rng):
    """`count` attempts at a square flip at a random position of the
    index list t, in place."""
    o = oracle_for(P)
    for _ in range(count):
        p = rng.randrange(max(len(t) - 1, 1))
        flips = o.flips.get(tuple(t[p : p + 2]))
        if flips:
            t[p : p + 2] = rng.choice(flips)


def relator_walk(P, w, length, rng):
    """A spelling of w's element with at least `length` letters, reached
    by random relator moves: square insertions, each followed by a few
    square flips, and a round of flips at the end."""
    o = oracle_for(P)
    t = list(o.encode(w))
    while len(t) < length:
        p, g = rng.randrange(len(t) + 1), rng.randrange(o.n)
        t[p:p] = [g, g]
        flip_at_random(P, t, 8, rng)
    flip_at_random(P, t, len(t), rng)
    return o.decode(t)


def random_word(P, length, rng):
    names = P.alphabet.names()
    return Word(P.alphabet, [(rng.choice(names), 1) for _ in range(length)])
