"""Exact word problem for the four-strand cactus group J4 and its
five-generator subgroup J4': geodesics, shortlex normal forms, word
equality with replayable certificates, and geodesic spheres.

The Cayley graph of J4' is the 1-skeleton of the {4,5} tiling, a CAT(0)
square complex (every vertex link is a 5-cycle), so it is a median
graph (Chepoi 2000).  Two exact operations on words follow:

  * geodesic: append letters one at a time to a geodesic.  The new
    letter sinks leftward, crossing at each pair (w[i], g) the unique
    square on that pair (a relator rotation y1 y2 y3 y4 turns y1 y2 into
    y4 y3).  It cancels when it meets its equal; the word grows by the
    letter when a pair carries no square.  Only a cancellation moves
    the word, so a trace records a letter's crossings only then, read
    again off the word.  A geodesic sinks to itself with no move, so a
    caller that extends a known geodesic passes its length and only the
    letters after it are sunk.
  * normal form: the shortlex-least geodesic is read off greedily, each
    letter being the least left descent of what remains (Niblo-Reeves
    1998).  A letter is a left descent when, sunk rightward through the
    geodesic, it cancels.

Every kernel (sink, flip, sort, automaton) reads one n x n table,
`RewriteSystem.flip`: (y4, y3) at [y1][y2] for a form y1 y2 y3 y4, or None.

Word equality first maps both words to S4 (`cactus.s4_table`): words
with distinct images are unequal, and the images are the witness.
Otherwise it sinks each word once, to a geodesic, and flips the first
geodesic into the second letter by letter: each letter of the second
must be a left descent of what remains of the first.  The words are
equal exactly when that succeeds; otherwise the two normal forms,
sorted from the geodesics, differ and are the witness.  Every step
above is a relator move: a square crossing is a "swap", a
cancellation a "delete".  An equality certificate is the
first sink and the flips, then the second sink's moves inverted (a
deletion becomes an "insert").  Each move's relator is a `Word` from
the engine's table `relator_words`, built once: every relator form and
every square x x.  `EqualityCertificate.verify` replays the moves with
`words.replay`, accepting a swap only by one of the presentation's
relator forms (`Presentation.forms`, the table the flip table is read
from) and a deletion or insertion only of a square x x.

Spheres are neither sunk nor sorted: the shortlex language is regular
(Cannon 1984, Niblo-Reeves 1998).  Its automaton, read off the flip
table, is numbered on first use and kept on the presentation
(`RewriteSystem.automaton`): each state has a row of (letter, next
state) pairs and its set of right descents.  `walk` gives each normal
form with its state, and Cayley balls read their tree edges off the
rows (`complex._construct`).  No level outlives its call.

J4 adds the full reversal s14, whose link with the other generators has
triangles, so its Cayley complex is not CAT(0).  Its elements split as
u · s14^p with u in J4' (`cactus.push_s14_right`); the length is
|u| + p, and s14 is a left descent exactly when p = 1.  So J4's sphere
of length L is read off the J4' spheres of lengths L and L - 1.

Every answer is exact: no operation is cut off by a search limit.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .words import EQUAL, PROVEN_UNEQUAL, Move, Presentation, Record, Verdict, Word
from .words import _codes_over, replay
from . import cactus


class RewriteBudget(Record):
    """Search limits of the former bounded engine.  Only `sphere`
    accepts one, and ignores it; kept because `perfbench/passrun.py`
    passes one to `sphere`."""

    __slots__ = ("slack", "max_states")

    def __init__(self, slack: int = 2, max_states: int = 200_000):
        if slack < 0 or slack % 2 != 0:
            raise ValueError("slack must be a nonnegative even integer")
        if max_states <= 0:
            raise ValueError("max_states must be positive")
        super().__init__(slack, max_states)


def _square_move(
    P: Presentation, left: List[int], right: List[int], kind: str, r: Tuple[int, ...]
) -> None:
    """The edit of an equality move at the cursor of `words.replay`: a
    swap by one of P's relator forms, or a deletion or insertion of a
    square x x."""
    if kind == "swap":
        allowed = P.is_form(r)
    else:
        allowed = len(r) == 2 and r[0] == r[1] and 0 <= r[0] < len(P.alphabet.generators)
        allowed = allowed and kind in ("delete", "insert")
    if not allowed:
        raise ValueError(f"{kind} by {r}, not a relator of {P}")
    if kind == "insert":
        right += r
    elif right[-2:] != [r[1], r[0]]:
        raise ValueError(f"{kind} mismatch at the cursor")
    elif kind == "swap":
        right[-2:] = r[2], r[3]
    else:
        del right[-2:]


class EqualityCertificate(NamedTuple):
    moves: Tuple[Move, ...]

    def replay(self, P: Presentation, w: Word) -> Word:
        """The word the moves make of w, by `words.replay`; ValueError
        on a move that does not fit the word or whose relator is not a
        relator of P: a swap's must be one of P's relator forms, a
        deletion's or insertion's a square x x.  Only a presentation
        with an exact engine has certificates: its forms are the
        squares' rotations, and every generator has its square.  Any
        other presentation raises ValueError."""
        system_for(P)
        return replay(P, w, self.moves, _square_move)

    def verify(self, P: Presentation, w1: Word, w2: Word) -> bool:
        try:
            return self.replay(P, w1) == w2
        except ValueError:
            return False


# A trace collects the moves of a computation as (kind, position,
# relator letter codes); it is only built when a certificate is wanted,
# and only ever grows: it holds the moves of the letters that cancel.
Trace = Optional[List[Tuple[str, int, Tuple[int, ...]]]]


def _relator_words(P: Presentation) -> Dict[Tuple[int, ...], Word]:
    """Every relator form of P and every square x x, keyed by its codes:
    the relators a certificate's moves are built from."""
    squares = tuple((x, x) for x in range(len(P.alphabet)))
    return {r: Word._from_codes(P.alphabet, r) for r in P.forms + squares}


class Automaton(NamedTuple):
    """The shortlex automaton of an engine, states numbered from 0, the
    empty word's.  rows[s] lists the letters z, in increasing order, for
    which t·z is a normal form when t is one in state s, each with the
    state of t·z; descents[s] is the set of right descents of such a t,
    the letters z with |t·z| < |t|."""

    rows: Tuple[Tuple[Tuple[int, int], ...], ...]
    descents: Tuple[FrozenSet[int], ...]


class RewriteSystem:
    """Exact engine for an involutive presentation whose Cayley complex
    is a CAT(0) square complex: relators are squares x·x and words of
    length 4, no pair of letters lies on two squares, and the link (one
    edge per pair that lies on a square) has no triangle."""

    def __init__(self, P: Presentation):
        if not all(g.involutive for g in P.alphabet):
            raise ValueError("rewrite layer handles involutive alphabets only")
        self.presentation = P
        self.n = len(P.alphabet)
        self.relator_words = _relator_words(P)
        squares = set()
        for r in P.relators:
            idx = r.codes
            if len(idx) == 2 and idx[0] == idx[1]:
                squares.add(idx[0])
                continue
            if len(idx) != 4:
                raise ValueError(
                    f"rewrite layer expects relators of length 2 or 4, got {r}"
                )
            # a square must be cyclically reduced, or it drops out of the forms
            for i in range(4):
                if idx[i - 1] == idx[i]:
                    raise ValueError(f"letters {idx[i - 1], idx[i]} lie on a degenerate square")
        if len(squares) != self.n:
            raise ValueError("every generator needs its square relator")
        # flip[y1][y2] == (y4, y3) for every relator form y1 y2 y3 y4, else None
        self.flip: List[List[Optional[Tuple[int, int]]]] = [[None] * self.n for _ in range(self.n)]
        for y in P.forms:
            if self.flip[y[0]][y[1]] not in (None, (y[3], y[2])):
                raise ValueError(f"letters {y[:2]} lie on two squares")
            self.flip[y[0]][y[1]] = (y[3], y[2])
        link = [{b for b, sq in enumerate(row) if sq} for row in self.flip]
        if any(link[a] & link[b] for a in range(self.n) for b in link[a]):
            raise ValueError("the link has a triangle: not a CAT(0) square complex")

    def geodesic(self, t: Sequence[int], trace: Trace = None, start: int = 0) -> List[int]:
        """A geodesic spelling of t, by sinking each letter leftward;
        t[:start] must be geodesic, and only the letters after it sink."""
        flip = self.flip
        w: List[int] = list(t[:start])
        for g in t[start:]:
            cur, moved, i = g, [], len(w) - 1
            while i >= 0 and w[i] != cur:
                sq = flip[w[i]][cur]
                if sq is None:
                    break
                cur = sq[0]
                moved.append(sq[1])
                i -= 1
            if i >= 0 and w[i] == cur:
                if trace is not None:  # the squares crossed, read off w again
                    cur = g
                    for j in range(len(w) - 1, i, -1):
                        b, c = flip[w[j]][cur]
                        trace.append(("swap", j, (w[j], cur, c, b)))
                        cur = b
                    trace.append(("delete", i, (cur, cur)))
                w[i:] = moved[::-1]
            else:  # no cancellation: the squares crossed are not used
                w.append(g)
        return w

    def _lift(self, w: List[int], k: int, x: int, trace: Trace) -> bool:
        """If x is a left descent of the geodesic w[k:], flip squares so
        that w[k] == x and return True; else leave w alone."""
        flip, cur, j, n = self.flip, x, k, len(w)
        while j < n and w[j] != cur:
            sq = flip[cur][w[j]]
            if sq is None:
                return False
            cur = sq[1]
            j += 1
        if j == n:
            return False
        # the squares crossed by the sink, flipped from the right
        for i in range(j - 1, k - 1, -1):
            a, b = w[i], w[i + 1]
            c, d = flip[a][b]
            if trace is not None:
                trace.append(("swap", i, (a, b, d, c)))
            w[i], w[i + 1] = c, d
        return True

    def sort(self, w: List[int]) -> Tuple[int, ...]:
        """Flip the geodesic w, in place, into the shortlex-least one: at
        each position the least left descent of what remains."""
        flip = self.flip
        for k in range(len(w)):
            # w[k] is a left descent of w[k:]; only a lesser one moves
            # it, and only one that lies on a square with it
            y = w[k]
            for x in range(y):
                if flip[x][y] and self._lift(w, k, x, None):
                    break
        return tuple(w)

    def normal_form(self, t: Sequence[int], start: int = 0) -> Tuple[int, ...]:
        """The shortlex-least geodesic spelling of t, whose prefix
        t[:start] is geodesic."""
        return self.sort(self.geodesic(t, start=start))

    def lift(self, g1: List[int], g2: Sequence[int], trace: Trace) -> bool:
        """Flip the geodesic g1, in place, into the geodesic g2 letter by
        letter; True exactly when they spell the same element, and then
        g1 == g2.  Each flip reorders two hyperplanes that the geodesics
        cross in opposite orders, so the flips are as few as possible.
        On False, g1 still spells its element."""
        if len(g1) != len(g2):
            return False
        for k, x in enumerate(g2):
            if not self._lift(g1, k, x, trace):
                return False
        return True

    @property
    def automaton(self) -> Automaton:
        """The shortlex automaton, numbered: built on first use, by a
        walk or `accepts`, and kept on the presentation (`_automaton`)."""
        return self.presentation.derived(_automaton)

    def accepts(self, t: Sequence[int]) -> int:
        """The length of the longest prefix of t that is a normal form,
        read off the automaton's rows: a prefix of a normal form is one,
        so t is a normal form exactly when this is len(t)."""
        rows, s = self.automaton.rows, 0
        for k, z in enumerate(t):
            for y, nxt in rows[s]:
                if y == z:
                    s = nxt
                    break
            else:
                return k
        return len(t)

    def walk(self) -> Iterator[List[Tuple[Tuple[int, ...], int]]]:
        """The spheres S_0, S_1, ... in turn, each a list of (normal
        form, automaton state) in shortlex order.  Letters are appended
        off each state's row in increasing order, so each level is
        already in shortlex order: nothing is sorted or deduplicated,
        and no level outlives the next."""
        rows, level = self.automaton.rows, [((), 0)]
        while True:
            yield level
            level = [(t + (z,), nxt) for t, s in level for z, nxt in rows[s]]

    def spheres(self) -> Iterator[List[Tuple[int, ...]]]:
        """The spheres S_0, S_1, ... in turn, each a list of normal forms
        in shortlex order, off `walk`."""
        for level in self.walk():
            yield [t for t, _ in level]


class SplitSystem:
    """J4 through the split g = u · s14^p with u in J4'.  A geodesic is
    held as the pair (u, p), u a geodesic list of J4' letter codes; it
    spells u · s14^p.  Traces are in J4 letter codes.  `inner` is the
    J4' engine, the one `system_for` keeps on J4'."""

    def __init__(self, P: Presentation):
        self.presentation = P
        self.n = len(P.alphabet)
        self.relator_words = _relator_words(P)
        self.inner = system_for(cactus.j4prime_presentation())

    def _inner(self, trace: Trace, step, *args, **kwargs):
        """step(*args, trace, **kwargs) on the J4' engine, its moves
        recoded to J4."""
        if trace is None:
            return step(*args, None, **kwargs)
        moves: List[Tuple[str, int, Tuple[int, ...]]] = []
        out = step(*args, moves, **kwargs)
        outer = cactus.J4P_TO_J4
        trace += [(kind, pos, tuple(outer[x] for x in r)) for kind, pos, r in moves]
        return out

    def geodesic(self, t: Sequence[int], trace: Trace = None, start: int = 0):
        # a geodesic prefix holds at most one s14 (two would merge), and
        # pushes to a J4' geodesic one letter shorter per s14
        u, p = cactus._push_s14_codes(t, trace)
        inner_start = start - t[:start].count(cactus.S14)
        return self._inner(trace, self.inner.geodesic, u, start=inner_start), p

    def sort(self, g) -> Tuple[int, ...]:
        w, p = g
        return self._place(self.inner.sort(w), p)

    def _place(self, w: Sequence[int], p: int) -> Tuple[int, ...]:
        """The normal form of w · s14^p, w a J4' normal form."""
        outer = cactus.J4P_TO_J4
        if not p:
            return tuple(outer[x] for x in w)
        # s14 is a left descent of u · s14 throughout, and w[k] is the
        # least descent of w[k:]; s14 comes once w[k] sorts after it,
        # and s14 · v = mirror(v) · s14 for the rest v, a geodesic since
        # mirroring keeps length: it is sorted, not sunk
        k = 0
        while k < len(w) and outer[w[k]] < cactus.S14:
            k += 1
        rest = self.inner.sort([cactus.J4P_MIRROR[x] for x in w[k:]])
        return tuple(outer[x] for x in w[:k]) + (cactus.S14,) + tuple(outer[x] for x in rest)

    def normal_form(self, t: Sequence[int], start: int = 0) -> Tuple[int, ...]:
        return self.sort(self.geodesic(t, start=start))

    def lift(self, g1, g2, trace: Trace) -> bool:
        # equal elements share p, and moves on u leave the trailing s14 alone
        return g1[1] == g2[1] and self._inner(trace, self.inner.lift, g1[0], g2[0])

    automaton = None  # no rows until J4's states carry the phase of s14

    def walk(self) -> Iterator[List[Tuple[Tuple[int, ...], None]]]:
        """`spheres`, each normal form with the state None."""
        for level in self.spheres():
            yield [(t, None) for t in level]

    def spheres(self) -> Iterator[List[Tuple[int, ...]]]:
        """J4's spheres, read off the J4' spheres S'_L: |u · s14^p| is
        |u| + p, so S_L is the J4 images of S'_L and the normal forms of
        u · s14 for u in S'_{L-1}, merged by one sort; each u is a
        normal form already, so s14 is placed in it with no sort of u."""
        outer, last = cactus.J4P_TO_J4, []
        for level in self.inner.spheres():
            yield sorted([tuple(outer[x] for x in t) for t in level]
                         + [self._place(u, 1) for u in last])
            last = level


def _automaton(P: Presentation) -> Automaton:
    """The shortlex automaton of P's engine, numbered.

    A normal form t has the state (D, C): D is its set of right
    descents, and C the set of letters that a lesser left descent
    x < t[k], pushed right through t[k:] as `_lift` walks it, arrives as
    at the end.  t·z is a normal form exactly when z is in neither, and
    then D(t·z) = {z} ∪ {y : flip[z][y][0] ∈ D(t)} and
    C(t·z) = {flip[c][z][1] : c ∈ C(t) ∪ {x < z}}, taken where the flip
    exists.  For `sort` puts the least left descent at each position,
    and a left descent of t[k:]·z that t[k:] lacks must arrive at the
    end as z.  The states reachable from the empty word's (∅, ∅) are
    numbered in the order a breadth-first closure meets them, so state
    0 is the empty word's; the (D, C) pairs live only here."""
    engine = system_for(P)
    flip, states = engine.flip, [(frozenset(), frozenset())]
    number, rows = {states[0]: 0}, []
    for D, C in states:  # grows as the closure meets new states
        row = []
        for z in (z for z in range(engine.n) if z not in D and z not in C):
            nxt = (frozenset([z] + [y for y, sq in enumerate(flip[z]) if sq and sq[0] in D]),
                   frozenset(flip[c][z][1] for c in C.union(range(z)) if flip[c][z]))
            if nxt not in number:
                number[nxt] = len(states)
                states.append(nxt)
            row.append((z, number[nxt]))
        rows.append(tuple(row))
    return Automaton(tuple(rows), tuple(D for D, _ in states))


def _engine(P: Presentation):
    return SplitSystem(P) if P == cactus.j4_presentation() else RewriteSystem(P)


def system_for(P: Presentation):
    """The exact engine for P, built on first use and kept on P."""
    return P.derived(_engine)


def words_equal(
    w1: Word, w2: Word, P: Presentation, *, certificate: bool = False
) -> Verdict:
    """Exact equality in the presented group.

    Words whose images in S4 differ (P has a `cactus.s4_table`) are
    PROVEN-UNEQUAL by the oracle "s4", with the two images as witness.
    Otherwise the oracle is "rewrite": each word is sunk once to a
    geodesic, and the first is flipped into the second letter by letter.
    EQUAL when that succeeds, with a replay-checked certificate if asked
    for: the moves of the first sink and of the flips, then the second
    sink's moves inverted.  Otherwise PROVEN-UNEQUAL, with the two normal
    forms, sorted from the same geodesics, as witness.
    """
    sys = system_for(P)
    t1, t2 = _codes_over(w1, P.alphabet), _codes_over(w2, P.alphabet)
    s4 = cactus.s4_table(P)
    if s4 is not None:
        i1, i2 = s4.fold(t1), s4.fold(t2)
        if i1 != i2:
            return Verdict(PROVEN_UNEQUAL, "s4", witness=(cactus.S4[i1], cactus.S4[i2]))
    forward, backward = ([], []) if certificate else (None, None)
    g1, g2 = sys.geodesic(t1, forward), sys.geodesic(t2, backward)
    if not sys.lift(g1, g2, forward):
        c1, c2 = sys.sort(g1), sys.sort(g2)
        if c1 == c2:
            raise AssertionError("internal error: equal normal forms failed to lift")
        witness = (Word._from_codes(P.alphabet, c1), Word._from_codes(P.alphabet, c2))
        return Verdict(PROVEN_UNEQUAL, "rewrite", witness=witness)
    if not certificate:
        return Verdict(EQUAL, "rewrite")
    # a sink's moves are swaps and deletes; inverted, a swap reverses
    # its relator and a delete becomes an insert
    table = sys.relator_words
    moves = [Move(pos, table[r], kind) for kind, pos, r in forward]
    moves += [
        Move(pos, table[r[::-1]], kind) if kind == "swap" else Move(pos, table[r], "insert")
        for kind, pos, r in reversed(backward)
    ]
    cert = EqualityCertificate(tuple(moves))
    if not cert.verify(P, w1, w2):
        raise AssertionError("internal error: certificate failed to replay")
    return Verdict(EQUAL, "rewrite", cert)


def canonical_form(w: Word, P: Presentation) -> Word:
    """The shortlex-least geodesic spelling of w."""
    return Word._from_codes(P.alphabet, system_for(P).normal_form(_codes_over(w, P.alphabet)))


def sphere(P: Presentation, L: int, budget: Optional[RewriteBudget] = None):
    """Canonical representatives of the elements of geodesic length
    exactly L, sorted shortlex: level L of the engine's `spheres` walk,
    of which nothing outlives the call.  `budget` is ignored; it is
    accepted only because `perfbench/passrun.py` passes one."""
    if L < 0:
        raise ValueError("L must be >= 0")
    level = next(islice(system_for(P).spheres(), L, None))
    return [Word._from_codes(P.alphabet, t) for t in level]
