"""Cactus-group algebra: interval generators, presentations of J_n and
its length-restricted subgroups, the projection to the symmetric group,
purity tests, and the normal form that pushes the full-interval
generator of J_4 to the right.

Generator s{p}{q} reverses the positions p..q of a row of n objects.
Relations:

  * every generator squares to the identity;
  * disjoint intervals commute;
  * a reversal of [p,q] conjugates a nested reversal of [m,r] to the
    reversal of the mirrored interval [p+q-r, p+q-m].

A nesting relation and its mirror image are the same relator up to
cyclic rotation, so presentation construction deduplicates to one
stored instance per unordered pair.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .words import Alphabet, Generator, Presentation, Record, Word


class IntervalGenerator(Record):
    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        if not 1 <= p < q:
            raise ValueError(f"need 1 <= p < q, got [{p},{q}]")
        super().__init__(p, q)

    @property
    def name(self) -> str:
        if self.q <= 9:
            return f"s{self.p}{self.q}"
        return f"s{self.p}_{self.q}"

    @property
    def length(self) -> int:
        return self.q - self.p + 1


def interval_generators(n: int, lengths=None) -> Tuple[IntervalGenerator, ...]:
    """All interval generators of J_n, ordered by (p, q); optionally
    restricted to intervals whose length lies in `lengths`."""
    gens = []
    for p in range(1, n):
        for q in range(p + 1, n + 1):
            g = IntervalGenerator(p, q)
            if lengths is None or g.length in lengths:
                gens.append(g)
    return tuple(gens)


def _intervals_disjoint(a: IntervalGenerator, b: IntervalGenerator) -> bool:
    return a.q < b.p or b.q < a.p


def _nested_in(inner: IntervalGenerator, outer: IntervalGenerator) -> bool:
    return (
        outer.p <= inner.p
        and inner.q <= outer.q
        and (inner.p, inner.q) != (outer.p, outer.q)
    )


def _mirror_in(inner: IntervalGenerator, outer: IntervalGenerator) -> IntervalGenerator:
    s = outer.p + outer.q
    return IntervalGenerator(s - inner.q, s - inner.p)


def _presentation_for(gens: Tuple[IntervalGenerator, ...]) -> Presentation:
    alphabet = Alphabet(Generator(g.name, involutive=True) for g in gens)
    pool = set(gens)
    relators = []

    def w(*names):
        return Word(alphabet, [(nm, 1) for nm in names])

    for g in gens:
        relators.append(w(g.name, g.name))
    for a in gens:
        for b in gens:
            if (a.p, a.q) < (b.p, b.q) and _intervals_disjoint(a, b):
                relators.append(w(a.name, b.name, a.name, b.name))
    for outer in gens:
        for inner in gens:
            if _nested_in(inner, outer):
                mir = _mirror_in(inner, outer)
                if mir not in pool:
                    # the conjugate falls outside the generating set;
                    # the relation is not expressible here
                    continue
                # outer · inner = mirror · outer, as a 4-letter relator
                relators.append(w(outer.name, inner.name, outer.name, mir.name))
    return Presentation(alphabet, relators)


def cactus_presentation(n: int) -> Presentation:
    if n < 2:
        raise ValueError("cactus groups need n >= 2")
    return _presentation_for(interval_generators(n))


def subgroup_presentation(n: int, S: Iterable[int]) -> Presentation:
    """Presentation on the generators whose interval length lies in S,
    keeping exactly the relations among those generators."""
    S = frozenset(S)
    if not S:
        raise ValueError("S must be a nonempty subset of {2..n}")
    if not S <= set(range(2, n + 1)):
        raise ValueError(f"S must be a subset of {{2..{n}}}, got {sorted(S)}")
    return _presentation_for(interval_generators(n, S))


J4 = cactus_presentation(4)
J4P = subgroup_presentation(4, {2, 3})


def j4_presentation() -> Presentation:
    return J4


def j4prime_presentation() -> Presentation:
    return J4P


class Permutation(Record):
    """Permutation of {1..n}, stored as the image tuple (1-based)."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {images}")
        super().__init__(images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def then(self, other: "Permutation") -> "Permutation":
        """Composite: apply self first, then other."""
        if len(self.images) != len(other.images):
            raise ValueError("size mismatch")
        return Permutation(tuple(other.images[i - 1] for i in self.images))

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images, start=1))

    def sign(self) -> int:
        """(-1)^(n - number of cycles), fixed points counted as cycles."""
        images = self.images
        seen = [False] * len(images)
        cycles = 0
        for start in range(len(images)):
            if not seen[start]:
                cycles += 1
                i = start
                while not seen[i]:
                    seen[i] = True
                    i = images[i] - 1
        return -1 if (len(images) - cycles) % 2 else 1

    def cycles(self) -> Tuple[Tuple[int, ...], ...]:
        """Nontrivial cycles, each rotated to start at its least element,
        sorted by that element."""
        seen = set()
        out = []
        for start in range(1, len(self.images) + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            i = self(start)
            while i != start:
                cyc.append(i)
                seen.add(i)
                i = self(i)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return tuple(out)

    def __str__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "e"
        if len(self.images) <= 9:
            return "".join("(" + "".join(str(i) for i in c) + ")" for c in cycs)
        return "".join("(" + " ".join(str(i) for i in c) + ")" for c in cycs)


def _parse_interval_name(name: str) -> Tuple[int, int]:
    body = name[1:]
    if "_" in body:
        ps, qs = body.split("_", 1)
        return int(ps), int(qs)
    return int(body[0]), int(body[1:])


def project_to_symmetric(w: Word, n: int) -> Permutation:
    """Image of a cactus word in the symmetric group; letters compose
    left to right (first letter acts first)."""
    gens = w.alphabet.generators
    perm = tuple(range(1, n + 1))
    for c in w.codes:
        p, q = _parse_interval_name(gens[c].name)
        if not 1 <= p < q <= n:
            raise ValueError(f"bad interval [{p},{q}] for n={n}")
        perm = tuple(p + q - i if p <= i <= q else i for i in perm)
    return Permutation(perm)


def is_pure(w: Word, n: int) -> bool:
    return project_to_symmetric(w, n).is_identity()


# the 24 permutations of 1..4, the identity first: an S4 table's indices
S4 = tuple(map(Permutation, permutations(range(1, 5))))
_S4_INDEX = {p: i for i, p in enumerate(S4)}
W0 = _S4_INDEX[Permutation((4, 3, 2, 1))]  # the full reversal, s14's image
_INTERVAL_IMAGES = {nm: project_to_symmetric(J4.word(nm), 4) for nm in J4.alphabet.names()}


class S4Table(NamedTuple):
    """The projection to S4 on one presentation's letter codes:
    step[i][c] is the index in `S4` of S4[i] followed by letter c, so
    S4[step[0][c]] is letter c's permutation.  A word's image is one
    lookup per letter."""

    step: Tuple[Tuple[int, ...], ...]

    @classmethod
    def of(cls, letters: Sequence[Permutation]) -> "S4Table":
        return cls(tuple(tuple(_S4_INDEX[p.then(x)] for x in letters) for p in S4))

    def fold(self, codes: Iterable[int]) -> int:
        """The index in `S4` of the image of the word `codes`."""
        i, step = 0, self.step
        for c in codes:
            i = step[i][c]
        return i


def _s4_table(P: Presentation) -> Optional[S4Table]:
    gens = P.alphabet.generators
    if not all(g.involutive and g.name in _INTERVAL_IMAGES for g in gens):
        return None
    table = S4Table.of([_INTERVAL_IMAGES[g.name] for g in gens])
    return None if any(table.fold(r.codes) for r in P.relators) else table


def s4_table(P: Presentation) -> Optional[S4Table]:
    """P's S4 table, built on first use and kept on P; None unless each
    generator of P is an interval of 1..4 and each relator maps to e, so
    that words of P with distinct images are unequal in P."""
    return P.derived(_s4_table)


# letter codes of J_4 and J_4' follow the order of interval_generators
_J4_NAMES = J4.alphabet.names()
_J4P_NAMES = J4P.alphabet.names()
S14 = _J4_NAMES.index("s14")
J4P_TO_J4 = tuple(_J4_NAMES.index(nm) for nm in _J4P_NAMES)
_J4P_GENS = interval_generators(4, {2, 3})
J4P_MIRROR = tuple(_J4P_GENS.index(_mirror_in(g, IntervalGenerator(1, 4))) for g in _J4P_GENS)
_J4_TO_J4P = {c: i for i, c in enumerate(J4P_TO_J4)}


def push_s14_right(w: Word, trace=None) -> Tuple[Word, int]:
    """Rewrite a J_4 word as (word with no s14) · s14^parity.

    Single left-to-right scan, run on codes by `_push_s14_codes`: each
    s14 toggles a parity flag, and any later letter crossed by an odd
    number of s14's is replaced by its mirrored interval.  Adjacent s14
    pairs cancel through the parity flag, so |output| + parity <=
    |input|.  The group element is unchanged (same symmetric-group
    image, same J_4 class).

    A list passed as `trace` receives the scan as relator moves on w,
    in J_4 letter codes: ("swap", i, (s14, x, s14, x')) turns s14 x at
    position i into x' s14 and ("delete", i, (s14, s14)) cancels a pair.
    """
    if w.alphabet != J4.alphabet:
        raise ValueError("push_s14_right takes words over the J_4 alphabet")
    out, parity = _push_s14_codes(w.codes, trace)
    return Word._from_codes(J4P.alphabet, out), parity


def _push_s14_codes(codes: Sequence[int], trace=None) -> Tuple[List[int], int]:
    out, parity = [], 0
    for c in codes:
        if c == S14:
            if parity and trace is not None:
                trace.append(("delete", len(out), (S14, S14)))
            parity ^= 1
        elif parity:
            mirrored = J4P_MIRROR[_J4_TO_J4P[c]]
            if trace is not None:
                trace.append(("swap", len(out), (S14, c, S14, J4P_TO_J4[mirrored])))
            out.append(mirrored)
        else:
            out.append(_J4_TO_J4P[c])
    return out, parity
