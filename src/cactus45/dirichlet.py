"""Fundamental polygon for the pure-subgroup action on the tiling.

The construction runs in three stages.  First the word-metric Dirichlet
cell around the identity vertex is read off the symmetric group: a
tiling vertex is kept when no orbit point of the pure subgroup is
strictly closer to it than the identity, and that is so exactly when
it is a shortest vertex of its pure orbit.  The orbits are the twelve
classes of S4 modulo the full reversal (`_cell`), so the cell is exact
over the whole orbit, with no list of sites and no rewriting.
Second, the cell is adapted to the square 2-cells of the tiling: a
square with all four corners kept is taken whole, and a square with
exactly three corners kept is cut along the diagonal joining its two
kept opposite corners, keeping the half that contains the third kept
corner.  The union is a compact 20-gon whose boundary alternates tiling
edges with cell diagonals.  Third, each corner's angle is counted off
the pieces in fifths of pi: 2 for each whole square and half-square
apex at the corner, 1 for each cut diagonal it ends.  The ten
translation generators pair the sides of the polygon; walking the
pairings once around each corner class yields six cycles, each with
multiplicity 10 divided by its angle sum in fifths.  Their relations
present the pure subgroup, and the side identifications classify the
quotient surface.

The boundary is oriented by the tiling alone: the identity's neighbours
run counterclockwise in alphabet order, and so do the first letters of
the corners on a counterclockwise walk.  No stage reads a float.

`fundamental_domain()` runs these stages once, in this order, and keeps
the exact result, with no embedding, on J4' (`Presentation.derived`).
The stage functions recompute on every call.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

from .action import TRANSLATIONS, TWENTY, image_geodesic
from .cactus import J4P, S4, s4_table
from .complex import CayleyBall, _cycle, build_ball
from .rewrite import canonical_form, system_for
from .words import Presentation, Word


class LabeledPolygon(NamedTuple):
    """Compact polygon whose corners are tiling vertices, listed
    counterclockwise: corner i is the canonical vertex word ``labels[i]``
    with interior angle ``angle_fifths[i]``·(pi/5).  Side i runs from
    corner i to corner i+1 and is either a tiling ``edge`` or a cell
    ``diagonal``.
    """

    labels: Tuple[Word, ...]
    angle_fifths: Tuple[int, ...]
    side_kinds: Tuple[str, ...]

    @property
    def n_sides(self) -> int:
        return len(self.labels)

    def corner_index(self, label: Word) -> int:
        return self.labels.index(label)

    def side_words(self, i: int) -> Tuple[Word, Word]:
        n = len(self.labels)
        return (self.labels[i % n], self.labels[(i + 1) % n])

    def sides(self) -> List[Tuple[Word, Word]]:
        return [self.side_words(i) for i in range(len(self.labels))]


class SidePairing(NamedTuple):
    """One translation generator carrying a boundary side onto another.

    ``code`` is the generator's letter code in `TRANSLATIONS`, and
    ``gamma(TWENTY[code], source[k]) == target[k]`` for k = 0, 1; the
    inverse generator carries the target side back onto the source.
    """

    code: int
    source: Tuple[Word, Word]
    target: Tuple[Word, Word]


class VertexCycle(NamedTuple):
    """Closed walk of side pairings around one corner class.

    Applying the letters of ``word``, a word over `TRANSLATIONS`,
    first-to-last to ``vertices[0]`` visits ``vertices`` in order and
    returns to the start.  ``fifths`` are the corners' angles in fifths
    of pi, and ``nu`` is 10 divided by their sum, exactly.
    """

    word: Word
    vertices: Tuple[Word, ...]
    fifths: Tuple[int, ...]
    nu: int

    @property
    def generators(self) -> Tuple[str, ...]:
        """The signed generator names of the walk, in order."""
        return tuple(map(TRANSLATIONS.spell, self.word.codes))


class SurfaceClass(NamedTuple):
    euler_characteristic: int
    orientable: bool
    name: str


# ---------------------------------------------------------------------------
# polygon construction


def _cell(ball: CayleyBall) -> Set[Word]:
    """The vertices of the ball that are shortest in their pure orbit,
    which is the Dirichlet cell of the identity vertex.

    Write pi for the projection to S4 (`cactus.s4_table`; letters act
    left to right) and w0 = (4 3 2 1) for the image of s14.  The proof
    has three steps.
    - A pure g = u s14^p has pi(u) = w0^p, and it carries the vertex h
      to u mirror^p(h), where mirror is conjugation by s14.  So
      pi(g h) = w0^p w0^p pi(h) w0^p = pi(h) w0^p, and the right coset
      pi(h)<w0> is constant on each orbit.
    - J4 acts transitively on the vertices, with stabilizer {1, s14},
      and the pure subgroup is the kernel of J4 -> S4.  So it has
      |S4/<w0>| = 12 orbits on the vertices, one per coset.
    - d(v, g e) = |g^-1 v|, and g^-1 v runs over v's orbit as g runs
      over the pure subgroup.  So no orbit point is strictly closer to
      v than the identity exactly when |v| is least in v's orbit.

    Normal forms are prefix-closed, so each vertex's image is one step
    of the table from its parent's.  Its coset is keyed by the lesser of
    that image and its composite with w0, which maps each value i to
    5 - i.  The ball holds every vertex no longer than its radius, so a
    class that meets it has its least length there.  The
    class minima are 0, 1 (five classes), 2 (five) and 3 (one), so a
    ball of radius less than 3 misses a class, and it is refused.
    """
    step = s4_table(ball.presentation).step
    keys = [min(p.images, tuple([5 - i for i in p.images])) for p in S4]
    image = {(): 0}  # each vertex's index in S4
    coset: Dict[Word, Tuple[int, ...]] = {}
    least: Dict[Tuple[int, ...], int] = {}
    for v, length in ball.vertices.items():
        t = v.codes
        if t:
            image[t] = step[image[t[:-1]]][t[-1]]
        coset[v] = key = keys[image[t]]
        least[key] = min(least.get(key, length), length)
    if len(least) != 12:
        raise ValueError(
            f"the radius-{ball.radius} ball meets {len(least)} of the 12 pure orbits"
        )
    return {v for v, key in coset.items() if ball.vertices[v] == least[key]}


def _polygon(ball: CayleyBall) -> LabeledPolygon:
    """Cell-adapted fundamental 20-gon around the identity vertex.  A
    kept piece, a whole square or the kept half of a cut square, lists
    its corners, their angles in fifths of pi and its sides' kinds."""
    keep = _cell(ball)
    pieces = []
    for face in ball.faces:
        b = face.boundary
        flags = [c in keep for c in b]
        if all(flags):
            pieces.append((b, (2, 2, 2, 2), ("edge",) * 4))
        elif sum(flags) == 3:
            i = flags.index(False)
            corners = (b[(i + 2) % 4], b[(i + 1) % 4], b[(i + 3) % 4])
            pieces.append((corners, (2, 1, 1), ("edge", "diagonal", "edge")))
    n_full = sum(len(corners) == 4 for corners, _, _ in pieces)
    if (n_full, len(pieces)) != (10, 20):
        raise ValueError(
            "unexpected cell decomposition: "
            f"{n_full} full and {len(pieces) - n_full} half cells"
        )

    # boundary = segments of exactly one piece (its side i - 1 ends at corner i)
    uses: Dict[frozenset, List[str]] = {}
    angle: Counter = Counter()
    for corners, fifths, kinds in pieces:
        for i, w in enumerate(corners):
            uses.setdefault(frozenset((corners[i - 1], w)), []).append(kinds[i - 1])
            angle[w] += fifths[i]
    boundary = {seg: k[0] for seg, k in uses.items() if len(k) == 1}
    if len(boundary) != 20:
        raise ValueError(f"boundary has {len(boundary)} segments, expected 20")

    # chain the segments into a single closed corner cycle
    try:
        cycle = _cycle(tuple(seg) for seg in boundary)
    except ValueError as exc:
        raise ValueError(f"boundary {exc}") from None

    # orient counterclockwise: the identity's neighbours run
    # counterclockwise in alphabet order, so once around the identity
    # that way the corners' first letters step 0 or +1 mod 5, five in all
    steps = [(b.codes[0] - a.codes[0]) % 5 for a, b in zip(cycle, cycle[1:] + cycle[:1])]
    if set(steps) <= {0, 4} and sum(steps) == 20:
        cycle = [cycle[0]] + cycle[:0:-1]
    elif not (set(steps) <= {0, 1} and sum(steps) == 5):
        raise ValueError("boundary does not wind once around the identity")

    labels = tuple(cycle)
    kinds = tuple(boundary[frozenset(s)] for s in zip(labels, labels[1:] + labels[:1]))

    fifths = tuple(angle[w] for w in labels)
    if sorted(fifths) != [2] * 5 + [3] * 10 + [4] * 5:
        raise ValueError(f"unexpected angle classes {sorted(fifths)}")

    return LabeledPolygon(labels, fifths, kinds)


# ---------------------------------------------------------------------------
# side pairings


def side_pairings(D: LabeledPolygon) -> List[SidePairing]:
    """The ten generator rows carrying one boundary side onto another."""
    sides = D.sides()
    kind_of = {frozenset(s): kind for s, kind in zip(sides, D.side_kinds)}
    engine = system_for(J4P)
    longest = max(map(len, D.labels))
    pairings: List[SidePairing] = []
    used: Counter = Counter()
    for code in range(len(TRANSLATIONS)):
        g = TWENTY[code]
        # an image longer than every corner is no corner: it stays None
        # and pairs no side, so only the others are sorted
        images: Dict[Word, Optional[Word]] = {}
        for w in D.labels:
            sunk = image_geodesic(g, w.codes)
            images[w] = (
                Word._from_codes(J4P.alphabet, engine.sort(sunk))
                if len(sunk) <= longest
                else None
            )
        rows = []
        for u, v in sides:
            iu, iv = images[u], images[v]
            if frozenset((iu, iv)) in kind_of:
                rows.append(SidePairing(code, (u, v), (iu, iv)))
        if len(rows) != 1:
            raise ValueError(
                f"{TRANSLATIONS.spell(code)} pairs {len(rows)} sides, "
                "expected exactly one"
            )
        row = rows[0]
        used[frozenset(row.source)] += 1
        used[frozenset(row.target)] += 1
        pairings.append(row)
    if sorted(used.values()) != [1] * 20 or len(used) != 20:
        raise ValueError("side pairings do not cover each side exactly once")
    for row in pairings:
        src_kind = kind_of[frozenset(row.source)]
        tgt_kind = kind_of[frozenset(row.target)]
        if src_kind != tgt_kind:
            raise ValueError(
                f"{TRANSLATIONS.spell(row.code)} pairs a {src_kind} with a {tgt_kind}"
            )
    return pairings


# ---------------------------------------------------------------------------
# vertex cycles


def vertex_cycles(
    D: LabeledPolygon, pairings: Sequence[SidePairing]
) -> List[VertexCycle]:
    """Partition of the twenty corners into pairing cycles, each walked
    once on flags, (corner, side) pairs: a side's pairing carries the
    corner to its image, and the walk goes on from the image's other
    side.  A side's move and its partner's are inverse, so a walk from
    the corner's other side would run the same cycle backwards."""
    sides_at = {
        w: (frozenset(D.side_words(i - 1)), frozenset(D.side_words(i)))
        for i, w in enumerate(D.labels)
    }
    step: Dict[tuple, tuple] = {}
    for row in pairings:
        for code, src, tgt in ((row.code, row.source, row.target),
                               (~row.code, row.target, row.source)):
            side, partner = frozenset(src), frozenset(tgt)
            for corner, image in zip(src, tgt):
                at = sides_at.get(image, ())
                if partner not in at:
                    raise ValueError(
                        f"{TRANSLATIONS.spell(code)} carries {corner} off the polygon"
                    )
                # on from the image corner's other side
                step[corner, side] = (code, (image, at[at[0] == partner]))

    # deterministic anchor: the length-3 corner and side that make the
    # five-letter relator come out in the documented generator order
    anchor = canonical_form(J4P.word("s13 s24 s23"), J4P)
    anchor_side = frozenset((anchor, canonical_form(J4P.word("s13 s24"), J4P)))
    if anchor_side not in sides_at.get(anchor, ()):
        raise ValueError("anchor side is not a boundary side")
    # tie-break: the side met first counterclockwise from corner 0,
    # the next side at corner 0 and the previous one elsewhere
    starts = [(anchor, anchor_side)]
    starts += [(w, sides_at[w][i == 0]) for i, w in enumerate(D.labels)]

    cycles: List[VertexCycle] = []
    visited: set = set()
    for start in starts:
        if start[0] in visited:
            continue
        codes, verts, flag = [], [], start
        while flag in step and len(verts) < len(step):
            verts.append(flag[0])
            code, flag = step[flag]
            codes.append(code)
            if flag == start:
                break
        else:
            raise ValueError(f"the pairing walk from {start[0]} does not close")
        visited.update(verts)
        fifths = tuple(D.angle_fifths[D.corner_index(v)] for v in verts)
        angle = sum(fifths)
        if angle < 1 or 10 % angle:
            raise ValueError(f"cycle at {start[0]} has angle sum {angle}pi/5")
        word = Word._from_codes(TRANSLATIONS, codes)
        cycles.append(VertexCycle(word, tuple(verts), fifths, 10 // angle))
    # closure: the composed transformation along each cycle is trivial
    for c in cycles:
        first, *rest = c.word.codes
        total = TWENTY[first]
        for code in rest:
            total = TWENTY[code].compose(total)
        if not total.is_identity:
            raise ValueError(f"cycle {c.word} does not compose to the identity")
    return cycles


# ---------------------------------------------------------------------------
# presentation and surface classification


def poincare_presentation(cycles: Sequence[VertexCycle]) -> Presentation:
    """Ten-generator presentation read off the pairing cycles: a walk
    applies its letters first-to-last, so its relator is the walk read
    backwards, nu times over."""
    return Presentation(
        TRANSLATIONS,
        [Word._from_codes(TRANSLATIONS, (c.word.codes * c.nu)[::-1]) for c in cycles],
    )


def _surface_word_from_pairings(
    D: LabeledPolygon, pairings: Sequence[SidePairing]
) -> Word:
    """Boundary word of the polygon over `TRANSLATIONS`, one letter per
    side: a pairing's code on its source side, and on its target side
    too, inverted where the target runs against the boundary."""
    codes: List[Optional[int]] = [None] * D.n_sides
    index = {s: i for i, s in enumerate(D.sides())}
    for row in pairings:
        code = row.code
        if row.source not in index:
            raise ValueError(f"{TRANSLATIONS.spell(code)} source is not a side")
        codes[index[row.source]] = code
        if row.target in index:
            codes[index[row.target]] = code
        elif row.target[::-1] in index:
            codes[index[row.target[::-1]]] = ~code
        else:
            raise ValueError(f"{TRANSLATIONS.spell(code)} target is not a side")
    if None in codes:
        raise ValueError("some side received no letter")
    return Word._from_codes(TRANSLATIONS, codes)


def classify_identified_surface(
    D: Union[LabeledPolygon, Word],
    pairings: Optional[Sequence[SidePairing]] = None,
) -> SurfaceClass:
    """Euler characteristic, orientability and name of the quotient.

    Accepts the constructed polygon together with its pairings, or a
    boundary word such as ``a b a b`` or ``a b a^-1 b^-1``; a letter
    with code c >= 0 runs along the boundary, ~c against it.
    """
    if isinstance(D, LabeledPolygon):
        if pairings is None:
            raise ValueError("pairings required to classify the polygon")
        D = _surface_word_from_pairings(D, pairings)
    word = D.codes
    if not word:
        raise ValueError("an empty boundary word describes no closed surface")

    n = len(word)
    positions: Dict[int, List[int]] = {}
    for i, c in enumerate(word):
        positions.setdefault(c if c >= 0 else ~c, []).append(i)
    if any(len(p) != 2 for p in positions.values()):
        raise ValueError("each side letter must appear exactly twice")

    # corner classes: glue arrow tails to tails and heads to heads
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        parent[find(x)] = find(y)

    def tail(i: int) -> int:
        return i if word[i] >= 0 else (i + 1) % n

    def head(i: int) -> int:
        return (i + 1) % n if word[i] >= 0 else i

    for i, j in positions.values():
        union(tail(i), tail(j))
        union(head(i), head(j))

    v_count = len({find(i) for i in range(n)})
    e_count = n // 2
    chi = v_count - e_count + 1
    orientable = all(
        (word[i] >= 0) != (word[j] >= 0) for i, j in positions.values()
    )
    if orientable:
        genus = (2 - chi) // 2
        name = "S^2" if chi == 2 else f"orientable genus {genus}"
    else:
        k = 2 - chi
        name = f"N_{k} = #_{k} RP^2"
    return SurfaceClass(chi, orientable, name)


# ---------------------------------------------------------------------------
# the whole pipeline, built once


class FundamentalDomain(NamedTuple):
    """The fixed objects of the proof, in the order they are built from
    the radius-4 J4' ball: the 20-gon, the ten side pairings, the six
    corner cycles and the presentation they induce.  Exact, with no
    embedding; the ball stays on J4' (`build_ball(J4P, 4)`)."""

    polygon: LabeledPolygon
    pairings: Tuple[SidePairing, ...]
    cycles: Tuple[VertexCycle, ...]
    presentation: Presentation


def fundamental_domain() -> FundamentalDomain:
    """The pipeline run once and kept on J4'; every later call returns
    the same record."""
    return J4P.derived(_domain)


def _domain(P: Presentation) -> FundamentalDomain:
    polygon = _polygon(build_ball(P, 4))
    pairings = tuple(side_pairings(polygon))
    cycles = tuple(vertex_cycles(polygon, pairings))
    presentation = poincare_presentation(cycles)
    return FundamentalDomain(polygon, pairings, cycles, presentation)
