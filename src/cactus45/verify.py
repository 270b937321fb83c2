"""End-to-end verification registry.

Thirteen numbered checks cover the whole pipeline: sphere counts and
the published sphere tables, enumeration of the twenty short pure
elements, their symmetric-group images and the parity law, the
conjugation table through the full reversal, the local structure of
the Cayley complex, the hyperbolic embedding metrics, the fundamental
polygon with its side pairings and corner cycles, the presentation
those cycles induce, its reduction to a single relator, the two
companion-group isomorphisms, the classification of the identified
surface, and the basic properties of the translation action.

Each check recomputes its claim from first principles and compares
against the frozen tables in :mod:`cactus45.reference`.  The registry
is shared by the test suite and the ``verify-all`` command so both
report identical results.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, NamedTuple, Sequence, Tuple

from . import reference as ref
from .action import (
    TRANSLATIONS,
    TWENTY,
    gamma,
    image_geodesic,
    orbit_point,
    pure_elements_within,
)
from .cactus import J4P_MIRROR, S4, S4Table, j4_presentation, j4prime_presentation, s4_table
from .complex import build_ball, check_tiling
from .dirichlet import classify_identified_surface, fundamental_domain
from .geometry import HPolygon, edge_length_45, embed_ball, hyp_distance
from .grouptheory import (
    STANDARD_ELIMINATIONS,
    abelianization_invariants,
    alt_isomorphism_pair,
    hom_well_defined,
    one_relator_presentation,
    piece_ratio,
    surface_isomorphism_pair,
    surface_presentation,
    tietze_eliminate,
    verify_mutual_inverse,
)
from .rewrite import sphere, system_for, words_equal
from .words import Word, invert, same_relator_class


class VerificationError(AssertionError):
    """A numbered check failed; the message states which claim broke."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise VerificationError(message)


class CriterionResult(NamedTuple):
    """One pass/fail line of the verification registry."""

    number: int
    name: str
    passed: bool
    details: str


# ---------------------------------------------------------------------------
# word helpers


def _canon(text: str) -> Word:
    """The normal form of a tabled J4' spelling (the token ``e`` aside),
    read by walking the radius-4 ball from the identity one generator
    name at a time.  A spelling of at most four letters has every prefix
    in the ball, so the walk ends at its element, a vertex of the ball,
    which is its normal form; a walk that leaves the ball raises
    ValueError."""
    ball = build_ball(j4prime_presentation(), 4)
    v = ball.identity()
    for name in text.split():
        if name != "e":
            v = ball.neighbor[v].get(name)
            if v is None:
                raise ValueError(f"spelling {text!r} leaves the radius-4 ball")
    return v


def _short_word(index: int) -> Word:
    return _canon(ref.SHORT_PURE_WORDS[index])


# ---------------------------------------------------------------------------
# criterion 1: sphere counts and the published length-3/4 tables


def _check_sphere_tables(tol: float) -> str:
    P = j4prime_presentation()
    counts = [len(sphere(P, L)) for L in range(5)]
    _require(counts == [1, 5, 15, 40, 105], f"sphere sizes {counts}")

    listed2 = {str(_canon(t)) for t in ref.SPHERE2_WORDS}
    _require(
        len(listed2) == 15 and listed2 == {str(v) for v in sphere(P, 2)},
        "length-2 list does not cover the sphere",
    )

    listed3 = set()
    for text in ref.SPHERE3_WORDS:
        c = _canon(text)
        _require(len(c) == 3, f"length-3 spelling {text!r} shortens")
        listed3.add(str(c))
    _require(
        len(listed3) == 40 and listed3 == {str(v) for v in sphere(P, 3)},
        "length-3 list does not cover the sphere element-by-element",
    )

    _require(len(ref.SPHERE4_WORDS) == 105, "length-4 list size")
    distinct = set(ref.SPHERE4_WORDS)
    _require(len(distinct) == 104, "length-4 list should repeat one spelling")
    repeats = [t for t in distinct if ref.SPHERE4_WORDS.count(t) == 2]
    _require(
        repeats == [ref.SPHERE4_REPEATED_SPELLING],
        f"unexpected repeated spelling {repeats}",
    )
    covered = {str(_canon(t)) for t in distinct}
    _require(len(covered) == 104, "length-4 spellings collide")
    missing = {str(v) for v in sphere(P, 4)} - covered
    _require(
        missing == {ref.SPHERE4_UNLISTED_ELEMENT},
        f"unlisted length-4 elements {missing}",
    )

    first, second = (P.word(t) for t in ref.EQUIVALENT_SPELLINGS)
    res = words_equal(first, second, P, certificate=True)
    _require(res.equal, "alternative spelling pair not equal")
    _require(
        res.certificate is not None and res.certificate.verify(P, first, second),
        "alternative spelling certificate does not replay",
    )
    return (
        "sphere sizes 1, 5, 15, 40, 105; the 40 length-3 and 105 length-4 "
        "listed spellings match element-by-element (one spelling repeated, "
        "one element unlisted); alternative spelling certified equal"
    )


# ---------------------------------------------------------------------------
# criterion 2: the twenty short pure elements and their inverse table


def _check_pure_enumeration(tol: float) -> str:
    P = j4prime_presentation()
    twenty = pure_elements_within(4)
    _require(len(twenty) == 20, f"expected 20 elements, got {len(twenty)}")

    for c, name in enumerate(TRANSLATIONS.names()):
        g, ginv = TWENTY[c], TWENTY[TRANSLATIONS.inverse[c]]
        idx, parity = ref.TRANSLATION_GENERATORS[name]
        _require(
            orbit_point(g) == _short_word(idx),
            f"{name} does not move the identity to short word {idx}",
        )
        _require(g.parity == parity, f"{name} parity")
        idx, parity = ref.TRANSLATION_INVERSES[name]
        _require(
            ginv == g.inverse() and ginv.j4p_form == _short_word(idx)
            and ginv.parity == parity,
            f"{TRANSLATIONS.spell(~c)} does not match short word {idx}",
        )
    _require(
        set(twenty) == set(TWENTY), "enumeration differs from generators and inverses"
    )

    identity = P.word("e")
    for i, j in ref.INVERSE_PARTNERS.items():
        prod = P.word(ref.SHORT_PURE_WORDS[i] + " " + ref.SHORT_PURE_WORDS[j])
        res = words_equal(prod, identity, P, certificate=True)
        _require(res.equal, f"short words {i} and {j} are not inverse")
        _require(
            res.certificate is not None and res.certificate.verify(P, prod, identity),
            f"inverse certificate for pair ({i}, {j}) does not replay",
        )
    return (
        "exactly 20 short pure elements; generator and inverse tables match; "
        "all 11 inverse-partner products certified trivial"
    )


# ---------------------------------------------------------------------------
# criterion 3: displayed symmetric-group images and the parity law


def _image_levels(table: S4Table, max_length: int) -> List[Dict[int, Tuple[int, ...]]]:
    """For each length up to max_length, the images of the words of
    that length, as indices into `cactus.S4`, each with the first such
    word in lexicographic order, as letter codes.  A word's image is its
    prefix's image followed by its last letter's, one step of the table,
    so each level is read off the one before; it holds at most one
    entry per permutation."""
    levels: List[Dict[int, Tuple[int, ...]]] = [{0: ()}]
    for _ in range(max_length):
        nxt: Dict[int, Tuple[int, ...]] = {}
        for image, codes in levels[-1].items():
            for c, j in enumerate(table.step[image]):
                nxt.setdefault(j, codes + (c,))
        levels.append(nxt)
    return levels


def _check_central_images(tol: float) -> str:
    P = j4prime_presentation()
    table = s4_table(P)
    for i, expected in ref.CENTRAL_IMAGES.items():
        image = str(S4[table.fold(P.word(ref.SHORT_PURE_WORDS[i]).codes)])
        _require(image == expected, f"short word {i} projects to {image}, not {expected}")

    # every word of a length has its image in that length's level, so
    # the law holds on all 3,906 words when it holds on each level
    for length, level in enumerate(_image_levels(table, 5)):
        for image, codes in level.items():
            if S4[image].sign() != (-1) ** length:
                word = Word._from_codes(P.alphabet, codes)
                raise VerificationError(f"parity law fails on {word}")
    return (
        "all 10 displayed central images match; sign of the projection is "
        "(-1)^length for all 3906 words of length at most 5"
    )


# ---------------------------------------------------------------------------
# criterion 4: conjugation table through the full reversal


def _check_reversal_conjugation(tol: float) -> str:
    P4 = j4_presentation()
    for i in range(1, 13):
        lhs = P4.word("s14 " + ref.SHORT_PURE_WORDS[i])
        rhs = P4.word(ref.SHORT_PURE_WORDS[13 - i] + " s14")
        res = words_equal(lhs, rhs, P4, certificate=True)
        _require(
            res.equal and res.certificate is not None and res.certificate.verify(P4, lhs, rhs),
            f"conjugation identity fails at index {i}",
        )
    return (
        "full reversal conjugates short word i to short word 13-i for all "
        "12 listed indices, certified in the six-generator group"
    )


# ---------------------------------------------------------------------------
# criterion 5: local structure of the Cayley complex


def _check_complex_structure(tol: float) -> str:
    # the tabled faces and the radius-2 counts come off the radius-4 ball
    expected_faces = {
        frozenset(_canon(x) for x in row) for row in ref.IDENTITY_FACES
    }
    ball = build_ball(j4prime_presentation(), 4)
    dist = ball.vertices
    edges2 = sum(max(dist[u], dist[v]) <= 2 for u, v, _ in ball.edges)
    _require(edges2 == 25, f"radius-2 ball has {edges2} edges")
    got = {f.vertex_set for f in ball.faces_at(ball.identity())}
    _require(got == expected_faces, "faces at the identity differ")
    faces2 = sum(max(map(dist.get, f.boundary)) <= 2 for f in ball.faces)
    _require(faces2 == 5, "radius-2 ball should close no other face")

    # degree, faces and a pentagon link at every interior vertex; the
    # interior holds the radius-3 ball's
    report = check_tiling(ball)
    _require(report.ok, f"tiling check failures: {report.failures}")
    return (
        "radius-2 ball has 25 edges and exactly the 5 listed squares at the "
        "identity; every interior vertex of the radius-3 ball has a pentagon "
        "link"
    )


# ---------------------------------------------------------------------------
# criterion 6: hyperbolic edge length and face angles


def _check_geometry_metrics(tol: float) -> str:
    R = edge_length_45()
    # the half-edge identity of the regular {4,5} tiling, independent of
    # the arccosh(cot^2(pi/5)) that computes R
    half = math.cos(math.pi / 4) / math.sin(math.pi / 5)
    _require(abs(math.cosh(R / 2) - half) < 1e-12, "edge length departs from closed form")
    _require(f"{R:.6f}" == "1.253739", f"edge length {R:.6f}")

    ball = build_ball(j4prime_presentation(), 4)
    emb = embed_ball(ball)
    worst_edge = max(
        abs(hyp_distance(emb[u], emb[v]) - R) for u, v, _ in ball.edges
    )
    _require(worst_edge < tol, f"edge length deviation {worst_edge:.2e}")

    # a face boundary may run clockwise, so take the smaller angle
    worst_angle = max(
        abs(min(angle, 2 * math.pi - angle) - 2 * math.pi / 5)
        for face in ball.faces
        for angle in HPolygon(tuple(emb[v] for v in face.boundary)).interior_angles()
    )
    _require(worst_angle < tol, f"face angle deviation {worst_angle:.2e}")
    return (
        f"edge length arccosh(cot^2(pi/5)) = {R:.6f}; all {len(ball.edges)} "
        f"embedded edges within {tol:g} of it; all face angles within "
        f"{tol:g} of 2pi/5"
    )


# ---------------------------------------------------------------------------
# criterion 7: the fundamental polygon


def _check_fundamental_polygon(tol: float) -> str:
    fd = fundamental_domain()
    poly = fd.polygon
    _require(poly.n_sides == 20, f"{poly.n_sides} sides")
    _require(
        len(poly.labels) == 20 and len(set(poly.labels)) == 20,
        "corner labels are not 20 distinct words",
    )

    classes = (
        (ref.CORNERS_AT_2PI5, 2),
        (ref.CORNERS_AT_3PI5, 3),
        (ref.CORNERS_AT_4PI5, 4),
    )
    expected_labels = set()
    for texts, fifths in classes:
        for text in texts:
            w = _canon(text)
            expected_labels.add(w)
            _require(
                poly.angle_fifths[poly.corner_index(w)] == fifths,
                f"corner {text} should sit at {fifths}pi/5",
            )
    _require(set(poly.labels) == expected_labels, "corner label set differs")

    emb = embed_ball(build_ball(j4prime_presentation(), 4))
    embedded = HPolygon(tuple(emb[w] for w in poly.labels))
    worst = max(
        abs(angle - fifths * math.pi / 5)
        for fifths, angle in zip(poly.angle_fifths, embedded.interior_angles())
    )
    _require(worst < tol, f"numeric corner angle deviation {worst:.2e}")

    for text in ref.SPHERE3_WORDS:
        w = _canon(text)
        _require(
            not embedded.contains(emb[w], tol=-tol),
            f"length-3 vertex {text} lies strictly inside the polygon",
        )
    return (
        "20 corners and sides; angle classes 5 at 2pi/5, 10 at 3pi/5, 5 at "
        f"4pi/5 within {tol:g}; no length-3 vertex strictly interior"
    )


# ---------------------------------------------------------------------------
# criterion 8: side pairings


def _check_pairing_rows(tol: float) -> str:
    rows = {TRANSLATIONS.spell(row.code): row for row in fundamental_domain().pairings}
    _require(
        sorted(rows) == sorted(ref.SIDE_PAIRING_TABLE),
        "pairing generators differ",
    )
    for name, (src_texts, tgt_texts) in ref.SIDE_PAIRING_TABLE.items():
        row = rows[name]
        g = TWENTY[row.code]
        want = {_canon(s): _canon(t) for s, t in zip(src_texts, tgt_texts)}
        got = dict(zip(row.source, row.target))
        _require(got == want, f"pairing row {name} differs from the table")
        for source_word, target_word in zip(row.source, row.target):
            _require(
                gamma(g, source_word) == target_word,
                f"{name} does not carry its source corner to its target",
            )
    return (
        "all 10 side-pairing rows match the table, with both endpoints of "
        "each side certified by the action"
    )


# ---------------------------------------------------------------------------
# criterion 9: corner cycles and the induced presentation


def _walks(cycle) -> Iterator[Tuple[Tuple[Word, ...], Tuple[int, ...]]]:
    """The cycle's corners and generator codes as the walk reads them
    from each corner, either way round: turned back, the walk visits
    the corners in reverse and reads its word inverted."""
    corners, word = cycle.vertices, cycle.word
    for vs, gs in ((corners, word.codes), (corners[:1] + corners[:0:-1], invert(word).codes)):
        for r in range(len(vs)):
            yield vs[r:] + vs[:r], gs[r:] + gs[:r]


def _check_corner_cycles(tol: float) -> str:
    fd = fundamental_domain()
    cycles = fd.cycles
    _require(len(cycles) == 6, f"{len(cycles)} corner cycles")
    for c in cycles:
        _require(c.nu == 1, "cycle multiplicity differs from 1")
        _require(
            sum(c.fifths) == 10,
            f"cycle angle sum {sum(c.fifths) * math.pi / 5:.8f}",
        )

    five = next(c for c in cycles if len(c.generators) == 5)
    _require(
        five.generators == tuple(ref.FIVE_TERM_CYCLE["generators"])
        and list(five.vertices)
        == [_canon(t) for t in ref.FIVE_TERM_CYCLE["vertices"]]
        and tuple(five.fifths) == ref.FIVE_TERM_CYCLE["fifths"],
        "five-term cycle differs from the table",
    )
    threes = [c for c in cycles if len(c.generators) == 3]
    _require(len(threes) == 5, "expected five three-term cycles")
    for entry in ref.THREE_TERM_CYCLES:
        want = tuple(_canon(t) for t in entry["vertices"])
        match = [c for c in threes if set(c.vertices) == set(want)]
        _require(len(match) == 1, f"cycle with corners {entry['vertices']}")
        _require(
            sorted(match[0].fifths) == sorted(entry["fifths"]),
            f"angle classes of cycle {entry['vertices']}",
        )
        # the walk from the row's first corner, the way the row goes round
        gens = dict(_walks(match[0])).get(want, ())
        _require(
            tuple(map(TRANSLATIONS.spell, gens)) == tuple(entry["generators"]),
            f"generators of cycle {entry['vertices']}",
        )

    pres = fd.presentation
    _require(
        pres.alphabet.names() == tuple(f"g{i}" for i in range(1, 11)),
        "presentation generators differ",
    )
    _require(len(pres.relators) == 6, f"{len(pres.relators)} relators")
    for text in ref.CYCLE_RELATORS:
        want = pres.word(text)
        _require(
            any(same_relator_class(r, want) for r in pres.relators),
            f"relator {text} missing up to rotation and inversion",
        )
    return (
        "6 corner cycles, each with multiplicity 1 and angle sum 2pi within "
        f"{tol:g}; induced presentation matches the six cycle relators up "
        "to rotation and inversion"
    )


# ---------------------------------------------------------------------------
# criterion 10: reduction to a single relator


def _check_one_relator_reduction(tol: float) -> str:
    before = fundamental_domain().presentation
    after = tietze_eliminate(before, STANDARD_ELIMINATIONS)
    _require(
        after.alphabet.names() == ("g2", "g4", "g8", "g9", "g10"),
        f"surviving generators {after.alphabet.names()}",
    )
    _require(len(after.relators) == 1, f"{len(after.relators)} relators remain")
    target = one_relator_presentation()
    _require(
        same_relator_class(after.relators[0], after.word(str(target.relators[0]))),
        "final relator is not the expected ten-letter word",
    )
    inv_before = abelianization_invariants(before)
    inv_after = abelianization_invariants(after)
    _require(
        inv_before == inv_after == (4, (2,)),
        f"abelianization changed: {inv_before} vs {inv_after}",
    )
    return (
        "five eliminations leave one ten-letter relator on g2, g4, g8, g9, "
        "g10, cyclically equal to the expected word; abelianization stays "
        "rank 4 plus one order-2 factor"
    )


# ---------------------------------------------------------------------------
# criterion 11: the two companion isomorphisms


def _replay_all(certificates, presentation) -> None:
    for cert in certificates:
        _require(
            cert is not None and cert.check(presentation),
            "a triviality certificate does not replay",
        )


def _check_isomorphisms(tol: float) -> str:
    f_alt, g_alt = alt_isomorphism_pair()
    f_sur, g_sur = surface_isomorphism_pair()

    for h in (f_alt, g_alt, f_sur, g_sur):
        report = hom_well_defined(h)
        _require(
            report.verdict == "verified",
            f"{h.name or 'map'} not verified: {report.details}",
        )
        _replay_all(report.certificates, h.target)

    # the loop ends on g_sur, whose images land in the surface group
    methods = {row[1] for row in report.details}
    _require(
        methods == {"dehn"},
        f"surface-side images decided by {methods}, not greedy reduction",
    )
    ratio = piece_ratio(surface_presentation())
    _require(
        ratio == Fraction(1, 10) and ratio < Fraction(1, 6),
        f"surface relator piece ratio {ratio}",
    )

    for f, g in ((f_alt, g_alt), (f_sur, g_sur)):
        mi = verify_mutual_inverse(f, g)
        _require(
            mi.verdict == "verified",
            f"round trips of {f.name}/{g.name} not verified: {mi.details}",
        )
        # the round trips through f come first and land in f.source
        n = len(f.source.alphabet)
        _replay_all(mi.certificates[:n], f.source)
        _replay_all(mi.certificates[n:], g.source)
    return (
        "both companion pairs are verified mutually inverse homomorphisms "
        "with replayable certificates; the surface side is decided by "
        "greedy reduction (piece ratio 1/10 < 1/6)"
    )


# ---------------------------------------------------------------------------
# criterion 12: classification of the identified surface


def _check_surface_classification(tol: float) -> str:
    fd = fundamental_domain()
    sc = classify_identified_surface(fd.polygon, fd.pairings)
    _require(
        sc.euler_characteristic == -3,
        f"Euler characteristic {sc.euler_characteristic}",
    )
    _require(not sc.orientable, "surface reported orientable")
    _require(sc.name == "N_5 = #_5 RP^2", f"surface reported as {sc.name}")
    _require(
        len(fd.cycles) - len(fd.pairings) + 1 == -3,
        "corner classes minus side pairs plus one face is not -3",
    )
    return (
        "identified polygon is the nonorientable surface N_5 = #_5 RP^2 "
        "with Euler characteristic -3"
    )


# ---------------------------------------------------------------------------
# criterion 13: properties of the translation action


def _check_action_properties(tol: float) -> str:
    P = j4prime_presentation()
    engine = system_for(P)
    ball = [v for L in range(4) for v in sphere(P, L)]
    _require(len(ball) == 61, f"radius-3 ball has {len(ball)} vertices")

    # g fixes h exactly when g.j4p_form = h · mirror^p(h)^-1, p the
    # parity of g; the letters are involutions, so that inverse is the
    # mirrored reversal of h.  For parity 0 the product is the identity
    # for every h.  Each normal form maps to the first h that gives it
    fixers = ({(): ball[0]}, {})
    for h in ball:
        inverse = tuple(J4P_MIRROR[x] for x in reversed(h.codes))
        fixers[1].setdefault(engine.normal_form(h.codes + inverse, start=len(h)), h)
    for c, g in enumerate(TWENTY):
        h = fixers[g.parity].get(g.j4p_form.codes)
        if h is not None:
            raise VerificationError(f"{TRANSLATIONS.spell(c)} fixes the vertex {h}")

    # the forms of TWENTY are canonical, so each is its orbit point
    for g in TWENTY:
        _require(
            len(g.j4p_form) % 2 == 0,
            "orbit distance of a short element is odd",
        )

    rng = random.Random(20240)
    small_sphere = sphere(P, 2)
    for _ in range(12):
        g, gp = rng.choice(TWENTY), rng.choice(TWENTY)
        prod = g.compose(gp)
        _require(
            len(prod.j4p_form) % 2 == 0,
            "orbit distance of a product is odd",
        )
        for h in small_sphere:
            # two geodesics spell the same vertex exactly when one lifts
            # into the other
            twice = image_geodesic(g, image_geodesic(gp, h.codes))
            _require(
                engine.lift(image_geodesic(prod, h.codes), twice, None),
                "action law fails on a sampled pair",
            )

    def graph_distance(u: Sequence[int], v: Sequence[int]) -> int:
        # u is geodesic, so its reversal, which spells u^-1, is geodesic
        return len(engine.geodesic(u[::-1] + v, start=len(u)))

    inner = [v for L in range(3) for v in sphere(P, L)]
    for g in TWENTY:
        for _ in range(4):
            h1, h2 = rng.choice(inner), rng.choice(inner)
            _require(
                graph_distance(h1.codes, h2.codes)
                == graph_distance(image_geodesic(g, h1.codes), image_geodesic(g, h2.codes)),
                "action does not preserve the graph metric",
            )
    return (
        "all 20 short pure elements act freely on the 61-vertex radius-3 "
        "ball; sampled action-law and isometry checks pass; all orbit "
        "distances are even"
    )


# ---------------------------------------------------------------------------
# the registry


CRITERIA: Tuple[Tuple[int, str, Callable[[float], str]], ...] = (
    (1, "sphere counts and tables", _check_sphere_tables),
    (2, "pure element enumeration", _check_pure_enumeration),
    (3, "central images and parity law", _check_central_images),
    (4, "reversal conjugation table", _check_reversal_conjugation),
    (5, "Cayley complex structure", _check_complex_structure),
    (6, "edge length and face angles", _check_geometry_metrics),
    (7, "fundamental polygon", _check_fundamental_polygon),
    (8, "side pairings", _check_pairing_rows),
    (9, "corner cycles and presentation", _check_corner_cycles),
    (10, "one-relator reduction", _check_one_relator_reduction),
    (11, "companion isomorphisms", _check_isomorphisms),
    (12, "surface classification", _check_surface_classification),
    (13, "action properties", _check_action_properties),
)


def run_criterion(number: int, tolerance: float = 1e-6) -> CriterionResult:
    """Run one numbered check and report a single pass/fail line."""
    for num, name, fn in CRITERIA:
        if num == number:
            try:
                details = fn(tolerance)
            except VerificationError as exc:
                return CriterionResult(num, name, False, str(exc))
            return CriterionResult(num, name, True, details)
    raise ValueError(f"no criterion numbered {number}")


def run_all(tolerance: float = 1e-6) -> List[CriterionResult]:
    """Run the whole registry in order."""
    return [run_criterion(num, tolerance) for num, _, _ in CRITERIA]
