"""Fundamental 20-gon, side pairings, corner cycles, and the surface."""

import math

import pytest

from cactus45 import j4prime_presentation
from cactus45.cactus import J4P, project_to_symmetric
from cactus45 import dirichlet, geometry
from cactus45.complex import _cycle, build_ball
from cactus45.dirichlet import (
    _cell,
    classify_identified_surface,
    fundamental_domain,
    poincare_presentation,
    side_pairings,
    vertex_cycles,
)
from cactus45.action import (
    TRANSLATIONS,
    TWENTY,
    PureElement,
    gamma,
    standard_generator,
    standard_generators,
)
from cactus45.geometry import HPolygon, edge_length_45
from cactus45.rewrite import RewriteSystem, canonical_form, sphere
from cactus45.words import Alphabet, Generator, Word, invert, same_relator_class

from geometry_oracle import angle_sum, side_lengths
from voronoi_oracle import voronoi_keeps
from fixtures import (
    ANGLE_3PI5_CORNERS,
    ANGLE_4PI5_CORNERS,
    CYCLE_5,
    CYCLES_3,
    SIDE_PAIRINGS,
    TABLE_LENGTH3,
    TEN_GEN_RELATORS,
    V_WORDS,
)

P = j4prime_presentation()
FIFTH = math.pi / 5


def canon(text):
    return canonical_form(P.word(text), P)


@pytest.fixture(scope="module")
def polygon():
    return fundamental_domain().polygon


@pytest.fixture(scope="module")
def embedded(polygon):
    emb = geometry.embed_ball(build_ball(J4P, 4))
    return HPolygon(tuple(emb[w] for w in polygon.labels))


@pytest.fixture(scope="module")
def pairings(polygon):
    return side_pairings(polygon)


@pytest.fixture(scope="module")
def cycles(polygon, pairings):
    return vertex_cycles(polygon, pairings)


# ---------------------------------------------------------------------------
# the polygon itself


def test_twenty_corners_and_sides(polygon):
    assert polygon.n_sides == 20
    assert len(polygon.labels) == 20
    assert len(set(polygon.labels)) == 20
    assert len(polygon.angle_fifths) == 20
    assert len(polygon.side_kinds) == 20


def test_corner_label_set(polygon):
    expected = {canon(w) for w in ANGLE_4PI5_CORNERS}
    expected |= {canon(w) for w in ANGLE_3PI5_CORNERS}
    expected |= {canon(w) for w in V_WORDS.values()}
    assert set(polygon.labels) == expected


def test_angle_classes(polygon):
    for text in ANGLE_4PI5_CORNERS:
        assert polygon.angle_fifths[polygon.corner_index(canon(text))] == 4
    for text in ANGLE_3PI5_CORNERS:
        assert polygon.angle_fifths[polygon.corner_index(canon(text))] == 3
    for text in V_WORDS.values():
        assert polygon.angle_fifths[polygon.corner_index(canon(text))] == 2


def test_labels_run_counterclockwise(polygon):
    assert [str(w) for w in polygon.labels] == [
        "s12 s13", "s13 s24", "s13 s24 s23", "s13 s34", "s13 s12",
        "s23 s12", "s23 s12 s34", "s23 s34", "s23 s24", "s24 s12",
        "s24 s12 s13", "s24 s13", "s24 s23", "s34 s23", "s34 s13 s12",
        "s34 s13", "s12 s34", "s12 s24", "s12 s23 s24", "s12 s23",
    ]


def test_embedded_corners_enclose_positive_signed_area(embedded):
    # a float oracle for the orientation the labels get from the link
    zs = [v.z for v in embedded.vertices]
    area2 = sum((a.conjugate() * b).imag for a, b in zip(zs, zs[1:] + zs[:1]))
    assert area2 > 0


def test_angles_numeric(polygon, embedded):
    angles = embedded.interior_angles()
    for mult, angle in zip(polygon.angle_fifths, angles):
        assert abs(angle - mult * FIFTH) < 1e-6
    # twenty corners, total turning fixed by the hyperbolic area (6*pi)
    assert abs(angle_sum(embedded) - 12 * math.pi) < 1e-5


def test_side_lengths(polygon, embedded):
    R = edge_length_45()
    diag = math.acosh(
        math.cosh(R) ** 2 - math.sinh(R) ** 2 * math.cos(2 * math.pi / 5)
    )
    for kind, length in zip(polygon.side_kinds, side_lengths(embedded)):
        assert abs(length - (R if kind == "edge" else diag)) < 1e-6


def test_side_kind_pattern(polygon):
    assert polygon.side_kinds.count("edge") == 10
    assert polygon.side_kinds.count("diagonal") == 10
    for i, kind in enumerate(polygon.side_kinds):
        a = polygon.angle_fifths[i]
        b = polygon.angle_fifths[(i + 1) % 20]
        if kind == "edge":
            assert {a, b} == {2, 3}
        else:
            assert {a, b} == {3, 4}


def test_no_length3_vertex_strictly_interior(embedded):
    # the five 2pi/5 corners lie on the boundary; every other length-3
    # vertex stays outside, so none is interior by a 1e-6 margin
    from cactus45.geometry import embed_ball

    emb = embed_ball(build_ball(P, 4))
    for text in TABLE_LENGTH3:
        w = canon(text)
        assert not embedded.contains(emb[w], tol=-1e-6)


def test_word_metric_membership(polygon):
    # every corner is at least as close to the identity as to each of
    # the twenty short orbit points, in the graph metric, exactly
    shorts = standard_generators()
    orbit = [g.j4p_form for g in shorts.values()]
    orbit += [invert(w) for w in orbit]
    for corner in polygon.labels:
        for site in orbit:
            d = len(canonical_form(invert(site) * corner, P))
            assert len(corner) <= d


# ---------------------------------------------------------------------------
# the word-metric Dirichlet cell


def _all_sites():
    """TWENTY and every nontrivial pairwise product, composed from
    scratch: 360 orbit points, out to distance eight."""
    found = {g.j4p_form for g in TWENTY}
    found |= {g.compose(h).j4p_form for g in TWENTY for h in TWENTY}
    found.discard(Word(J4P.alphabet, ()))
    return found


def _coset(v, side):
    """The class of the vertex v in S4 modulo the full reversal, as the
    pair of images that spell it: the right coset maps each image i to
    5 - i, the left one reverses the image tuple."""
    p = project_to_symmetric(v, 4).images
    other = tuple(5 - i for i in p) if side == "right" else p[::-1]
    return frozenset((p, other))


@pytest.mark.parametrize("radius", [3, 4])
def test_coset_cell_matches_the_all_sites_oracle(radius):
    # the oracle tests every vertex against all 360 sites; the cell
    # keeps each vertex shortest in its S4 class
    ball = build_ball(J4P, radius)
    keep = _cell(ball)
    assert keep == voronoi_keeps(ball, _all_sites())
    assert len(keep) == 31


@pytest.mark.parametrize("radius", [3, 4])
def test_kept_vertices_have_kept_parents(radius):
    # the cell is star-shaped about the identity, read off the oracle's
    # cell: a kept vertex's normal form minus its last letter is kept
    ball = build_ball(J4P, radius)
    keep = voronoi_keeps(ball, _all_sites())
    parents = {Word._from_codes(J4P.alphabet, v.codes[:-1]) for v in keep if len(v)}
    assert parents <= keep
    assert len(parents) > 1


def test_site_list_decides_the_radius_four_cell():
    # the orbit points of length 4 and 6 are the vertices whose image in
    # S4 is central, and they cut out the same cell as the S4 classes
    ball = build_ball(J4P, 4)
    central = {(1, 2, 3, 4), (4, 3, 2, 1)}
    orbit = [
        v
        for L in (4, 6)
        for v in sphere(J4P, L)
        if project_to_symmetric(v, 4).images in central
    ]
    assert len(orbit) == 140
    assert voronoi_keeps(ball, orbit) == _cell(ball)


def test_the_right_coset_is_constant_on_orbits():
    # every one of the twenty generators and inverses keeps each vertex
    # of the radius-3 ball in its class, and the ball meets all twelve
    ball = build_ball(J4P, 3)
    classes = {v: _coset(v, "right") for v in ball.vertices}
    assert len(set(classes.values())) == 12
    for g in TWENTY:
        for v, c in classes.items():
            assert _coset(gamma(g, v), "right") == c


def test_the_left_coset_is_not_constant_on_orbits():
    # w0 pi(v) also splits S4 into twelve pairs, and its least members
    # happen to cut the same 31-vertex cell; only the action tells the
    # two sides apart
    ball = build_ball(J4P, 3)
    classes = {v: _coset(v, "left") for v in ball.vertices}
    least = {}
    for v, c in classes.items():
        least[c] = min(least.get(c, len(v)), len(v))
    assert len(least) == 12
    assert {v for v, c in classes.items() if len(v) == least[c]} == _cell(ball)
    assert any(_coset(gamma(g, v), "left") != c for g in TWENTY for v, c in classes.items())


def test_a_ball_that_misses_an_orbit_is_refused():
    # the twelfth class, that of s13 s24 s23, is first met at length 3
    with pytest.raises(ValueError, match="^the radius-2 ball meets 11 of the 12 pure orbits$"):
        _cell(build_ball(J4P, 2))


def test_the_cell_makes_no_geodesic_or_sort_call(monkeypatch):
    # patched on the class, since undoing a patch of the J4' engine
    # itself would leave a bound method stored on it
    ball = build_ball(J4P, 4)
    calls = []
    for name in ("geodesic", "sort"):
        monkeypatch.setattr(RewriteSystem, name, lambda self, *a, _n=name, **k: calls.append(_n))
    assert len(_cell(ball)) == 31
    assert calls == []


# ---------------------------------------------------------------------------
# side pairings


def test_ten_pairings_cover_all_sides(polygon, pairings):
    assert [row.code for row in pairings] == list(range(10))
    assert [TRANSLATIONS.spell(row.code) for row in pairings] == [
        f"g{i}" for i in range(1, 11)
    ]
    covered = [frozenset(row.source) for row in pairings]
    covered += [frozenset(row.target) for row in pairings]
    assert len(set(covered)) == 20
    side_set = {frozenset(s) for s in polygon.sides()}
    assert set(covered) == side_set


def test_pairings_match_reference_table(pairings):
    by_name = {TRANSLATIONS.spell(row.code): row for row in pairings}
    for name, (src, tgt) in SIDE_PAIRINGS.items():
        row = by_name[name]
        want = {canon(src[k]): canon(tgt[k]) for k in range(2)}
        got = dict(zip(row.source, row.target))
        assert got == want


def test_pairings_certified_by_gamma(pairings):
    for row in pairings:
        name = TRANSLATIONS.spell(row.code)
        g = standard_generator(name)
        for source_word, target_word in zip(row.source, row.target):
            assert gamma(g, source_word) == target_word
        back = standard_generator(name + "^-1")
        for source_word, target_word in zip(row.source, row.target):
            assert gamma(back, target_word) == source_word


def test_translates_touch_along_sides(polygon, pairings):
    # each generator's translate of the polygon meets it exactly in the
    # paired side, so the twenty signed translates surround the polygon
    for row in pairings:
        assert frozenset(row.source) != frozenset(row.target)
        g = TWENTY[row.code]
        assert len(g.j4p_form) == 4  # translate center stays off-polygon


# ---------------------------------------------------------------------------
# vertex cycles


def test_six_cycles_partition_corners(polygon, cycles):
    assert len(cycles) == 6
    seen = [v for c in cycles for v in c.vertices]
    assert len(seen) == 20
    assert set(seen) == set(polygon.labels)


def test_cycle_angle_sums(cycles):
    for c in cycles:
        assert c.nu == 1
        assert sum(c.fifths) == 10


def test_gauss_bonnet_and_multiplicities_in_integers(polygon, pairings, cycles):
    # area (n - 2)pi - (angle sum) = -2 pi chi, in fifths of pi: 6 pi
    chi = classify_identified_surface(polygon, pairings).euler_characteristic
    assert chi == -3
    assert 5 * (polygon.n_sides - 2) - sum(polygon.angle_fifths) == -10 * chi
    for c in cycles:
        assert sum(c.fifths) * c.nu == 10


def test_a_cycle_with_half_the_angle_has_multiplicity_two(polygon, pairings, cycles):
    # the registry's cycles all have nu = 1; halving the five 2pi/5
    # corners gives the five-term cycle angle sum pi, so nu = 2, and
    # the presentation repeats its relator twice
    halved = polygon._replace(
        angle_fifths=tuple(1 if f == 2 else f for f in polygon.angle_fifths)
    )
    changed = vertex_cycles(halved, pairings)
    assert [c.word for c in changed] == [c.word for c in cycles]
    assert [c.nu for c in changed] == [2 if len(c.vertices) == 5 else 1 for c in cycles]
    five = poincare_presentation([c for c in cycles if len(c.vertices) == 5]).relators[0]
    assert poincare_presentation(changed).relators == tuple(
        r * r if r == five else r for r in poincare_presentation(cycles).relators
    )


@pytest.mark.parametrize("shift", [lambda f: 3, lambda f: f + 1])
def test_an_angle_sum_that_does_not_divide_two_pi_is_rejected(polygon, pairings, shift):
    bad = polygon._replace(angle_fifths=tuple(map(shift, polygon.angle_fifths)))
    with pytest.raises(ValueError, match="angle sum"):
        vertex_cycles(bad, pairings)


def test_the_exact_stages_build_without_an_embedding(monkeypatch):
    fd = fundamental_domain()

    def refuse(ball):
        raise AssertionError("an exact stage embedded the ball")

    monkeypatch.setattr(geometry, "embed_ball", refuse)
    polygon = dirichlet._polygon(build_ball(J4P, 4))
    pairings = side_pairings(polygon)
    cycles = vertex_cycles(polygon, pairings)
    assert polygon == fd.polygon
    assert tuple(pairings) == fd.pairings
    assert tuple(cycles) == fd.cycles
    assert poincare_presentation(cycles) == fd.presentation


def test_a_boundary_that_is_not_one_cycle_is_refused(monkeypatch):
    # the shared cycle walk, handed the boundary less one segment, finds
    # a path, and the polygon stage reports a broken boundary
    monkeypatch.setattr(dirichlet, "_cycle", lambda segments: _cycle(list(segments)[1:]))
    with pytest.raises(ValueError, match="^boundary is not a cycle at "):
        dirichlet._polygon(build_ball(J4P, 4))


def test_the_pipeline_never_embeds(monkeypatch):
    def refuse(ball):
        raise AssertionError("the pipeline embedded the ball")

    monkeypatch.setattr(geometry, "embed_ball", refuse)
    assert dirichlet._domain(J4P) == fundamental_domain()


def test_anchored_five_cycle(cycles):
    five = next(c for c in cycles if len(c.generators) == 5)
    assert five.generators == tuple(CYCLE_5["generators"])
    assert list(five.vertices) == [canon(w) for w in CYCLE_5["vertices"]]
    assert list(five.fifths) == CYCLE_5["fifths"]


def test_three_cycles_match_reference(cycles):
    threes = [c for c in cycles if len(c.generators) == 3]
    assert len(threes) == 5
    for ref in CYCLES_3:
        want_verts = {canon(w) for w in ref["vertices"]}
        match = next(c for c in threes if set(c.vertices) == want_verts)
        assert sorted(match.fifths) == sorted(ref["fifths"])


def test_cycles_compose_to_identity(cycles):
    for c in cycles:
        total = None
        for name in c.generators:
            g = standard_generator(name)
            total = g if total is None else g.compose(total)
        assert total.is_identity


def test_cycles_are_words_over_the_translation_alphabet(cycles):
    for c in cycles:
        assert c.word.alphabet == TRANSLATIONS
        assert c.generators == tuple(str(c.word[i : i + 1]) for i in range(len(c.word)))


def test_pairings_and_cycles_read_the_table(polygon, monkeypatch):
    # the twenty elements are built once, at import: the pairings build
    # none, and the cycles one for each composition along a cycle
    built = []
    original = PureElement.__init__

    def counting(self, j4p_form, parity):
        built.append(j4p_form)
        original(self, j4p_form, parity)

    monkeypatch.setattr(PureElement, "__init__", counting)
    pairings = side_pairings(polygon)
    assert built == []
    cycles = vertex_cycles(polygon, pairings)
    assert len(built) == sum(len(c.generators) - 1 for c in cycles) == 14
    PureElement(P.word("s13 s24 s13 s24"), 0)
    assert len(built) == 15  # the wrapper counts


def test_cycle_walk_traverses_vertices(cycles):
    for c in cycles:
        vertex = c.vertices[0]
        for name, expected_next in zip(
            c.generators, c.vertices[1:] + c.vertices[:1]
        ):
            g = standard_generator(name)
            vertex = gamma(g, vertex)
            assert vertex == expected_next


# ---------------------------------------------------------------------------
# presentation


def test_presentation_generators_and_relator_count(pairings, cycles):
    pres = poincare_presentation(cycles)
    assert pres.alphabet.names() == tuple(f"g{i}" for i in range(1, 11))
    assert len(pres.relators) == 6


def test_presentation_relators_match_reference(pairings, cycles):
    pres = poincare_presentation(cycles)
    for text in TEN_GEN_RELATORS:
        want = pres.word(text)
        assert any(same_relator_class(r, want) for r in pres.relators)


# ---------------------------------------------------------------------------
# surface classification


def test_surface_classification(polygon, pairings):
    sc = classify_identified_surface(polygon, pairings)
    assert sc.euler_characteristic == -3
    assert not sc.orientable
    assert sc.name == "N_5 = #_5 RP^2"


def test_surface_euler_count_breakdown(cycles, pairings):
    # chi = corner classes - side pairs + one face
    assert len(cycles) - len(pairings) + 1 == -3


def toy(text):
    return Word.parse(Alphabet([Generator("a"), Generator("b")]), text)


def test_toy_projective_plane():
    sc = classify_identified_surface(toy("a b a b"))
    assert sc.euler_characteristic == 1
    assert not sc.orientable
    assert sc.name == "N_1 = #_1 RP^2"


def test_toy_torus():
    sc = classify_identified_surface(toy("a b a^-1 b^-1"))
    assert sc.euler_characteristic == 0
    assert sc.orientable


def test_toy_sphere_and_cross_cap():
    assert classify_identified_surface(toy("a a^-1")).euler_characteristic == 2
    assert classify_identified_surface(toy("a a^-1")).orientable
    cap = classify_identified_surface(toy("a a"))
    assert cap.euler_characteristic == 1 and not cap.orientable


def test_bad_surface_word_rejected():
    with pytest.raises(ValueError):
        classify_identified_surface(toy("a b a"))


def test_empty_surface_word_rejected():
    # no side, no polygon: the empty word glues up no closed surface
    with pytest.raises(ValueError, match="no closed surface"):
        classify_identified_surface(Word(TRANSLATIONS, ()))


def test_polygon_classification_needs_pairings(polygon):
    with pytest.raises(ValueError):
        classify_identified_surface(polygon)
