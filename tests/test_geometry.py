import cmath
import math
import random
import xml.etree.ElementTree as ET

import pytest

from cactus45 import (
    build_ball,
    canonical_form,
    j4_presentation,
    j4prime_presentation,
    vertex_link,
)
from cactus45.geometry import (
    HPoint,
    Mobius,
    _compose,
    _edge_symmetries,
    edge_length_45,
    embed_ball,
    hyp_distance,
    render_svg,
    to_klein,
)
from cactus45.words import Word

from fixtures import A_WORDS
from geometry_oracle import (
    from_klein,
    halfplane_intersection,
    hyp_midpoint,
    mobius_compose,
    mobius_rotation,
    perpendicular_bisector,
    side_lengths,
)

P = j4prime_presentation()
R = edge_length_45()


def w(text):
    return P.word(text)


@pytest.fixture(scope="module")
def ball2():
    return build_ball(P, 2)


@pytest.fixture(scope="module")
def ball4():
    return build_ball(P, 4)


@pytest.fixture(scope="module")
def emb4(ball4):
    return embed_ball(ball4)


def rand_point(rng):
    r = math.sqrt(rng.random()) * 0.9
    a = rng.random() * 2 * math.pi
    return HPoint(r * math.cos(a), r * math.sin(a))


def test_edge_length_value():
    assert abs(R - 1.253739) < 1e-6
    assert abs(math.cosh(R) - 1.0 / math.tan(math.pi / 5) ** 2) < 1e-12
    assert abs(math.cosh(R) - 1.894427) < 1e-6


def test_edge_length_meets_the_half_edge_identity():
    # in the regular {4,5} tiling the right triangle of a square's
    # centre, a corner and a side midpoint has angles pi/4 and pi/5,
    # so cosh(R/2) = cos(pi/4)/sin(pi/5)
    assert abs(math.cosh(R / 2) - math.cos(math.pi / 4) / math.sin(math.pi / 5)) < 1e-15


def test_hpoint_validation():
    with pytest.raises(ValueError):
        HPoint(1.0, 0.0)
    assert HPoint.from_complex(0.3 + 0.4j).z == 0.3 + 0.4j


def test_distance_basics():
    p = HPoint(0.3, -0.2)
    assert hyp_distance(p, p) == 0.0
    assert abs(hyp_distance(0j, math.tanh(R / 2)) - R) < 1e-12
    rng = random.Random(3)
    for _ in range(25):
        a, b, c = (rand_point(rng) for _ in range(3))
        assert abs(hyp_distance(a, b) - hyp_distance(b, a)) < 1e-12
        assert hyp_distance(a, c) <= hyp_distance(a, b) + hyp_distance(b, c) + 1e-12


def test_mobius_roundtrip():
    rng = random.Random(8)
    for _ in range(20)	:
        m = Mobius.translation(complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)))
        m = mobius_compose(m, mobius_rotation(rng.uniform(0, 2 * math.pi)))
        z = rand_point(rng).z
        assert abs(m(z)) < 1.0
        assert abs(m.inverse()(m(z)) - z) < 1e-12
        z2 = rand_point(rng).z
        assert abs(
            hyp_distance(m(z), m(z2)) - hyp_distance(z, z2)
        ) < 1e-9


def test_klein_roundtrip():
    rng = random.Random(4)
    for _ in range(30):
        z = rand_point(rng).z
        assert abs(from_klein(to_klein(z)) - z) < 1e-12


def test_embedding_normalization(emb4):
    assert abs(emb4[w("e")].z) < 1e-12
    f12 = emb4[w("s12")].z
    assert abs(f12 - math.tanh(R / 2)) < 1e-9
    # neighbors of the identity fan out counterclockwise at 2*pi/5 steps
    for k, name in enumerate(["s12", "s13", "s23", "s24", "s34"]):
        z = emb4[w(name)].z
        assert abs(abs(z) - math.tanh(R / 2)) < 1e-9
        angle = (cmath.phase(z) - 2 * math.pi * k / 5) % (2 * math.pi)
        assert min(angle, 2 * math.pi - angle) < 1e-9


def test_embedded_edges_have_length_R(ball2, emb4):
    for u, v, _s in ball2.edges:
        assert abs(hyp_distance(emb4[u], emb4[v]) - R) < 1e-6


def test_embedding_agrees_with_link_order(ball4, emb4):
    e = ball4.identity()
    link = vertex_link(ball4, e)
    angles = [cmath.phase(emb4[v].z) % (2 * math.pi) for v in link]
    diffs = [(angles[(i + 1) % 5] - angles[i]) % (2 * math.pi) for i in range(5)]
    for d in diffs:
        assert abs(d - 2 * math.pi / 5) < 1e-9


def test_embedded_faces_are_regular(ball4, emb4):
    diag = math.acosh(math.cosh(R) ** 2 - math.sinh(R) ** 2 * math.cos(2 * math.pi / 5))
    for f in ball4.faces:
        zs = [emb4[v] for v in f.boundary]
        for i in range(4):
            assert abs(hyp_distance(zs[i], zs[(i + 1) % 4]) - R) < 1e-6
        for i in range(2):
            assert abs(hyp_distance(zs[i], zs[i + 2]) - diag) < 1e-6


def test_embedding_contracts_graph_distance(ball4, emb4):
    from cactus45 import invert

    rng = random.Random(12)
    vs = list(ball4.vertices)
    for _ in range(40):
        u, v = rng.choice(vs), rng.choice(vs)
        graph_d = len(canonical_form(invert(u) * v, P))
        assert hyp_distance(emb4[u], emb4[v]) <= R * graph_d + 1e-6


def test_every_spelling_of_a_vertex_composes_to_its_point(ball4, emb4):
    # a relator or a generator square spliced into a vertex's normal
    # form spells the same vertex, and each composes to the identity, so
    # the edge symmetries along the longer spelling land on the same point
    edge = _edge_symmetries(P.alphabet.names())
    splices = P.forms + tuple((c, c) for c in range(len(P.alphabet)))
    rng = random.Random(45)
    vertices = list(ball4.vertices)
    for _ in range(200):
        v = rng.choice(vertices)
        codes = list(v.codes)
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(0, len(codes))
            codes[i:i] = rng.choice(splices)
        assert canonical_form(Word._from_codes(P.alphabet, codes), P) == v
        iso = (Mobius(1.0, 0j), False)
        for c in codes:
            iso = _compose(iso, edge[c])
        assert abs(iso[0](0j) - emb4[v].z) < 1e-12


def test_embedding_refuses_another_presentation():
    with pytest.raises(ValueError, match="J4' presentation"):
        embed_ball(build_ball(j4_presentation(), 1))


def test_bisector_basics():
    a, b = HPoint(0.1, 0.2), HPoint(-0.3, 0.4)
    g = perpendicular_bisector(a, b)
    m = hyp_midpoint(a, b)
    assert abs(hyp_distance(m, a) - hyp_distance(m, b)) < 1e-12
    assert abs(g.side(m)) < 1e-9
    with pytest.raises(ValueError):
        perpendicular_bisector(a, a)


def test_bisector_equidistance(emb4):
    fa = emb4[canonical_form(w(A_WORDS[1]), P)]
    fe = emb4[w("e")]
    g = perpendicular_bisector(fe, fa)
    for p in g.points(20):
        assert abs(hyp_distance(p, fe) - hyp_distance(p, fa)) < 1e-8


def test_bisector_swap_symmetric():
    a, b = HPoint(0.25, -0.1), HPoint(-0.15, 0.3)
    g1 = perpendicular_bisector(a, b)
    g2 = perpendicular_bisector(b, a)
    assert not g1.is_diameter and not g2.is_diameter
    assert abs(g1.center - g2.center) < 1e-9
    assert abs(g1.radius - g2.radius) < 1e-9


def test_geodesic_orthogonality():
    rng = random.Random(9)
    for _ in range(15):
        a, b = rand_point(rng), rand_point(rng)
        g = perpendicular_bisector(a, b)
        if not g.is_diameter:
            assert abs(abs(g.center) ** 2 - g.radius ** 2 - 1.0) < 1e-9


def test_halfplane_intersection_synthetic():
    r = math.tanh(R)
    sites = [
        HPoint.from_complex(r * cmath.exp(1j * math.pi * k / 5)) for k in range(10)
    ]
    poly = halfplane_intersection(HPoint(0, 0), sites)
    assert poly.contains(HPoint(0, 0))
    assert all(a < math.pi - 1e-9 for a in poly.interior_angles())


def test_halfplane_unbounded_rejected():
    with pytest.raises(ValueError):
        halfplane_intersection(HPoint(0, 0), [HPoint(0.5, 0)])


def test_halfplane_center_site_clash():
    with pytest.raises(ValueError):
        halfplane_intersection(HPoint(0.1, 0), [HPoint(0.1, 0)])


@pytest.fixture(scope="module")
def metric_cell(emb4):
    center = emb4[w("e")]
    sites = [emb4[canonical_form(w(A_WORDS[i]), P)] for i in range(1, 21)]
    return halfplane_intersection(center, sites)


# the true metric bisector cell of the twenty shortest orbit points;
# its corners are the ten length-3 vertices equidistant between the
# identity and the nearest sites
TEN_GON_CORNERS = [
    "s12 s13 s34", "s13 s24 s23", "s13 s12 s24", "s23 s12 s34",
    "s23 s24 s13", "s24 s12 s13", "s24 s23 s12", "s34 s13 s12",
    "s12 s34 s23", "s12 s23 s24",
]


def test_metric_cell_is_regular_ten_gon(metric_cell, emb4):
    poly = metric_cell
    assert poly.n_sides == 10
    assert poly.contains(HPoint(0, 0))
    # counterclockwise in the Klein chart
    ks = [to_klein(v.z) for v in poly.vertices]
    area2 = sum(
        (ks[i].real * ks[(i + 1) % 10].imag - ks[(i + 1) % 10].real * ks[i].imag)
        for i in range(10)
    )
    assert area2 > 0
    # corners land on the ten length-3 tiling vertices
    want = {canonical_form(w(t), P) for t in TEN_GON_CORNERS}
    matched = set()
    for v in poly.vertices:
        hits = [u for u in want if hyp_distance(v, emb4[u]) < 1e-8]
        assert len(hits) == 1
        matched.add(hits[0])
    assert matched == want
    lengths = side_lengths(poly)
    assert max(lengths) - min(lengths) < 1e-8


def test_metric_cell_angles_and_area(metric_cell):
    angles = metric_cell.interior_angles()
    for a in angles:
        assert abs(a - math.pi / 5) < 1e-6
    # Gauss-Bonnet: area = (n-2)*pi - angle sum = 6*pi, the covolume
    assert abs((10 - 2) * math.pi - sum(angles) - 6 * math.pi) < 1e-6


def test_metric_cell_membership(metric_cell, emb4):
    # across-a-face diagonal partners of the identity sit strictly
    # inside; bent length-2 vertices fall strictly outside
    for t in ("s12 s13", "s13 s12", "s23 s24", "s24 s23", "s12 s34"):
        assert metric_cell.contains(emb4[canonical_form(w(t), P)], tol=-1e-6)
    for t in ("s13 s24", "s12 s23", "s23 s34", "s34 s13", "s24 s12"):
        assert not metric_cell.contains(emb4[canonical_form(w(t), P)])
    # the defining sites themselves are outside
    for i in range(1, 21):
        assert not metric_cell.contains(emb4[canonical_form(w(A_WORDS[i]), P)])


def test_render_empty_scene():
    svg = render_svg([])
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert len(root) == 1 and root[0].tag.endswith("circle")


def test_render_ball_scene(ball2, emb4):
    layers = [
        {"kind": "segments", "segments": [(emb4[u], emb4[v]) for u, v, _ in ball2.edges]},
        {"kind": "points", "points": [(emb4[v], str(v)) for v in ball2.vertices]},
    ]
    svg = render_svg(layers)
    assert svg == render_svg(layers)  # deterministic
    assert svg.count("<text") == 21
    assert svg.count("<path") + svg.count("<line") == 25
    ET.fromstring(svg)


def test_render_labels_only_a_point_paired_with_one(emb4):
    # a bare HPoint is a point, not a (point, label) pair
    p = emb4[w("s12 s23")]
    bare = render_svg([{"kind": "points", "points": [p]}])
    labelled = render_svg([{"kind": "points", "points": [(p, "e")]}])
    assert "<text" not in bare and labelled.count("<text") == 1
    assert ">e</text>" in labelled
    dots = [line for line in labelled.splitlines() if "<text" not in line]
    assert "\n".join(dots) == bare


def test_render_polygon_scene(metric_cell):
    colors = [f"hsl({36 * (i % 10)},70%,45%)" for i in range(10)]
    svg = render_svg(
        [{"kind": "polygon", "polygon": metric_cell, "side_colors": colors}]
    )
    assert svg.count("<g stroke=") == 10
    ET.fromstring(svg)


def test_render_bad_layer():
    with pytest.raises(ValueError):
        render_svg([{"kind": "sparkles"}])
