"""Command-line interface for the whole pipeline.

Subcommands cover sphere enumeration, the twenty short pure elements,
the Cayley complex, the fundamental polygon with its side pairings and
corner cycles, the induced presentation and its one-relator reduction,
certificate-checked isomorphism verification, SVG figures, and the
thirteen-point verification registry.  Reports serialize as
deterministic JSON (stable key order, no timestamps) or as plain-text
tables; exit codes are 0 for success, 1 for a failed check (including
a refuted isomorphism check), and 64 for usage errors, an `--out` or
`--svg` path that cannot be written among them.  Every word
problem the pipeline asks is decided exactly, so an isomorphism check
is either verified or refuted.

Sizes are capped so every run stays bounded: `sphere --length` at
most 12 (231,840 elements in J4') and `complex --radius` at most 8;
larger values are usage errors.  `verify-all --tolerance` must be a
finite number above 0 and at most 1e-3 (`MAX_TOLERANCE`): a looser one
would make the float cross-checks vacuous, so anything else is a usage
error too.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import __version__
from .action import TRANSLATIONS, TWENTY
from .cactus import j4_presentation, j4prime_presentation, project_to_symmetric
from .complex import build_ball, check_tiling
from .dirichlet import classify_identified_surface, fundamental_domain
from .geometry import HPolygon, embed_ball, render_svg
from .grouptheory import (
    STANDARD_ELIMINATIONS,
    TrivialityCertificate,
    abelianization_invariants,
    alt_isomorphism_pair,
    hom_well_defined,
    surface_isomorphism_pair,
    tietze_eliminate,
    verify_mutual_inverse,
)
from .rewrite import sphere
from .verify import run_all
from .words import TRIVIAL, Presentation

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 64

MAX_SPHERE_LENGTH = 12
MAX_BALL_RADIUS = 8
MAX_TOLERANCE = 1e-3


class UsageError(Exception):
    """Bad flag values detected after parsing."""


class RunReport(NamedTuple):
    """One command execution: its inputs and results."""

    command: str
    parameters: dict
    results: object
    version: str


# ---------------------------------------------------------------------------
# serialization helpers


def _presentation_dict(P: Presentation) -> dict:
    return {
        "generators": list(P.alphabet.names()),
        "relators": [str(r) for r in P.relators],
    }


def _abelianization_dict(P: Presentation) -> dict:
    free_rank, torsion = abelianization_invariants(P)
    return {"free_rank": free_rank, "torsion": list(torsion)}


def _abelianization_text(data: dict) -> str:
    parts = [f"Z^{data['free_rank']}"] if data["free_rank"] else []
    parts += [f"Z/{t}" for t in data["torsion"]]
    return " x ".join(parts) if parts else "trivial"


def _certificate_dict(cert: Optional[TrivialityCertificate]) -> Optional[dict]:
    if cert is None:
        return None
    return {
        "word": str(cert.word),
        "moves": [
            {
                "kind": move.kind,
                "position": move.position,
                "letters": [[name, exp] for name, exp in move.relator.letters],
            }
            for move in cert.moves
        ],
    }


def _verdict_dict(report, map_name: str) -> dict:
    return {
        "map": map_name,
        "verdict": report.verdict,
        "checks": [
            {
                "word": word,
                "oracle": oracle,
                "status": status,
                "certificate": _certificate_dict(cert),
            }
            for (word, oracle, status), cert in zip(
                report.details, report.certificates
            )
        ],
    }


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> List[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*headers), fmt.format(*("-" * w for w in widths))]
    lines += [fmt.format(*row) for row in rows]
    return lines


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (parameters, results, exit code)


def _check_limit(flag: str, value: int, limit: int) -> None:
    if value > limit:
        raise UsageError(f"{flag} {value} is above the limit of {limit}")


def _cmd_sphere(args) -> Tuple[dict, dict, int]:
    _check_limit("--length", args.length, MAX_SPHERE_LENGTH)
    P = j4prime_presentation() if args.group == "j4p" else j4_presentation()
    words = sphere(P, args.length)
    params = {"group": args.group, "length": args.length}
    results = {
        "count": len(words),
        "words": [str(w) for w in words],
    }
    return params, results, EXIT_OK


def _cmd_pure(args) -> Tuple[dict, dict, int]:
    n = len(TRANSLATIONS)
    rows = [
        {
            "name": TRANSLATIONS.spell(c),
            "word": str(TWENTY[c].j4p_form),
            "parity": TWENTY[c].parity,
            "inverse": TRANSLATIONS.spell(TRANSLATIONS.inverse[c]),
            "image": str(project_to_symmetric(TWENTY[c].j4p_form, 4)),
        }
        for c in [*range(n), *(~i for i in range(n))]
    ]
    return {}, {"count": len(rows), "elements": rows}, EXIT_OK


def _cmd_complex(args) -> Tuple[dict, dict, int]:
    _check_limit("--radius", args.radius, MAX_BALL_RADIUS)
    P = j4prime_presentation()
    ball = build_ball(P, args.radius)
    histogram: Dict[str, int] = {}
    for _, dist in ball.vertices.items():
        histogram[str(dist)] = histogram.get(str(dist), 0) + 1
    results = {
        "radius": args.radius,
        "vertex_count": len(ball.vertices),
        "edge_count": len(ball.edges),
        "face_count": len(ball.faces),
        "interior_count": len(ball.interior),
        "distance_histogram": histogram,
    }
    code = EXIT_OK
    if args.radius >= 3:
        report = check_tiling(ball)
        results["tiling"] = {
            "ok": report.ok,
            "failures": list(report.failures),
            "vertex_count": report.vertex_count,
            "interior_count": report.interior_count,
        }
        if not report.ok:
            code = EXIT_CHECK_FAILED
    return {"radius": args.radius}, results, code


def _dirichlet_results() -> dict:
    fd = fundamental_domain()
    poly = fd.polygon
    surface = classify_identified_surface(poly, fd.pairings)
    return {
        "corners": [
            {"label": str(label), "fifths": fifths}
            for label, fifths in zip(poly.labels, poly.angle_fifths)
        ],
        "side_kinds": list(poly.side_kinds),
        "pairings": [
            {
                "generator": TRANSLATIONS.spell(row.code),
                "source": [str(w) for w in row.source],
                "target": [str(w) for w in row.target],
            }
            for row in fd.pairings
        ],
        "cycles": [
            {
                "generators": list(c.generators),
                "vertices": [str(v) for v in c.vertices],
                "fifths": list(c.fifths),
                "nu": c.nu,
                "angle_sum_fifths": sum(c.fifths),
            }
            for c in fd.cycles
        ],
        "surface": {
            "euler_characteristic": surface.euler_characteristic,
            "orientable": surface.orientable,
            "name": surface.name,
        },
    }


def _cmd_dirichlet(args) -> Tuple[dict, dict, int]:
    return {}, _dirichlet_results(), EXIT_OK


def _cmd_presentation(args) -> Tuple[dict, dict, int]:
    pres = fundamental_domain().presentation
    results = _presentation_dict(pres)
    results["abelianization"] = _abelianization_dict(pres)
    return {}, results, EXIT_OK


def _cmd_tietze(args) -> Tuple[dict, dict, int]:
    before = fundamental_domain().presentation
    after = tietze_eliminate(before, STANDARD_ELIMINATIONS)
    results = {
        "before": _presentation_dict(before),
        "after": _presentation_dict(after),
        "eliminations": [list(pair) for pair in STANDARD_ELIMINATIONS],
        "abelianization_before": _abelianization_dict(before),
        "abelianization_after": _abelianization_dict(after),
    }
    return {}, results, EXIT_OK


def _cmd_isocheck(args) -> Tuple[dict, dict, int]:
    pair = alt_isomorphism_pair if args.which == "alt" else surface_isomorphism_pair
    f, g = pair()
    forward = hom_well_defined(f)
    backward = hom_well_defined(g)
    round_trips = verify_mutual_inverse(f, g)
    verdicts = [forward.verdict, backward.verdict, round_trips.verdict]
    if all(v == "verified" for v in verdicts):
        overall, code = "verified", EXIT_OK
    else:
        overall, code = "refuted", EXIT_CHECK_FAILED
    results = {
        "which": args.which,
        "verdict": overall,
        "forward": _verdict_dict(forward, f.name or "f"),
        "backward": _verdict_dict(backward, g.name or "g"),
        "round_trips": _verdict_dict(
            round_trips, f"{f.name or 'f'}/{g.name or 'g'}"
        ),
    }
    return {"which": args.which}, results, code


_PALETTE = [f"hsl({i * 36}, 70%, 45%)" for i in range(10)]


def _render_layers(what: str) -> List[dict]:
    tiling = build_ball(j4prime_presentation(), 4)
    emb, identity = embed_ball(tiling), tiling.identity()

    def edges(ball_edges, color: str, width: int) -> dict:
        segments = [(emb[u], emb[v]) for u, v, _ in ball_edges]
        return {"kind": "segments", "segments": segments, "color": color,
                "width": width}

    def origin(color: str) -> dict:
        return {"kind": "points", "points": [(emb[identity], "e")], "color": color}

    if what == "ball":
        # the radius-3 ball, cut out of the tiling by distance
        dist = tiling.vertices
        inner = [e for e in tiling.edges if max(dist[e[0]], dist[e[1]]) <= 3]
        points = [
            (emb[v], "e") if v == identity else emb[v]
            for v, d in dist.items() if d <= 3
        ]
        dots = {"kind": "points", "points": points, "color": "black"}
        return [edges(inner, "steelblue", 2), dots]
    if what == "tiling":
        return [edges(tiling.edges, "black", 1), origin("red")]
    # the fundamental polygon over the tiling, paired sides sharing color
    fd = fundamental_domain()
    side_color = {}
    for index, row in enumerate(fd.pairings):
        for side in (row.source, row.target):
            side_color[frozenset(side)] = _PALETTE[index]
    colors = [side_color[frozenset(side)] for side in fd.polygon.sides()]
    corners = HPolygon(tuple(emb[w] for w in fd.polygon.labels))
    polygon = {"kind": "polygon", "polygon": corners, "side_colors": colors}
    return [edges(tiling.edges, "#cccccc", 1), polygon, origin("black")]


def _write(path: str, data: bytes) -> None:
    """Write data to path; a path that cannot be written is a usage error."""
    try:
        with open(path, "wb") as handle:
            handle.write(data)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _cmd_render(args) -> Tuple[dict, dict, int]:
    svg = render_svg(_render_layers(args.what))
    _write(args.svg, svg.encode("utf-8"))
    params = {"what": args.what, "svg": args.svg}
    results = {"what": args.what, "svg": args.svg, "svg_bytes": len(svg)}
    return params, results, EXIT_OK


def _cmd_verify_all(args) -> Tuple[dict, dict, int]:
    outcomes = run_all(args.tolerance)
    results = {
        "criteria": [
            {
                "number": r.number,
                "name": r.name,
                "passed": r.passed,
                "details": r.details,
            }
            for r in outcomes
        ],
        "passed": all(r.passed for r in outcomes),
    }
    code = EXIT_OK if results["passed"] else EXIT_CHECK_FAILED
    return {"tolerance": args.tolerance}, results, code


_HANDLERS: Dict[str, Callable] = {
    "sphere": _cmd_sphere,
    "pure": _cmd_pure,
    "complex": _cmd_complex,
    "dirichlet": _cmd_dirichlet,
    "presentation": _cmd_presentation,
    "tietze": _cmd_tietze,
    "isocheck": _cmd_isocheck,
    "render": _cmd_render,
    "verify-all": _cmd_verify_all,
}


# ---------------------------------------------------------------------------
# text rendering


def _text_sphere(report: RunReport) -> List[str]:
    lines = [
        f"group {report.parameters['group']} length "
        f"{report.parameters['length']}: {report.results['count']} elements"
    ]
    lines += report.results["words"]
    return lines


def _text_pure(report: RunReport) -> List[str]:
    rows = [
        (row["name"], row["word"], row["inverse"], row["image"])
        for row in report.results["elements"]
    ]
    return _table(("name", "word", "inverse", "image"), rows)


def _text_complex(report: RunReport) -> List[str]:
    r = report.results
    lines = [
        f"radius {r['radius']}: {r['vertex_count']} vertices, "
        f"{r['edge_count']} edges, {r['face_count']} faces, "
        f"{r['interior_count']} interior",
    ]
    if "tiling" in r:
        t = r["tiling"]
        status = "ok" if t["ok"] else "FAILED"
        lines.append(f"tiling check: {status}")
        lines += [f"  {msg}" for msg in t["failures"]]
    return lines


def _angle_text(fifths_sum: int) -> str:
    if fifths_sum % 5 == 0:
        return f"{fifths_sum // 5}π"
    return f"{fifths_sum}π/5"


def _text_dirichlet(report: RunReport) -> List[str]:
    r = report.results
    lines = ["side pairings:"]
    lines += _table(
        ("generator", "source", "target"),
        [
            (
                row["generator"],
                " , ".join(row["source"]),
                " , ".join(row["target"]),
            )
            for row in r["pairings"]
        ],
    )
    lines.append("")
    lines.append("corner cycles:")
    lines += _table(
        ("generators", "corners", "fifths", "angle sum"),
        [
            (
                " ".join(c["generators"]),
                " ; ".join(c["vertices"]),
                " ".join(str(f) for f in c["fifths"]),
                _angle_text(c["angle_sum_fifths"]),
            )
            for c in r["cycles"]
        ],
    )
    surf = r["surface"]
    lines.append("")
    lines.append(
        f"identified surface: {surf['name']} "
        f"(Euler characteristic {surf['euler_characteristic']}, "
        f"{'orientable' if surf['orientable'] else 'nonorientable'})"
    )
    return lines


def _presentation_text(data: dict) -> str:
    return (
        "< "
        + ", ".join(data["generators"])
        + " | "
        + ", ".join(data["relators"])
        + " >"
    )


def _text_presentation(report: RunReport) -> List[str]:
    return [
        _presentation_text(report.results),
        "abelianization: " + _abelianization_text(report.results["abelianization"]),
    ]


def _text_tietze(report: RunReport) -> List[str]:
    r = report.results
    lines = ["before: " + _presentation_text(r["before"])]
    lines += [
        f"eliminate {name} = {word}" for name, word in r["eliminations"]
    ]
    lines.append("after:  " + _presentation_text(r["after"]))
    ab_before = r["abelianization_before"]
    ab_after = r["abelianization_after"]
    same = " (unchanged)" if ab_before == ab_after else " (CHANGED)"
    lines.append("abelianization: " + _abelianization_text(ab_before) + same)
    return lines


def _text_isocheck(report: RunReport) -> List[str]:
    r = report.results
    lines = [f"{r['which']}: {r['verdict']}"]
    for key in ("forward", "backward", "round_trips"):
        block = r[key]
        checked = len(block["checks"])
        trivial = sum(1 for c in block["checks"] if c["status"] == TRIVIAL)
        lines.append(
            f"  {key} ({block['map']}): {block['verdict']} "
            f"[{trivial}/{checked} identities trivial]"
        )
    return lines


def _text_render(report: RunReport) -> List[str]:
    r = report.results
    return [f"wrote {r['svg']} ({r['svg_bytes']} bytes, {r['what']})"]


def _text_verify_all(report: RunReport) -> List[str]:
    lines = []
    for c in report.results["criteria"]:
        mark = "PASS" if c["passed"] else "FAIL"
        lines.append(f"[{mark}] {c['number']:>2} {c['name']}: {c['details']}")
    total = len(report.results["criteria"])
    good = sum(1 for c in report.results["criteria"] if c["passed"])
    lines.append(f"{good}/{total} criteria passed")
    return lines


_TEXT_RENDERERS: Dict[str, Callable[[RunReport], List[str]]] = {
    "sphere": _text_sphere,
    "pure": _text_pure,
    "complex": _text_complex,
    "dirichlet": _text_dirichlet,
    "presentation": _text_presentation,
    "tietze": _text_tietze,
    "isocheck": _text_isocheck,
    "render": _text_render,
    "verify-all": _text_verify_all,
}


def emit_report(report: RunReport, format: str = "json") -> bytes:
    """Serialize a report with stable field ordering; wall time is
    deliberately omitted so identical runs emit identical bytes."""
    if format == "json":
        if not report.command and not report.results:
            return b"{}\n"
        envelope = {
            "command": report.command,
            "parameters": report.parameters,
            "results": report.results,
            "version": report.version,
        }
        return (
            json.dumps(envelope, sort_keys=True, indent=2) + "\n"
        ).encode("utf-8")
    if format == "text":
        if not report.command and not report.results:
            return b""
        renderer = _TEXT_RENDERERS.get(report.command)
        if renderer is None:
            body = json.dumps(report.results, sort_keys=True, indent=2)
            return (body + "\n").encode("utf-8")
        return ("\n".join(renderer(report)) + "\n").encode("utf-8")
    raise ValueError(f"unknown format {format!r}")


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _number(text: str, convert, ok, requirement: str):
    """convert(text) when it parses and satisfies ok.  Anything else is
    an argparse type error that states the requirement; a bare
    ValueError would make argparse name the converting function."""
    try:
        value = convert(text)
    except ValueError:
        value = None
    if value is None or not ok(value):
        raise argparse.ArgumentTypeError(f"{requirement}, not {text!r}")
    return value


def _nonnegative_int(text: str) -> int:
    return _number(text, int, lambda v: v >= 0, "must be a nonnegative integer")


def _positive_int(text: str) -> int:
    return _number(text, int, lambda v: v >= 1, "must be a positive integer")


def _tolerance(text: str) -> float:
    return _number(
        text,
        float,
        lambda v: math.isfinite(v) and 0 < v <= MAX_TOLERANCE,
        f"must be a finite number in (0, {MAX_TOLERANCE}]",
    )


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the report to this path")
    common.add_argument(
        "--format",
        choices=("json", "text"),
        default="json",
        help="report format (default json)",
    )

    parser = _Parser(prog="cactus45", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sphere", parents=[common], help="enumerate one sphere")
    p.add_argument("--group", choices=("j4", "j4p"), default="j4p")
    p.add_argument("--length", type=_nonnegative_int, required=True)

    sub.add_parser(
        "pure", parents=[common], help="list the twenty short pure elements"
    )

    p = sub.add_parser(
        "complex", parents=[common], help="build and check a Cayley ball"
    )
    p.add_argument("--radius", type=_positive_int, default=3)

    sub.add_parser(
        "dirichlet",
        parents=[common],
        help="fundamental polygon, pairings, cycles, surface",
    )
    sub.add_parser(
        "presentation",
        parents=[common],
        help="presentation induced by the corner cycles",
    )
    sub.add_parser(
        "tietze",
        parents=[common],
        help="reduce the induced presentation to one relator",
    )

    p = sub.add_parser(
        "isocheck",
        parents=[common],
        help="verify one companion isomorphism pair",
    )
    p.add_argument("--which", choices=("alt", "surface"), required=True)

    p = sub.add_parser("render", parents=[common], help="draw an SVG figure")
    p.add_argument("--what", choices=("ball", "tiling", "dirichlet"), required=True)
    p.add_argument("--svg", required=True, help="output SVG path")

    p = sub.add_parser(
        "verify-all",
        parents=[common],
        help="run the thirteen-point verification registry",
    )
    p.add_argument("--tolerance", type=_tolerance, default=1e-6)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    handler = _HANDLERS[args.command]
    try:
        parameters, results, code = handler(args)
        report = RunReport(
            command=args.command,
            parameters=parameters,
            results=results,
            version=__version__,
        )
        payload = emit_report(report, args.format)
        if args.out:
            _write(args.out, payload)
        else:
            sys.stdout.write(payload.decode("utf-8"))
    except UsageError as exc:
        sys.stderr.write(f"cactus45 {args.command}: error: {exc}\n")
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
