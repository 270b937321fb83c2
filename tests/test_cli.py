"""Command-line interface: exit codes, report shapes, determinism."""

import hashlib
import json
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from cactus45.cactus import j4prime_presentation
from cactus45.cli import (
    EXIT_OK,
    EXIT_USAGE,
    MAX_BALL_RADIUS,
    MAX_SPHERE_LENGTH,
    MAX_TOLERANCE,
    RunReport,
    emit_report,
    main,
)
from cactus45.complex import _construct
from cactus45.dirichlet import _domain
from cactus45.reference import CENTRAL_IMAGES, TRANSLATION_GENERATORS

from complex_helpers import forget, radii_built


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# exit codes and argument validation


def test_sphere_length_three(capsys):
    code, report, _ = run_json(capsys, "sphere", "--length", "3")
    assert code == EXIT_OK
    assert report["command"] == "sphere"
    assert report["parameters"] == {"group": "j4p", "length": 3}
    assert report["results"]["count"] == 40
    assert len(report["results"]["words"]) == 40


def test_sphere_full_group(capsys):
    code, report, _ = run_json(capsys, "sphere", "--group", "j4", "--length", "1")
    assert code == EXIT_OK
    assert report["results"]["count"] == 6


def test_sphere_negative_length_is_usage_error(capsys):
    code, out, err = run(capsys, "sphere", "--length", "-1")
    assert code == EXIT_USAGE
    assert out == ""
    assert "nonnegative" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("sphere", "--length", "13"), "--length 13"),
        (("sphere", "--group", "j4", "--length", "40"), "--length 40"),
        (("complex", "--radius", "9"), "--radius 9"),
    ],
)
def test_oversized_requests_are_usage_errors(capsys, argv, flag):
    # sphere --length is capped at 12 and complex --radius at 8
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert f"{flag} is above the limit" in err


def test_size_limits_are_the_documented_ones():
    assert (MAX_SPHERE_LENGTH, MAX_BALL_RADIUS) == (12, 8)


@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1", "-inf", "0.01"])
def test_tolerance_outside_the_limit_is_usage_error(capsys, value):
    # an infinite or loose tolerance would pass the float cross-checks
    # vacuously, and nan or a negative one would fail them as a check
    code, out, err = run(capsys, "verify-all", "--tolerance", value)
    assert code == EXIT_USAGE
    assert out == ""
    assert "--tolerance" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-all", "--tolerance", "abc"),
        ("complex", "--radius", "x"),
        ("sphere", "--length", "x"),
    ],
)
def test_unparsable_numbers_name_no_private_function(capsys, argv):
    # argparse names a type by its function when the function raises
    # ValueError; the message must state the requirement instead
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert f"argument {argv[1]}: must be " in err and f"not {argv[2]!r}" in err
    assert re.search(r"(?<![\w-])_[A-Za-z]", err) is None, err


def test_tolerance_limit_is_accepted(capsys):
    assert MAX_TOLERANCE == 1e-3
    code, out, _ = run_json(capsys, "verify-all", "--tolerance", "1e-3")
    assert code == EXIT_OK and out["results"]["passed"] is True
    assert out["parameters"] == {"tolerance": MAX_TOLERANCE}


def test_sphere_bad_budget_slack_is_usage_error(capsys):
    # the flag is gone: an old invocation fails loudly instead of
    # running with a setting it no longer has
    code, _, err = run(capsys, "sphere", "--length", "2", "--budget-slack", "1")
    assert code == EXIT_USAGE
    assert "error" in err


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == EXIT_USAGE


def test_missing_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == EXIT_USAGE


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "verify-all" in out


def test_render_requires_svg_path(capsys):
    code, _, err = run(capsys, "render", "--what", "ball")
    assert code == EXIT_USAGE
    assert "--svg" in err


# ---------------------------------------------------------------------------
# report plumbing


def test_out_flag_writes_file_and_silences_stdout(tmp_path, capsys):
    target = tmp_path / "sphere.json"
    code, out, _ = run(capsys, "sphere", "--length", "2", "--out", str(target))
    assert code == EXIT_OK
    assert out == ""
    report = json.loads(target.read_text())
    assert report["results"]["count"] == 15


@pytest.mark.parametrize(
    "argv, flag",
    [(("pure",), "--out"), (("render", "--what", "ball"), "--svg")],
)
def test_unwritable_output_path_is_usage_error(tmp_path, capsys, argv, flag):
    target = tmp_path / "missing" / "x.out"
    code, out, err = run(capsys, *argv, flag, str(target))
    assert code == EXIT_USAGE
    assert out == ""
    command = argv[0]
    assert err == f"cactus45 {command}: error: cannot write {target}: No such file or directory\n"
    assert not target.parent.exists()


def test_json_reports_are_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert main(["dirichlet", "--out", str(path)]) == EXIT_OK
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_json_reports_exclude_timing(capsys):
    _, report, _ = run_json(capsys, "sphere", "--length", "1")
    assert set(report) == {"command", "parameters", "results", "version"}


def test_version_is_the_project_version(capsys):
    import re

    import cactus45

    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "(.*)"$', pyproject, re.M).group(1) == cactus45.__version__
    _, report, _ = run_json(capsys, "sphere", "--length", "1")
    assert report["version"] == cactus45.__version__ == "0.1.0"


def test_emit_report_empty():
    empty = RunReport("", {}, {}, "")
    assert emit_report(empty, "json") == b"{}\n"
    assert emit_report(empty, "text") == b""


def test_emit_report_rejects_unknown_format():
    report = RunReport("sphere", {}, {"count": 1}, "0")
    with pytest.raises(ValueError):
        emit_report(report, "yaml")


# ---------------------------------------------------------------------------
# per-command payloads


def test_pure_text_table_has_twenty_rows(capsys):
    code, out, _ = run(capsys, "pure", "--format", "text")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 22  # header + rule + 20 rows
    assert lines[0].split() == ["name", "word", "inverse", "image"]
    assert sum(1 for line in lines if "^-1" in line) == 20  # partner column


def test_pure_json_matches_reference(capsys):
    _, report, _ = run_json(capsys, "pure")
    elements = report["results"]["elements"]
    assert report["results"]["count"] == 20
    by_name = {row["name"]: row for row in elements}
    assert set(by_name) == set(TRANSLATION_GENERATORS) | {
        name + "^-1" for name in TRANSLATION_GENERATORS
    }
    for name, (idx, parity) in TRANSLATION_GENERATORS.items():
        row = by_name[name]
        assert row["parity"] == parity
        assert row["inverse"] == name + "^-1"
        assert by_name[name + "^-1"]["inverse"] == name
        if idx in CENTRAL_IMAGES:
            assert row["image"] == CENTRAL_IMAGES[idx]
    for row in elements:
        assert row["image"] == ("(14)(23)" if row["parity"] else "e")
        assert len(row["word"].split()) == 4


def test_complex_radius_three(capsys):
    code, report, _ = run_json(capsys, "complex", "--radius", "3")
    assert code == EXIT_OK
    results = report["results"]
    assert results["vertex_count"] == 61
    assert results["edge_count"] == 80
    assert results["interior_count"] == 6
    assert results["distance_histogram"] == {"0": 1, "1": 5, "2": 15, "3": 40}
    assert results["tiling"]["ok"] is True


def test_complex_radius_two_skips_tiling_check(capsys):
    code, report, _ = run_json(capsys, "complex", "--radius", "2")
    assert code == EXIT_OK
    assert "tiling" not in report["results"]
    assert report["results"]["edge_count"] == 25


def test_dirichlet_json_shape(capsys):
    code, report, _ = run_json(capsys, "dirichlet")
    assert code == EXIT_OK
    results = report["results"]
    assert len(results["corners"]) == 20
    assert sorted(c["fifths"] for c in results["corners"]) == sorted(
        [2] * 5 + [3] * 10 + [4] * 5
    )
    assert [row["generator"] for row in results["pairings"]] == [
        f"g{i}" for i in range(1, 11)
    ]
    assert len(results["cycles"]) == 6
    assert all(c["angle_sum_fifths"] == 10 for c in results["cycles"])
    assert all(c["nu"] == 1 for c in results["cycles"])
    assert results["surface"] == {
        "euler_characteristic": -3,
        "orientable": False,
        "name": "N_5 = #_5 RP^2",
    }


def test_dirichlet_text_tables(capsys):
    code, out, _ = run(capsys, "dirichlet", "--format", "text")
    assert code == EXIT_OK
    assert out.count("2π") == 6  # one angle-sum cell per cycle
    assert "N_5 = #_5 RP^2" in out
    assert "side pairings:" in out and "corner cycles:" in out
    pairing_section = out.split("corner cycles:")[0]
    assert sum(1 for i in range(1, 11) if f"\ng{i} " in pairing_section) == 10


def test_presentation_payload(capsys):
    code, report, _ = run_json(capsys, "presentation")
    assert code == EXIT_OK
    results = report["results"]
    assert results["generators"] == [f"g{i}" for i in range(1, 11)]
    assert len(results["relators"]) == 6
    assert results["abelianization"] == {"free_rank": 4, "torsion": [2]}


def test_tietze_payload(capsys):
    code, report, _ = run_json(capsys, "tietze")
    assert code == EXIT_OK
    results = report["results"]
    assert results["after"]["generators"] == ["g2", "g4", "g8", "g9", "g10"]
    assert len(results["after"]["relators"]) == 1
    assert len(results["after"]["relators"][0].split()) == 10
    assert results["abelianization_before"] == results["abelianization_after"]
    assert [name for name, _ in results["eliminations"]] == [
        "g1", "g5", "g6", "g7", "g3",
    ]


@pytest.mark.parametrize("which", ["alt", "surface"])
def test_isocheck_verifies_with_certificates(which, capsys):
    code, report, _ = run_json(capsys, "isocheck", "--which", which)
    assert code == EXIT_OK
    results = report["results"]
    assert results["verdict"] == "verified"
    for key in ("forward", "backward", "round_trips"):
        block = results[key]
        assert block["verdict"] == "verified"
        for check in block["checks"]:
            assert check["status"] == "TRIVIAL"
            cert = check["certificate"]
            assert cert is not None
            assert isinstance(cert["moves"], list)
    assert len(results["round_trips"]["checks"]) == 10


def test_isocheck_requires_which(capsys):
    code, _, err = run(capsys, "isocheck")
    assert code == EXIT_USAGE
    assert "--which" in err


@pytest.mark.parametrize("what", ["ball", "tiling", "dirichlet"])
def test_render_writes_wellformed_svg(what, tmp_path, capsys):
    svg_path = tmp_path / f"{what}.svg"
    code, report, _ = run_json(
        capsys, "render", "--what", what, "--svg", str(svg_path)
    )
    assert code == EXIT_OK
    text = svg_path.read_text()
    assert text.startswith("<svg")
    ET.fromstring(text)
    assert report["results"]["svg_bytes"] == len(text)


def test_render_dirichlet_pairs_side_colors(tmp_path, capsys):
    svg_path = tmp_path / "poly.svg"
    run(capsys, "render", "--what", "dirichlet", "--svg", str(svg_path))
    text = svg_path.read_text()
    for i in range(10):
        # both sides of each pairing draw in the same hue: two strokes
        assert text.count(f'stroke="hsl({i * 36}, 70%, 45%)"') == 2


def test_render_ball_builds_one_ball_from_scratch(tmp_path, capsys, monkeypatch):
    # the drawing's radius-3 ball is cut by distance out of the radius-4
    # ball it embeds, so no smaller ball is built
    forget(monkeypatch, j4prime_presentation(), _construct, _domain)
    built = radii_built(monkeypatch)
    code, _, _ = run(capsys, "render", "--what", "ball", "--svg", str(tmp_path / "ball.svg"))
    assert code == EXIT_OK
    assert built == [4]


def test_verify_all_passes(capsys):
    code, report, _ = run_json(capsys, "verify-all")
    assert code == EXIT_OK
    results = report["results"]
    assert results["passed"] is True
    assert [c["number"] for c in results["criteria"]] == list(range(1, 14))
    assert all(c["passed"] for c in results["criteria"])


def test_verify_all_passes_at_a_tight_tolerance(capsys):
    # the float cross-checks deviate by about 1e-14 at most
    code, report, _ = run_json(capsys, "verify-all", "--tolerance", "1e-12")
    assert code == EXIT_OK
    assert report["results"]["passed"] is True


def test_verify_all_text_lines(capsys):
    code, out, _ = run(capsys, "verify-all", "--format", "text")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 14
    assert all(line.startswith("[PASS]") for line in lines[:13])
    assert lines[13] == "13/13 criteria passed"


# ---------------------------------------------------------------------------
# pinned bytes: every report and figure built from the fundamental domain

GOLDEN_VERIFY_ALL = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "verify_all.json"

REPORT_SHA256 = {
    "dirichlet": "544db1f2f821ef067dde6110c5c69c6522d3a191700cdf6dd5c169ab29a57ac0",
    "presentation": "e45e05201ec5689cfd18a1ed67313a9badf4fcbc2921995bcd4f91ff7ba05bc0",
    "tietze": "6075f2c289cbe45dd6a471722eb2baeb48a47bc06950b70d70bee6b7df9f1bb5",
    "pure": "60ba0ebb0516cc7d994858782f3233c3d948d7eabab522b731fbdb65b343a200",
    "isocheck --which alt": "0afcb6c1410854c8e88cd4c14315f9a7d904e28d10bbec8dc5c15036fc3da430",
    "isocheck --which surface": "c7463f1b43ada71d60ea278e01b9dd740e9dccd9c17f656641cd9c0601cf36a1",
}

SVG_SHA256 = {
    "ball": "bf3f1f186ecacd42963ae4b491c6751e74090b48d9fab23c7de7fd9a5f930226",
    "tiling": "ec8f225fb9d8e762d2ae664e36e09a3d0df239efa304bdd8a0dbf1751467f68d",
    "dirichlet": "ce9cfdbc8663eb8b9fff2d4223aadb4772c1096d5ab6dcd53bea1f70b2fbe386",
}


def test_verify_all_matches_the_golden_report(capsys):
    code, out, _ = run(capsys, "verify-all")
    assert code == EXIT_OK
    assert out.encode("utf-8") == GOLDEN_VERIFY_ALL.read_bytes()


@pytest.mark.parametrize("command", sorted(REPORT_SHA256))
def test_report_bytes_are_pinned(command, capsys):
    code, out, _ = run(capsys, *command.split())
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == REPORT_SHA256[command]


@pytest.mark.parametrize("what", sorted(SVG_SHA256))
def test_svg_bytes_are_pinned(what, tmp_path, capsys):
    svg_path = tmp_path / f"{what}.svg"
    assert main(["render", "--what", what, "--svg", str(svg_path)]) == EXIT_OK
    assert hashlib.sha256(svg_path.read_bytes()).hexdigest() == SVG_SHA256[what]
