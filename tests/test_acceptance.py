"""Thirteen acceptance checks, one per registry criterion.

Each test runs one numbered check from the shared verification
registry and reports a single pass/fail line; the ``verify-all``
command drives the same registry, so this file and the CLI agree by
construction.
"""

import ast
import doctest
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cactus45
import cactus45.reference as ref
from cactus45 import cli
from cactus45.cactus import J4P
from cactus45.complex import build_ball
from cactus45.dirichlet import (
    _polygon,
    fundamental_domain,
    poincare_presentation,
    side_pairings,
    vertex_cycles,
)
from cactus45.verify import CRITERIA, run_criterion

import fixtures


def _run(number: int) -> None:
    result = run_criterion(number)
    mark = "PASS" if result.passed else "FAIL"
    print(f"[{mark}] criterion {result.number} ({result.name}): {result.details}")
    assert result.passed, (
        f"criterion {result.number} ({result.name}): {result.details}"
    )


def test_criterion_01_sphere_counts_and_tables():
    _run(1)


def test_criterion_02_pure_element_enumeration():
    _run(2)


def test_criterion_03_central_images_and_parity_law():
    _run(3)


def test_criterion_04_reversal_conjugation_table():
    _run(4)


def test_criterion_05_cayley_complex_structure():
    _run(5)


def test_criterion_06_edge_length_and_face_angles():
    _run(6)


def test_criterion_07_fundamental_polygon():
    _run(7)


def test_criterion_08_side_pairings():
    _run(8)


def test_criterion_09_corner_cycles_and_presentation():
    _run(9)


def test_criterion_10_one_relator_reduction():
    _run(10)


def test_criterion_11_companion_isomorphisms():
    _run(11)


def test_criterion_12_surface_classification():
    _run(12)


def test_criterion_13_action_properties():
    _run(13)


def test_registry_is_complete():
    assert [number for number, _, _ in CRITERIA] == list(range(1, 14))
    names = [name for _, name, _ in CRITERIA]
    assert len(set(names)) == 13


def test_reference_tables_agree_with_test_fixtures():
    # the package ships its own frozen copy of the tables (the installed
    # CLI cannot import the test tree); both copies must stay identical
    assert ref.SHORT_PURE_WORDS == fixtures.A_WORDS
    assert ref.EQUIVALENT_SPELLINGS[0] == fixtures.A_WORDS[16]
    assert ref.TRANSLATION_GENERATORS == fixtures.G_DEF
    assert ref.TRANSLATION_INVERSES == fixtures.G_INV_DEF
    assert ref.INVERSE_PARTNERS == fixtures.A_INVERSE_PAIRS
    assert ref.CENTRAL_IMAGES == fixtures.PI_A
    assert list(ref.SPHERE2_WORDS) == fixtures.LENGTH2_WORDS
    assert list(ref.SPHERE3_WORDS) == fixtures.TABLE_LENGTH3
    assert list(ref.SPHERE4_WORDS) == fixtures.TABLE_LENGTH4_PRINTED
    assert ref.SPHERE4_REPEATED_SPELLING == fixtures.TABLE_LENGTH4_DUPLICATE
    assert ref.SPHERE4_UNLISTED_ELEMENT == fixtures.TABLE_LENGTH4_MISSING
    assert list(ref.IDENTITY_FACES) == fixtures.FACES_AT_E
    assert list(ref.CORNERS_AT_2PI5) == list(fixtures.V_WORDS.values())
    assert list(ref.CORNERS_AT_4PI5) == fixtures.ANGLE_4PI5_CORNERS
    assert list(ref.CORNERS_AT_3PI5) == fixtures.ANGLE_3PI5_CORNERS
    assert ref.SIDE_PAIRING_TABLE == fixtures.SIDE_PAIRINGS
    assert ref.FIVE_TERM_CYCLE["generators"] == tuple(
        fixtures.CYCLE_5["generators"]
    )
    assert ref.FIVE_TERM_CYCLE["vertices"] == tuple(fixtures.CYCLE_5["vertices"])
    assert list(ref.FIVE_TERM_CYCLE["fifths"]) == fixtures.CYCLE_5["fifths"]
    assert len(ref.THREE_TERM_CYCLES) == len(fixtures.CYCLES_3) == 5
    for mine, theirs in zip(ref.THREE_TERM_CYCLES, fixtures.CYCLES_3):
        assert mine["generators"] == tuple(theirs["generators"])
        assert mine["vertices"] == tuple(theirs["vertices"])
        assert list(mine["fifths"]) == theirs["fifths"]
    assert list(ref.CYCLE_RELATORS) == fixtures.TEN_GEN_RELATORS


def _public_callables():
    for info in pkgutil.iter_modules(cactus45.__path__):
        module = importlib.import_module(f"cactus45.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(inspect.unwrap(obj)):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):
                yield f"{info.name}.{name}", obj
                for attr, member in vars(obj).items():
                    if isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    if inspect.isfunction(member) and not (
                        attr.startswith("_") and attr != "__init__"
                    ):
                        yield f"{info.name}.{name}.{attr}", member


def test_no_search_budgets_or_inconclusive_verdicts():
    # every verdict is exact: the one budget parameter left is the one
    # sphere ignores, kept for the benchmark's growth pass
    with_budget = []
    for qualname, fn in _public_callables():
        try:
            params = inspect.signature(fn).parameters
        except (TypeError, ValueError):
            continue
        if "budget" in params:
            with_budget.append(qualname)
    assert with_budget == ["rewrite.sphere"]
    exit_codes = {n: v for n, v in vars(cli).items() if n.startswith("EXIT_")}
    assert not any("INCONCLUSIVE" in n for n in exit_codes)
    assert sorted(exit_codes.values()) == [0, 1, 64]


def test_package_modules_use_every_import():
    unused = []
    for path in sorted(Path(cactus45.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                imported |= {
                    alias.asname or alias.name.split(".")[0] for alias in node.names
                }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert unused == []


def test_only_the_words_layer_spells_inverses():
    # the inverse marker is read and written by words.py alone; every
    # other module names an inverse through the letter codes
    spelled = []
    for path in sorted(Path(cactus45.__file__).parent.glob("*.py")):
        if path.name == "words.py":
            continue
        spelled += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and node.value == "^-1"
        ]
    assert spelled == []


def test_relator_moves_have_one_vocabulary():
    # words.py alone lists rotations; the relator forms, the move type
    # and the rotation tables they replaced are not spelled twice
    retired = {"CertMove", "_sanctioned", "_relator_forms", "_relator_rotations"}
    found = []
    for path in sorted(Path(cactus45.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name in retired:
                    found.append(f"{path.name}:{node.lineno} defines {node.name}")
            elif isinstance(node, ast.Call) and path.name != "words.py":
                callee = node.func
                name = getattr(callee, "id", getattr(callee, "attr", None))
                if name == "rotations":
                    found.append(f"{path.name}:{node.lineno} calls rotations")
    assert found == []


def test_readme_examples_run():
    # the python blocks of README.md share one namespace, in order
    readme = Path(cactus45.__file__).parents[2] / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    globs: dict = {}
    for i, block in enumerate(blocks):
        test = parser.get_doctest(block, globs, f"README block {i}", str(readme), 0)
        runner.run(test, clear_globs=False)
        globs = test.globs  # a DocTest runs in a copy of what it is given
    result = runner.summarize(verbose=False)
    assert result.failed == 0 and result.attempted >= 14, result


def test_package_imports_only_the_stdlib():
    outside = []
    for path in sorted(Path(cactus45.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []

    script = (
        "import contextlib, io, sys\n"
        "from cactus45.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['tietze'])\n"
        "print(code, 'sympy' in sys.modules)\n"
    )
    src = str(Path(cactus45.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert done.stdout.split() == ["0", "False"], done.stderr


def test_records_generate_no_code_at_import():
    # `dataclasses` builds each record's methods with `exec` and loads
    # `inspect`; a cold command pays for both before it does any work
    importers = []
    for path in sorted(Path(cactus45.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            importers += [path.name for name in names if name.split(".")[0] == "dataclasses"]
    assert importers == []

    script = (
        "import contextlib, io, sys\n"
        "from cactus45.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['verify-all'])\n"
        "print(code, 'dataclasses' in sys.modules, 'inspect' in sys.modules)\n"
    )
    src = str(Path(cactus45.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert done.stdout.split() == ["0", "False", "False"], done.stderr


def test_record_methods_are_written_only_in_words():
    # `words.Record` holds the record convention once; a class elsewhere
    # that defines one of these keeps a second copy of it
    names = {"__eq__", "__hash__", "__setattr__", "__delattr__", "__reduce__"}
    found = []
    for path in sorted(Path(cactus45.__file__).parent.glob("*.py")):
        if path.name == "words.py":
            continue
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defined = [node.name]
                elif isinstance(node, ast.Assign):
                    defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
                else:
                    continue
                found += [f"{path.name}:{cls.name}.{n}" for n in defined if n in names]
    assert found == []


def test_no_module_caches_outside_the_presentation_memo():
    # every derived value is kept by `Presentation.derived`, on the
    # presentation it comes from: no module reaches for functools or a
    # cache decorator
    found = []
    for path in sorted(Path(cactus45.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module] + [alias.name for alias in node.names]
            else:
                names = [getattr(node, "id", getattr(node, "attr", None))]
            found += [f"{path.stem}:{n}" for n in names if n in ("functools", "lru_cache", "cache")]
    assert found == []


def test_no_module_defines_a_tolerance_constant():
    # the construction is exact, and the embedding composes isometries
    # with no closure check to tolerate
    names = []
    for path in sorted(Path(cactus45.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            names += [
                f"{path.stem}.{t.id}"
                for t in targets
                if isinstance(t, ast.Name) and t.id.endswith("_TOL")
            ]
    assert names == []


def test_the_exact_stages_import_no_float_machinery():
    # dirichlet.py builds the polygon, pairings, cycles and presentation
    # exactly, and takes nothing from geometry
    tree = ast.parse((Path(cactus45.__file__).parent / "dirichlet.py").read_text())
    modules = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    }
    modules |= {
        node.module for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0
    }
    assert not {"math", "cmath"} & modules
    from_geometry = sorted(
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "geometry"
        for alias in node.names
    )
    assert from_geometry == []


def test_fundamental_domain_matches_stage_functions():
    fd = fundamental_domain()
    assert fundamental_domain() is fd
    ball = build_ball(J4P, 4)
    polygon = _polygon(ball)
    pairings = side_pairings(polygon)
    cycles = vertex_cycles(polygon, pairings)
    assert fd.polygon == polygon
    assert fd.pairings == tuple(pairings)
    assert fd.cycles == tuple(cycles)
    assert fd.presentation == poincare_presentation(cycles)
    assert type(fd)._fields == ("polygon", "pairings", "cycles", "presentation")
