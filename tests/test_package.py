"""The package's import graph: `import cactus45` loads no layer, each
public name loads the layer that defines it and those it imports, and
the CLI loads every layer at start."""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cactus45

SRC = str(Path(cactus45.__file__).parents[1])


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True
    )


def _loaded_after(statement):
    """The cactus45 submodules a fresh interpreter holds after statement."""
    script = (
        f"{statement}\n"
        "import json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('cactus45.'))))\n"
    )
    done = _python("-c", script)
    assert done.returncode == 0, done.stderr
    return [m.removeprefix("cactus45.") for m in json.loads(done.stdout)]


def test_import_cactus45_loads_no_layer():
    assert _loaded_after("import cactus45") == []


def test_words_equal_loads_only_its_layers():
    loaded = _loaded_after("from cactus45 import words_equal")
    assert loaded == ["cactus", "rewrite", "words"]


def test_the_verdict_record_loads_only_words():
    assert _loaded_after("from cactus45 import Verdict") == ["words"]


def test_the_cli_loads_every_layer_at_start():
    # the commands share one set of module-level imports, so a change to
    # per-command imports has to change this test
    modules = sorted(
        p.stem for p in Path(cactus45.__file__).parent.glob("*.py")
        if p.stem not in ("__init__", "__main__")
    )
    assert len(modules) == 11
    assert _loaded_after("import cactus45.cli") == modules


def test_python_dash_m_runs_the_cli():
    done = _python("-m", "cactus45", "sphere", "--length", "1")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["results"]["count"] == 5


def test_every_public_name_is_its_layers_object():
    assert len(cactus45.__all__) == len(set(cactus45.__all__)) == 71
    for name in cactus45.__all__:
        layer = importlib.import_module(f"cactus45.{cactus45._SOURCE[name]}")
        value = getattr(cactus45, name)
        assert value is getattr(layer, name), name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == layer.__name__, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from cactus45 import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(cactus45.__all__)


def test_submodules_resolve_as_attributes():
    for name in ("rewrite", "geometry", "reference", "cli"):
        assert getattr(cactus45, name) is importlib.import_module(f"cactus45.{name}")
    assert {"rewrite", "words_equal", "__version__"} <= set(dir(cactus45))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cactus45.no_such_name
    assert not hasattr(cactus45, "RewriteSystem")
    with pytest.raises(ImportError):
        exec("from cactus45 import no_such_name", {})
