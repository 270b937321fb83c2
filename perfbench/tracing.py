"""Spans around calls into each cactus45 layer, recorded from outside.

`install` wraps every public function of each layer module (plus
`Word.__init__`, `PureElement.compose` and the thirteen registry checks)
and rebinds every reference to it inside the package, so calls between
layers pass through the wrappers.  The package itself is not edited.

Per layer the tracer keeps the number of calls, the busy time (outermost
spans of that layer) and the self time (time during which a span of that
layer is the innermost open span).  A few work counters are read off the
values the wrappers see returned.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "words",
    "cactus",
    "rewrite",
    "complex",
    "geometry",
    "action",
    "dirichlet",
    "grouptheory",
    "verify",
    "cli",
)

# functions whose own busy time is reported, as "<layer>.<name>.busy_s"
TIMED_FUNCTIONS = (
    "rewrite.canonical_form",
    "rewrite.words_equal",
    "rewrite.sphere",
    "dirichlet.dirichlet_polygon",
    "grouptheory.dehn_reduce",
    "grouptheory.word_problem_search",
    "grouptheory.abelianization_invariants",
    "complex.build_ball",
    "geometry.embed_ball",
    "geometry.render_svg",
    "cli.emit_report",
)
CRITERIA = range(1, 14)
COUNTERS = (
    "words.word_inits",
    "action.compose.calls",
    "rewrite.cert_moves",
    "rewrite.not_found",
    "rewrite.uncertified",
    "grouptheory.dehn_moves",
    "grouptheory.inconclusive",
    "complex.vertices",
    "complex.faces",
)


class Tracer:
    def __init__(self):
        self.stack = []  # per open span: time covered by its child spans
        self.depth = Counter()
        self.fdepth = Counter()
        self.calls = Counter()
        self.fcalls = Counter()
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.fbusy = defaultdict(float)
        self.counts = Counter()

    def wrap(self, layer, key, fn, after=None):
        stack, depth, fdepth = self.stack, self.depth, self.fdepth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[layer] += 1
            fdepth[key] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                stack.pop()
                depth[layer] -= 1
                fdepth[key] -= 1
                self.calls[layer] += 1
                self.fcalls[key] += 1
                self.self_time[layer] += d - frame[0]
                if stack:
                    stack[-1][0] += d
                if not depth[layer]:
                    self.busy[layer] += d
                if not fdepth[key]:
                    self.fbusy[key] += d
            if after is not None:
                after(self, args, kwargs, result, not depth[layer])
            return result

        return wrapper

    def metrics(self) -> dict:
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.busy_s"] = self.busy[layer]
            out[f"{layer}.self_s"] = self.self_time[layer]
        for key in TIMED_FUNCTIONS:
            out[f"{key}.busy_s"] = self.fbusy[key]
        for n in CRITERIA:
            out[f"verify.criterion_{n}_s"] = self.fbusy[f"verify.criterion_{n}"]
        out["words.word_inits"] = self.fcalls["words.Word.__init__"]
        out["action.compose.calls"] = self.fcalls["action.PureElement.compose"]
        for key in COUNTERS:
            out.setdefault(key, self.counts[key])
        return out


# -- counters read off returned values --------------------------------------


def _after_words_equal(tr, args, kwargs, result, outer):
    if "NOT-FOUND" in str(result.status):
        tr.counts["rewrite.not_found"] += 1
    wanted = kwargs.get("certificate", args[4] if len(args) > 4 else False)
    if result.equal and wanted:
        if result.certificate is None:
            tr.counts["rewrite.uncertified"] += 1
        else:
            tr.counts["rewrite.cert_moves"] += len(result.certificate.moves)


def _after_verdict(tr, args, kwargs, result, outer):
    if outer and result.verdict == "inconclusive":
        tr.counts["grouptheory.inconclusive"] += 1


def _after_search(tr, args, kwargs, result, outer):
    if outer and result.status != "TRIVIAL" and not result.nontrivial:
        tr.counts["grouptheory.inconclusive"] += 1


def _after_ball(tr, args, kwargs, result, outer):
    tr.counts["complex.vertices"] += len(result.vertices)
    tr.counts["complex.faces"] += len(result.faces)


_AFTER = {
    "rewrite.words_equal": _after_words_equal,
    "grouptheory.hom_well_defined": _after_verdict,
    "grouptheory.verify_mutual_inverse": _after_verdict,
    "grouptheory.word_problem_search": _after_search,
    "complex.build_ball": _after_ball,
}


def _counting_dehn(tr, fn):
    """dehn_reduce builds its move list either way; ask for it to count
    the moves, and hand the caller what it asked for."""

    @functools.wraps(fn)
    def dehn_reduce(w, P, with_moves=False):
        reduced, moves = fn(w, P, with_moves=True)
        tr.counts["grouptheory.dehn_moves"] += len(moves)
        return (reduced, moves) if with_moves else reduced

    return dehn_reduce


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper):
            yield name, obj


def install(tracer: Tracer) -> None:
    """Wrap every layer of an imported cactus45 and rebind references."""
    replaced = {}
    for layer in LAYERS:
        module = importlib.import_module(f"cactus45.{layer}")
        for name, fn in _public_functions(module):
            key = f"{layer}.{name}"
            inner = _counting_dehn(tracer, fn) if key == "grouptheory.dehn_reduce" else fn
            replaced[id(fn)] = tracer.wrap(layer, key, inner, _AFTER.get(key))
    for modname, module in list(sys.modules.items()):
        if modname == "cactus45" or modname.startswith("cactus45."):
            for name, value in list(vars(module).items()):
                if id(value) in replaced:
                    setattr(module, name, replaced[id(value)])

    words = sys.modules["cactus45.words"]
    words.Word.__init__ = tracer.wrap("words", "words.Word.__init__", words.Word.__init__)
    action = sys.modules["cactus45.action"]
    action.PureElement.compose = tracer.wrap(
        "action", "action.PureElement.compose", action.PureElement.compose
    )
    verify = sys.modules["cactus45.verify"]
    verify.CRITERIA = tuple(
        (num, name, tracer.wrap("verify", f"verify.criterion_{num}", fn))
        for num, name, fn in verify.CRITERIA
    )
