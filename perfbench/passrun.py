"""One benchmark pass in a fresh interpreter.

    python3 perfbench/passrun.py WORKLOAD [--trace | --setup-only]   (inputs on stdin)
    python3 perfbench/passrun.py --warmup

Reads the workload's input set as JSON on stdin, imports cactus45 (from
the PYTHONPATH the caller sets), builds the workload's fixed objects,
runs every operation once in order, and prints one JSON line: timestamps,
the time of the package's work, the reference samples taken beside it
(see Reference), peak RSS, the raw outputs for the caller to check, and
with --trace the per-layer table.  It judges nothing itself.  With
--setup-only it stops once the fixed objects are built and prints only
the time they were ready, so set-up can be sampled more often than the
passes.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time


class Reference:
    """A fixed piece of pure-Python work that imports nothing from
    cactus45: the benchmark's own Dehn reduction of a fixed word.  Timed
    beside the package's work, it measures how fast the host runs Python
    at that moment.  It allocates nothing that outlives a sample, and the
    collector is held off while it runs."""

    def __init__(self):
        import random

        import truth as T

        gens, rel = T.ONE_RELATOR["five"]
        self._dehn = T.Dehn(rel)
        self._word = T.relator_product(random.Random("reference"), gens, [T.parse(rel)], 600)

    def sample(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        self._dehn.reduce(self._word)
        dt = time.perf_counter() - t0
        if enabled:
            gc.enable()
        return dt


class Clock:
    """Times the package's work in a pass and takes reference samples
    beside it, outside the timed work.  A sample is taken at the first
    and then every REF_EVERY-th point where an operation ends or the
    interpreter starts a garbage collection.  These points are counted,
    not timed: a pass starts cold and allocates the same objects in the
    same order every time, so the samples fall at the same places of the
    work in every pass.  A sample leaves the interpreter's free lists as
    it found them only on average, so samples taken at timed moments
    would move later collections from one pass to the next.

    The samples cut the package's work into stretches: `stretches[i]` is
    the work done before sample i and after the one before it, and the
    last stretch follows the last sample."""

    REF_EVERY = 4

    def __init__(self, ref):
        self.stretches = [0.0]  # the package's work, in seconds
        self.refs = []  # reference sample times, in seconds
        self._ref = ref
        self._since = None
        self._points = 0

    def _work(self):
        self.stretches[-1] += time.perf_counter() - self._since

    def _point(self):
        self._points += 1
        if self._points % self.REF_EVERY == 1:
            self.refs.append(self._ref.sample())
            self.stretches.append(0.0)

    def _collecting(self, phase, info):
        if phase == "start" and self._since is not None:
            self._work()
            self._point()
            self._since = time.perf_counter()

    def start(self):
        self._since = time.perf_counter()

    def stop(self):
        self._work()
        self._since = None
        self._point()


def _gave_up(exc: Exception) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


# -- registry ------------------------------------------------------------


def setup_registry(c, ops):
    from cactus45 import cli

    return cli


def run_registry(cli, clock):
    buf = io.StringIO()
    clock.start()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify-all"])
    clock.stop()
    return {"exit": code, "report": buf.getvalue()}


def encode_registry(fixed, raw):
    return raw


# -- wordproblem ---------------------------------------------------------


def setup_wordproblem(c, ops):
    P = c.j4prime_presentation()

    def word(names):
        return c.Word(P.alphabet, [(g, 1) for g in names])

    return P, [(op["op"], [word(w) for w in op["words"]]) for op in ops]


def run_wordproblem(fixed, clock):
    from cactus45 import canonical_form, words_equal

    P, ops = fixed
    raw = []
    for kind, words in ops:
        clock.start()
        try:
            if kind == "equal":
                raw.append(words_equal(words[0], words[1], P, certificate=True))
            else:
                raw.append(canonical_form(words[0], P))
        except Exception as exc:  # the operation gave up; counted as failed
            raw.append(exc)
        clock.stop()
    return raw


def encode_wordproblem(fixed, raw):
    out = []
    for r in raw:
        if isinstance(r, Exception):
            out.append(_gave_up(r))
        elif hasattr(r, "status"):
            cert = None
            if r.certificate is not None:
                cert = [
                    [m.kind, m.position, [n for n, _ in m.relator.letters]]
                    for m in r.certificate.moves
                ]
            out.append({"equal": bool(r.equal), "status": str(r.status), "cert": cert})
        else:
            out.append({"canon": [n for n, _ in r.letters]})
    return out


# -- presentations -------------------------------------------------------


def setup_presentations(c, ops):
    from cactus45 import grouptheory as gt
    from cactus45.words import Alphabet, Generator, Presentation, Word

    groups = {
        "five": gt.one_relator_presentation(),
        "alt": gt.alt_one_relator_presentation(),
        "surface": gt.surface_presentation(),
        "ten": gt.ten_generator_presentation(),
    }
    x = Alphabet([Generator("x")])
    sources = {
        "trivial": Presentation(x, [Word.parse(x, "x")]),
        "order2": Presentation(x, [Word.parse(x, "x x")]),
    }
    pairs = {"alt": gt.alt_isomorphism_pair(), "surface": gt.surface_isomorphism_pair()}
    fixed = []
    for op in ops:
        kind = op["op"]
        if kind in ("dehn", "search"):
            P = groups[op["group"]]
            fixed.append((kind, (Word(P.alphabet, [tuple(l) for l in op["word"]]), P)))
        elif kind == "map":
            P = groups[op["group"]]
            h = gt.GroupHom(
                sources[op["source"]], P, {"x": Word(P.alphabet, [tuple(l) for l in op["word"]])}
            )
            fixed.append((kind, (h, op["oracle"])))
        elif kind in ("hom_f", "hom_g", "mutual"):
            fixed.append((kind, pairs[op["pair"]]))
        elif kind == "tietze_eliminate":
            fixed.append((kind, groups["ten"]))
        elif kind == "abelianization":
            fixed.append((kind, groups[op["group"]]))
        else:
            raise ValueError(f"unknown operation {kind!r}")
    return fixed


def run_presentations(fixed, clock):
    from cactus45 import grouptheory as gt

    raw = []
    for kind, arg in fixed:
        clock.start()
        try:
            if kind == "dehn":
                raw.append(gt.dehn_reduce(*arg))
            elif kind == "search":
                raw.append(gt.word_problem_search(*arg))
            elif kind == "map":
                h, oracle = arg
                raw.append(gt.hom_well_defined(h, oracle=oracle))
            elif kind == "hom_f":
                raw.append(gt.hom_well_defined(arg[0]))
            elif kind == "hom_g":
                raw.append(gt.hom_well_defined(arg[1]))
            elif kind == "mutual":
                raw.append(gt.verify_mutual_inverse(*arg))
            elif kind == "tietze_eliminate":
                raw.append(gt.tietze_eliminate(arg, gt.STANDARD_ELIMINATIONS))
            else:
                raw.append(gt.abelianization_invariants(arg))
        except Exception as exc:  # the operation gave up; counted as failed
            raw.append(exc)
        clock.stop()
    return raw


def _cert(cert):
    if cert is None:
        return None
    return {
        "word": [list(l) for l in cert.word.letters],
        "moves": [[m.kind, m.position, [list(l) for l in m.letters]] for m in cert.moves],
    }


def encode_presentations(fixed, raw):
    out = []
    for (kind, arg), r in zip(fixed, raw):
        if isinstance(r, Exception):
            out.append(_gave_up(r))
        elif kind == "dehn":
            out.append({"word": [list(l) for l in r.letters]})
        elif kind == "search":
            out.append({"status": r.status, "nontrivial": bool(r.nontrivial),
                        "cert": _cert(r.certificate)})
        elif kind in ("map", "hom_f", "hom_g", "mutual"):
            homs = [arg[0]] if kind == "map" else list(arg)
            out.append({
                "verdict": r.verdict,
                "statuses": [d[2] for d in r.details],
                "certs": [_cert(cert) for cert in r.certificates],
                "images": [{k: str(v) for k, v in h.images.items()} for h in homs],
            })
        elif kind == "tietze_eliminate":
            out.append({"generators": list(r.alphabet.names()),
                        "relators": [str(w) for w in r.relators]})
        else:
            out.append({"invariants": [r[0], list(r[1])]})
    return out


# -- growth --------------------------------------------------------------


def setup_growth(c, ops):
    return c.j4prime_presentation(), ops


def run_growth(fixed, clock):
    from cactus45 import check_tiling, rewrite, sphere
    from cactus45.complex import build_ball
    from cactus45.geometry import embed_ball, render_svg

    P, ops = fixed
    raw = []
    ball = emb = None
    for op in ops:
        kind = op["op"]
        clock.start()
        try:
            if kind == "sphere":
                kwargs = {"budget": rewrite.RewriteBudget(slack=op["slack"])} if "slack" in op else {}
                raw.append(sphere(P, op["length"], **kwargs))
            elif kind == "build_ball":
                ball = build_ball(P, op["radius"])
                raw.append(ball)
            elif kind == "check_tiling":
                raw.append(check_tiling(ball))
            elif kind == "embed_ball":
                emb = embed_ball(ball)
                raw.append(emb)
            else:
                raw.append(render_svg([
                    {"kind": "segments", "segments": [(emb[u], emb[v]) for u, v, _ in ball.edges],
                     "color": "black", "width": 1},
                    {"kind": "points", "points": [(emb[ball.identity()], "e")], "color": "red"},
                ]))
        except Exception as exc:  # the operation gave up; counted as failed
            raw.append(exc)
        clock.stop()
    return raw


def encode_growth(fixed, raw):
    out = []
    for op, r in zip(fixed[1], raw):
        kind = op["op"]
        if isinstance(r, Exception):
            out.append(_gave_up(r))
        elif kind == "sphere":
            out.append({"words": [" ".join(n for n, _ in w.letters) for w in r]})
        elif kind == "build_ball":
            hist = {}
            for d in r.vertices.values():
                hist[d] = hist.get(d, 0) + 1
            out.append({"vertices": len(r.vertices), "edges": len(r.edges),
                        "faces": len(r.faces), "by_distance": [hist[d] for d in sorted(hist)]})
        elif kind == "check_tiling":
            out.append({"ok": bool(r.ok), "failures": list(r.failures)})
        elif kind == "embed_ball":
            out.append({"points": len(r)})
        else:
            out.append({"sha256": hashlib.sha256(r.encode()).hexdigest(), "bytes": len(r)})
    return out


# -----------------------------------------------------------------------

WORKLOADS = {
    "registry": (setup_registry, run_registry, encode_registry),
    "wordproblem": (setup_wordproblem, run_wordproblem, encode_wordproblem),
    "presentations": (setup_presentations, run_presentations, encode_presentations),
    "growth": (setup_growth, run_growth, encode_growth),
}


def main(argv) -> int:
    if argv[:1] == ["--warmup"]:
        import cactus45  # noqa: F401  (compiles bytecode, warms the file cache)
        import sympy  # noqa: F401

        return 0
    workload = argv[0]
    traced = "--trace" in argv[1:]
    ops = json.load(sys.stdin)

    t0 = time.perf_counter()
    import cactus45 as c

    import_s = time.perf_counter() - t0
    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    setup, run, encode = WORKLOADS[workload]
    fixed = setup(c, ops)
    t_ready = time.monotonic()
    if "--setup-only" in argv[1:]:
        sys.stdout.write(json.dumps({"t_ready": t_ready, "module": c.__file__}) + "\n")
        return 0

    clock = Clock(Reference())
    gc.callbacks.append(clock._collecting)
    raw = run(fixed, clock)
    gc.callbacks.remove(clock._collecting)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    outputs = encode(fixed, raw)
    record = {
        "t_ready": t_ready,
        "import_s": import_s,
        "wall_s": sum(clock.stretches),
        "stretches": clock.stretches,
        "refs": clock.refs,
        "peak_rss_mb": peak_kb / 1024.0,
        "module": c.__file__,
        "outputs": outputs,
    }
    if tracer is not None:
        record["layers"] = tracer.metrics()
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
