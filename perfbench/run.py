"""Cold-process benchmark of cactus45.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The seed fixes the workload's
input set (see inputs.py), then passes run one at a time, each in a fresh
interpreter importing cactus45 from ./src, until S seconds have gone:
a closed loop with one worker, the next pass starting when the last one
has exited.  Every layer memoises for the life of its process, and a
command-line user pays the cold cost on every call, so no pass reuses
another's process.  Every output is checked against the ground truth of
truth.py and the golden files, which import nothing from cactus45.

--trace 0 prints the end-to-end metrics: wall_norm_s (one pass of the
input set, set-up excluded; see scaled_pass_s), setup_s (interpreter
start, import, fixed objects; the median over the passes and the
set-up-only processes between them) and peak_rss_mb (the pass's
ru_maxrss, median over the passes).  Both times are scaled to a fixed
speed of the host (see at_reference).
--trace 1 runs traced passes under two hash seeds, between untraced
ones, and prints the per-layer table (tracing.py), the tracing overhead,
the raw pass time and the host's reference time, and the check that
every count repeats across the hash seeds.

The last line of standard output is one JSON object: correct, attempted
and failed (operations of the input set; every pass replays it and must
give the same outputs) and metrics.  Exits 2 without a result when the
checkout holds no cactus45 source.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import truth as T

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden"
WORKLOADS = ("registry", "wordproblem", "presentations", "growth")
MIN_PASSES = 3
SETUP_PROBES = 2  # set-up-only processes after each untraced pass, for setup_s
PASS_TIMEOUT_S = 90  # with a run's own seconds, keeps a run under 180 s
# The time of one reference sample (passrun.Reference) that the reported
# times are scaled to: about its time on the host the README describes
# when that host runs fast.
REF_S = 0.0006
# How a pass's time follows the reference's on that host: when a sample
# takes k times as long, a pass takes about k ** HOST_EXPONENT times as
# long.  See the README for the runs it was measured on.
HOST_EXPONENT = 0.8
NEAR_SAMPLES = 2  # see scaled_pass_s


class ProgramFailed(RuntimeError):
    """A pass process crashed or printed no record."""


def run_pass(workload, payload, traced=False, hash_seed="0", setup_only=False):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
    cmd = [sys.executable, str(HERE / "passrun.py"), workload]
    cmd += ["--trace"] if traced else ["--setup-only"] if setup_only else []
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, input=payload, capture_output=True, text=True, env=env,
                          cwd=ROOT, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ProgramFailed(f"pass exited {proc.returncode}: {proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(record["module"]).resolve().parent.parent != SRC:
        raise ProgramFailed(f"pass imported cactus45 from {record['module']}")
    record["setup_s"] = record["t_ready"] - t_spawn
    return record


def warm_up():
    """Compile the package's bytecode and warm the file cache before any
    timed pass.  compileall writes the bytecode even where the environment
    turns that off, so set-up always loads compiled modules, as for an
    installed package."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)], cwd=ROOT, check=True,
                   capture_output=True, timeout=PASS_TIMEOUT_S)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, str(HERE / "passrun.py"), "--warmup"], env=env,
                   cwd=ROOT, check=True, capture_output=True, timeout=PASS_TIMEOUT_S)


# -- checks: each returns (attempted, failed, wrong) --------------------------


def check_registry(ops, expect, out):
    golden = (GOLDEN / "verify_all.json").read_text(encoding="utf-8")
    wrong = []
    if out["exit"] != 0:
        wrong.append(f"verify-all exited {out['exit']}")
    if out["report"] != golden:
        wrong.append("verify-all report differs from the golden report")
    criteria = json.loads(out["report"])["results"]["criteria"]
    return len(criteria), sum(not c["passed"] for c in criteria), wrong


def _gave_up(r):
    return "error" in r or "NOT-FOUND" in r.get("status", "")


def check_wordproblem(ops, expect, out):
    failed, wrong = 0, []
    for i, (op, want, r) in enumerate(zip(ops, expect, out)):
        if op["op"] == "canon":
            if "error" in r:
                failed += 1
            elif tuple(r["canon"]) != want["canon"]:
                wrong.append(f"op {i}: canonical form {r['canon']} != {list(want['canon'])}")
            continue
        u, v = op["words"]
        if _gave_up(r):
            failed += 1
        elif r["equal"] != want["equal"]:
            wrong.append(f"op {i}: equal={r['equal']} ({r['status']}) for {u} / {v}")
        elif want["equal"] and r["cert"] is None:
            failed += 1  # EQUAL without the certificate that was asked for
        elif want["equal"]:
            try:
                end = T.replay(u, r["cert"])
            except ValueError as exc:
                end = exc
            if end != tuple(v):
                wrong.append(f"op {i}: certificate does not replay: {end}")
    return len(ops), failed, wrong


def _dehn(group):
    return T.Dehn(T.ONE_RELATOR[group][1])


def _hom_truth(op, images):
    """For each identity a hom check asks for, in its order: whether it
    holds by the benchmark's own Dehn check, its group, and the freely
    reduced word a TRIVIAL certificate must start from."""
    if op["op"] == "map":
        rel = T.parse("x") if op["source"] == "trivial" else T.parse("x x")
        w = T.substitute(rel, {"x": _letters(op["word"])})
        if op["group"] == "ten":
            w = T.substitute(w, T.ten_to_five())
            return [(_dehn("five").trivial(w), "five", w)]
        return [(_dehn(op["group"]).trivial(w), op["group"], w)]
    src, dst = op["pair"], "five"
    f = {k: T.parse(v) for k, v in images[0].items()}
    g = {k: T.parse(v) for k, v in images[1].items()}
    if op["op"] in ("hom_f", "hom_g"):
        h, a, b = (f, src, dst) if op["op"] == "hom_f" else (g, dst, src)
        w = T.substitute(T.parse(T.ONE_RELATOR[a][1]), h)
        return [(_dehn(b).trivial(w), b, w)]
    facts = []
    for first, second, grp in ((f, g, src), (g, f, dst)):
        for x in T.ONE_RELATOR[grp][0]:
            w = T.free_reduce(T.substitute(T.substitute(((x, 1),), first), second) + ((x, -1),))
            facts.append((_dehn(grp).trivial(w), grp, w))
    return facts


def check_presentations(ops, expect, out):
    failed, wrong = 0, []
    for i, (op, want, r) in enumerate(zip(ops, expect, out)):
        kind = op["op"]
        if "error" in r:
            failed += 1
            continue
        word = _letters(op.get("word", ()))
        if kind == "dehn":
            red = _letters(r["word"])
            d = _dehn(op["group"])
            if (not red) != want or not d.trivial(word + T.inverse(red)):
                wrong.append(f"op {i}: dehn_reduce gave {T.show(red)[:80]}")
        elif kind == "search":
            if r["status"] != "TRIVIAL":
                if r["nontrivial"]:
                    wrong.append(f"op {i}: search refuted a trivial word")
                else:
                    failed += 1
            elif not _replays(r["cert"], op["group"]) or r["cert"]["word"] != list(map(list, word)):
                wrong.append(f"op {i}: search certificate does not replay")
        elif kind in ("map", "hom_f", "hom_g", "mutual"):
            facts = _hom_truth(op, r["images"])
            if all(fact[0] for fact in facts) != want or len(facts) != len(r["statuses"]):
                wrong.append(f"op {i}: the identities checked differ from the ground truth's")
                continue
            verdict = r["verdict"]
            if verdict == "inconclusive":
                failed += 1
            elif verdict != ("verified" if want else "refuted"):
                wrong.append(f"op {i}: verdict {verdict}, expected the opposite")
            for (holds, group, asked), status, cert in zip(facts, r["statuses"], r["certs"]):
                if status == "TRIVIAL" and not (cert and _replays(cert, group)):
                    wrong.append(f"op {i}: a TRIVIAL row lacks a replayable certificate")
                elif status == "TRIVIAL" and T.free_reduce(_letters(cert["word"])) != asked:
                    wrong.append(f"op {i}: a TRIVIAL row's certificate proves another word")
                elif status == "NONTRIVIAL" and holds:
                    wrong.append(f"op {i}: a trivial identity was called nontrivial")
        elif kind == "tietze_eliminate":
            gens, rel = want
            got = r["relators"]
            if tuple(r["generators"]) != gens or len(got) != 1 or not _same_class(
                T.parse(got[0]), T.parse(rel)
            ):
                wrong.append(f"op {i}: tietze_eliminate gave {got}")
        else:
            if (r["invariants"][0], tuple(r["invariants"][1])) != want:
                wrong.append(f"op {i}: invariants {r['invariants']} != {want}")
    return len(ops), failed, wrong


def _letters(word):
    return tuple(tuple(l) for l in word)


def _replays(cert, group):
    return T.replay_triviality(_letters(cert["word"]), cert["moves"], _dehn(group))


def _same_class(a, b):
    rots = {b[i:] + b[:i] for i in range(len(b))}
    inv = T.inverse(b)
    rots |= {inv[i:] + inv[:i] for i in range(len(inv))}
    return a in rots


def check_growth(ops, expect, out):
    golden = json.loads((GOLDEN / "growth.json").read_text(encoding="utf-8"))
    failed, wrong = 0, []
    sizes = T.sphere_sizes(8)
    for i, (op, r) in enumerate(zip(ops, out)):
        kind = op["op"]
        if "error" in r:
            failed += 1
            continue
        if kind == "sphere":
            words = [tuple(w.split()) for w in r["words"]]
            L = op["length"]
            if len(set(words)) != sizes[L] or len(words) != sizes[L]:
                wrong.append(f"op {i}: sphere {L} has {len(words)} words, not {sizes[L]}")
            elif any(T.canonical(w) != w for w in words):
                wrong.append(f"op {i}: sphere {L} lists a word that is not canonical")
        elif kind == "build_ball":
            R = op["radius"]
            if r["by_distance"] != sizes[: R + 1] or r["faces"] != golden["faces"] or \
                    r["edges"] != golden["edges"]:
                wrong.append(f"op {i}: ball {r}")
        elif kind == "check_tiling":
            if not r["ok"]:
                wrong.append(f"op {i}: tiling check failed: {r['failures'][:3]}")
        elif kind == "embed_ball":
            if r["points"] != sum(sizes[:7]):
                wrong.append(f"op {i}: embedded {r['points']} points")
        elif r["sha256"] != golden["svg_sha256"]:
            wrong.append(f"op {i}: SVG digest {r['sha256']} differs from the golden one")
    return len(ops), failed, wrong


CHECKS = {
    "registry": check_registry,
    "wordproblem": check_wordproblem,
    "presentations": check_presentations,
    "growth": check_growth,
}


# -- runs -------------------------------------------------------------------


def _digest(outputs):
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()


def measure(workload, payload, seconds, trace):
    """Passes until `seconds` have gone, at least MIN_PASSES of them,
    and the set-up times seen.  Each untraced pass of a --trace 0 run is
    followed by SETUP_PROBES processes that only set up, so setup_s, a
    tenth of a second, is a median over many samples.  The hash seed
    changes set order and with it the search order inside the package,
    so untimed comparisons use like hash seeds: a traced run alternates
    untraced and traced passes under hash seeds 1 and 2."""
    if trace:
        cycle = [(False, "1"), (True, "1"), (False, "2"), (True, "2")]
    else:
        cycle = [(False, "0")]
    records, setups = [], []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        # stop when the next cycle would end nearer after the deadline
        # than before it, so a run lasts about `seconds`
        if len(records) >= MIN_PASSES and elapsed + elapsed / len(records) * len(cycle) / 2 > seconds:
            break
        for traced, hash_seed in cycle:
            rec = run_pass(workload, payload, traced, hash_seed)
            rec["traced"], rec["hash_seed"] = traced, hash_seed
            records.append(rec)
            if not trace:
                # a set-up has no reference samples of its own; those of
                # the pass that follows or precedes it are the nearest
                speed = at_reference(rec["refs"])
                setups.append(rec["setup_s"] * speed)
                setups += [run_pass(workload, payload, setup_only=True)["setup_s"] * speed
                           for _ in range(SETUP_PROBES)]
    return records, setups


def at_reference(samples):
    """The factor that scales a time measured while the reference samples
    took `samples` to a host on which one sample takes REF_S.

    This host's speed at running Python swings nearly twofold for
    stretches of seconds to minutes, the process's CPU time swinging with
    it, so a slow stretch can cover a whole run.  The reference is fixed
    pure-Python work, imported from the benchmark and not from the
    package, timed in the same process between the package's operations.
    A change to the package moves the time measured but not the
    reference, and a change in the host's speed moves both, the
    package's work a little less than the reference (HOST_EXPONENT)."""
    return (REF_S / statistics.median(samples)) ** HOST_EXPONENT


def scaled_pass_s(record):
    """A pass's time at the reference speed.  Each stretch of work is
    scaled by the reference samples nearest it: the one taken right
    after it and NEAR_SAMPLES on either side of that one."""
    refs = record["refs"]
    total = 0.0
    for i, busy in enumerate(record["stretches"]):
        i = min(i, len(refs) - 1)
        total += busy * at_reference(refs[max(0, i - NEAR_SAMPLES): i + NEAR_SAMPLES + 1])
    return total


def pass_s(records):
    """One pass's time at the reference speed: median over the passes."""
    return statistics.median(scaled_pass_s(r) for r in records)


def summarise(records, setups, trace):
    plain = [r for r in records if not r["traced"]]
    if not trace:
        return {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_norm_s": {"value": pass_s(plain), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain),
                            "unit": "MB"},
        }, []
    traced = [r for r in records if r["traced"]]
    problems = []
    metrics = {}
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        if isinstance(values[0], int):
            if len(set(values)) != 1:
                problems.append(f"{name} differs across hash seeds: {sorted(set(values))}")
            metrics[name] = {"value": values[0], "unit": "count"}
        else:
            metrics[name] = {"value": statistics.median(values), "unit": "s"}
    metrics["setup.import_s"] = {"value": statistics.median(r["import_s"] for r in traced),
                                 "unit": "s"}
    untraced_wall = pass_s(plain)
    traced_wall = pass_s(traced)
    metrics["trace.wall_norm_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
    metrics["raw.wall_s"] = {"value": statistics.median(r["wall_s"] for r in plain), "unit": "s"}
    metrics["host.ref_ms"] = {"value": 1000 * statistics.median(x for r in plain for x in r["refs"]),
                              "unit": "ms"}
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cactus45" / "__init__.py").is_file():
        print(f"no cactus45 source under {SRC}", file=sys.stderr)
        return 2

    ops, expect = inputs.make(args.workload, args.seed)
    payload = json.dumps(ops)
    warm_up()
    records, setups = measure(args.workload, payload, args.seconds, bool(args.trace))

    problems = []
    digests = {_digest(r["outputs"]) for r in records}
    if len(digests) != 1:
        problems.append("passes over the same input set gave different outputs")
    attempted, failed, wrong = CHECKS[args.workload](ops, expect, records[0]["outputs"])
    problems += wrong
    metrics, trace_problems = summarise(records, setups, bool(args.trace))
    problems += trace_problems
    for p in problems:
        print(f"check: {p}", file=sys.stderr)
    walls = " ".join(f"{r['wall_s']:.3f}" for r in records)
    refs = " ".join(f"{1000 * statistics.median(r['refs']):.3f}" for r in records)
    print(f"{args.workload} seed {args.seed}: {attempted} operations per pass, "
          f"{failed} failed; raw pass times (s): {walls}; reference (ms): {refs}",
          file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
