"""Tests of the benchmark's own ground truth and output checks.

    python3 -m pytest perfbench

None of these import cactus45: they check that the ground truth is
right from first principles and that the checks catch wrong outputs.
"""

import itertools
import random
from fractions import Fraction

import pytest

import inputs
import run
import truth as T


def _reduced_words(length):
    for w in itertools.product(T.J4P_GENERATORS, repeat=length):
        if all(a != b for a, b in zip(w, w[1:])):
            yield w


def test_relators_follow_the_interval_rules():
    assert T.J4P_GENERATORS == ("s12", "s13", "s23", "s24", "s34")
    assert set(T.J4P_RELATORS) == {
        ("s12", "s34", "s12", "s34"),
        ("s12", "s13", "s23", "s13"),
        ("s23", "s24", "s34", "s24"),
    }
    # each adjacent pair lies on at most one square
    assert len(T.SWAPS) == 10


def test_geodesics_give_the_rational_growth_series():
    elements = set()
    for length in range(7):
        elements.update(T.canonical(w) for w in _reduced_words(length))
    by_length = [sum(1 for e in elements if len(e) == L) for L in range(7)]
    assert by_length == T.sphere_sizes(6) == [1, 5, 15, 40, 105, 275, 720]
    assert T.sphere_sizes(8)[-2:] == [1885, 4935]


def test_canonical_form_is_constant_on_swap_and_square_moves():
    w = ("s13", "s12", "s24", "s34", "s23", "s12")
    assert T.canonical(w) == T.canonical(T.replay(w, [("swap", 0, ("s13", "s12", "s13", "s23"))]))
    assert T.canonical(w) == T.canonical(T.replay(w, [("insert", 3, ("s24", "s24"))]))


def test_replay_rejects_moves_the_relators_do_not_sanction():
    with pytest.raises(ValueError):
        T.replay(("s12", "s13"), [("swap", 0, ("s12", "s13", "s12", "s13"))])
    with pytest.raises(ValueError):
        T.replay(("s12", "s13"), [("delete", 0, ("s12", "s12"))])


def test_permutation_representations_satisfy_the_relators_and_separate():
    reps = T.permutation_reps()
    for rep in reps:
        T.check_rep(rep)
    # same S4 image, unequal: told apart by a representation
    u, v = ("s12", "s34"), ("s34", "s12", "s13", "s24", "s13", "s24")
    assert T.s4_image(u) == T.s4_image(v)
    assert T.canonical(u) != T.canonical(v)
    assert T.separated(u, v, reps)
    # equal words are never separated
    w = ("s13", "s12")
    assert not T.separated(w, T.SWAPS[w], reps)


def test_dehn_check_on_the_one_relator_groups():
    rng = random.Random(0)
    for gens, rel in T.ONE_RELATOR.values():
        dehn = T.Dehn(rel)
        assert dehn.piece_ratio < Fraction(1, 6)
        w = T.relator_product(rng, gens, [T.parse(rel)], 300)
        assert dehn.trivial(w)
        assert not dehn.trivial(w + ((gens[0], 1),))
    square = T.parse("a1 a2 a3 a4 a5 a1 a2 a3 a4 a5")
    assert not T.Dehn(T.ONE_RELATOR["surface"][1]).trivial(square)


def test_ten_generator_relators_expand_to_trivial_words():
    images = T.ten_to_five()
    dehn = T.Dehn(T.ONE_RELATOR["five"][1])
    for rel in T.TEN_RELATORS:
        assert dehn.trivial(T.substitute(T.parse(rel), images))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_input_sets_depend_on_the_seed_alone(workload):
    assert inputs.make(workload, 5) == inputs.make(workload, 5)
    if workload in ("wordproblem", "presentations"):
        assert inputs.make(workload, 5)[0] != inputs.make(workload, 6)[0]


def test_recorded_paths_prove_the_equal_pairs():
    ops, expect = inputs.make("wordproblem", 3)
    reps = T.permutation_reps()
    for op, want in zip(ops, expect):
        if op["op"] != "equal":
            continue
        u, v = (tuple(w) for w in op["words"])
        if want["equal"]:
            assert T.replay(u, want["path"]) == v
        else:
            assert T.separated(u, v, reps)


def _wordproblem_answers(ops, expect):
    out = []
    for op, want in zip(ops, expect):
        if op["op"] == "canon":
            out.append({"canon": list(want["canon"])})
        elif want["equal"]:
            out.append({"equal": True, "status": "EQUAL", "cert": want["path"]})
        else:
            out.append({"equal": False, "status": "PROVEN-UNEQUAL", "cert": None})
    return out


def test_checks_pass_right_answers_and_flag_a_planted_wrong_verdict():
    ops, expect = inputs.make("wordproblem", 4)
    out = _wordproblem_answers(ops, expect)
    assert run.check_wordproblem(ops, expect, out) == (len(ops), 0, [])

    i = next(i for i, w in enumerate(expect) if w.get("equal") is False)
    planted = list(out)
    planted[i] = {"equal": True, "status": "EQUAL", "cert": []}
    assert run.check_wordproblem(ops, expect, planted)[2]

    i = next(i for i, w in enumerate(expect) if w.get("equal"))
    planted = list(out)
    u = ops[i]["words"][0]
    planted[i] = {"equal": True, "status": "EQUAL", "cert": [("insert", 0, (u[0], u[0]))]}
    assert run.check_wordproblem(ops, expect, planted)[2]


def test_giving_up_counts_as_failed_not_wrong():
    ops, expect = inputs.make("wordproblem", 4)
    out = _wordproblem_answers(ops, expect)
    i = next(i for i, w in enumerate(expect) if w.get("equal") is False)
    out[i] = {"equal": False, "status": "NOT-FOUND-WITHIN-BUDGET", "cert": None}
    j = next(i for i, w in enumerate(expect) if w.get("equal"))
    out[j] = {"equal": True, "status": "EQUAL", "cert": None}
    assert run.check_wordproblem(ops, expect, out) == (len(ops), 2, [])


def test_dehn_check_flags_a_planted_wrong_reduction():
    ops, expect = inputs.make("presentations", 2)
    i = next(i for i, op in enumerate(ops) if op["op"] == "dehn" and expect[i])
    j = next(j for j, op in enumerate(ops) if op["op"] == "dehn" and not expect[j])
    right = [{"word": []}, {"word": [list(l) for l in ops[j]["word"]]}]
    assert run.check_presentations([ops[i], ops[j]], [True, False], right) == (2, 0, [])
    wrong = [{"word": [list(l) for l in ops[j]["word"]]}, {"word": []}]
    assert len(run.check_presentations([ops[i], ops[j]], [True, False], wrong)[2]) == 2


def test_hom_check_flags_a_certificate_for_another_word():
    gens, rel = T.ONE_RELATOR["five"]
    r = T.parse(rel)
    asked = r + r  # trivial, and not the bare relator
    op = {"op": "map", "source": "trivial", "group": "five", "oracle": "dehn",
          "word": [list(l) for l in asked]}

    def answer(word, moves):
        cert = {"word": [list(l) for l in word], "moves": moves}
        return {"verdict": "verified", "statuses": ["TRIVIAL"], "certs": [cert],
                "images": [{"x": T.show(asked)}]}

    undo = [list(l) for l in T.inverse(r)]
    right = answer(asked, [["insert", 2 * len(r), undo], ["insert", len(r), undo]])
    assert run.check_presentations([op], [True], [right]) == (1, 0, [])
    # a certificate that replays, but for the bare relator
    planted = answer(r, [["insert", len(r), undo]])
    assert T.replay_triviality(r, planted["certs"][0]["moves"], T.Dehn(rel))
    assert run.check_presentations([op], [True], [planted])[2]


def test_each_stretch_of_a_pass_is_scaled_by_the_samples_near_it():
    r = run.REF_S
    assert run.scaled_pass_s({"stretches": [1.0, 2.0, 0.5], "refs": [r, r]}) == pytest.approx(3.5)
    # the host runs at half speed from the eleventh sample on
    record = {"stretches": [0.1] * 21, "refs": [r] * 10 + [2 * r] * 10}
    slow = 0.5 ** run.HOST_EXPONENT
    assert run.scaled_pass_s(record) == pytest.approx(1.0 + 1.1 * slow)
