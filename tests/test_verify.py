"""The registry's own machinery: the prefix-tree parity enumeration of
criterion 3 against `project_to_symmetric`, a mutation of one letter's
image, and the work one ``verify-all`` run does in its costliest
stages."""

import itertools
import sys
from collections import Counter

import cactus45.reference as ref
from cactus45 import action, verify
from cactus45.action import PureElement
from cactus45.cactus import J4P, project_to_symmetric
from cactus45.complex import build_ball
from cactus45.dirichlet import fundamental_domain
from cactus45.rewrite import canonical_form
from cactus45.words import Word


def _letter_images():
    return [
        project_to_symmetric(Word._from_codes(J4P.alphabet, (c,)), 4).images
        for c in range(len(J4P.alphabet))
    ]


def test_prefix_images_match_the_projection():
    # the words criterion 3 enumerated before, one (name, 1) letter at a
    # time, in the same order, each projected from scratch
    names = J4P.alphabet.names()
    words = verify._prefix_images(_letter_images(), 5)
    old = [
        Word(J4P.alphabet, [(nm, 1) for nm in combo])
        for length in range(6)
        for combo in itertools.product(names, repeat=length)
    ]
    assert len(words) == len(old) == 3906
    for (codes, image), word in zip(words, old):
        assert codes == word.codes
        assert image == project_to_symmetric(word, 4).images


def test_an_even_letter_image_breaks_criterion_3(monkeypatch):
    # s23 projected to the identity, an even permutation
    s23 = J4P.alphabet.index("s23")

    def mutated(w, n):
        if w.codes == (s23,):
            return project_to_symmetric(Word(J4P.alphabet, ()), n)
        return project_to_symmetric(w, n)

    monkeypatch.setattr(verify, "project_to_symmetric", mutated)
    assert not verify.run_criterion(3).passed
    # with the displayed images out of the way, the parity law catches it
    monkeypatch.setattr(ref, "CENTRAL_IMAGES", {})
    result = verify.run_criterion(3)
    assert not result.passed
    assert result.details == "parity law fails on s23"


def _replace(monkeypatch, fn, wrapper):
    """Put wrapper in place of fn in every cactus45 module that holds fn."""
    for name, module in list(sys.modules.items()):
        if name.startswith("cactus45") and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, wrapper)


def test_verify_all_work_counts(monkeypatch):
    running = [None]  # the criterion being run
    acting = [0]  # depth of gamma and compose calls
    calls = Counter()

    def counted(fn, key):
        """fn, counting each call under key(), unless that is None."""

        def run(*args):
            k = key()
            if k is not None:
                calls[k] += 1
            return fn(*args)

        return run

    def per_criterion(name):
        return lambda: f"{name} in {running[0]}"

    def in_action(name):
        return lambda: name if acting[0] else None

    def in_criterion(number, check):
        def run(tol):
            running[0] = number
            try:
                return check(tol)
            finally:
                running[0] = None

        return run

    def acting_through(fn):
        def run(*args):
            acting[0] += 1
            try:
                return fn(*args)
            finally:
                acting[0] -= 1

        return run

    monkeypatch.setattr(
        verify,
        "CRITERIA",
        tuple((n, name, in_criterion(n, fn)) for n, name, fn in verify.CRITERIA),
    )
    for fn, key in (
        (project_to_symmetric, per_criterion("project")),
        (action.pure_elements_within, per_criterion("enumerate")),
        (canonical_form, in_action("canonical_form")),
    ):
        _replace(monkeypatch, fn, counted(fn, key))
    parse = counted(Word.parse.__func__, in_action("parse"))
    monkeypatch.setattr(Word, "parse", classmethod(parse))
    _replace(monkeypatch, action.gamma, acting_through(action.gamma))
    monkeypatch.setattr(PureElement, "compose", acting_through(PureElement.compose))

    # the fundamental domain is rebuilt inside the run, so its orbit
    # sites and pairings are counted too
    fundamental_domain.cache_clear()
    build_ball.cache_clear()
    results = verify.run_all()
    assert all(r.passed for r in results), [r.details for r in results if not r.passed]
    # one J4' ball, radius 4: criterion 5 reads its smaller balls off it
    assert build_ball.cache_info().misses == 1
    assert 0 < calls["project in 3"] <= 5
    assert calls["enumerate in 2"] == 1
    assert sum(v for k, v in calls.items() if k.startswith("enumerate")) == 1
    assert calls["canonical_form"] == 0 and calls["parse"] == 0


def test_criterion_13_catches_a_planted_element_that_fixes_a_vertex(monkeypatch):
    # the identity fixes every vertex; criterion 13 decides fixing from
    # the sink's length and sorts only same-length candidates
    planted = action.TWENTY[:3] + (PureElement.identity(),) + action.TWENTY[4:]
    monkeypatch.setattr(verify, "TWENTY", planted)
    result = verify.run_criterion(13)
    assert not result.passed
    assert result.details == "g4 fixes the vertex e"
