"""Reference oracle for the translation action: `gamma` and
`PureElement.compose` as products of `Word`s, the way
`cactus45.action` computed them before it worked on letter codes, and
`from_word`, the pure element a six-generator word spells.

The vertex is mirrored letter by letter when the element carries a
full reversal, concatenated after the element's five-generator word as
a `Word`, and put in normal form by `canonical_form`, so the tests can
compare the code-level action with this spelling of its definition.
"""

from __future__ import annotations

from cactus45.action import PureElement, mirror_word
from cactus45.cactus import J4P, Permutation, project_to_symmetric, push_s14_right
from cactus45.rewrite import canonical_form
from cactus45.words import Word


def gamma(g: PureElement, h: Word) -> Word:
    """canonical_form(g.j4p_form * mirror^parity(h))."""
    moved = mirror_word(h) if g.parity else h
    return canonical_form(g.j4p_form * moved, J4P)


def compose(g: PureElement, h: PureElement) -> PureElement:
    """(u · s14^p)(v · s14^q) = u · mirror^p(v) · s14^(p+q)."""
    return PureElement(gamma(g, h.j4p_form), (g.parity + h.parity) % 2)


def from_word(w: Word) -> PureElement:
    """The pure element w spells, split as u · s14^parity with u put in
    normal form; ValueError when w permutes the strands."""
    if project_to_symmetric(w, 4) != Permutation.identity(4):
        raise ValueError(f"{w} is not pure: nontrivial strand permutation")
    j4p_raw, parity = push_s14_right(w)
    return PureElement(canonical_form(j4p_raw, J4P), parity)
