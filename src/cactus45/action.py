"""Pure elements of the four-strand cactus group and their action on
the vertex words of the five-generator subgroup.

A pure element is stored in split form: a word over the five
short-interval generators times an optional trailing full reversal.
`PureElement` is its only constructor: it takes any spelling of the
vertex word, refuses one whose element is not pure, and stores the
normal form.  Acting on a vertex then amounts to concatenation (the
full reversal is absorbed by the mirror relabeling) followed by
sinking the new letters and sorting.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .cactus import J4P_MIRROR, W0, j4prime_presentation, s4_table
from .rewrite import sphere, system_for
from .words import Alphabet, Generator, Record, Word, invert

_J4P = j4prime_presentation()
_ENGINE = system_for(_J4P)  # kept on _J4P, so bound once


def mirror_word(w: Word) -> Word:
    """Letterwise mirror relabeling (conjugation by the full reversal)."""
    if w.alphabet is not _J4P.alphabet and w.alphabet != _J4P.alphabet:
        raise ValueError("mirror_word takes words over the J_4' alphabet")
    return Word._from_codes(w.alphabet, [J4P_MIRROR[c] for c in w.codes])


class PureElement(Record):
    """A pure element as its split form: the canonical five-generator
    vertex word, then a full reversal when parity is 1.  Any spelling of
    the vertex word is accepted; the element must be pure, and the
    normal form is what is stored, so equal elements compare equal."""

    __slots__ = ("j4p_form", "parity")

    def __init__(self, j4p_form: Word, parity: int):
        if parity not in (0, 1):
            raise ValueError(f"reversal parity must be 0 or 1, not {parity!r}")
        if j4p_form.alphabet is not _J4P.alphabet and j4p_form.alphabet != _J4P.alphabet:
            raise ValueError(f"{j4p_form} is not a word over the J_4' alphabet")
        # pure exactly when the vertex word maps to s14^parity's image
        if s4_table(_J4P).fold(j4p_form.codes) != (0, W0)[parity]:
            raise ValueError(f"{j4p_form} with reversal parity {parity} is not pure")
        # a spelling the automaton accepts whole is the normal form
        codes = j4p_form.codes
        if _ENGINE.accepts(codes) < len(codes):
            j4p_form = Word._from_codes(_J4P.alphabet, _ENGINE.normal_form(codes))
        super().__init__(j4p_form, parity)

    @classmethod
    def identity(cls) -> "PureElement":
        return cls(Word(_J4P.alphabet, ()), 0)

    @property
    def is_identity(self) -> bool:
        return self.parity == 0 and len(self.j4p_form) == 0

    def compose(self, other: "PureElement") -> "PureElement":
        # the image geodesic is sorted once, by the constructor
        image = Word._from_codes(_J4P.alphabet, image_geodesic(self, other.j4p_form.codes))
        return PureElement(image, (self.parity + other.parity) % 2)

    def inverse(self) -> "PureElement":
        # (v · s14^p)^-1 = mirror^p(v^-1) · s14^p
        j4p_inv = invert(self.j4p_form)
        return PureElement(mirror_word(j4p_inv) if self.parity else j4p_inv, self.parity)


def image_geodesic(g: PureElement, codes: Sequence[int]) -> List[int]:
    """The vertex g.j4p_form · mirror^parity(codes) as a geodesic of J4'
    letter codes, sunk but not sorted; g.j4p_form is a normal form, so
    only the image letters sink."""
    if g.parity:
        codes = [J4P_MIRROR[c] for c in codes]
    form = g.j4p_form.codes
    return _ENGINE.geodesic([*form, *codes], start=len(form))


def gamma(g: PureElement, h: Word) -> Word:
    """Image of the vertex h under the pure element g."""
    if h.alphabet is not _J4P.alphabet and h.alphabet != _J4P.alphabet:
        raise ValueError("gamma acts on words over the J_4' alphabet")
    return Word._from_codes(_J4P.alphabet, _ENGINE.sort(image_geodesic(g, h.codes)))


def orbit_point(g: PureElement) -> Word:
    """Image of the identity vertex under g."""
    return gamma(g, Word(_J4P.alphabet, ()))


# translation generators of the pure subgroup: five-generator component
# plus reversal parity; three are reversal-free, the other seven carry
# a trailing full reversal
GENERATOR_TABLE: Dict[str, tuple] = {
    "g1": ("s13 s24 s12 s34", 1),
    "g2": ("s13 s24 s13 s24", 0),
    "g3": ("s13 s34 s23 s12", 1),
    "g4": ("s13 s34 s13 s23", 1),
    "g5": ("s23 s12 s23 s13", 0),
    "g6": ("s23 s12 s24 s12", 1),
    "g7": ("s23 s34 s13 s34", 1),
    "g8": ("s24 s34 s23 s34", 0),
    "g9": ("s24 s12 s23 s34", 1),
    "g10": ("s24 s23 s13 s34", 1),
}

# the signed generators are the letter codes of one alphabet: code i is
# g(i+1) and ~i its inverse.  TWENTY, built once at import, holds the
# element of each code, indexed the way `TRANSLATIONS.inverse` is
TRANSLATIONS = Alphabet(Generator(name) for name in GENERATOR_TABLE)
_GENS = [PureElement(_J4P.word(text), parity) for text, parity in GENERATOR_TABLE.values()]
TWENTY: Tuple[PureElement, ...] = (*_GENS, *(g.inverse() for g in reversed(_GENS)))


def standard_generators() -> Dict[str, PureElement]:
    return dict(zip(TRANSLATIONS.names(), TWENTY))


def standard_generator(name: str) -> PureElement:
    """The element of a signed generator name such as ``g3`` or its inverse."""
    try:
        (code,) = Word.parse(TRANSLATIONS, name).codes
    except (KeyError, ValueError):
        raise KeyError(f"unknown pure generator {name!r}") from None
    return TWENTY[code]


def pure_elements_within(max_dist: int) -> List[PureElement]:
    """Nontrivial pure elements whose orbit point lies within max_dist
    of the identity vertex, via the central-image filter on spheres."""
    if max_dist < 0:
        raise ValueError("max_dist must be >= 0")
    if max_dist > 4:
        raise ValueError(
            "enumeration is supported up to distance 4; odd distances "
            "are excluded by the parity law and larger even ones are "
            "outside the verified range"
        )
    found: List[PureElement] = []
    table = s4_table(_J4P)
    for L in range(1, max_dist + 1):
        for v in sphere(_J4P, L):
            # a pure v · s14^parity: v maps to the identity or to w0
            parity = {0: 0, W0: 1}.get(table.fold(v.codes))
            if parity is not None:
                found.append(PureElement(v, parity))
    return found
