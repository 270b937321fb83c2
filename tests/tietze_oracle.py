"""Reference oracle for Tietze eliminations: `_eliminate` as
`cactus45.grouptheory` ran it before it substituted on letter codes.

Every step builds the alphabet of the generators left, maps each of
them to its one-letter word and the eliminated generator to its
expansion, and rewrites the relators with `substitute`, so the tests
can compare the code-level elimination with these word-level steps.
Generator names must differ from ``e``, which `Word.parse` reads as the
empty word.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

from cactus45.words import (
    Alphabet,
    Presentation,
    Word,
    free_reduce,
    invert,
    same_relator_class,
    substitute,
)


def _expand_partial(w: Word, partial: Mapping[str, Word]) -> Word:
    images = {n: Word.parse(w.alphabet, n) for n in w.alphabet.names()}
    images.update(partial)
    return substitute(w, images)


def eliminate(
    P: Presentation,
    eliminations: Sequence[Tuple[str, str]],
) -> Tuple[Presentation, Dict[str, Word]]:
    """The reduced presentation, and each generator of P as a word in
    the survivors; ValueError where `tietze_eliminate` raises one."""
    current = P
    partial: Dict[str, Word] = {}
    for gen_name, text in eliminations:
        if gen_name not in current.alphabet:
            raise ValueError(f"{gen_name} is not a generator at this stage")
        defining = Word.parse(P.alphabet, text)
        claim = free_reduce(Word.parse(P.alphabet, gen_name) * invert(defining))
        if not any(len(r) <= 3 and same_relator_class(r, claim) for r in P.relators):
            raise ValueError(f"elimination {gen_name} = {defining} is not backed")
        expanded = _expand_partial(defining, partial)
        if any(name == gen_name for name, _ in expanded):
            raise ValueError(f"definition of {gen_name} is cyclic")
        single = {gen_name: expanded}
        for k in list(partial):
            partial[k] = _expand_partial(partial[k], single)
        partial[gen_name] = expanded

        new_alphabet = Alphabet(g for g in current.alphabet if g.name != gen_name)
        image_map = {n: Word.parse(new_alphabet, n) for n in new_alphabet.names()}
        image_map[gen_name] = Word(new_alphabet, expanded.letters)
        current = Presentation(
            new_alphabet, [substitute(r, image_map) for r in current.relators]
        )
    survivors = current.alphabet
    images = {n: Word.parse(survivors, n) for n in survivors.names()}
    images.update((n, Word(survivors, w.letters)) for n, w in partial.items())
    return current, images
