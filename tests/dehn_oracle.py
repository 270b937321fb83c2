"""Reference oracle for Dehn's algorithm: the rescanning reducer, the
subword-table piece ratio and the certificate replay that
`cactus45.grouptheory` ran before its stack reducer and its linear
replay.

`dehn_reduce` rebuilds the word after every more-than-half match and
rescans from the first position, so it is quadratic or worse in the
word length; `piece_ratio` tabulates every proper subword of every
necklace; `replay` rebuilds and freely reduces the whole word after
every insert.  All three follow the definitions directly, which is what
the tests compare the package against.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

from cactus45.grouptheory import TrivialityCertificate
from cactus45.words import (
    Move,
    Presentation,
    Word,
    cyclic_reduce,
    free_reduce,
    invert,
    normalize_relator,
    rotations,
)


def _necklaces(P: Presentation) -> List[Tuple[Tuple[str, int], ...]]:
    """Cyclically reduced relators and inverses, one per rotation class;
    relators that reduce to the empty word are skipped."""
    necklaces: List[Tuple[Tuple[str, int], ...]] = []
    seen = set()
    for r in P.relators:
        base = cyclic_reduce(r)
        if not len(base):
            continue
        for variant in (base, invert(base)):
            key = normalize_relator(variant).letters
            if key not in seen:
                seen.add(key)
                necklaces.append(variant.letters)
    return necklaces


def piece_ratio(P: Presentation) -> Fraction:
    """Longest piece length over shortest relator length.

    A piece is a subword occurring at two or more distinct positions,
    a position being a (cyclic relator, offset) pair ranging over the
    cyclically reduced relators and their inverses.  Proper subwords
    only: a candidate is never as long as the shortest relator.
    """
    necklaces = _necklaces(P)
    if not necklaces:
        return Fraction(0, 1)
    min_len = min(len(n) for n in necklaces)
    positions: Dict[Tuple, set] = {}
    for ni, neck in enumerate(necklaces):
        doubled = neck + neck
        for offset in range(len(neck)):
            for length in range(1, min(min_len, len(neck))):
                sub = doubled[offset : offset + length]
                positions.setdefault(sub, set()).add((ni, offset))
    best = max(
        (len(sub) for sub, where in positions.items() if len(where) >= 2),
        default=0,
    )
    return Fraction(best, min_len)


def _cyclic_forms(P: Presentation) -> List[Tuple[Tuple[str, int], ...]]:
    forms: List[Tuple[Tuple[str, int], ...]] = []
    seen = set()
    for necklace in _necklaces(P):
        for rot in rotations(Word(P.alphabet, necklace)):
            if rot.letters not in seen:
                seen.add(rot.letters)
                forms.append(rot.letters)
    return forms


def dehn_reduce(w: Word, P: Presentation, with_moves: bool = False):
    """Greedy shortening by more-than-half relator matches, first form
    and longest match first, rescanning the whole word after each."""
    ratio = piece_ratio(P)
    if ratio >= Fraction(1, 6):
        raise ValueError(f"piece ratio {ratio} is not below 1/6")
    forms = _cyclic_forms(P)
    moves: List[Move] = []
    current = free_reduce(w)
    changed = True
    while changed:
        changed = False
        letters = current.letters
        for form in forms:
            n = len(form)
            for take in range(n, n // 2, -1):
                chunk = form[:take]
                for i in range(len(letters) - take + 1):
                    if letters[i : i + take] != chunk:
                        continue
                    inv_form = invert(Word(current.alphabet, form)).letters
                    rotated = inv_form[-take:] + inv_form[:-take]
                    moves.append(Move(i + take, Word(current.alphabet, rotated), "insert"))
                    current = free_reduce(
                        Word(
                            current.alphabet,
                            letters[: i + take] + rotated + letters[i + take :],
                        )
                    )
                    changed = True
                    break
                if changed:
                    break
            if changed:
                break
    if with_moves:
        return current, tuple(moves)
    return current


def replay(cert: TrivialityCertificate, P: Presentation) -> Word:
    """Apply the moves, freely reducing the whole word after each
    insert; an insert must splice in a rotation of a stored relator or
    of its inverse, and no other kind of move is known."""
    forms = {
        rot.letters for r in P.relators for base in (r, invert(r)) for rot in rotations(base)
    }
    current = free_reduce(cert.word)
    for mv in cert.moves:
        letters = current.letters
        if mv.kind != "insert":
            raise ValueError(f"unknown move kind {mv.kind!r}")
        if mv.relator.letters not in forms:
            raise ValueError("move splices in a non-relator word")
        if not 0 <= mv.position <= len(letters):
            raise ValueError("insertion position out of range")
        current = free_reduce(
            Word(current.alphabet, letters[: mv.position] + mv.relator.letters + letters[mv.position :])
        )
    return current
