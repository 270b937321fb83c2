"""Reference oracle for the grouptheory layer: the bounded search for a
triviality certificate that `cactus45.grouptheory` ran before Dehn's
algorithm became its only decider.

States are freely reduced words, expanded by splicing a cyclic relator
form (of a relator or its inverse) at each position, shortest first;
intermediate words longer than max_length_factor times the input are
pruned.  Words whose exponent vector lies outside the relators' integer
row span are refuted up front.  The search knows nothing of small
cancellation, so the tests compare the exact decider against it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from cactus45.grouptheory import (
    TrivialityCertificate,
    exponent_vector,
    in_integer_row_span,
)
from cactus45.words import Move, Presentation, Word, free_reduce, invert, rotations


@dataclass(frozen=True)
class SearchBudget:
    max_length_factor: int = 3
    max_depth: int = 40
    max_states: int = 1_000_000


@dataclass(frozen=True)
class OracleResult:
    """status is "TRIVIAL" (with certificate) or "NOT-FOUND"; nontrivial
    is set when the exponent vector rules triviality out."""

    status: str
    certificate: Optional[TrivialityCertificate] = None
    nontrivial: bool = False


def _symmetrized_forms(P: Presentation) -> List[Tuple]:
    forms = set()
    for r in P.relators:
        for base in (r, invert(r)):
            for rot in rotations(base):
                forms.add(rot.letters)
    return sorted(forms)


def bounded_search(
    w: Word, P: Presentation, budget: SearchBudget = SearchBudget()
) -> OracleResult:
    start = free_reduce(w)
    if not len(start):
        return OracleResult("TRIVIAL", TrivialityCertificate(w, ()))
    rel_vectors = [exponent_vector(r) for r in P.relators]
    if not in_integer_row_span(exponent_vector(start), rel_vectors):
        return OracleResult("NOT-FOUND", None, True)

    forms = {form: Word(P.alphabet, form) for form in _symmetrized_forms(P)}
    max_len = budget.max_length_factor * len(start)
    heap: List[Tuple[int, int, Tuple]] = [(len(start), 0, start.letters)]
    counter = 0
    parents: Dict[Tuple, Tuple[Optional[Tuple], Optional[Move], int]] = {
        start.letters: (None, None, 0)
    }
    popped = 0
    while heap:
        _, _, letters = heapq.heappop(heap)
        popped += 1
        if popped > budget.max_states:
            return OracleResult("NOT-FOUND")
        depth = parents[letters][2]
        if depth >= budget.max_depth:
            continue
        for form, relator in forms.items():
            for pos in range(len(letters) + 1):
                child = free_reduce(
                    Word(P.alphabet, letters[:pos] + form + letters[pos:])
                )
                cl = child.letters
                if len(cl) > max_len or cl in parents:
                    continue
                parents[cl] = (letters, Move(pos, relator, "insert"), depth + 1)
                if not cl:
                    moves: List[Move] = []
                    cur: Tuple = cl
                    while parents[cur][0] is not None:
                        prev, mv, _ = parents[cur]
                        moves.append(mv)
                        cur = prev
                    return OracleResult(
                        "TRIVIAL",
                        TrivialityCertificate(w, tuple(reversed(moves))),
                    )
                counter += 1
                heapq.heappush(heap, (len(cl), counter, cl))
    return OracleResult("NOT-FOUND")
