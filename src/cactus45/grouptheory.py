"""Presentation-level reasoning for the polygon quotient group.

Tietze eliminations shrink the ten-generator presentation read off the
fundamental polygon to a single relator on five generators.  All three
one-relator groups here have piece ratio 1/10 < 1/6, so Dehn's greedy
small-cancellation reduction decides their word problem exactly
(Greendlinger's lemma; Lyndon-Schupp, Combinatorial Group Theory,
Ch. V): its `words.Verdict` carries a replayable certificate for an
empty reduction, and a nonempty one as the witness of nontriviality.
Homomorphism verdicts chain that decider to certify the isomorphisms
with the two companion one-relator groups.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from .words import (
    NONTRIVIAL,
    TRIVIAL,
    Alphabet,
    Generator,
    Move,
    Presentation,
    Record,
    Verdict,
    Word,
    _codes_over,
    _free,
    _stored_relators,
    free_reduce,
    invert,
    replay,
    same_relator_class,
    substitute,
    _substituted,
)


# ---------------------------------------------------------------------------
# reference presentations


def _presentation(names: Sequence[str], relator_texts: Sequence[str]) -> Presentation:
    alphabet = Alphabet(Generator(n) for n in names)
    return Presentation(alphabet, [Word.parse(alphabet, t) for t in relator_texts])


# built once, at import; a Presentation is immutable, so callers share it
_TEN = _presentation(
    [f"g{i}" for i in range(1, 11)],
    [
        "g3 g6^-1 g7 g9^-1 g2^-1",
        "g3 g8^-1 g4^-1",
        "g5 g9^-1 g4^-1",
        "g5 g1 g6^-1",
        "g8 g10 g7^-1",
        "g10 g1^-1 g2",
    ],
)
_FIVE = _presentation(
    ["g2", "g4", "g8", "g9", "g10"],
    ["g2 g9 g10^-1 g8^-1 g4 g9 g2 g10 g8^-1 g4^-1"],
)
_ALT = _presentation(
    ["alpha", "beta", "gamma", "delta", "epsilon"],
    ["alpha gamma epsilon beta epsilon alpha^-1 delta^-1 beta gamma delta^-1"],
)
_SURFACE = _presentation(
    ["a1", "a2", "a3", "a4", "a5"],
    ["a1 a1 a2 a2 a3 a3 a4 a4 a5 a5"],
)


def ten_generator_presentation() -> Presentation:
    """Ten translation generators with the six polygon-cycle relators."""
    return _TEN


def one_relator_presentation() -> Presentation:
    """The five surviving generators with the single length-ten relator."""
    return _FIVE


def alt_one_relator_presentation() -> Presentation:
    """Companion one-relator group on the letters alpha..epsilon."""
    return _ALT


def surface_presentation() -> Presentation:
    """Nonorientable genus-five surface group (five crosscap squares)."""
    return _SURFACE


# eliminations taking the six-relator presentation to the one-relator
# form; defining words may reference generators eliminated earlier in
# the list (they are expanded on the way)
STANDARD_ELIMINATIONS: Tuple[Tuple[str, str], ...] = (
    ("g1", "g2 g10"),
    ("g5", "g4 g9"),
    ("g6", "g5 g1"),
    ("g7", "g8 g10"),
    ("g3", "g4 g8"),
)


# ---------------------------------------------------------------------------
# abelianization


def exponent_vector(w: Word) -> Tuple[int, ...]:
    """Exponent sum of each alphabet generator, in alphabet order."""
    sums = [0] * len(w.alphabet)
    for c in w.codes:
        if c >= 0:
            sums[c] += 1
        else:
            sums[~c] -= 1
    return tuple(sums)


def _integer_row_echelon(rows: List[List[int]]) -> List[List[int]]:
    """Row-span-preserving staircase form via repeated Euclid steps."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    cols = len(rows[0])
    r = 0
    for c in range(cols):
        pivots = [i for i in range(r, len(rows)) if rows[i][c] != 0]
        if not pivots:
            continue
        while True:
            pivots.sort(key=lambda i: abs(rows[i][c]))
            p = pivots[0]
            done = True
            for i in pivots[1:]:
                q = rows[i][c] // rows[p][c]
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[p])]
                if rows[i][c] != 0:
                    done = False
            pivots = [i for i in pivots if rows[i][c] != 0]
            if done or len(pivots) == 1:
                break
        rows[r], rows[p] = rows[p], rows[r]
        r += 1
        rows[r:] = [row for row in rows[r:] if any(row)]
    return rows[:r]


def in_integer_row_span(vector: Sequence[int], rows: Sequence[Sequence[int]]) -> bool:
    """Whether the vector is an integer combination of the rows."""
    ech = _integer_row_echelon([list(r) for r in rows])
    v = list(vector)
    for row in ech:
        c = next(i for i, x in enumerate(row) if x != 0)
        if v[c] % row[c] == 0:
            v = [a - (v[c] // row[c]) * b for a, b in zip(v, row)]
    return not any(v)


def abelianization_invariants(P: Presentation) -> Tuple[int, Tuple[int, ...]]:
    """(free rank, torsion orders) of the abelianized group.

    Row echelon steps on the relator exponent matrix and on its
    transpose, in turn, keep the quotient lattice up to isomorphism and
    end in a diagonal matrix (the top-left entry shrinks until it
    divides the rest of its row and column).  Pairwise gcd/lcm puts the
    diagonal in divisibility order: those are the invariant factors,
    and each generator beyond them adds a free Z.
    """
    rows = [list(exponent_vector(r)) for r in P.relators]
    while True:
        rows = _integer_row_echelon(rows)
        if all(sum(1 for x in row if x) == 1 for row in rows):
            break
        rows = [list(col) for col in zip(*rows)]
    diag = [abs(next(x for x in row if x)) for row in rows]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return len(P.alphabet) - len(diag), tuple(d for d in diag if d > 1)


# ---------------------------------------------------------------------------
# triviality certificates


def _splice(
    P: Presentation, left: List[int], right: List[int], kind: str, form: Tuple[int, ...]
) -> None:
    """The edit of a triviality move at the cursor of `words.replay`: an
    insert of one of P's relator forms, the rotations Dehn's algorithm
    uses.  A freely reduced form spliced into a freely reduced word
    cancels outward from its two seams only."""
    if kind != "insert":
        raise ValueError(f"unknown move kind {kind!r}")
    if not P.is_form(form):
        raise ValueError("move splices in a non-relator word")
    inverse = P.alphabet.inverse
    for c in form:
        if left and left[-1] == inverse[c]:
            left.pop()
        else:
            left.append(c)
    while left and right and left[-1] == inverse[right[-1]]:
        left.pop()
        right.pop()


class TrivialityCertificate(NamedTuple):
    """Inserts (`Move` of kind "insert") that take `word` to the empty
    word, each splice followed by free reduction: deleting a relator
    occurrence is the special case where the splice cancels it whole."""

    word: Word
    moves: Tuple[Move, ...]

    def replay(self, P: Presentation) -> Word:
        """The word the moves make of the freely reduced word, by
        `words.replay`; the result is freely reduced.  An insert must
        splice in one of P's relator forms; ValueError on any other
        move."""
        return replay(P, free_reduce(self.word), self.moves, _splice)

    def check(self, P: Presentation) -> bool:
        """Replay to the empty word, then re-check the abelian invariant
        (an involutive generator has order two there)."""
        if len(self.replay(P)):
            return False
        n = len(P.alphabet)
        rows = [exponent_vector(r) for r in P.relators]
        rows += [[2 * (j == i) for j in range(n)] for i, g in enumerate(P.alphabet) if g.involutive]
        return in_integer_row_span(exponent_vector(free_reduce(self.word)), rows)


# ---------------------------------------------------------------------------
# small-cancellation machinery


Codes = Tuple[int, ...]


def _common_prefix(a: Codes, b: Codes) -> int:
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def piece_ratio(P: Presentation) -> Fraction:
    """Longest piece length over shortest relator length.

    A piece is a subword occurring at two or more distinct positions,
    a position being a (cyclic relator, offset) pair ranging over the
    cyclically reduced relators and their inverses (duplicates up to
    rotation collapse first).  Proper subwords only: a piece is never
    as long as the shortest relator.  A position starts a rotation, so
    the longest piece is the longest common prefix of sorted neighbours
    (`P.forms`, in which an involution square has no form).
    """
    forms = P.forms
    if not forms:
        return Fraction(0, 1)
    shortest = min(map(len, forms))
    best = max(map(_common_prefix, forms, forms[1:]), default=0)
    return Fraction(min(best, shortest - 1), shortest)


def _dehn_rules(P: Presentation):
    """(rules, their key lengths) for P: rules maps the shortest
    more-than-half prefix of each relator form (the reducer meets no
    longer one first) to the inverse form, rotated to cancel it, as a
    `Word`, the relator of the cut's certificate move.  Piece ratio
    below 1/6 keeps the prefixes distinct."""
    ratio = piece_ratio(P)
    if ratio >= Fraction(1, 6):
        raise ValueError(
            f"piece ratio {ratio} is not below 1/6; the greedy reduction "
            "is not a decision procedure here"
        )
    inverse = P.alphabet.inverse
    rules: Dict[Codes, Word] = {}
    for form in P.forms:
        inv = tuple(inverse[c] for c in reversed(form))
        take = len(form) // 2 + 1
        rules[form[:take]] = Word._from_codes(P.alphabet, inv[-take:] + inv[:-take])
    return rules, {len(k) for k in rules}


def dehn_reduce(
    w: Word, P: Presentation, with_moves: bool = False
) -> Union[Word, Tuple[Word, Tuple[Move, ...]]]:
    """Dehn's algorithm in linear time (Domanski and Anshel, 1985).

    Letters move from a pending list onto a freely reduced stack.  A
    stack ending in more than half of a relator form is cut back, and
    the shorter rest of the relator goes onto the pending list, first
    cancelled against its head: stack + pending stays freely reduced,
    so each cut is an insert at an index into the replayed word.
    Requires every piece shorter than one sixth of the relators
    (ValueError otherwise); then a nontrivial freely reduced word
    always holds such a match (Greendlinger's lemma), so the result is
    empty exactly when w represents the identity.
    """
    inverse = P.alphabet.inverse
    pending = _free(_codes_over(w, P.alphabet), inverse)[::-1]
    rules, lengths = P.derived(_dehn_rules)
    moves: List[Move] = []
    stack: List[int] = []
    while pending:
        letter = pending.pop()
        if stack and stack[-1] == inverse[letter]:
            stack.pop()
            continue
        stack.append(letter)
        # every earlier stack was checked, so a match ends at this letter
        for take in lengths:
            splice = rules.get(tuple(stack[-take:])) if take <= len(stack) else None
            if splice is None:
                continue
            if with_moves:
                moves.append(Move(len(stack), splice, "insert"))
            del stack[-take:]
            rest = list(splice.codes[take:])
            while rest and pending and pending[-1] == inverse[rest[-1]]:
                rest.pop()
                pending.pop()
            pending.extend(reversed(rest))
            break
    reduced = Word._from_codes(w.alphabet, stack)
    if with_moves:
        return reduced, tuple(moves)
    return reduced


# ---------------------------------------------------------------------------
# exact word problem


def _dehn_decide(w: Word, P: Presentation, oracle: str) -> Verdict:
    reduced, moves = dehn_reduce(w, P, with_moves=True)
    if len(reduced):
        return Verdict(NONTRIVIAL, oracle, witness=reduced)
    cert = TrivialityCertificate(w, moves)
    if not cert.check(P):
        raise AssertionError("internal error: certificate failed to replay")
    return Verdict(TRIVIAL, oracle, cert)


def word_problem_search(w: Word, P: Presentation, oracle: str = "auto") -> Verdict:
    """Decide whether w is trivial in P: TRIVIAL, with a replay-checked
    certificate, or NONTRIVIAL, with the nonempty Dehn-reduced word as
    witness; the verdict's oracle names the route taken.

    Words of the ten-generator presentation are expanded through the
    standard Tietze eliminations into the five-generator one-relator
    group ("tietze+dehn"); oracle="tietze" accepts only such words.
    Any other presentation ("dehn") must have piece ratio below 1/6:
    there Dehn's algorithm decides the word problem (Greendlinger's
    lemma), so a nonempty reduced word proves w nontrivial.  ValueError for a
    word over another alphabet, on every route, and for a presentation
    with no such decider.
    """
    if oracle not in ("auto", "tietze"):
        raise ValueError(f"unknown oracle {oracle!r}")
    _codes_over(w, P.alphabet)
    if P.forms == _TEN.forms and P.alphabet == _TEN.alphabet:
        return _dehn_decide(substitute(w, _STANDARD_IMAGES), _FIVE, "tietze+dehn")
    if oracle == "tietze":
        raise ValueError("the tietze oracle decides ten-generator words")
    return _dehn_decide(w, P, "dehn")


# ---------------------------------------------------------------------------
# Tietze eliminations


def _eliminate(
    P: Presentation,
    eliminations: Sequence[Tuple[str, str]],
) -> Tuple[Presentation, Dict[str, Word]]:
    """The reduced presentation of `tietze_eliminate`, and each
    generator of P as a word in the survivors.

    The work is on the letter codes of P: `images[a]` spells generator
    a in the generators not yet eliminated, and the relators stay code
    tuples over P's alphabet until the survivors are known.  They are
    stored as a presentation stores them (`words._stored_relators`)
    after every step, not only at the end: a rotation can bring together
    letters that a later substitution cancels.  Recoding the survivors
    in order keeps shortlex order, so each stored relator is the one a
    presentation over the survivors alone would store."""
    A = P.alphabet
    images: Dict[int, Sequence[int]] = {a: (a,) for a in range(len(A))}
    eliminated: List[int] = []
    relators = [r.codes for r in P.relators]
    for gen_name, text in eliminations:
        if gen_name not in A or A.index(gen_name) in eliminated:
            raise ValueError(f"{gen_name} is not a generator at this stage")
        g = A.index(gen_name)
        defining = Word._from_codes(A, A.read(text))
        claim = free_reduce(Word._from_codes(A, (g,)) * invert(defining))
        if not any(len(r) <= 3 and same_relator_class(r, claim) for r in P.relators):
            raise ValueError(
                f"elimination {gen_name} = {defining} is not backed by a "
                "relator of length at most 3"
            )
        expanded = _substituted(defining.codes, images, A)
        if g in expanded or ~g in expanded:
            raise ValueError(f"definition of {gen_name} is cyclic")
        step = {a: (a,) for a in range(len(A))}
        step[g] = expanded
        images = {a: _substituted(w, step, A) for a, w in images.items()}
        relators = _stored_relators([_substituted(r, step, A) for r in relators], len(A))
        eliminated.append(g)
    alive = [a for a in range(len(A)) if a not in eliminated]
    survivors = Alphabet(A.generators[a] for a in alive)
    code = {a: k for k, a in enumerate(alive)}

    def recoded(codes: Sequence[int]) -> Word:
        return Word._from_codes(
            survivors, [code[c] if c >= 0 else ~code[~c] for c in codes]
        )

    reduced = Presentation(survivors, [recoded(r) for r in relators])
    return reduced, {
        A.generators[a].name: recoded(images[a]) for a in alive + eliminated
    }


def tietze_eliminate(
    P: Presentation,
    eliminations: Sequence[Tuple[str, str]],
) -> Presentation:
    """Remove generators whose defining words short relators justify.

    Each (generator, defining word) pair must be backed by a relator
    of P of length at most three equating the two (up to rotation and
    inversion); defining words may mention other eliminated generators
    as long as expansion resolves them to survivors.  Relators are
    rewritten through the definitions and trivial ones dropped.
    """
    return _eliminate(P, eliminations)[0]


_STANDARD_IMAGES: Dict[str, Word] = _eliminate(_TEN, STANDARD_ELIMINATIONS)[1]


# ---------------------------------------------------------------------------
# homomorphisms and their verification


class GroupHom(Record):
    __slots__ = ("source", "target", "images", "name")

    def __init__(
        self,
        source: Presentation,
        target: Presentation,
        images: Mapping[str, Word],
        name: str = "",
    ):
        for gen_name in source.alphabet.names():
            if gen_name not in images:
                raise ValueError(f"no image for generator {gen_name}")
            over = images[gen_name].alphabet
            if over is not target.alphabet and over != target.alphabet:
                raise ValueError(f"image of {gen_name} is not a target word")
        for gen_name in images:
            if gen_name not in source.alphabet:
                raise ValueError(f"image of {gen_name}, which is not a source generator")
        super().__init__(source, target, images, name)

    def apply(self, w: Word) -> Word:
        if w.alphabet is not self.source.alphabet and w.alphabet != self.source.alphabet:
            raise ValueError("word is not over the source alphabet")
        return substitute(w, self.images)


class WellDefinedVerdict(NamedTuple):
    """verdict is "verified" or "refuted"; each detail row is
    (checked word, oracle used, status)."""

    verdict: str
    details: Tuple[Tuple[str, str, str], ...]
    certificates: Tuple[Optional[TrivialityCertificate], ...]


def _verdict(rows: Sequence[Tuple[str, Verdict]]) -> WellDefinedVerdict:
    return WellDefinedVerdict(
        "verified" if all(r.status == TRIVIAL for _, r in rows) else "refuted",
        tuple((label, r.oracle, r.status) for label, r in rows),
        tuple(r.certificate for _, r in rows),
    )


def hom_well_defined(h: GroupHom, oracle: str = "auto") -> WellDefinedVerdict:
    """Certify that every source relator maps to a trivial target word."""
    return _verdict(
        [
            (str(r), word_problem_search(h.apply(r), h.target, oracle))
            for r in h.source.relators
        ]
    )


def verify_mutual_inverse(f: GroupHom, g: GroupHom) -> WellDefinedVerdict:
    """Certify g(f(x)) x^-1 trivial for every generator x (both ways)."""
    if f.target.alphabet is not g.source.alphabet and f.target.alphabet != g.source.alphabet:
        raise ValueError("f.target and g.source do not match")
    if g.target.alphabet is not f.source.alphabet and g.target.alphabet != f.source.alphabet:
        raise ValueError("g.target and f.source do not match")
    rows = []
    for first, second in ((f, g), (g, f)):
        a = first.name or "first"
        b = second.name or "second"
        for code, name in enumerate(first.source.alphabet.names()):
            x = Word._from_codes(first.source.alphabet, (code,))
            round_trip = free_reduce(second.apply(first.apply(x)) * invert(x))
            rows.append(
                (
                    f"{b}({a}({name}))",
                    word_problem_search(round_trip, second.target),
                )
            )
    return _verdict(rows)


# ---------------------------------------------------------------------------
# the two companion isomorphisms


def _hom(source, target, image_texts, name) -> GroupHom:
    images = {k: Word.parse(target.alphabet, v) for k, v in image_texts.items()}
    return GroupHom(source, target, images, name)


def alt_isomorphism_pair() -> Tuple[GroupHom, GroupHom]:
    """Mutually inverse maps between the companion one-relator group
    on alpha..epsilon and the five-generator presentation."""
    f = _hom(
        _ALT,
        _FIVE,
        {
            "alpha": "g4 g9",
            "beta": "g2 g10",
            "gamma": "g10^-1",
            "delta": "g4",
            "epsilon": "g8^-1 g4 g9",
        },
        "f",
    )
    g = _hom(
        _FIVE,
        _ALT,
        {
            "g2": "beta gamma",
            "g4": "delta",
            "g8": "alpha epsilon^-1",
            "g9": "delta^-1 alpha",
            "g10": "gamma^-1",
        },
        "g",
    )
    return f, g


def surface_isomorphism_pair() -> Tuple[GroupHom, GroupHom]:
    """Mutually inverse maps between the genus-five nonorientable
    surface group and the five-generator presentation."""
    f = _hom(
        _SURFACE,
        _FIVE,
        {
            "a1": "g10^-1 g2^-1",
            "a2": "g2 g10 g9^-1 g4^-1 g4^-1",
            "a3": "g4",
            "a4": "g9 g10^-1",
            "a5": "g8^-1 g4 g9 g2 g10",
        },
        "f",
    )
    g = _hom(
        _FIVE,
        _SURFACE,
        {
            "g2": "a2 a3 a3 a4",
            "g4": "a3",
            "g8": "a3^-1 a2^-1 a1^-1 a1^-1 a5^-1",
            "g9": "a3^-1 a3^-1 a2^-1 a1^-1",
            "g10": "a4^-1 a3^-1 a3^-1 a2^-1 a1^-1",
        },
        "g",
    )
    return f, g

