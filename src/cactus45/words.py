"""Words over finitely generated alphabets, with involutive generators.

A letter is a (generator name, exponent) pair with exponent +1 or -1.
Generators marked involutive satisfy g = g^-1; their letters are stored
with exponent +1 and a pair of equal involutive letters cancels freely.
This layer only knows free cancellation and shortlex order -- group
equality modulo relators lives in the rewrite layer.

Inside, a word is a tuple of letter codes, and this module alone fixes
the code: generator i of the alphabet is i at exponent +1 and ~i
(= -i-1) at exponent -1, and an involutive generator is always i.  The
other layers compute on codes; (name, exponent) letters are read and
written only at the API boundary: `Word(alphabet, letters)`,
`Word.letters`, iteration, indexing, `parse`, `str`, `Alphabet.read`
and `Alphabet.spell`.

Both word problems share one vocabulary, fixed here as well: a
presentation lists once, in `forms`, the relator rotations a move may
use, a `Move` is the step of both certificates (square moves proving
equality in the rewrite layer, Dehn splices proving triviality in
grouptheory), `replay` is the one cursor that replays either kind, each
certificate passing only its own edit at the cursor, and a `Verdict` is
the answer of either decider, with its four statuses.

Records generate no code at import.  A plain record is a `NamedTuple`,
like `Move`; one that validates its fields, or must not act as a tuple,
subclasses `Record`, like `Generator`, and keeps only its `__slots__`,
its properties and an `__init__` that validates and then hands the
fields to `Record.__init__` in `__slots__` order.  `Record` makes it
equal when its class and fields are, hashed as the tuple of its fields,
immutable (assignment and `del` refused), shown as
``Name(field=value, ...)``, and copied or pickled by calling the class
again, so a loaded record is validated once more.

Serialisation: letters joined by single spaces, inverses marked with a
trailing ``^-1``, the empty word written ``e``; so no generator may be
named ``e`` or end in ``^-1``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

Letter = Tuple[str, int]


class Record:
    """Base of the validating records: see the module docstring."""

    __slots__ = ()

    def __init__(self, *values):
        for field, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, field, value)

    def _fields(self) -> Tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({shown})"

    def __reduce__(self):
        return type(self), self._fields()


class Generator(Record):
    __slots__ = ("name", "involutive")

    def __init__(self, name: str, involutive: bool = False):
        # `e` spells the empty word and `^-1` marks an inverse, so either
        # name would not read back as its own letter
        if not name or any(ch.isspace() for ch in name) or name == "e" or name.endswith("^-1"):
            raise ValueError(f"bad generator name {name!r}")
        super().__init__(name, involutive)


class Alphabet:
    """An ordered tuple of generators; declaration order fixes shortlex.

    `inverse[c]` is the code of the inverse of the letter with code c,
    and `_letters[c]` its (name, exponent) pair: codes 0..n-1 index
    both tables from the start, codes ~0..~(n-1) from the end.  Every
    word over it shares it, so it refuses assignment and `del`."""

    __slots__ = ("generators", "_index", "inverse", "_letters")

    def __init__(self, generators: Iterable[Generator]):
        gens = tuple(generators)
        index: Dict[str, int] = {}
        for i, g in enumerate(gens):
            if not isinstance(g, Generator):
                raise TypeError("Alphabet takes Generator instances")
            if g.name in index:
                raise ValueError(f"duplicate generator name {g.name!r}")
            index[g.name] = i
        inverse = tuple(i if g.involutive else ~i for i, g in enumerate(gens))
        inverse += tuple(reversed(range(len(gens))))
        letters = tuple((g.name, 1) for g in gens) + tuple((g.name, -1) for g in gens[::-1])
        for field, value in zip(self.__slots__, (gens, index, inverse, letters)):
            object.__setattr__(self, field, value)

    def __setattr__(self, *a):
        raise AttributeError("Alphabet is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return Alphabet, (self.generators,)

    def index(self, name: str) -> int:
        return self._index[name]

    def _code(self, letter: Letter) -> int:
        """The code of a (name, exponent) letter, checked."""
        name, exp = letter
        i = self._index.get(name)
        if i is None:
            raise KeyError(f"generator {name!r} not in alphabet")
        if exp not in (1, -1):
            raise ValueError(f"exponent must be +1 or -1, got {exp}")
        return i if exp == 1 or self.generators[i].involutive else ~i

    def read(self, text: str) -> Tuple[int, ...]:
        """The checked letter codes of a serialised word."""
        text = text.strip()
        if text in ("", "e"):
            return ()
        return tuple(
            self._code((tok[:-3], -1) if tok.endswith("^-1") else (tok, 1))
            for tok in text.split()
        )

    def spell(self, code: int) -> str:
        """The serialised letter of one code: the name, marked if inverse."""
        name, exp = self._letters[code]
        return name if exp == 1 else f"{name}^-1"

    def names(self) -> Tuple[str, ...]:
        return tuple(g.name for g in self.generators)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __iter__(self) -> Iterator[Generator]:
        return iter(self.generators)

    def __len__(self) -> int:
        return len(self.generators)

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Alphabet) and self.generators == other.generators
        )

    def __hash__(self) -> int:
        return hash(self.generators)

    def __repr__(self) -> str:
        return f"Alphabet({', '.join(self.names())})"


class Word:
    """Immutable word; not automatically reduced (use free_reduce)."""

    __slots__ = ("alphabet", "codes")

    def __init__(self, alphabet: Alphabet, letters: Iterable[Letter] = ()):
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "codes", tuple(map(alphabet._code, letters)))

    @classmethod
    def _from_codes(cls, alphabet: Alphabet, codes: Iterable[int]) -> "Word":
        """A word from letter codes that are already valid for alphabet."""
        w = object.__new__(cls)
        object.__setattr__(w, "alphabet", alphabet)
        object.__setattr__(w, "codes", tuple(codes))
        return w

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError("Word is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return Word._from_codes, (self.alphabet, self.codes)

    @property
    def letters(self) -> Tuple[Letter, ...]:
        return tuple(map(self.alphabet._letters.__getitem__, self.codes))

    @classmethod
    def parse(cls, alphabet: Alphabet, text: str) -> "Word":
        return cls._from_codes(alphabet, alphabet.read(text))

    def __str__(self) -> str:
        if not self.codes:
            return "e"
        return " ".join(map(self.alphabet.spell, self.codes))

    def __repr__(self) -> str:
        return f"Word({str(self)})"

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Word._from_codes(self.alphabet, self.codes[i])
        return self.alphabet._letters[self.codes[i]]

    def __mul__(self, other: "Word") -> "Word":
        if self.alphabet is not other.alphabet and self.alphabet != other.alphabet:
            raise ValueError("cannot concatenate words over different alphabets")
        return Word._from_codes(self.alphabet, self.codes + other.codes)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and self.codes == other.codes
            and (self.alphabet is other.alphabet or self.alphabet == other.alphabet)
        )

    def __hash__(self) -> int:
        return hash(self.codes)

    def is_identity(self) -> bool:
        return not self.codes


def _codes_over(w: Word, alphabet: Alphabet) -> Tuple[int, ...]:
    """w's codes; ValueError unless w is a word over alphabet.  `is`
    first: comparing alphabets calls Alphabet.__eq__."""
    if w.alphabet is not alphabet and w.alphabet != alphabet:
        raise ValueError("word over a different alphabet")
    return w.codes


def _free(codes: Iterable[int], inverse) -> List[int]:
    """Cancel each code against a left neighbour equal to its inverse."""
    stack: List[int] = []
    for c in codes:
        if stack and stack[-1] == inverse[c]:
            stack.pop()
        else:
            stack.append(c)
    return stack


def _cyclic(codes: Iterable[int], inverse) -> List[int]:
    """Free reduction, then strip first/last codes that cancel."""
    stack = _free(codes, inverse)
    i, j = 0, len(stack)
    while j - i >= 2 and stack[i] == inverse[stack[j - 1]]:
        i, j = i + 1, j - 1
    return stack[i:j]


def free_reduce(w: Word) -> Word:
    """Cancel adjacent inverse pairs until none remain."""
    return Word._from_codes(w.alphabet, _free(w.codes, w.alphabet.inverse))


def cyclic_reduce(w: Word) -> Word:
    """Freely reduce, then strip cancelling first/last letters."""
    return Word._from_codes(w.alphabet, _cyclic(w.codes, w.alphabet.inverse))


def invert(w: Word) -> Word:
    inverse = w.alphabet.inverse
    return Word._from_codes(w.alphabet, [inverse[c] for c in reversed(w.codes)])


def _substituted(
    codes: Iterable[int], table: Mapping[int, Sequence[int]], target: Alphabet
) -> List[int]:
    """The codes over target that replace each code c >= 0 by the codes
    table[c] and each ~c by their inverse, freely reduced."""
    inverse = target.inverse
    spelled: Dict[int, Sequence[int]] = {}
    out: List[int] = []
    for c in codes:
        img = spelled.get(c)
        if img is None:
            img = table[c] if c >= 0 else [inverse[x] for x in reversed(table[~c])]
            spelled[c] = img
        out.extend(img)
    return _free(out, inverse)


def substitute(w: Word, images: Mapping[str, Word]) -> Word:
    """Replace each generator by its image word; result freely reduced.

    Every generator occurring in w must have an image; the images fix
    the target alphabet (which must be shared between them).  An empty
    word maps to the empty word over w's own alphabet.
    """
    target: Optional[Alphabet] = None
    for img in images.values():
        if target is None:
            target = img.alphabet
        elif img.alphabet is not target and img.alphabet != target:
            raise ValueError("substitution images span different alphabets")
    gens = w.alphabet.generators
    table = {i: images[g.name].codes for i, g in enumerate(gens) if g.name in images}
    missing = {c if c >= 0 else ~c for c in w.codes} - table.keys()
    if missing:
        raise KeyError(f"no image for generator {gens[min(missing)].name!r}")
    target = w.alphabet if target is None else target
    return Word._from_codes(target, _substituted(w.codes, table, target))


def shortlex_key(w: Word) -> Tuple:
    """Sort key: length first, then letters by (alphabet index, sign)."""
    return (len(w.codes), tuple(2 * c if c >= 0 else 2 * ~c + 1 for c in w.codes))


def rotations(w: Word) -> list[Word]:
    """All cyclic rotations (length |w| list; duplicates kept)."""
    codes = w.codes
    return [
        Word._from_codes(w.alphabet, codes[i:] + codes[:i]) for i in range(len(codes))
    ] or [w]


def normalize_relator(w: Word) -> Word:
    """Cyclically reduce and pick the shortlex-least rotation."""
    r = cyclic_reduce(w)
    if not r.codes:
        return r
    return min(rotations(r), key=shortlex_key)


def same_relator_class(r1: Word, r2: Word) -> bool:
    """True if r1 and r2 agree up to cyclic rotation and inversion."""
    a = normalize_relator(r1)
    b = normalize_relator(r2)
    return a == b or a == normalize_relator(invert(r2))


def _stored_relators(relators: Iterable[Sequence[int]], n: int) -> Tuple[Tuple[int, ...], ...]:
    """The code tuples a presentation on n generators stores for these
    relators, as `Presentation` says; only x x^-1 pairs cancel, so that
    an involution square is stored."""
    strict = {c: ~c for c in range(-n, n)}
    stored: Dict[Tuple[int, ...], None] = {}
    for r in relators:
        sr = _cyclic(r, strict)
        if sr:
            key = [2 * c if c >= 0 else 2 * ~c + 1 for c in sr]  # shortlex_key's
            i = min(range(len(sr)), key=lambda i: key[i:] + key[:i])
            stored.setdefault(tuple(sr[i:] + sr[:i]))
    return tuple(stored)


class Presentation:
    """Alphabet plus relators, stored cyclically reduced and rotated
    to their shortlex-least representative.  Relators that reduce to
    the identity are dropped; duplicates (after normalisation) collapse,
    the first kept.  `_stored_relators` does this on code tuples.

    `forms` is the one table of relator forms that every relator move
    reads: each rotation of each relator and of its inverse, as sorted
    code tuples, after cyclic reduction with the alphabet's inverses (an
    involution square has no form).  A rotation class already listed
    adds nothing; a proper power keeps its repeated rotations.
    `is_form` looks a code tuple up in it.

    `derived` keeps each value derived from the presentation (its
    engine and balls, its Dehn rules, J4''s fundamental domain) in one
    memo, which equality, hashing, copy and pickle ignore: a copy starts
    with it empty, and each value dies with its presentation."""

    __slots__ = ("alphabet", "relators", "forms", "_form_set", "_hash", "_memo")

    def __init__(self, alphabet: Alphabet, relators: Iterable[Word]):
        relators = list(relators)
        if any(r.alphabet is not alphabet and r.alphabet != alphabet for r in relators):
            raise ValueError("relator over a different alphabet")
        stored = _stored_relators([r.codes for r in relators], len(alphabet))
        seen = [Word._from_codes(alphabet, r) for r in stored]
        inverse = alphabet.inverse
        forms: List[Tuple[int, ...]] = []
        classes = set()
        for r in stored:
            base = tuple(_cyclic(r, inverse))
            for b in (base, tuple(inverse[c] for c in reversed(base))):
                rots = [b[i:] + b[:i] for i in range(len(b))]
                if rots and min(rots) not in classes:
                    classes.add(min(rots))
                    forms += rots
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "relators", tuple(seen))
        object.__setattr__(self, "forms", tuple(sorted(forms)))
        object.__setattr__(self, "_form_set", frozenset(forms))
        # immutable, so hashed once
        object.__setattr__(self, "_hash", hash((alphabet, frozenset(seen))))
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, *a):
        raise AttributeError("Presentation is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return Presentation, (self.alphabet, self.relators)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Presentation)
            and self.alphabet == other.alphabet
            and frozenset(self.relators) == frozenset(other.relators)
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        rels = "; ".join(str(r) for r in self.relators)
        return f"Presentation(<{', '.join(self.alphabet.names())} | {rels}>)"

    def word(self, text: str) -> Word:
        return Word.parse(self.alphabet, text)

    def is_form(self, codes: Tuple[int, ...]) -> bool:
        return codes in self._form_set

    def derived(self, build, *args):
        """build(self, *args), built on first use and kept in the memo;
        the presentation is immutable, so the value never goes stale."""
        memo, key = self._memo, (build, *args)
        if key not in memo:
            memo[key] = build(self, *args)
        return memo[key]


class Move(NamedTuple):
    """One relator move, the step of both certificates: a `NamedTuple`,
    so a plain immutable record, hashable and equal by its fields.

    kind 'insert' splices `relator` in at `position` and 'delete'
    removes it from there; 'swap' takes a length-4 relator form
    y1 y2 y3 y4 and replaces the pair (y1, y2) at `position` by
    (y4, y3).  Equality certificates insert and delete squares x x;
    triviality certificates insert relator forms, each followed by free
    reduction.  `replay` makes the moves of either kind."""

    position: int
    relator: Word
    kind: str

    @property
    def letters(self) -> Tuple[Letter, ...]:
        return self.relator.letters


EQUAL, PROVEN_UNEQUAL = "EQUAL", "PROVEN-UNEQUAL"
TRIVIAL, NONTRIVIAL = "TRIVIAL", "NONTRIVIAL"


class Verdict(NamedTuple):
    """The exact answer of either word problem, and what backs it.

    `rewrite.words_equal` answers EQUAL, with an `EqualityCertificate`
    when one was asked for, or PROVEN_UNEQUAL, witnessed by the two S4
    images when they differ (oracle "s4"), else by the normal forms.
    `grouptheory.word_problem_search` answers TRIVIAL, with a
    `TrivialityCertificate`, or NONTRIVIAL, witnessed by the nonempty
    Dehn-reduced word.  `oracle` names the decider.  True exactly for
    EQUAL and TRIVIAL; `equal` and `nontrivial` read the status."""

    status: str
    oracle: str
    certificate: object = None
    witness: object = None

    def __bool__(self) -> bool:
        return self.status in (EQUAL, TRIVIAL)

    @property
    def equal(self) -> bool:
        return self.status == EQUAL

    @property
    def nontrivial(self) -> bool:
        return self.status == NONTRIVIAL


def replay(P: Presentation, w: Word, moves: Iterable[Move], edit) -> Word:
    """The word that the moves make of w, a word over P.

    The word is a gap buffer: `left` holds the codes left of the cursor
    and `right` those right of it in reverse, so right[-1] follows the
    cursor, and the cursor jumps to each move's position by one slice.
    Each move's alphabet, and its position (0 to the word's length), is
    checked here; edit(P, left, right, kind, relator codes) then makes
    the move at the cursor, or raises ValueError on a move that its
    certificate does not accept.  ValueError on any other failed check."""
    alphabet = P.alphabet
    left, right = list(_codes_over(w, alphabet)), []
    for pos, relator, kind in moves:
        if relator.alphabet is not alphabet and relator.alphabet != alphabet:
            raise ValueError(f"{kind} by {relator}, a word over a different alphabet")
        gap, size = len(left), len(left) + len(right)
        if not 0 <= pos <= size:
            raise ValueError(f"move position {pos} out of range for length {size}")
        if pos < gap:
            right += left[pos:][::-1]
            del left[pos:]
        elif pos > gap:
            cut = size - pos  # right[:cut] stays right of the cursor
            left += right[cut:][::-1]
            del right[cut:]
        edit(P, left, right, kind, relator.codes)
    return Word._from_codes(alphabet, left + right[::-1])
