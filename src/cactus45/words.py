"""Words over finitely generated alphabets, with involutive generators.

A letter is a (generator name, exponent) pair with exponent +1 or -1.
Generators marked involutive satisfy g = g^-1; their letters are stored
with exponent +1 and a pair of equal involutive letters cancels freely.
This layer only knows free cancellation and shortlex order -- group
equality modulo relators lives in the rewrite layer.

Serialisation: letters joined by single spaces, inverses marked with a
trailing ``^-1``, the empty word written ``e``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

Letter = Tuple[str, int]


@dataclass(frozen=True)
class Generator:
    name: str
    involutive: bool = False

    def __post_init__(self):
        if not self.name or any(ch.isspace() for ch in self.name):
            raise ValueError(f"bad generator name {self.name!r}")


class Alphabet:
    """An ordered tuple of generators; declaration order fixes shortlex."""

    __slots__ = ("generators", "_index")

    def __init__(self, generators: Iterable[Generator]):
        self.generators = tuple(generators)
        self._index: Dict[str, int] = {}
        for i, g in enumerate(self.generators):
            if not isinstance(g, Generator):
                raise TypeError("Alphabet takes Generator instances")
            if g.name in self._index:
                raise ValueError(f"duplicate generator name {g.name!r}")
            self._index[g.name] = i

    def index(self, name: str) -> int:
        return self._index[name]

    def generator(self, name: str) -> Generator:
        try:
            return self.generators[self._index[name]]
        except KeyError:
            raise KeyError(f"generator {name!r} not in alphabet") from None

    def names(self) -> Tuple[str, ...]:
        return tuple(g.name for g in self.generators)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __iter__(self) -> Iterator[Generator]:
        return iter(self.generators)

    def __len__(self) -> int:
        return len(self.generators)

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.generators == other.generators

    def __hash__(self) -> int:
        return hash(self.generators)

    def __repr__(self) -> str:
        return f"Alphabet({', '.join(self.names())})"


class Word:
    """Immutable word; not automatically reduced (use free_reduce)."""

    __slots__ = ("alphabet", "letters")

    def __init__(self, alphabet: Alphabet, letters: Iterable[Letter] = ()):
        norm = []
        for name, exp in letters:
            gen = alphabet.generator(name)
            if exp not in (1, -1):
                raise ValueError(f"exponent must be +1 or -1, got {exp}")
            norm.append((name, 1) if gen.involutive else (name, exp))
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "letters", tuple(norm))

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError("Word is immutable")

    @classmethod
    def parse(cls, alphabet: Alphabet, text: str) -> "Word":
        text = text.strip()
        if text in ("", "e"):
            return cls(alphabet, ())
        letters = []
        for tok in text.split():
            if tok.endswith("^-1"):
                letters.append((tok[:-3], -1))
            else:
                letters.append((tok, 1))
        return cls(alphabet, letters)

    def __str__(self) -> str:
        if not self.letters:
            return "e"
        return " ".join(n if e == 1 else f"{n}^-1" for n, e in self.letters)

    def __repr__(self) -> str:
        return f"Word({str(self)})"

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Word(self.alphabet, self.letters[i])
        return self.letters[i]

    def __mul__(self, other: "Word") -> "Word":
        if self.alphabet != other.alphabet:
            raise ValueError("cannot concatenate words over different alphabets")
        return Word(self.alphabet, self.letters + other.letters)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and self.alphabet == other.alphabet
            and self.letters == other.letters
        )

    def __hash__(self) -> int:
        return hash(self.letters)

    def is_identity(self) -> bool:
        return not self.letters


def _inv_letter(alphabet: Alphabet, letter: Letter) -> Letter:
    name, exp = letter
    if alphabet.generator(name).involutive:
        return (name, 1)
    return (name, -exp)


def _cancels(alphabet: Alphabet, a: Letter, b: Letter) -> bool:
    if a[0] != b[0]:
        return False
    if alphabet.generator(a[0]).involutive:
        return True
    return a[1] == -b[1]


def free_reduce(w: Word) -> Word:
    """Cancel adjacent inverse pairs until none remain."""
    stack: list[Letter] = []
    for let in w.letters:
        if stack and _cancels(w.alphabet, stack[-1], let):
            stack.pop()
        else:
            stack.append(let)
    return Word(w.alphabet, stack)


def cyclic_reduce(w: Word) -> Word:
    """Freely reduce, then strip cancelling first/last letters."""
    r = free_reduce(w)
    letters = list(r.letters)
    while len(letters) >= 2 and _cancels(w.alphabet, letters[0], letters[-1]):
        letters = letters[1:-1]
    return Word(w.alphabet, letters)


def invert(w: Word) -> Word:
    return Word(
        w.alphabet, [_inv_letter(w.alphabet, l) for l in reversed(w.letters)]
    )


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
        elif img.alphabet != target:
            raise ValueError("substitution images span different alphabets")
    out: list[Letter] = []
    for name, exp in w.letters:
        if name not in images:
            raise KeyError(f"no image for generator {name!r}")
        img = images[name]
        out.extend(img.letters if exp == 1 else invert(img).letters)
    if target is None:
        target = w.alphabet
    return free_reduce(Word(target, out))


def shortlex_key(w: Word) -> Tuple:
    """Sort key: length first, then letters by (alphabet index, sign)."""
    alph = w.alphabet
    return (
        len(w.letters),
        tuple((alph.index(n), 0 if e == 1 else 1) for n, e in w.letters),
    )


def rotations(w: Word) -> list[Word]:
    """All cyclic rotations (length |w| list; duplicates kept)."""
    letters = w.letters
    return [
        Word(w.alphabet, letters[i:] + letters[:i]) for i in range(len(letters))
    ] or [w]


def _cancels_strict(a: Letter, b: Letter) -> bool:
    # opposite exponents only: involutive squares survive (they are the
    # involution relators, which presentations must be able to store)
    return a[0] == b[0] and a[1] == -b[1]


def _storage_reduce(w: Word) -> Word:
    """Cyclic reduction for relator storage: cancels x·x^-1 pairs but
    keeps involutive squares intact."""
    stack: list[Letter] = []
    for let in w.letters:
        if stack and _cancels_strict(stack[-1], let):
            stack.pop()
        else:
            stack.append(let)
    while len(stack) >= 2 and _cancels_strict(stack[0], stack[-1]):
        stack = stack[1:-1]
    return Word(w.alphabet, stack)


def normalize_relator(w: Word) -> Word:
    """Cyclically reduce and pick the shortlex-least rotation."""
    r = cyclic_reduce(w)
    if not r.letters:
        return r
    return min(rotations(r), key=shortlex_key)


def same_relator_class(r1: Word, r2: Word) -> bool:
    """True if r1 and r2 agree up to cyclic rotation and inversion."""
    a = normalize_relator(r1)
    b = normalize_relator(r2)
    return a == b or a == normalize_relator(invert(r2))


class Presentation:
    """Alphabet plus relators, stored cyclically reduced and rotated
    to their shortlex-least representative.  Relators that reduce to
    the identity are dropped; duplicates (after normalisation) collapse."""

    __slots__ = ("alphabet", "relators")

    def __init__(self, alphabet: Alphabet, relators: Iterable[Word]):
        seen = []
        for r in relators:
            if r.alphabet != alphabet:
                raise ValueError("relator over a different alphabet")
            sr = _storage_reduce(r)
            if sr.is_identity():
                continue
            n = min(rotations(sr), key=shortlex_key)
            if n not in seen:
                seen.append(n)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "relators", tuple(seen))

    def __setattr__(self, *a):
        raise AttributeError("Presentation is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Presentation)
            and self.alphabet == other.alphabet
            and frozenset(self.relators) == frozenset(other.relators)
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, frozenset(self.relators)))

    def __repr__(self) -> str:
        rels = "; ".join(str(r) for r in self.relators)
        return f"Presentation(<{', '.join(self.alphabet.names())} | {rels}>)"

    def word(self, text: str) -> Word:
        return Word.parse(self.alphabet, text)
