"""Reference oracle for the words layer: free reduction, cyclic
reduction, inversion, shortlex keys and relator storage computed on
(generator name, exponent) letters, as `cactus45.words` did before it
stored words as letter codes.

Every function takes a `Word` and reads only its alphabet's generators
and its `letters`, so the tests can compare the code-based layer with
these definitions letter by letter.
"""

from __future__ import annotations

from typing import List, Tuple

from cactus45.words import Word

Letter = Tuple[str, int]
Letters = Tuple[Letter, ...]


def _involutive(w: Word, name: str) -> bool:
    return w.alphabet.generators[w.alphabet.index(name)].involutive


def _inv_letter(w: Word, letter: Letter) -> Letter:
    name, exp = letter
    return (name, 1) if _involutive(w, name) else (name, -exp)


def _cancels(w: Word, a: Letter, b: Letter) -> bool:
    if a[0] != b[0]:
        return False
    return _involutive(w, a[0]) or a[1] == -b[1]


def free_reduce(w: Word) -> Letters:
    stack: List[Letter] = []
    for let in w.letters:
        if stack and _cancels(w, stack[-1], let):
            stack.pop()
        else:
            stack.append(let)
    return tuple(stack)


def cyclic_reduce(w: Word) -> Letters:
    letters = list(free_reduce(w))
    while len(letters) >= 2 and _cancels(w, letters[0], letters[-1]):
        letters = letters[1:-1]
    return tuple(letters)


def invert(w: Word) -> Letters:
    return tuple(_inv_letter(w, l) for l in reversed(w.letters))


def shortlex_key(w: Word) -> Tuple:
    """Length first, then letters by (alphabet index, sign)."""
    alph = w.alphabet
    return (
        len(w.letters),
        tuple((alph.index(n), 0 if e == 1 else 1) for n, e in w.letters),
    )


def stored_relator(w: Word) -> Letters:
    """The form a presentation stores: x x^-1 pairs cancelled cyclically
    (involution squares survive), then the shortlex-least rotation; the
    empty tuple for a relator that reduces to the identity."""
    stack: List[Letter] = []
    for let in w.letters:
        if stack and stack[-1][0] == let[0] and stack[-1][1] == -let[1]:
            stack.pop()
        else:
            stack.append(let)
    while len(stack) >= 2 and stack[0][0] == stack[-1][0] and stack[0][1] == -stack[-1][1]:
        stack = stack[1:-1]
    if not stack:
        return ()
    rots = [Word(w.alphabet, stack[i:] + stack[:i]) for i in range(len(stack))]
    return min(rots, key=shortlex_key).letters
