"""Letters and words over the two-factor alphabet x1..xr, y1..yq.

A letter carries a factor tag ('x' for the free factor, 'y' for the finite
factor), a 1-based generator index, and a sign.  A word is a plain tuple of
letters; the empty tuple is the identity.

Words denote elements of the free product of a free group (the x-letters)
and a finite group (the y-letters).  ``normal_form`` rewrites a word into
the alternating syllable form of the free product: x-syllables are freely
reduced, adjacent y-letters are multiplied out in the finite group's table,
and identity syllables are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Letter:
    factor: str
    index: int
    sign: int = 1

    def __post_init__(self):
        if self.factor not in ("x", "y"):
            raise ValueError(f"factor must be 'x' or 'y', got {self.factor!r}")
        if self.index < 1:
            raise ValueError(f"generator index must be positive, got {self.index}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")

    def inverse(self) -> "Letter":
        key = (self.factor, self.index, -self.sign)
        letter = _INTERNED.get(key)
        return letter if letter is not None else _intern(*key)

    @property
    def sort_key(self):
        # x before y, ascending index, positive sign first
        return (self.factor != "x", self.index, self.sign < 0)

    def __str__(self):
        name = f"{self.factor}{self.index}"
        return name if self.sign > 0 else name + "^-1"


# One shared Letter per (factor, index, sign).  Letters are immutable and
# compare by value, so sharing is invisible to callers; it spares the hot
# graph loops a construction and a validation on every inverse().
_INTERNED: dict = {}


def _intern(factor: str, index: int, sign: int) -> Letter:
    letter = _INTERNED.get((factor, index, sign))
    if letter is None:
        letter = _INTERNED[factor, index, sign] = Letter(factor, index, sign)
    return letter


def x_letter(index: int, sign: int = 1) -> Letter:
    return _intern("x", index, sign)


def y_letter(index: int, sign: int = 1) -> Letter:
    return _intern("y", index, sign)


def x_alphabet(rank: int) -> tuple[Letter, ...]:
    """All signed x-letters x1, x1^-1, ..., xr, xr^-1."""
    return tuple(_intern("x", i, sign) for i in range(1, rank + 1) for sign in (1, -1))


def y_alphabet(count: int) -> tuple[Letter, ...]:
    """All signed y-letters y1, y1^-1, ..., yq, yq^-1."""
    return tuple(_intern("y", j, sign) for j in range(1, count + 1) for sign in (1, -1))


Word = tuple  # tuple[Letter, ...]


def word_inverse(word) -> Word:
    return tuple(letter.inverse() for letter in reversed(word))


def free_reduce(word) -> Word:
    """Cancel adjacent inverse letters until no cancellation applies."""
    stack = []
    for letter in word:
        if stack and stack[-1] == letter.inverse():
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


def word_str(word) -> str:
    """Canonical spelling: runs of an equal letter collapse to an exponent.

    The empty word prints as "1"; this round-trips with the problem-file
    word grammar.
    """
    if not word:
        return "1"
    parts = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        run = j - i
        letter = word[i]
        name = f"{letter.factor}{letter.index}"
        if run == 1:
            parts.append(str(letter))
        else:
            exponent = run if letter.sign > 0 else -run
            parts.append(f"{name}^{exponent}")
        i = j
    return " ".join(parts)


def normal_form(word, table) -> tuple:
    """Alternating syllable form of a word in the free product.

    Returns a tuple of syllables ('x', letters) / ('y', element index),
    with x-syllables freely reduced, y-syllables nonidentity elements of
    the finite group, and no two adjacent syllables from the same factor.
    The empty tuple denotes the identity.  ``table`` is a FiniteGroupTable
    (only its letter_element and multiply methods and its identity are used).
    """
    stack = []  # mutable entries ["x", [letters]] or ["y", element]
    for letter in word:
        if letter.factor == "x":
            if stack and stack[-1][0] == "x":
                run = stack[-1][1]
                if run and run[-1] == letter.inverse():
                    run.pop()
                    if not run:
                        stack.pop()
                else:
                    run.append(letter)
            else:
                stack.append(["x", [letter]])
        else:
            element = table.letter_element(letter)
            if stack and stack[-1][0] == "y":
                product = table.multiply(stack[-1][1], element)
                if product == table.identity:
                    stack.pop()
                else:
                    stack[-1][1] = product
            elif element != table.identity:
                stack.append(["y", element])
    return tuple(("x", tuple(run)) if tag == "x" else ("y", run) for tag, run in stack)


def spell(form, table) -> Word:
    """Spell a normal form back into a word, using geodesic spellings for
    finite-factor syllables."""
    letters = []
    for tag, value in form:
        if tag == "x":
            letters.extend(value)
        else:
            letters.extend(table.element_word(value))
    return tuple(letters)
