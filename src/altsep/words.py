"""Letters and words over the two-factor alphabet x1..xr, y1..yq.

A letter carries a factor tag ('x' for the free factor, 'y' for the finite
factor), a 1-based generator index, and a sign.  Letters are interned:
there is one object per (factor, index, sign), so equality is identity
and hashing a letter costs no Python call.  A word is a plain tuple of
letters; the empty tuple is the identity.

Words denote elements of the free product of a free group (the x-letters)
and a finite group (the y-letters).  ``flat_form`` reduces a word in one
pass to a flat list: x-letters freely reduced, each maximal y-run
multiplied out in the finite group's table to one element index, and
identity y-runs dropped, so that no two element indices are adjacent:
the alternating syllable form of the free product, its syllables laid
end to end.
"""

from __future__ import annotations


class Letter:
    """One signed generator; immutable.  ``Letter(factor, index, sign)``
    returns the one shared letter with those values, so equal letters are
    the same object and ``==`` and ``hash`` are object identity."""

    __slots__ = ("factor", "index", "sign")

    def __new__(cls, factor: str, index: int, sign: int = 1):
        if factor not in _BY_INDEX:
            raise ValueError(f"factor must be 'x' or 'y', got {factor!r}")
        if index < 1:
            raise ValueError(f"generator index must be positive, got {index}")
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        by_sign = _BY_INDEX[factor]
        letter = by_sign[sign].get(index)
        if letter is None:
            letter, inverse = object.__new__(cls), object.__new__(cls)
            for made, s in ((letter, sign), (inverse, -sign)):
                object.__setattr__(made, "factor", factor)
                object.__setattr__(made, "index", index)
                object.__setattr__(made, "sign", s)
                by_sign[s][index] = made
            _INVERSE[letter], _INVERSE[inverse] = inverse, letter
        return letter

    def __setattr__(self, name, value):
        raise AttributeError(f"Letter is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Letter is immutable; cannot delete {name!r}")

    def __reduce__(self):
        # copies and unpickled letters are the shared letter itself
        return (Letter, (self.factor, self.index, self.sign))

    def inverse(self) -> "Letter":
        return _INVERSE[self]

    @property
    def sort_key(self):
        # x before y, ascending index, positive sign first
        return (self.factor != "x", self.index, self.sign < 0)

    def __str__(self):
        name = f"{self.factor}{self.index}"
        return name if self.sign > 0 else name + "^-1"

    def __repr__(self):
        return f"Letter(factor={self.factor!r}, index={self.index!r}, sign={self.sign!r})"


# The shared letters: factor -> sign -> index -> letter, and letter -> its
# inverse.  A letter and its inverse are made together.
_BY_INDEX: dict = {"x": {1: {}, -1: {}}, "y": {1: {}, -1: {}}}
_INVERSE: dict = {}
_X = _BY_INDEX["x"]
_Y = _BY_INDEX["y"]


def x_letter(index: int, sign: int = 1) -> Letter:
    """``Letter("x", index, sign)``, by one lookup of the index once the
    letter exists."""
    try:
        return _X[sign][index]
    except KeyError:  # a new letter, or arguments Letter refuses
        return Letter("x", index, sign)


def y_letter(index: int, sign: int = 1) -> Letter:
    """``Letter("y", index, sign)``, by one lookup of the index once the
    letter exists."""
    try:
        return _Y[sign][index]
    except KeyError:
        return Letter("y", index, sign)


def x_alphabet(rank: int) -> tuple[Letter, ...]:
    """All signed x-letters x1, x1^-1, ..., xr, xr^-1."""
    return tuple(x_letter(i, sign) for i in range(1, rank + 1) for sign in (1, -1))


def y_alphabet(count: int) -> tuple[Letter, ...]:
    """All signed y-letters y1, y1^-1, ..., yq, yq^-1."""
    return tuple(y_letter(j, sign) for j in range(1, count + 1) for sign in (1, -1))


Word = tuple  # tuple[Letter, ...]


def word_inverse(word) -> Word:
    return tuple(letter.inverse() for letter in reversed(word))


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


def flat_form(word, table) -> list:
    """The word reduced in one pass, as a flat list: x-letters, freely
    reduced, and in place of each y-run the nonidentity element index it
    multiplies to, so that no two indices are adjacent.  The empty list
    denotes the identity.  ``table`` is a FiniteGroupTable; a y-run is
    multiplied out by one index into ``table.steps`` per letter, so no
    permutation is composed.  A y-letter that names no generator of the
    table raises ValueError."""
    steps = table.steps
    identity = table.identity
    inverse = _INVERSE
    stack = []
    for letter in word:
        step = steps.get(letter)
        if step is None:
            if letter.factor != "x":
                raise ValueError(f"no generator y{letter.index}")
            if stack and stack[-1] is inverse[letter]:
                stack.pop()
            else:
                stack.append(letter)
        elif stack and stack[-1].__class__ is int:
            product = step[stack[-1]]
            if product == identity:
                stack.pop()
            else:
                stack[-1] = product
        elif step[identity] != identity:
            stack.append(step[identity])
    return stack

