"""Letters and words over the two-factor alphabet x1..xr, y1..yq.

A letter carries a factor tag ('x' for the free factor, 'y' for the finite
factor), a 1-based generator index, and a sign.  Letters are interned:
there is one object per (factor, index, sign), so equality is identity
and hashing a letter costs no Python call.  A word is a plain tuple of
letters; the empty tuple is the identity.

Words denote elements of the free product of a free group (the x-letters)
and a finite group (the y-letters).  ``normal_form`` rewrites a word into
the alternating syllable form of the free product: x-syllables are freely
reduced, adjacent y-letters are multiplied out in the finite group's table,
and identity syllables are dropped.
"""

from __future__ import annotations


class Letter:
    """One signed generator; immutable.  ``Letter(factor, index, sign)``
    returns the one shared letter with those values, so equal letters are
    the same object and ``==`` and ``hash`` are object identity."""

    __slots__ = ("factor", "index", "sign")

    def __new__(cls, factor: str, index: int, sign: int = 1):
        letter = _INTERNED.get((factor, index, sign))
        if letter is not None:
            return letter
        if factor not in ("x", "y"):
            raise ValueError(f"factor must be 'x' or 'y', got {factor!r}")
        if index < 1:
            raise ValueError(f"generator index must be positive, got {index}")
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        pair = []
        for s in (sign, -sign):
            letter = object.__new__(cls)
            object.__setattr__(letter, "factor", factor)
            object.__setattr__(letter, "index", index)
            object.__setattr__(letter, "sign", s)
            _INTERNED[factor, index, s] = letter
            pair.append(letter)
        _INVERSE[pair[0]], _INVERSE[pair[1]] = pair[1], pair[0]
        return pair[0]

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


# The shared letters: (factor, index, sign) -> letter, and letter -> its
# inverse.  A letter and its inverse are made together.
_INTERNED: dict = {}
_INVERSE: dict = {}


def x_letter(index: int, sign: int = 1) -> Letter:
    """``Letter("x", index, sign)``, by one lookup once the letter exists
    (a letter is never falsy)."""
    return _INTERNED.get(("x", index, sign)) or Letter("x", index, sign)


def y_letter(index: int, sign: int = 1) -> Letter:
    """``Letter("y", index, sign)``, by one lookup once the letter exists."""
    return _INTERNED.get(("y", index, sign)) or Letter("y", index, sign)


def x_alphabet(rank: int) -> tuple[Letter, ...]:
    """All signed x-letters x1, x1^-1, ..., xr, xr^-1."""
    return tuple(x_letter(i, sign) for i in range(1, rank + 1) for sign in (1, -1))


def y_alphabet(count: int) -> tuple[Letter, ...]:
    """All signed y-letters y1, y1^-1, ..., yq, yq^-1."""
    return tuple(y_letter(j, sign) for j in range(1, count + 1) for sign in (1, -1))


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
    The empty tuple denotes the identity.  ``table`` is a FiniteGroupTable;
    a y-run is multiplied out by one index into ``table.steps`` per
    letter, so no permutation is composed.  A y-letter that names no
    generator of the table raises ValueError.
    """
    steps = table.steps
    identity = table.identity
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
            step = steps.get(letter)
            if step is None:
                raise ValueError(f"no generator y{letter.index}")
            if stack and stack[-1][0] == "y":
                product = step[stack[-1][1]]
                if product == identity:
                    stack.pop()
                else:
                    stack[-1][1] = product
            elif step[identity] != identity:
                stack.append(["y", step[identity]])
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
