import copy
import pickle
import random

from altsep import words
from altsep.words import (
    Letter,
    flat_form,
    word_inverse,
    word_str,
    x_alphabet,
    x_letter as x,
    y_alphabet,
    y_letter as y,
)

import pytest

from oracles import free_reduce, normal_form_oracle, random_raw_word, spell


def test_letter_inverse_is_an_involution():
    for letter in (x(1), x(3, -1), y(2)):
        assert letter.inverse().inverse() == letter
        assert letter.inverse().factor == letter.factor
        assert letter.inverse().index == letter.index
        assert letter.inverse().sign == -letter.sign


def test_letters_are_shared_but_compare_by_value():
    assert x(1) is x(1) and x(1).inverse() is x(1, -1) and y(2, -1).inverse() is y(2)
    direct = Letter("x", 1, -1)
    assert direct == x(1, -1) and hash(direct) == hash(x(1, -1))
    assert direct.inverse() is x(1)
    with pytest.raises(ValueError):
        x(0)


def test_letter_construction_returns_the_shared_letter():
    assert Letter("x", 1, -1) is x(1, -1)
    assert Letter("y", 2) is y(2) and Letter("y", 2).inverse() is y(2, -1)


def test_copies_and_pickles_of_a_letter_are_the_letter():
    letter = y(3, -1)
    assert copy.copy(letter) is letter and copy.deepcopy(letter) is letter
    assert copy.deepcopy((letter, [letter])) == (letter, [letter])
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(letter, protocol)) is letter


def test_letters_are_immutable():
    letter = x(1)
    with pytest.raises(AttributeError):
        letter.sign = -1
    with pytest.raises(AttributeError):
        letter.extra = 0
    with pytest.raises(AttributeError):
        del letter.index
    assert (letter.factor, letter.index, letter.sign) == ("x", 1, 1)


def test_letter_validation():
    x_alphabet(2), y_alphabet(2)  # letters that a lookup by a wrong key would find
    with pytest.raises(ValueError, match="factor must be 'x' or 'y'"):
        Letter("z", 1)
    refused = [(0, 1, "index must be positive"), (-1, 1, "index must be positive"),
               (-2, -1, "index must be positive"), (1, 0, "sign must be"),
               (1, 2, "sign must be"), (1, -2, "sign must be"), (2, -2, "sign must be")]
    for factor, make in (("x", x), ("y", y)):
        for index, sign, message in refused:
            with pytest.raises(ValueError, match=message):
                Letter(factor, index, sign)
            with pytest.raises(ValueError, match=message):
                make(index, sign)


def test_letter_constructors_return_the_letter_however_it_was_first_made():
    """``x_letter`` and ``y_letter`` find a letter first made by
    ``Letter``, by an alphabet, or by an earlier call of their own."""
    fresh = 1 + max(max(words._BY_INDEX[factor][1], default=0) for factor in "xy")
    for factor, make, alphabet in (("x", x, x_alphabet), ("y", y, y_alphabet)):
        by_letter = Letter(factor, fresh, -1)
        assert make(fresh, -1) is by_letter and make(fresh) is by_letter.inverse()
        by_alphabet = alphabet(fresh + 1)[-2:]
        assert (make(fresh + 1), make(fresh + 1, -1)) == by_alphabet
        by_call = make(fresh + 2, -1)
        assert make(fresh + 2, -1) is by_call and make(fresh + 2) is by_call.inverse()
        assert Letter(factor, fresh + 2, -1) is by_call
        assert (by_call.factor, by_call.index, by_call.sign) == (factor, fresh + 2, -1)


def test_letter_order_x_first_then_index_then_sign():
    letters = [y(1), x(2, -1), x(1), y(1, -1), x(2), x(1, -1)]
    ordered = sorted(letters, key=lambda l: l.sort_key)
    assert [str(l) for l in ordered] == ["x1", "x1^-1", "x2", "x2^-1", "y1", "y1^-1"]


def test_x_alphabet_covers_both_signs():
    assert [str(l) for l in x_alphabet(2)] == ["x1", "x1^-1", "x2", "x2^-1"]


def test_word_inverse_reverses_and_flips():
    word = (x(1), y(2, -1), x(3))
    assert word_inverse(word) == (x(3, -1), y(2), x(1, -1))
    assert word_inverse(word_inverse(word)) == word


def test_free_reduce():
    assert free_reduce((x(1), x(1, -1))) == ()
    assert free_reduce((x(1), x(2), x(2, -1), x(1))) == (x(1), x(1))
    assert free_reduce(()) == ()


def test_word_str_canonical_spelling():
    assert word_str(()) == "1"
    assert word_str((y(1), x(1, -1), y(1))) == "y1 x1^-1 y1"
    assert word_str((x(1), x(1))) == "x1^2"
    assert word_str((x(1, -1), x(1, -1), x(2))) == "x1^-2 x2"


def laid_flat(form):
    """A normal form's syllables laid end to end: the flat form."""
    return [item for tag, value in form for item in (value if tag == "x" else (value,))]


def test_normal_form_reduces_across_trivial_syllables(z2):
    # y1 (x1 x1^-1) y1 collapses completely over Z/2
    word = (y(1), x(1), x(1, -1), y(1))
    assert flat_form(word, z2) == [] == laid_flat(normal_form_oracle(word, z2))
    # y1 x1 y1 y1 x1 stays mixed but drops the doubled y1
    word = (y(1), x(1), y(1), y(1), x(1))
    assert flat_form(word, z2) == [z2.word_element((y(1),)), x(1), x(1)]
    assert spell(normal_form_oracle(word, z2), z2) == (y(1), x(1), x(1))


def test_normal_form_multiplies_y_letters(s3):
    word = (y(1), y(1), y(1))  # a 3-cycle cubed
    assert flat_form(word, s3) == []
    word = (y(2), y(2))
    assert flat_form(word, s3) == []
    flat = flat_form((y(1), y(2)), s3)
    assert flat == [s3.word_element((y(1), y(2)))] and flat[0] != s3.identity


def test_normal_form_is_idempotent_under_spelling(s3):
    words = [
        (x(1), y(1), x(1, -1), y(2), y(2), x(2)),
        (y(1), y(1), y(1), x(1), x(1, -1)),
        (x(1), x(2, -1), x(2), x(1, -1), y(2)),
    ]
    for word in words:
        form = normal_form_oracle(word, s3)
        assert flat_form(spell(form, s3), s3) == flat_form(word, s3) == laid_flat(form)


def test_normal_form_matches_the_element_by_element_oracle(z2, s3, d4, a4):
    """y-runs multiplied out through the step tables give the normal form
    of multiplying each y-letter's element in by the group table: the flat
    form is that normal form with its syllables laid end to end."""
    rng = random.Random(31)
    y_syllables = 0
    for table in (z2, s3, d4, a4):
        for _ in range(300):
            word = random_raw_word(rng, 2, table.num_generators, 24)
            form = normal_form_oracle(word, table)
            assert flat_form(word, table) == laid_flat(form), word
            y_syllables += sum(tag == "y" for tag, _ in form)
    assert y_syllables >= 1000


@pytest.mark.parametrize("word", [
    (y(3),), (x(1), y(3, -1)), (y(1), y(3)), (y(2), y(2), y(3), x(2)),
])
def test_normal_form_rejects_an_unknown_y_generator(s3, word):
    with pytest.raises(ValueError, match="^no generator y3$"):
        flat_form(word, s3)
    with pytest.raises(ValueError, match="^no generator y3$"):
        normal_form_oracle(word, s3)
