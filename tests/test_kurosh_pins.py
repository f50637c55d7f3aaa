"""Pinned Kurosh decompositions: the verdict, factors and free rank of
``kurosh_decompose`` on the subgroup graph of every ``problems/*.txt``
and of seeded random subgroups over S3, A4 and S5, as recorded by
``oracles.decomposition_record`` in ``tests/kurosh_pins.json``.
A change to approach paths, spanning trees, anchors or factor order shows
here.  Print the current records with::

    PYTHONPATH=src python tests/test_kurosh_pins.py
"""

import json
import random
import sys
from pathlib import Path

import pytest

from altsep.cli import parse_problem
from altsep.factors import enumerate_group
from altsep.words import word_inverse, x_letter

from conftest import make_spec
from oracles import decompose, random_raw_word

ROOT = Path(__file__).resolve().parent.parent
PINS = Path(__file__).resolve().parent / "kurosh_pins.json"
GROUPS = {
    "S3": (3, [(1, 2, 0), (1, 0, 2)]),
    "A4": (4, [(1, 2, 0, 3), (0, 2, 3, 1)]),
    "S5": (5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]),
}
SEEDS = range(4)


def seeded_spec(group: str, seed: int):
    """Two random words, and an x-word and a y-letter each conjugated by a
    random word, so that both factors can have components with cycles."""
    table = enumerate_group(*GROUPS[group])
    rng = random.Random(f"{group}/{seed}")
    words = [random_raw_word(rng, 2, table.num_generators, 12, 3) for _ in range(2)]
    for middle in (tuple(x_letter(rng.randint(1, 2), rng.choice((1, -1)))
                         for _ in range(rng.randint(1, 4))),
                   random_raw_word(rng, 0, table.num_generators, 1, 1)):
        conjugator = random_raw_word(rng, 2, table.num_generators, 5)
        words.append(conjugator + middle + word_inverse(conjugator))
    return make_spec(table, subgroup_words=words)


def cases():
    """(name, spec) of every pinned decomposition, in order."""
    for path in sorted((ROOT / "problems").glob("*.txt")):
        yield f"file-{path.stem}", parse_problem(path.read_text())
    for group in GROUPS:
        for seed in SEEDS:
            yield f"{group}-{seed}", seeded_spec(group, seed)


def records():
    return {name: decompose(spec) for name, spec in cases()}


def test_pins_cover_both_factors_and_every_verdict():
    pinned = json.loads(PINS.read_text())
    kinds = {f["factor"] for record in pinned.values() for f in record["factors"]}
    verdicts = {record["verdict"] for record in pinned.values()}
    assert kinds == {"x", "y"}
    assert verdicts == {"all_components_trees", "deficient_component", "not_applicable"}


@pytest.mark.parametrize("name,spec", [pytest.param(*case, id=case[0]) for case in cases()])
def test_kurosh_decomposition_matches_its_pin(name, spec):
    assert decompose(spec) == json.loads(PINS.read_text())[name]


if __name__ == "__main__":
    json.dump(records(), sys.stdout, indent=1)
    print()
