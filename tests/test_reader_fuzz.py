"""Seeded mutation fuzz of the three circuit readers.

Each reader gets mutants of one design in its own format: characters
replaced, inserted, swapped or deleted, and files cut short.
A reader may accept a mutant or reject it, but only with a
:class:`~repro.errors.ReproError` subclass, never a bare ``ValueError``
or ``IndexError``.  The mutants come from ``random.Random(format name)``,
so a failure repeats exactly.
"""

from __future__ import annotations

import random

import pytest

from repro.circuits import generators as G
from repro.circuits.bench_format import parse_bench, serialize_bench
from repro.circuits.blif import parse_blif, serialize_blif
from repro.circuits.parse import parse_netlist, serialize_netlist
from repro.errors import ReproError

MUTANTS = 2000
# Characters a text mutation draws from: the formats' digits, separators
# and keyword letters.
ALPHABET = "0123456789 \n!#.-=(),aiglcnotu"


def _readers():
    net = G.arbiter(3, safe=False)
    return {
        "net": (serialize_netlist(net), parse_netlist),
        "bench": (serialize_bench(net), parse_bench),
        "blif": (serialize_blif(net), parse_blif),
    }


def _mutate(rng: random.Random, text: str) -> str:
    seq = list(text)
    if not seq:
        return text
    i = rng.randrange(len(seq))
    op = rng.randrange(5)
    if op == 0:
        seq[i] = rng.choice(ALPHABET)
    elif op == 1:
        del seq[i:i + rng.randrange(1, 8)]
    elif op == 2:
        seq.insert(i, rng.choice(ALPHABET))
    elif op == 3:
        del seq[i:]
    else:
        j = rng.randrange(len(seq))
        seq[i], seq[j] = seq[j], seq[i]
    return "".join(seq)


@pytest.mark.parametrize("fmt", ["net", "bench", "blif"])
def test_mutants_raise_only_typed_errors(fmt):
    text, reader = _readers()[fmt]
    reader(text)                    # the unmutated design reads back
    rng = random.Random(fmt)
    rejected = 0
    for _ in range(MUTANTS):
        mutant = text
        for _ in range(rng.randrange(1, 4)):
            mutant = _mutate(rng, mutant)
        try:
            reader(mutant)
        except ReproError:
            rejected += 1
    # The mutants must exercise the error paths, not only parse.
    assert rejected > MUTANTS // 10
