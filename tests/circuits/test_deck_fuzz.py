"""Seeded deck-text fuzzer: the front end fails typed or not at all.

About 2,000 decks, each a mutation of one ``examples/*.cir`` deck: a
value token replaced, a card inserted, a line deleted, truncated or
duplicated, or a dot-card appended.  Inserted cards draw their letter,
field count and fields from the card-kind table
(:data:`repro.circuits.components.CARD_KINDS`); value tokens include
overflows (``1e400``), ``-0``, stray ``{param}`` references and bad or
truncated source functions.  Each deck goes through
``Netlist.from_spice``, :class:`CircuitGraph`, ``assemble_mna`` and,
without voltage sources, ``assemble_na``.  Every failure must be a
:class:`~repro.errors.ReproError`, and every deck that parses must hold
only finite element values.  Seed and count are fixed, so a failure
names a reproducible case.
"""

from __future__ import annotations

import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.circuits import CircuitGraph, Netlist, assemble_mna, assemble_na
from repro.circuits.components import CARD_KINDS
from repro.errors import ReproError

EXAMPLES = sorted((Path(__file__).resolve().parents[2] / "examples").glob("*.cir"))
SEED = 33
CHUNKS, PER_CHUNK = 20, 100

VALUE_TOKENS = (
    "1k", "2.5u", "1meg", "10uF", "0.5", "0.9", "1", "3.", "1e-400",
    "0", "-0", "-1", "1e400", "-1e400", "1e305t", "inf", "nan",
    "{r}", "{missing}", "abc", "1e", ".", "+", "",
)
SOURCE_SPECS = (
    "1m", "DC 1", "DC 1 AC 1", "AC 1 90", "SIN(0 1 1k)", "PULSE(0 1 1u 1u 1u 5u 10u)",
    "EXP(0 1 0 1m)", "PWL(0 0 1m 1)", "SIN(0 1", "SIN(0 1e400 1k)", "SIN()",
    "PULSE(0)", "EXP(0 1)", "PWL(0 0 1)", "PWL(1m 0 0 1)", "DC", "AC", "DC 1 AC",
    "SIN(0 1 1k) PULSE(0 1)", "DC 1e400", "DC {p}", "SIN(0 {p} 1k)", "PWL(0 0 1m inf)",
)
DOT_CARDS = (
    ".tran 1u 1m", ".tran 1u 1e400", ".tran 1u", ".ic v(a)=1", ".ic v(zz)=1",
    ".ic v(0)=1", ".options basis=chebyshev", ".options basis=nope", ".options m=-3",
    ".ac dec 5 10 1k", ".ac dec x 10 1k", ".ends", ".subckt s a", ".end",
)
LETTERS = (*CARD_KINDS, "X", "D", "Z")


def _nodes(text: str) -> list[str]:
    tokens = {tok for line in text.splitlines() for tok in line.split()[1:3]}
    return sorted(t for t in tokens if t.isidentifier() or t.isdigit()) or ["a"]


def _card(rng, letter: str, nodes: list[str], index: int) -> str:
    """One card of ``letter``, its fields drawn from the table row."""
    pick = lambda pool: pool[int(rng.integers(len(pool)))]
    kind = CARD_KINDS.get(letter)
    fields = [f"{letter}{index}"]
    for field in kind.card if kind else ("a", "b", "value"):
        if kind and field in kind.refs:
            fields.append(pick(["L1", "L2", "L3", "L9"]))
        elif kind is None or field in kind.nodes:
            fields.append(pick([*nodes, "0", "gnd", "new"]))
        elif field == "spec":
            fields.append(pick(SOURCE_SPECS))
        else:
            fields.append(pick(VALUE_TOKENS))
    drop = int(rng.integers(-1, 2)) if rng.random() < 0.3 else 0
    if drop > 0:
        fields = fields[:-drop]
    elif drop < 0:
        fields.append(pick(VALUE_TOKENS))
    return " ".join(f for f in fields if f)


def mutate(rng, text: str, case: int) -> str:
    """One seeded mutation of a deck."""
    lines = text.splitlines()
    cards = [i for i, line in enumerate(lines) if line and line[0].isalpha()]
    op = int(rng.integers(6))
    target = cards[int(rng.integers(len(cards)))]
    tokens = lines[target].split()
    if op == 0:  # replace a value token
        position = int(rng.integers(1, len(tokens)))
        tokens[position] = VALUE_TOKENS[int(rng.integers(len(VALUE_TOKENS)))]
        lines[target] = " ".join(tokens)
    elif op == 1:  # insert a card drawn from the table
        letter = LETTERS[int(rng.integers(len(LETTERS)))]
        lines.insert(int(rng.integers(len(lines) + 1)), _card(rng, letter, _nodes(text), case))
    elif op == 2:
        del lines[target]
    elif op == 3:  # truncate a card
        lines[target] = " ".join(tokens[: int(rng.integers(1, len(tokens)))])
    elif op == 4:  # duplicate a card (and so its name)
        lines.insert(target, lines[target])
    else:
        lines.insert(int(rng.integers(len(lines) + 1)), DOT_CARDS[int(rng.integers(len(DOT_CARDS)))])
    return "\n".join(lines) + "\n"


def exercise(text: str) -> None:
    """Parse and assemble one deck; only typed errors may escape."""
    try:
        netlist = Netlist.from_spice(text)
    except ReproError:
        return
    values = [*netlist.element_values().values(), *(el.alpha for el in netlist.cpes)]
    assert all(math.isfinite(v) for v in values), netlist.element_values()
    for stage in (
        lambda: CircuitGraph(netlist).lint(),
        lambda: assemble_mna(netlist, ic=netlist.analysis.ic or None),
        lambda: netlist.voltage_sources or assemble_na(netlist),
    ):
        try:
            stage()
        except ReproError:
            pass


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_mutated_decks_fail_typed(chunk):
    texts = [path.read_text() for path in EXAMPLES]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # singular inductance matrices warn
        for case in range(chunk * PER_CHUNK, (chunk + 1) * PER_CHUNK):
            rng = np.random.default_rng([SEED, case])
            deck = mutate(rng, texts[case % len(texts)], case)
            try:
                exercise(deck)
            except Exception as exc:  # noqa: BLE001 - the report names the case
                raise AssertionError(
                    f"case {case}: {type(exc).__name__}: {exc}\n{deck}"
                ) from exc
