"""Golden stamps: every assembled block, hashed byte for byte.

Each deck -- every ``examples/*.cir`` plus 60 decks drawn from a fixed
``numpy.random.default_rng`` seed -- is assembled through the public
doors (``assemble_mna`` dense and sparse, ``MnaPattern.fill`` with a
perturbed value row, and ``assemble_na`` when the deck has no voltage
source).  Every block (``E``/``A``/``B``, fractional and multi-term
matrices, ``C``, ``x0``, NA terms) is reduced to its shape, dtype and a
sha256 of its dense bytes or its CSR ``data``/``indices``/``indptr``
bytes, and compared with ``stamp_golden.json``.  A refactor of the
stamping code that moves a single stamped bit fails here.

The random decks cover all eight card letters: R, C, L, K (with and
without couplings), P (CPEs at alpha = 0.5, 0.7 and 1), G, I and V.

Regenerate the data file only for a deliberate change of the stamps::

    PYTHONPATH=src python tests/circuits/test_stamp_golden.py --write
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.circuits import Netlist, assemble_mna, assemble_na
from repro.circuits.mna import MnaPattern
from repro.errors import ReproError

DATA = Path(__file__).with_name("stamp_golden.json")
EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
SEED = 20120312
N_RANDOM = 60


def _value(rng, low: float, high: float) -> str:
    return f"{10.0 ** rng.uniform(np.log10(low), np.log10(high)):.6g}"


def random_deck(index: int) -> str:
    """One seeded deck; ``index`` picks its card mix deterministically."""
    rng = np.random.default_rng([SEED, index])
    dynamics = ("C", "P", "mixed")[index % 3]
    alphas = (0.5, 0.7, 1.0)
    n = int(rng.integers(2, 7))
    nodes = [f"n{k}" for k in range(1, n + 1)]
    cards = []
    for k, node in enumerate(nodes):
        other = "0" if k == 0 else nodes[int(rng.integers(0, k))]
        cards.append(f"R{k} {node} {other} {_value(rng, 1.0, 1e4)}")
        if dynamics in ("C", "mixed") and rng.random() < 0.7:
            cards.append(f"C{k} {node} 0 {_value(rng, 1e-9, 1e-5)}")
        if dynamics in ("P", "mixed") and (rng.random() < 0.6 or k == 0):
            pick = (index // 3) % 3 if dynamics == "P" else int(rng.integers(3))
            alpha = alphas[pick]
            cards.append(f"P{k} {node} 0 {_value(rng, 1e-8, 1e-5)} {alpha}")
    inductors = []
    if index % 4 != 3:
        for k in range(int(rng.integers(1, 4))):
            a, b = rng.choice(["0", *nodes], size=2, replace=False)
            cards.append(f"L{k} {a} {b} {_value(rng, 1e-6, 1e-2)}")
            inductors.append(f"L{k}")
    if index % 2 == 0:
        for j in range(0, len(inductors) - 1, 2):
            k = rng.uniform(0.05, 0.95) * rng.choice([-1.0, 1.0])
            cards.append(f"K{j} {inductors[j]} {inductors[j + 1]} {k:.4g}")
    if index % 3 != 1:
        a, b, c, d = rng.choice(["0", *nodes], size=4, replace=True)
        if a == b:
            b = "0" if a != "0" else nodes[0]
        if c == d:
            d = "0" if c != "0" else nodes[-1]
        cards.append(f"G1 {a} {b} {c} {d} {_value(rng, 1e-4, 1e-1)}")
    cards.append(f"I1 0 {nodes[-1]} SIN(0 1m 1k)")
    if rng.random() < 0.5:
        cards.append(f"I2 {nodes[0]} 0 PULSE(0 2m 1u 1u 1u 5u)")
    if index % 2 == 1:
        cards.append(f"V1 {nodes[0]} 0 DC {_value(rng, 0.1, 10.0)}")
        if rng.random() < 0.5:
            cards.append(f"V2 {nodes[-1]} {nodes[0]} SIN(0 1 5k)")
    # .ic only where the model is not multi-term (which takes none)
    single_order = dynamics == "C" or (dynamics == "P" and not inductors)
    ic = f".ic v({nodes[-1]})=0.25\n" if single_order else ""
    return "\n".join(cards) + "\n" + ic


@functools.lru_cache(maxsize=None)
def decks() -> dict[str, str]:
    out = {f"examples/{p.name}": p.read_text() for p in sorted(EXAMPLES.glob("*.cir"))}
    out.update((f"random/{i:02d}", random_deck(i)) for i in range(N_RANDOM))
    return out


def digest(block) -> list:
    """``[shape, dtype, format, sha256]`` of one stamped block."""
    if block is None:
        return [None]
    if sp.issparse(block):
        csr = block.tocsr() if block.format != "csr" else block
        parts = (csr.data, csr.indices, csr.indptr)
        kind = f"csr/{csr.indices.dtype}"
    else:
        array = np.ascontiguousarray(block)
        parts, kind = (array,), "dense"
    sha = hashlib.sha256(b"".join(np.ascontiguousarray(p).tobytes() for p in parts))
    return [list(block.shape), str(block.dtype), kind, sha.hexdigest()]


def system_blocks(system) -> dict[str, list]:
    blocks = {"type": [type(system).__name__]}
    if hasattr(system, "terms"):
        for order, matrix in system.terms:
            blocks[f"M[{order!r}]"] = digest(matrix)
    else:
        blocks["E"], blocks["A"] = digest(system.E), digest(system.A)
        blocks["x0"] = digest(getattr(system, "x0", None))
        if hasattr(system, "alpha"):
            blocks["alpha"] = [repr(system.alpha)]
    blocks["B"], blocks["C"] = digest(system.B), digest(system.C)
    return blocks


def fingerprint(text: str) -> dict[str, dict]:
    netlist = Netlist.from_spice(text)
    outputs = netlist.nodes[:2]
    ic = netlist.analysis.ic or None
    out = {
        "mna": system_blocks(assemble_mna(netlist, ic=ic)),
        "mna_sparse": system_blocks(
            assemble_mna(netlist, outputs, sparse="always", ic=ic)
        ),
    }
    pattern = MnaPattern(netlist, outputs, ic=ic)
    factors = np.random.default_rng([SEED, len(text)]).uniform(
        0.9, 1.1, pattern.nominal.size
    )
    nominal, perturbed = pattern.fill([pattern.nominal, pattern.nominal * factors])
    out["fill_nominal"] = system_blocks(nominal)
    out["fill_perturbed"] = system_blocks(perturbed)
    if not netlist.voltage_sources:
        try:
            out["na"] = system_blocks(assemble_na(netlist, outputs))
        except ReproError as exc:  # a deck NA cannot model
            out["na"] = {"error": [type(exc).__name__]}
    return out


@functools.lru_cache(maxsize=None)
def _golden() -> dict:
    return json.loads(DATA.read_text())


def test_deck_set_matches_the_data_file():
    assert sorted(_golden()) == sorted(decks())


def test_decks_cover_every_card_letter():
    letters = {line.split()[0][0] for text in decks().values()
               for line in text.splitlines() if line and line[0].isalpha()}
    assert set("RCLKPGIV") <= letters
    alphas = {line.split()[-1] for text in decks().values()
              for line in text.splitlines() if line.startswith("P")}
    assert {"0.5", "0.7", "1.0"} <= alphas


@pytest.mark.parametrize("name", sorted(decks()))
def test_stamps_are_byte_identical(name):
    assert fingerprint(decks()[name]) == _golden()[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    data = {name: fingerprint(text) for name, text in decks().items()}
    DATA.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} decks to {DATA}")
