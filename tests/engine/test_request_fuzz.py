"""Seeded request-field fuzzer for the service daemon's validation.

Valid ``simulate`` requests get one or two field mutations drawn from
the deck-option table (:data:`repro.circuits.cards.OPTION_ROWS`) and
the request schema: typo'd field names, wrong JSON types, bools,
out-of-range values and the rows the daemon refuses.  Each mutated
request goes through the daemon's request validation in-process
(``_validate_output_options`` then ``_SessionSpec.from_request``, as
``SimulationService._simulate`` runs them): every failure must be a
:class:`~repro.errors.ServiceError` naming a mutated field, and a
request that passes must yield a hashable session key.  No sockets, no
solves; the seed and the case count are fixed.
"""

import random
import re

from repro.circuits.cards import OPTION_ROWS
from repro.engine.service import (
    _OP_FIELDS,
    MAX_SAMPLES,
    _SessionSpec,
    _validate_output_options,
)
from repro.errors import ServiceError

SEED = 32
CASES = 2000

DECK = """
I1 0 n1 1m
R1 n1 0 1k
C1 n1 0 1u
.tran 50u 5m
"""

BASES = (
    {
        "op": "simulate", "id": 1, "netlist": DECK, "grid": [1e-3, 16],
        "basis": "chebyshev", "outputs": ["n1"], "samples": 8, "scale": 2.0,
        "format": "csv",
    },
    {
        "op": "simulate", "system": {"E": [[1.0]], "A": [[-1.0]], "B": [[1.0]]},
        "grid": [1.0, 16], "input": 1.0, "method": "gl", "backend": "dense",
        "memory": "soe", "memory_rtol": 1e-8, "values": "states",
    },
)

#: A wrong JSON value for every expected type, plus bools.
WRONG = ([], {}, "x", 3, 2.5, True, False, [1, "a"], {"E": 1}, -1)

#: Values outside each checked range.
OUT_OF_RANGE = {
    "memory_rtol": (0, 0.0, 1, 1.0, -1e-3, 1.5, "2", "nan", "inf"),
    "samples": (0, -3, MAX_SAMPLES + 1, 2.5),
    "grid": ([1.0, 0], [0.0, 16], [-1.0, 16], [1.0, 2.5], [1.0], [1.0, 16, 3]),
}

#: A value of the right type for a row of each kind.
ROW_VALUE = {"count": 4, "rtol": 1e-6, "name": "auto"}

SIMULATE_FIELDS = sorted(_OP_FIELDS["simulate"] - {"op"})


def typo(rng: random.Random, name: str) -> str:
    """One edit of ``name`` that no simulate request accepts."""
    while True:
        i = rng.randrange(len(name))
        edit = rng.choice(("drop", "double", "swap", "upper", "letter"))
        if edit == "drop" and len(name) > 1:
            out = name[:i] + name[i + 1 :]
        elif edit == "double":
            out = name[:i] + name[i] + name[i:]
        elif edit == "swap" and i + 1 < len(name):
            out = name[:i] + name[i + 1] + name[i] + name[i + 2 :]
        elif edit == "upper":
            out = name[:i] + name[i].upper() + name[i + 1 :]
        else:
            out = name[:i] + rng.choice("aeiouxz") + name[i:]
        if out and out not in _OP_FIELDS["simulate"]:
            return out


def mutate(rng: random.Random, request: dict) -> tuple[str, str]:
    """Apply one mutation in place; return (kind, the field it touched)."""
    kind = rng.choice(("typo", "wrong-type", "bool", "range", "refused"))
    if kind == "typo":
        name = rng.choice([n for n in request if n != "op"] + list(OPTION_ROWS))
        field = typo(rng, name)
        request[field] = request.pop(name, ROW_VALUE["name"])
    elif kind == "wrong-type":
        field = rng.choice(SIMULATE_FIELDS)
        request[field] = rng.choice(WRONG)
    elif kind == "bool":
        field = rng.choice(["memory_rtol", "samples", "scale", "grid"])
        request[field] = [rng.choice((True, False))] * 2 if field == "grid" else True
    elif kind == "range":
        field = rng.choice(sorted(OUT_OF_RANGE))
        request[field] = rng.choice(OUT_OF_RANGE[field])
    else:
        row = rng.choice([r for r in OPTION_ROWS.values() if r.refusal is not None])
        field = row.name
        request[field] = ROW_VALUE[row.kind]
    return kind, field


def validate(request: dict) -> _SessionSpec:
    _validate_output_options(request)
    return _SessionSpec.from_request(request)


def names(message: str, field: str) -> bool:
    return re.search(rf"(?<![\w-]){re.escape(field)}(?![\w-])", message) is not None


def test_base_requests_are_valid():
    for base in BASES:
        hash(validate(dict(base)).key)


def test_mutated_requests_fail_typed_naming_the_field():
    rng = random.Random(SEED)
    outcomes = {"passed": 0, "refused": 0}
    for case in range(CASES):
        request = dict(rng.choice(BASES))
        mutations = [mutate(rng, request) for _ in range(rng.choice((1, 2)))]
        try:
            spec = validate(request)
        except ServiceError as exc:
            outcomes["refused"] += 1
            touched = [field for _, field in mutations]
            assert any(names(str(exc), f) for f in touched), (case, request, str(exc))
        else:
            outcomes["passed"] += 1
            kinds = {kind for kind, _ in mutations}
            assert not kinds & {"typo", "refused"}, (case, request)
            hash(spec.key)
    # the stream exercises both outcomes
    assert min(outcomes.values()) > CASES // 50, outcomes
