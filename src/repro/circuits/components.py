"""Circuit element records and the one table of card kinds.

Plain data classes describe the elements a
:class:`~repro.circuits.netlist.Netlist` can hold, and
:data:`ELEMENT_KINDS` holds one :class:`ElementKind` row per SPICE card
letter (R, C, L, K, P, G, I, V).  A row is everything the rest of the
package knows about a kind: its record, its card fields, the node
fields it registers, the field that holds its value and the rule that
value obeys, whether it pins a component to ground, and its MNA and NA
stamps *as data*.  The parser (:meth:`Netlist.from_spice
<repro.circuits.netlist.Netlist.from_spice>`), :meth:`Netlist.add
<repro.circuits.netlist.Netlist.add>`, the value accessors, the graph
lint (:mod:`~repro.circuits.graph`), the ensemble value check and both
assemblers (:mod:`~repro.circuits.mna`, :mod:`~repro.circuits.nodal`)
read the table; none of them branches on a record class.

A stamp is ``(block, row, col, form, sign)``.  The blocks are MNA's
``E1`` (order-1 dynamics), ``A``, ``frac`` (one block per CPE order)
and ``B``, and NA's ``C``, ``G``, ``frac``, ``A_L`` (inductor
incidence), ``L`` (inductance matrix) and ``B``.  ``row`` and ``col``
are *roles*: a node field (``a``, ``b``, ``c``, ``d``), a field naming
a coupled inductor (``inductor1``, ``inductor2``), the kind's own
``branch`` (the current state of an inductor or a voltage source), or
its input ``channel``.  The entry's value is ``sign`` times the form:
the element value ``v``, ``1.0 / v`` (a resistor's conductance), ``1``,
or ``k * sqrt(L1 * L2)`` (a mutual inductance).

The one non-classical element is the :class:`CPE` (constant-phase
element / "fractance"), the circuit-level source of the fractional
differential equations of paper section IV: its branch relation is
``i = q * d^alpha v / dt^alpha`` with ``0 < alpha < 1`` (``alpha = 1``
degenerates to a capacitor, ``alpha -> 0`` to a resistor).  Networks of
CPEs with a common ``alpha`` assemble to
``E d^alpha x/dt^alpha = A x + B u`` -- exactly paper eq. (19) -- and
mixed C/CPE networks assemble to multi-term systems.

Examples
--------
>>> CARD_KINDS["G"].nodes, CARD_KINDS["G"].arity
(('c', 'd', 'a', 'b'), (6, 6))
>>> kind_of(Resistor("R1", "a", "0", 1e3)).mna[0]
('A', 'a', 'a', 'conductance', -1.0)
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import NetlistError

__all__ = [
    "Element",
    "Resistor",
    "Capacitor",
    "Inductor",
    "CPE",
    "VCCS",
    "MutualInductance",
    "CurrentSource",
    "VoltageSource",
    "ValueRule",
    "ElementKind",
    "ELEMENT_KINDS",
    "CARD_KINDS",
    "kind_of",
]


def _check_nodes(name: str, node_a: str, node_b: str) -> None:
    if not isinstance(node_a, str) or not isinstance(node_b, str):
        raise NetlistError(f"{name}: node names must be strings")
    if node_a == node_b:
        raise NetlistError(f"{name}: both terminals connect to node {node_a!r}")


def _check_value(record) -> None:
    """Apply the record's card-kind value rule (a bare :class:`Element` has none)."""
    kind = _KIND_OF.get(type(record))
    if kind is not None:
        kind.rule.check(record.name, kind.value, getattr(record, kind.value))


@dataclass(frozen=True)
class Element:
    """Common fields: unique ``name`` and terminal nodes ``a`` -> ``b``."""

    name: str
    a: str
    b: str

    def __post_init__(self) -> None:
        _check_nodes(self.name, self.a, self.b)
        _check_value(self)


@dataclass(frozen=True)
class Resistor(Element):
    """Linear resistor; ``resistance`` in ohms."""

    resistance: float = 1.0

    @property
    def conductance(self) -> float:
        return 1.0 / self.resistance


@dataclass(frozen=True)
class Capacitor(Element):
    """Linear capacitor; ``capacitance`` in farads."""

    capacitance: float = 1.0


@dataclass(frozen=True)
class Inductor(Element):
    """Linear inductor; ``inductance`` in henries.

    MNA introduces the inductor current as an extra state; NA moves the
    inductance into the second-order stiffness term (section V-B).
    """

    inductance: float = 1.0


@dataclass(frozen=True)
class CPE(Element):
    """Constant-phase element: ``i = q * d^alpha v/dt^alpha``.

    ``q`` is the pseudo-capacitance (units F / s^(1-alpha)) and
    ``alpha`` the fractional order in ``(0, 1]``.  Physical examples:
    supercapacitor interfaces, lossy dielectrics, skin-effect-dominated
    lines (the paper's transmission-line workload, refs [7]-[8]).
    """

    q: float = 1.0
    alpha: float = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        alpha = float(self.alpha)
        if not 0.0 < alpha <= 1.0:
            raise NetlistError(f"{self.name}: CPE alpha must be in (0, 1], got {alpha}")


@dataclass(frozen=True)
class MutualInductance:
    """Magnetic coupling between two named inductors (SPICE K element).

    ``coupling`` is the dimensionless coefficient ``k`` with
    ``0 < |k| < 1``; the mutual inductance is
    ``M = k * sqrt(L1 * L2)``.  Not a two-terminal element -- it refers
    to existing :class:`Inductor` instances by name and stamps the
    off-diagonal entries of the inductance matrix.
    """

    name: str
    inductor1: str
    inductor2: str
    coupling: float = 0.5

    def __post_init__(self) -> None:
        if self.inductor1 == self.inductor2:
            raise NetlistError(f"{self.name}: cannot couple {self.inductor1!r} to itself")
        _check_value(self)


@dataclass(frozen=True)
class VCCS(Element):
    """Voltage-controlled current source: ``i(a->b) = gm * (v(c) - v(d))``.

    The SPICE ``G`` element; the linear controlled source sufficient to
    model transconductors and small-signal active devices.  Stamps into
    the conductance part of MNA/NA.
    """

    c: str = "0"
    d: str = "0"
    gm: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not isinstance(self.c, str) or not isinstance(self.d, str):
            raise NetlistError(f"{self.name}: control node names must be strings")
        if self.c == self.d:
            raise NetlistError(
                f"{self.name}: both control terminals on node {self.c!r}"
            )


@dataclass(frozen=True)
class _Source(Element):
    """Fields of an independent source: input ``channel`` and its ``scale``."""

    channel: int = 0
    scale: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if int(self.channel) < 0:
            raise NetlistError(f"{self.name}: channel must be >= 0, got {self.channel}")


@dataclass(frozen=True)
class CurrentSource(_Source):
    """Independent current source driving ``scale * waveform(t)`` from a to b.

    ``waveform`` is the index of an input channel (assigned by the
    netlist); ``scale`` multiplies that channel.  Current flows *out of*
    node ``a`` *into* node ``b`` for positive values (SPICE convention:
    positive current a -> b through the source).
    """


@dataclass(frozen=True)
class VoltageSource(_Source):
    """Independent voltage source: ``v(a) - v(b) = scale * waveform(t)``.

    MNA adds the branch current as a state; NA cannot stamp ideal
    voltage sources (use a Norton equivalent -- see
    :func:`repro.circuits.power_grid.power_grid`).
    """


# ----------------------------------------------------------------------
# the table of card kinds
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ValueRule:
    """What an element value must satisfy besides being finite.

    ``test`` works on a float and, elementwise, on an array;
    ``message`` is the error for a value that fails it, formatted with
    ``name``, ``field`` and ``value``.
    """

    test: Callable
    message: str

    def check(self, name: str, field: str, value) -> None:
        """Raise :class:`NetlistError` naming the element if ``value`` fails."""
        value = float(value)
        if not self.test(value):
            raise NetlistError(self.message.format(name=name, field=field, value=value))
        if not math.isfinite(value):
            raise NetlistError(f"{name}: {field} must be finite, got {value}")

    def valid(self, values: np.ndarray) -> np.ndarray:
        """Elementwise :meth:`check` as a boolean mask."""
        return np.isfinite(values) & self.test(values)


_POSITIVE = ValueRule(lambda v: v > 0.0, "{name}: {field} must be positive, got {value}")
_NONZERO = ValueRule(lambda v: v != 0.0, "{name}: {field} must be nonzero")
_COUPLING = ValueRule(
    lambda v: (0.0 < abs(v)) & (abs(v) < 1.0),
    "{name}: coupling must satisfy 0 < |k| < 1, got {value} "
    "(|k| = 1 makes the inductance matrix singular)",
)
_FINITE = ValueRule(lambda v: True, "")

#: Value forms of a stamped entry (``sign`` times ...): the element
#: value, its reciprocal, one, and ``k * sqrt(L1 * L2)``.
VALUE, CONDUCTANCE, ONE, MUTUAL = "value", "conductance", "one", "mutual"


@dataclass(frozen=True)
class ElementKind:
    """One SPICE card kind, from card to stamp (see the module docs).

    ``card`` names the fields after the element name in card order
    (``spec`` is a source's trailing source spec), ``nodes`` the node
    fields in registration order, ``refs`` the fields naming the
    inductors a coupling joins.  ``branch`` kinds own a current state;
    ``pins`` kinds tie their component to ground through a grounded
    terminal.  ``na`` is ``None`` for a kind nodal analysis cannot
    stamp.
    """

    letter: str
    record: type
    card: tuple[str, ...]
    nodes: tuple[str, ...]
    value: str
    rule: ValueRule
    mna: tuple[tuple, ...]
    na: tuple[tuple, ...] | None
    pins: bool = True
    refs: tuple[str, ...] = ()
    branch: bool = False

    @functools.cached_property
    def controls(self) -> tuple[str, ...]:
        """Node fields besides the terminals ``a``, ``b`` (a VCCS's ``c``, ``d``)."""
        return tuple(field for field in self.nodes if field not in ("a", "b"))

    @functools.cached_property
    def numbers(self) -> tuple[str, ...]:
        """Card fields that hold numeric values (an R's ``resistance``)."""
        names = (*self.nodes, *self.refs, "spec")
        return tuple(field for field in self.card if field not in names)

    @functools.cached_property
    def source(self) -> bool:
        """Whether the kind is a source: a source spec drives its input channel."""
        return "spec" in self.card

    @property
    def arity(self) -> tuple[int, int | None]:
        """Fewest and most card fields, the name included (``None``: no limit)."""
        fewest = 1 + len(self.card)
        return fewest, None if self.source else fewest


def _pair(block: str, form: str, sign: float) -> tuple[tuple, ...]:
    """A two-terminal stamp: ``sign`` on the diagonal, ``-sign`` off it."""
    return (
        (block, "a", "a", form, sign),
        (block, "b", "b", form, sign),
        (block, "a", "b", form, -sign),
        (block, "b", "a", form, -sign),
    )


def _transconductance(block: str, sign: float) -> tuple[tuple, ...]:
    """``sign * gm * (v_c - v_d)`` leaving node ``a`` and entering ``b``."""
    return (
        (block, "a", "c", VALUE, sign),
        (block, "a", "d", VALUE, -sign),
        (block, "b", "c", VALUE, -sign),
        (block, "b", "d", VALUE, sign),
    )


#: Branch rows of the MNA states: ``branch = v(a) - v(b)`` and KCL
#: carrying the branch current out of ``a`` into ``b``.
_BRANCH_KCL = (("A", "a", "branch", ONE, -1.0), ("A", "b", "branch", ONE, 1.0))
_BRANCH_DROP = (("A", "branch", "a", ONE, 1.0), ("A", "branch", "b", ONE, -1.0))
_INJECTION = (("B", "a", "channel", VALUE, -1.0), ("B", "b", "channel", VALUE, 1.0))
_COUPLED = (
    ("inductor1", "inductor2", MUTUAL, 1.0),
    ("inductor2", "inductor1", MUTUAL, 1.0),
)

#: One row per card kind; inductors precede voltage sources, which is
#: the order of the MNA branch states.
ELEMENT_KINDS: tuple[ElementKind, ...] = (
    ElementKind(
        "R", Resistor, ("a", "b", "resistance"), ("a", "b"), "resistance",
        _POSITIVE, mna=_pair("A", CONDUCTANCE, -1.0), na=_pair("G", CONDUCTANCE, 1.0),
    ),
    ElementKind(
        "C", Capacitor, ("a", "b", "capacitance"), ("a", "b"), "capacitance",
        _POSITIVE, mna=_pair("E1", VALUE, 1.0), na=_pair("C", VALUE, 1.0),
    ),
    ElementKind(
        "L", Inductor, ("a", "b", "inductance"), ("a", "b"), "inductance",
        _POSITIVE,
        mna=(("E1", "branch", "branch", VALUE, 1.0), *_BRANCH_DROP, *_BRANCH_KCL),
        na=(
            ("A_L", "a", "branch", ONE, 1.0),
            ("A_L", "b", "branch", ONE, -1.0),
            ("L", "branch", "branch", VALUE, 1.0),
        ),
        branch=True,
    ),
    ElementKind(
        "K", MutualInductance, ("inductor1", "inductor2", "coupling"), (),
        "coupling", _COUPLING,
        mna=tuple(("E1", *entry) for entry in _COUPLED),
        na=tuple(("L", *entry) for entry in _COUPLED),
        pins=False, refs=("inductor1", "inductor2"),
    ),
    ElementKind(
        "P", CPE, ("a", "b", "q", "alpha"), ("a", "b"), "q",
        _POSITIVE, mna=_pair("frac", VALUE, 1.0), na=_pair("frac", VALUE, 1.0),
    ),
    ElementKind(
        "G", VCCS, ("a", "b", "c", "d", "gm"), ("c", "d", "a", "b"), "gm",
        _NONZERO, mna=_transconductance("A", -1.0), na=_transconductance("G", 1.0),
    ),
    ElementKind(
        "I", CurrentSource, ("a", "b", "spec"), ("a", "b"), "scale",
        _FINITE, mna=_INJECTION, na=_INJECTION, pins=False,
    ),
    ElementKind(
        "V", VoltageSource, ("a", "b", "spec"), ("a", "b"), "scale",
        _FINITE,
        mna=(*_BRANCH_DROP, ("B", "branch", "channel", VALUE, -1.0), *_BRANCH_KCL),
        na=None, branch=True,
    ),
)

#: Card letter -> kind, and record class -> kind.
CARD_KINDS = {kind.letter: kind for kind in ELEMENT_KINDS}
_KIND_OF = {kind.record: kind for kind in ELEMENT_KINDS}


def kind_of(element) -> ElementKind:
    """The :class:`ElementKind` row of an element record."""
    try:
        return _KIND_OF[type(element)]
    except KeyError:
        raise NetlistError(
            f"element {element.name!r} of type {type(element).__name__} "
            "has no card kind"
        ) from None
