"""Netlist container and SPICE-subset parser.

A :class:`Netlist` is an ordered collection of circuit elements plus
the bookkeeping needed for matrix assembly: node numbering (ground
excluded), input-channel allocation for sources, and attached source
waveforms.  Assembly into system models is performed by
:func:`repro.circuits.mna.assemble_mna` (first-order DAE / multi-term
fractional) and :func:`repro.circuits.nodal.assemble_na` (second-order
NA model).

The parser accepts the classical SPICE card subset sufficient for the
paper's workloads::

    * comment
    R<name> <node+> <node-> <resistance>
    C<name> <node+> <node-> <capacitance>
    L<name> <node+> <node-> <inductance>
    K<name> <L1> <L2> <k>                   (inductive coupling)
    I<name> <node+> <node-> <source-spec>
    V<name> <node+> <node-> <source-spec>
    G<name> <node+> <node-> <ctrl+> <ctrl-> <gm>   (VCCS)
    P<name> <node+> <node-> <q> <alpha>     (CPE, extension card)

Source specs carry the standard transient cards plus small-signal
magnitudes for ``.ac``::

    V1 in 0 5                       (bare DC value)
    V1 in 0 DC 5 AC 1
    V1 in 0 SIN(VO VA FREQ [TD [THETA [PHASE]]])
    I1 0 n1 PULSE(V1 V2 [TD [TR [TF [PW [PER]]]]])
    V1 in 0 EXP(V1 V2 TD1 TAU1 [TD2 [TAU2]])
    V1 in 0 PWL(T1 V1 T2 V2 ...)

(``SIN``'s ``FREQ`` and ``EXP``'s ``TD1``/``TAU1`` are required: SPICE
defaults them from the ``.tran`` card, which a waveform built at parse
time cannot see.  Omitted ``PULSE`` edges mean *ideal* edges -- SPICE
would default ``TR``/``TF`` to the print step -- and ``PW``/``PER``
default to a single never-returning pulse.)

Hierarchical decks are supported through subcircuit definitions and
instances, flattened at parse time::

    .subckt <name> <port> [<port> ...] [param=value ...]
       <element / X cards>
    .ends [<name>]
    X<name> <node> [<node> ...] <subckt> [param=value ...]

Instances expand recursively (an ``X`` card inside a ``.subckt`` body
instantiates nested subcircuits); internal nodes and element names are
prefixed deterministically with the lower-cased instance name
(``xfilt.n1``, ``xfilt.R1``, and ``xa.xb.n1`` when nested), ports map
to the connecting nodes, and ground aliases normalise to ``0`` before
flattening so a ``gnd``/``vss`` inside a subcircuit body never becomes
a private internal node.  ``{param}`` references in value fields are
substituted from the definition defaults, overridden per instance.
Duplicate element names and duplicate ``.subckt`` definitions raise a
:class:`~repro.errors.NetlistError` naming both source lines.

Dot-commands ``.tran`` / ``.ac`` / ``.ic`` / ``.options`` are parsed
into a typed :class:`~repro.circuits.cards.AnalysisSpec` (see that
module) available as :attr:`Netlist.analysis`; other dot-cards are
ignored.  Lines starting with ``+`` continue the previous card;
``;`` begins an inline comment anywhere, ``$`` only at line start or
after whitespace (so hierarchical ``$`` node names survive).

Numeric tokens take the usual engineering suffixes (``k``, ``meg``,
``mil``, ``m``, ``u``, ``n``, ``p``, ``f``, ``t``, ``g``); trailing
unit text is ignored (``1kOhm``, ``10uF``).  Node ``0`` (or ``gnd`` /
``vss`` / ``ground`` in any letter case) is ground.
"""

from __future__ import annotations

import math
import re
from typing import Callable

import numpy as np

from ..errors import NetlistError
from .cards import AnalysisSpec, AcCard, TranCard
from .components import (
    CARD_KINDS,
    CPE,
    VCCS,
    Capacitor,
    CurrentSource,
    Element,
    Inductor,
    MutualInductance,
    Resistor,
    VoltageSource,
    kind_of,
)
from .sources import (
    Constant,
    PiecewiseLinear,
    SpiceExp,
    SpicePulse,
    SpiceSin,
    Waveform,
)

__all__ = ["Netlist", "GROUND_NAMES", "parse_value", "parse_source_spec"]

#: Node names treated as the ground reference (compared case-insensitively).
GROUND_NAMES = ("0", "gnd", "vss", "ground")

_SUFFIXES = {
    "t": 1e12,
    "g": 1e9,
    "meg": 1e6,
    "k": 1e3,
    "mil": 25.4e-6,
    "m": 1e-3,
    "u": 1e-6,
    "n": 1e-9,
    "p": 1e-12,
    "f": 1e-15,
}

# Number, then an optional scale suffix (``meg``/``mil`` before the
# single letters, so ``1meg`` is not read as milli + "eg"), then any
# trailing unit text (``Ohm``, ``F``, ``H``, ``Hz``, ...), which SPICE
# ignores.
_VALUE_RE = re.compile(
    r"^([-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[-+]?[0-9]+)?)"
    r"(meg|mil|[tgkmunpf])?[a-z]*$"
)


def parse_value(token: str) -> float:
    """Parse a SPICE numeric token with engineering suffix.

    Trailing alphabetic unit text after the suffix is ignored, and a
    bare trailing decimal point is accepted, per SPICE semantics.

    >>> parse_value("1k"), round(parse_value("2.5u"), 12), parse_value("3meg")
    (1000.0, 2.5e-06, 3000000.0)
    >>> parse_value("3."), parse_value("1kOhm"), round(parse_value("10uF"), 12)
    (3.0, 1000.0, 1e-05)
    >>> parse_value("5mil") == 5 * 25.4e-6
    True

    A token whose value overflows a float is rejected like any other
    unparsable token:

    >>> parse_value("1e400")
    Traceback (most recent call last):
    ...
    repro.errors.NetlistError: cannot parse numeric value '1e400'
    """
    match = _VALUE_RE.match(token.strip().lower())
    if match:
        base = float(match.group(1))
        suffix = match.group(2)
        value = base * _SUFFIXES[suffix] if suffix else base
        if math.isfinite(value):  # not an overflow such as 1e400
            return value
    raise NetlistError(f"cannot parse numeric value {token!r}")


def _is_value(token: str) -> bool:
    """True when ``token`` parses as a SPICE numeric value."""
    return _VALUE_RE.match(token.strip().lower()) is not None


# ----------------------------------------------------------------------
# source-spec parsing (the value fields of V / I cards)
# ----------------------------------------------------------------------
_SOURCE_FN_RE = re.compile(r"\b(sin|pulse|exp|pwl)\s*\(([^()]*)\)", re.IGNORECASE)

#: argument counts accepted by each transient function.  SPICE defaults
#: SIN's FREQ and EXP's TAU1 from the .tran card (1/tstop, tstep) --
#: values a waveform built at parse time cannot know -- so those
#: arguments are required here rather than silently mis-defaulted.
_SOURCE_FN_ARITY = {
    "sin": (3, 6),
    "pulse": (2, 7),
    "exp": (4, 6),
    "pwl": (4, None),
}


def _build_transient(fn: str, args: list[float], name: str) -> Waveform:
    """Instantiate the waveform of one transient source function."""
    lo, hi = _SOURCE_FN_ARITY[fn]
    if len(args) < lo or (hi is not None and len(args) > hi):
        bound = f"{lo}" if hi is None else f"{lo}..{hi}"
        raise NetlistError(
            f"source {name!r}: {fn.upper()}() takes {bound} arguments, "
            f"got {len(args)}"
        )
    try:
        if fn == "sin":
            return SpiceSin(*args)
        if fn == "pulse":
            return SpicePulse(*args)
        if fn == "exp":
            return SpiceExp(*args)
        # pwl: alternating time/value pairs
        if len(args) % 2:
            raise ValueError("PWL() takes time/value pairs")
        return PiecewiseLinear(args[0::2], args[1::2])
    except ValueError as exc:
        raise NetlistError(f"source {name!r}: {exc}") from exc


def parse_source_spec(spec: str, name: str = "?") -> tuple[Waveform, complex | None]:
    """Parse the value fields of a ``V``/``I`` card.

    Returns ``(waveform, ac)`` where ``ac`` is the complex small-signal
    magnitude from an ``AC <mag> [<phase-degrees>]`` entry (``None``
    when the card has none).  The waveform is the transient function if
    present, otherwise the constant DC value (``0`` if only an AC
    magnitude is given).

    Examples
    --------
    >>> wf, ac = parse_source_spec("DC 2 AC 1", "V1")
    >>> wf, ac
    (Constant(2), (1+0j))
    >>> parse_source_spec("SIN(0 5 1k)", "V1")[0]
    SpiceSin(vo=0, va=5, freq=1000, td=0, theta=0, phase=0)
    """
    text = spec.strip()
    waveform: Waveform | None = None
    match = _SOURCE_FN_RE.search(text)
    if match:
        fn = match.group(1).lower()
        arg_tokens = [t for t in re.split(r"[\s,]+", match.group(2).strip()) if t]
        args = [parse_value(tok) for tok in arg_tokens]
        waveform = _build_transient(fn, args, name)
        text = (text[: match.start()] + " " + text[match.end() :]).strip()
    if "(" in text or ")" in text:
        raise NetlistError(
            f"source {name!r}: cannot parse source spec {spec!r} "
            "(expected one SIN/PULSE/EXP/PWL(...) function)"
        )
    tokens = [t for t in re.split(r"[\s,]+", text) if t]
    dc: float | None = None
    ac: complex | None = None
    i = 0
    while i < len(tokens):
        key = tokens[i].lower()
        if key == "dc":
            if i + 1 >= len(tokens) or dc is not None:
                raise NetlistError(f"source {name!r}: bad DC entry in {spec!r}")
            dc = parse_value(tokens[i + 1])
            i += 2
        elif key == "ac":
            if i + 1 >= len(tokens) or ac is not None:
                raise NetlistError(f"source {name!r}: bad AC entry in {spec!r}")
            magnitude = parse_value(tokens[i + 1])
            i += 2
            phase = 0.0
            if i < len(tokens) and _is_value(tokens[i]):
                phase = parse_value(tokens[i])
                i += 1
            ac = complex(magnitude * np.exp(1j * np.pi * phase / 180.0))
        elif dc is None and _is_value(key):
            # a bare value is the DC operating level; the classic form
            # "V1 in 0 0 SIN(...)" carries one alongside the transient
            # function (which then drives the simulation)
            dc = parse_value(tokens[i])
            i += 1
        else:
            raise NetlistError(
                f"source {name!r}: unexpected token {tokens[i]!r} in {spec!r}"
            )
    if waveform is None:
        waveform = Constant(0.0 if dc is None else dc)
    return waveform, ac


#: ``{param}`` reference inside a subcircuit-body token.
_PARAM_RE = re.compile(r"\{([A-Za-z_][\w.]*)\}")

class _SubcktDef:
    """One ``.subckt`` definition collected before flattening.

    ``params`` maps lower-cased parameter names to their default value
    tokens; ``body`` holds ``(lineno, text)`` cards in source order.
    """

    def __init__(
        self, name: str, ports: tuple[str, ...], params: dict[str, str], lineno: int
    ) -> None:
        self.name = name
        self.ports = ports
        self.params = params
        self.lineno = lineno
        self.body: list[tuple[int, str]] = []

    @property
    def key(self) -> str:
        return self.name.lower()


class Netlist:
    """Ordered circuit description with node and input-channel registries.

    Examples
    --------
    >>> nl = Netlist("rc lowpass")
    >>> nl.add_current_source("Iin", "0", "in", waveform=Constant(1.0))
    0
    >>> nl.add_resistor("R1", "in", "0", 1e3)
    >>> nl.add_capacitor("C1", "in", "0", 1e-6)
    >>> nl.n_nodes, nl.n_channels
    (1, 1)
    """

    def __init__(self, title: str = "") -> None:
        self.title = title
        self.elements: list[Element] = []
        self.couplings: list[MutualInductance] = []
        self.analysis = AnalysisSpec()
        #: subcircuit instances expanded during parsing (0 for flat decks)
        self.n_instances = 0
        self._names: set[str] = set()
        self._node_order: list[str] = []
        self._node_index: dict[str, int] = {}
        self._waveforms: dict[int, Waveform] = {}
        self._ac_magnitudes: dict[int, complex] = {}
        self._next_channel = 0

    # ------------------------------------------------------------------
    # node bookkeeping
    # ------------------------------------------------------------------
    @staticmethod
    def is_ground(node: str) -> bool:
        """True when ``node`` is a ground alias (``0``/``gnd``/``vss``/``ground``).

        Comparison is case-insensitive: ``Gnd``, ``VSS`` and
        ``Ground`` all name the reference node (registering them as
        live nodes would silently produce a wrong MNA system).

        >>> Netlist.is_ground("Gnd"), Netlist.is_ground("VSS")
        (True, True)
        """
        return node.lower() in GROUND_NAMES

    def _register_node(self, node: str) -> None:
        if self.is_ground(node) or node in self._node_index:
            return
        self._node_index[node] = len(self._node_order)
        self._node_order.append(node)

    @property
    def nodes(self) -> list[str]:
        """Non-ground node names in first-appearance order."""
        return list(self._node_order)

    def node_index(self, node: str) -> int:
        """Index of a non-ground node in the unknown vector.

        Raises
        ------
        NetlistError
            For ground or unknown nodes.
        """
        if self.is_ground(node):
            raise NetlistError(f"node {node!r} is ground and has no index")
        try:
            return self._node_index[node]
        except KeyError:
            raise NetlistError(f"unknown node {node!r}") from None

    @property
    def n_nodes(self) -> int:
        return len(self._node_order)

    # ------------------------------------------------------------------
    # element insertion
    # ------------------------------------------------------------------
    def add(self, element: Element) -> None:
        """Add a pre-built element record (used by the typed helpers).

        Registers the record's node fields in its card kind's order (a
        VCCS's control nodes ``c``, ``d`` before its terminals); a ``K``
        coupling's inductors must already be in the netlist.
        """
        kind = kind_of(element)
        if element.name in self._names:
            raise NetlistError(f"duplicate element name {element.name!r}")
        if kind.refs:
            inductor_names = {el.name for el in self.inductors}
            for field in kind.refs:
                ref = getattr(element, field)
                if ref not in inductor_names:
                    raise NetlistError(
                        f"{element.name}: inductor {ref!r} must be added before "
                        "coupling it"
                    )
        self._names.add(element.name)
        for field in kind.nodes:
            self._register_node(getattr(element, field))
        (self.couplings if kind.refs else self.elements).append(element)

    def add_resistor(self, name: str, a: str, b: str, resistance: float) -> None:
        """Add a resistor of ``resistance`` ohms between nodes ``a`` and ``b``."""
        self.add(Resistor(name, a, b, resistance=float(resistance)))

    def add_capacitor(self, name: str, a: str, b: str, capacitance: float) -> None:
        """Add a capacitor of ``capacitance`` farads between ``a`` and ``b``."""
        self.add(Capacitor(name, a, b, capacitance=float(capacitance)))

    def add_inductor(self, name: str, a: str, b: str, inductance: float) -> None:
        """Add an inductor of ``inductance`` henries between ``a`` and ``b``."""
        self.add(Inductor(name, a, b, inductance=float(inductance)))

    def add_cpe(self, name: str, a: str, b: str, q: float, alpha: float) -> None:
        """Add a constant-phase element ``i = q d^alpha v/dt^alpha`` (fractional capacitor)."""
        self.add(CPE(name, a, b, q=float(q), alpha=float(alpha)))

    def add_vccs(self, name: str, a: str, b: str, c: str, d: str, gm: float) -> None:
        """Add a VCCS: ``i(a->b) = gm * (v(c) - v(d))`` (SPICE G element)."""
        self.add(VCCS(name, a, b, c=c, d=d, gm=float(gm)))

    def add_mutual(self, name: str, inductor1: str, inductor2: str, coupling: float) -> None:
        """Couple two existing inductors with coefficient ``k`` (SPICE K element)."""
        self.add(MutualInductance(name, inductor1, inductor2, coupling=float(coupling)))

    def _allocate_channel(self, waveform: Waveform | None, channel: int | None) -> int:
        if channel is None:
            channel = self._next_channel
            self._next_channel += 1
        else:
            channel = int(channel)
            self._next_channel = max(self._next_channel, channel + 1)
        if waveform is not None:
            existing = self._waveforms.get(channel)
            if existing is not None and existing is not waveform:
                raise NetlistError(
                    f"channel {channel} already has waveform {existing!r}"
                )
            self._waveforms[channel] = waveform
        return channel

    def add_current_source(
        self,
        name: str,
        a: str,
        b: str,
        waveform: Waveform | None = None,
        *,
        channel: int | None = None,
        scale: float = 1.0,
    ) -> int:
        """Add a current source; returns its input-channel index."""
        channel = self._allocate_channel(waveform, channel)
        self.add(CurrentSource(name, a, b, channel=channel, scale=float(scale)))
        return channel

    def add_voltage_source(
        self,
        name: str,
        a: str,
        b: str,
        waveform: Waveform | None = None,
        *,
        channel: int | None = None,
        scale: float = 1.0,
    ) -> int:
        """Add a voltage source; returns its input-channel index."""
        channel = self._allocate_channel(waveform, channel)
        self.add(VoltageSource(name, a, b, channel=channel, scale=float(scale)))
        return channel

    def set_channel_waveform(self, channel: int, waveform: Waveform) -> None:
        """Attach (or replace) the waveform driving an input channel."""
        if channel < 0 or channel >= self.n_channels:
            raise NetlistError(f"channel {channel} out of range [0, {self.n_channels})")
        self._waveforms[int(channel)] = waveform

    def set_ac_magnitude(self, channel: int, magnitude: complex) -> None:
        """Attach a small-signal (``.ac``) magnitude to an input channel."""
        if channel < 0 or channel >= self.n_channels:
            raise NetlistError(f"channel {channel} out of range [0, {self.n_channels})")
        self._ac_magnitudes[int(channel)] = complex(magnitude)

    def ac_vector(self) -> np.ndarray:
        """Per-channel small-signal excitation for ``.ac`` analysis.

        Channels whose source carried an ``AC <mag> [<phase>]`` entry
        contribute that complex magnitude; the others contribute zero.
        A *single-channel* deck without any AC entry defaults to the
        customary unit excitation (``1 + 0j``) so simple decks need no
        boilerplate; a multi-channel deck must say which sources excite
        the sweep -- exciting all of them at once would report a
        physically meaningless superposition.
        """
        p = self.n_channels
        if p == 0:
            raise NetlistError("netlist has no input channels")
        if not self._ac_magnitudes:
            if p == 1:
                return np.ones(1, dtype=complex)
            raise NetlistError(
                f"the deck has {p} input channels but no source declares an "
                "AC magnitude; add 'AC <mag> [<phase>]' to the source(s) "
                "that should excite the .ac sweep"
            )
        out = np.zeros(p, dtype=complex)
        for channel, magnitude in self._ac_magnitudes.items():
            out[channel] = magnitude
        return out

    # ------------------------------------------------------------------
    # element queries
    # ------------------------------------------------------------------
    def of_type(self, kind) -> list:
        """All elements of the given component class, in insertion order."""
        return [el for el in self.elements if isinstance(el, kind)]

    @property
    def resistors(self) -> list[Resistor]:
        return self.of_type(Resistor)

    @property
    def capacitors(self) -> list[Capacitor]:
        return self.of_type(Capacitor)

    @property
    def inductors(self) -> list[Inductor]:
        return self.of_type(Inductor)

    @property
    def cpes(self) -> list[CPE]:
        return self.of_type(CPE)

    @property
    def current_sources(self) -> list[CurrentSource]:
        return self.of_type(CurrentSource)

    @property
    def voltage_sources(self) -> list[VoltageSource]:
        return self.of_type(VoltageSource)

    @property
    def n_channels(self) -> int:
        return self._next_channel

    # ------------------------------------------------------------------
    # input functions
    # ------------------------------------------------------------------
    def input_function(self, *, derivative: bool = False) -> Callable:
        """Vectorised ``u(times) -> (n_channels, nt)`` from attached waveforms.

        ``derivative=True`` returns the channel-wise time derivative
        (what the NA second-order model consumes).

        Raises
        ------
        NetlistError
            If any channel lacks an attached waveform.
        """
        p = self.n_channels
        if p == 0:
            raise NetlistError("netlist has no input channels")
        waveforms = []
        for ch in range(p):
            wf = self._waveforms.get(ch)
            if wf is None:
                raise NetlistError(f"channel {ch} has no attached waveform")
            waveforms.append(wf.derivative() if derivative else wf)

        def u_fn(times, _wfs=tuple(waveforms)):
            t = np.atleast_1d(np.asarray(times, dtype=float))
            return np.vstack([wf(t) for wf in _wfs])

        return u_fn

    # ------------------------------------------------------------------
    # parameter variations
    # ------------------------------------------------------------------
    def element_values(self) -> dict[str, float]:
        """Nominal value of every element, keyed by name.

        Resistance / capacitance / inductance / CPE ``q`` / VCCS ``gm``
        for the passive elements, the ``scale`` factor for sources, and
        the coupling coefficient for ``K`` cards -- exactly the numbers
        :meth:`with_values` can override.
        """
        return {
            el.name: float(getattr(el, kind_of(el).value))
            for el in (*self.elements, *self.couplings)
        }

    def with_values(self, overrides: dict) -> "Netlist":
        """A copy of this netlist with some element values replaced.

        The copy preserves element order, node numbering, input-channel
        allocation, attached waveforms / AC magnitudes, and the
        analysis cards, so the varied circuit is state-compatible with
        the base one -- exactly what
        :func:`~repro.circuits.mna.assemble_mna_restamp` (and therefore
        :meth:`repro.engine.executor.Ensemble.variations`) requires.

        Parameters
        ----------
        overrides:
            Element name -> new value.  Unknown names raise with the
            list of known elements.

        Examples
        --------
        >>> base = Netlist.from_spice("I1 0 a 1m\\nR1 a 0 1k\\nC1 a 0 1u\\n")
        >>> varied = base.with_values({"R1": 1.2e3})
        >>> varied.resistors[0].resistance, base.resistors[0].resistance
        (1200.0, 1000.0)
        >>> varied.nodes == base.nodes
        True
        """
        import dataclasses

        known = {el.name for el in self.elements}
        known.update(pair.name for pair in self.couplings)
        unknown = set(overrides) - known
        if unknown:
            raise NetlistError(
                f"cannot vary unknown element(s) {sorted(unknown)}; "
                f"netlist has {sorted(known)}"
            )
        varied = Netlist(self.title)
        for el in (*self.elements, *self.couplings):
            if el.name in overrides:
                el = dataclasses.replace(
                    el, **{kind_of(el).value: float(overrides[el.name])}
                )
            varied.add(el)
        varied.analysis = self.analysis
        varied._waveforms = dict(self._waveforms)
        varied._ac_magnitudes = dict(self._ac_magnitudes)
        varied._next_channel = self._next_channel
        return varied

    # ------------------------------------------------------------------
    # parsing
    # ------------------------------------------------------------------
    @staticmethod
    def _numbered_logical_lines(text: str) -> list[tuple[int, str]]:
        """Join ``+`` continuations and strip comments from a deck.

        Returns ``(lineno, card)`` pairs where ``lineno`` is the
        1-based physical line the card started on (duplicate-name
        diagnostics point back at it).  ``*`` lines are full-line
        comments; ``;`` and ``$`` begin inline comments; a leading
        ``+`` continues the previous card (comments are stripped
        before joining, so a commented card still continues cleanly).
        Stops at ``.end`` -- the terminator card exactly, so that
        ``.ends`` (subcircuit end) and ``.endl`` pass through.
        """

        def strip_inline(line: str) -> str:
            # ';' comments anywhere; '$' only at line start or after
            # whitespace (tool-generated decks use '$' inside
            # hierarchical node names)
            pos = line.find(";")
            if pos >= 0:
                line = line[:pos]
            match = re.search(r"(?:^|\s)\$", line)
            if match:
                line = line[: match.start()]
            return line.strip()

        logical: list[tuple[int, str]] = []
        for lineno, raw_line in enumerate(text.splitlines(), start=1):
            line = raw_line.strip()
            if not line or line.startswith("*"):
                continue
            if line.startswith("+"):
                continuation = strip_inline(line[1:])
                if not logical:
                    raise NetlistError(
                        "continuation line '+' with no card to continue"
                    )
                if continuation:
                    start, card = logical[-1]
                    logical[-1] = (start, card + " " + continuation)
                continue
            line = strip_inline(line)
            if not line:
                continue
            if line.split()[0].lower() == ".end":
                break
            logical.append((lineno, line))
        return logical

    @staticmethod
    def _logical_lines(text: str) -> list[str]:
        """Logical cards of a deck, without source-line numbers."""
        return [card for _, card in Netlist._numbered_logical_lines(text)]

    # ------------------------------------------------------------------
    # hierarchy: .subckt collection and X-card expansion
    # ------------------------------------------------------------------
    @classmethod
    def _collect_subckts(
        cls, numbered: list[tuple[int, str]]
    ) -> tuple[list[tuple[int, str]], dict[str, "_SubcktDef"]]:
        """Split numbered cards into top-level cards and subckt definitions.

        Raises
        ------
        NetlistError
            For duplicate ``.subckt`` definitions (naming both source
            lines), nested definitions, analysis dot-cards inside a
            body, stray/missing ``.ends``, or a malformed header.
        """
        defs: dict[str, _SubcktDef] = {}
        top: list[tuple[int, str]] = []
        current: _SubcktDef | None = None
        for lineno, line in numbered:
            fields = line.split()
            command = fields[0].lower()
            if command == ".subckt":
                if current is not None:
                    raise NetlistError(
                        f"nested .subckt at line {lineno}: definition of "
                        f"{current.name!r} (line {current.lineno}) is still open"
                    )
                if len(fields) < 3:
                    raise NetlistError(
                        f".subckt at line {lineno} expects '.subckt <name> "
                        f"<port> [<port> ...] [param=value ...]', got {line!r}"
                    )
                name = fields[1]
                prior = defs.get(name.lower())
                if prior is not None:
                    raise NetlistError(
                        f"duplicate .subckt definition {name!r}: first defined "
                        f"at line {prior.lineno}, redefined at line {lineno}"
                    )
                ports: list[str] = []
                params: dict[str, str] = {}
                for token in fields[2:]:
                    if "=" in token:
                        pname, _, pval = token.partition("=")
                        if not pname or not pval:
                            raise NetlistError(
                                f".subckt {name!r} (line {lineno}): malformed "
                                f"parameter default {token!r}"
                            )
                        params[pname.lower()] = pval
                    elif params:
                        raise NetlistError(
                            f".subckt {name!r} (line {lineno}): port {token!r} "
                            "appears after parameter defaults"
                        )
                    else:
                        if cls.is_ground(token):
                            raise NetlistError(
                                f".subckt {name!r} (line {lineno}): port "
                                f"{token!r} is a ground alias; connect ground "
                                "inside the body instead"
                            )
                        if token.lower() in (p.lower() for p in ports):
                            raise NetlistError(
                                f".subckt {name!r} (line {lineno}): duplicate "
                                f"port {token!r}"
                            )
                        ports.append(token)
                if not ports:
                    raise NetlistError(
                        f".subckt {name!r} (line {lineno}) declares no ports"
                    )
                current = _SubcktDef(name, tuple(ports), params, lineno)
                defs[current.key] = current
            elif command == ".ends":
                if current is None:
                    raise NetlistError(
                        f".ends at line {lineno} without an open .subckt"
                    )
                if len(fields) > 1 and fields[1].lower() != current.key:
                    raise NetlistError(
                        f".ends {fields[1]!r} at line {lineno} does not close "
                        f".subckt {current.name!r} (line {current.lineno})"
                    )
                current = None
            elif current is not None:
                if command.startswith("."):
                    raise NetlistError(
                        f"dot-card {fields[0]!r} inside .subckt "
                        f"{current.name!r} (line {lineno}): analysis cards "
                        "belong at top level"
                    )
                current.body.append((lineno, line))
            else:
                top.append((lineno, line))
        if current is not None:
            raise NetlistError(
                f".subckt {current.name!r} (line {current.lineno}) is never "
                "closed with .ends"
            )
        return top, defs

    @staticmethod
    def _substitute_params(token: str, params: dict[str, str], context: str) -> str:
        """Replace ``{param}`` references in one card token."""

        def repl(match: "re.Match[str]") -> str:
            key = match.group(1).lower()
            try:
                return params[key]
            except KeyError:
                known = ", ".join(sorted(params)) or "none declared"
                raise NetlistError(
                    f"{context}: unknown parameter "
                    f"{{{match.group(1)}}} (known: {known})"
                ) from None

        return _PARAM_RE.sub(repl, token)

    @classmethod
    def _expand_instance(
        cls,
        lineno: int,
        fields: list[str],
        defs: dict[str, "_SubcktDef"],
        parent_prefix: str,
        parent_map: Callable[[str], str],
        stack: tuple[str, ...],
        seen: dict[str, int],
        out: list[tuple[int, list[str]]],
    ) -> int:
        """Expand one ``X`` card into flattened element cards (appended
        to ``out``); returns the number of instances expanded
        (including nested ones)."""
        inst_name = fields[0]
        rest = list(fields[1:])
        overrides: dict[str, str] = {}
        while rest and "=" in rest[-1]:
            pname, _, pval = rest.pop().partition("=")
            if not pname or not pval:
                raise NetlistError(
                    f"instance {inst_name!r} (line {lineno}): malformed "
                    f"parameter override {pname + '=' + pval!r}"
                )
            overrides[pname.lower()] = pval
        if len(rest) < 2:
            raise NetlistError(
                f"instance card {inst_name!r} (line {lineno}) expects "
                "'X<name> <node> [<node> ...] <subckt> [param=value ...]'"
            )
        sub_name = rest[-1]
        connections = rest[:-1]
        sdef = defs.get(sub_name.lower())
        if sdef is None:
            known = ", ".join(sorted(d.name for d in defs.values())) or "none"
            raise NetlistError(
                f"instance {inst_name!r} (line {lineno}): unknown subcircuit "
                f"{sub_name!r} (defined: {known})"
            )
        if sdef.key in stack:
            chain = " -> ".join((*stack, sdef.key))
            raise NetlistError(
                f"instance {inst_name!r} (line {lineno}): recursive "
                f"instantiation of .subckt {sdef.name!r} ({chain})"
            )
        if len(connections) != len(sdef.ports):
            raise NetlistError(
                f"instance {inst_name!r} (line {lineno}): {len(connections)} "
                f"connection(s) for .subckt {sdef.name!r} with "
                f"{len(sdef.ports)} port(s) {sdef.ports}"
            )
        unknown = set(overrides) - set(sdef.params)
        if unknown:
            known = ", ".join(sorted(sdef.params)) or "none declared"
            raise NetlistError(
                f"instance {inst_name!r} (line {lineno}): unknown "
                f"parameter(s) {sorted(unknown)} for .subckt {sdef.name!r} "
                f"(known: {known})"
            )
        prefix = (
            f"{parent_prefix}.{inst_name.lower()}"
            if parent_prefix
            else inst_name.lower()
        )
        prior = seen.get(prefix)
        if prior is not None:
            raise NetlistError(
                f"duplicate instance name {inst_name!r}: first defined at "
                f"line {prior}, redefined at line {lineno}"
            )
        seen[prefix] = lineno
        params = {**sdef.params, **overrides}
        node_map = {
            port.lower(): parent_map(conn)
            for port, conn in zip(sdef.ports, connections)
        }

        def map_node(token: str) -> str:
            if cls.is_ground(token):
                return "0"  # ground aliases unify before flattening
            mapped = node_map.get(token.lower())
            if mapped is not None:
                return mapped
            return f"{prefix}.{token}"

        count = 1
        context = f"instance {prefix!r} of .subckt {sdef.name!r}"
        for body_lineno, body_line in sdef.body:
            body_fields = [
                cls._substitute_params(
                    token, params, f"{context}, body line {body_lineno}"
                )
                for token in body_line.split()
            ]
            kind = body_fields[0][0].upper()
            if kind == "X":
                count += cls._expand_instance(
                    body_lineno,
                    body_fields,
                    defs,
                    parent_prefix=prefix,
                    parent_map=map_node,
                    stack=(*stack, sdef.key),
                    seen=seen,
                    out=out,
                )
                continue
            flat_name = f"{prefix}.{body_fields[0]}"
            # node fields map through the ports; a coupling's inductor
            # references name elements of this instance
            card = CARD_KINDS.get(kind)
            linked = len(card.refs or card.nodes) if card else 2
            if len(body_fields) < 1 + linked:
                raise NetlistError(
                    f"card {flat_name!r} (line {body_lineno}): too few fields "
                    f"for a {kind} element"
                )
            refs = bool(card and card.refs)
            out.append(
                (
                    body_lineno,
                    [
                        flat_name,
                        *(
                            f"{prefix}.{t}" if refs else map_node(t)
                            for t in body_fields[1 : 1 + linked]
                        ),
                        *body_fields[1 + linked :],
                    ],
                )
            )
        return count

    def _parse_dot_card(self, fields: list[str]) -> None:
        """Parse one ``.tran`` / ``.ac`` / ``.ic`` / ``.options`` card."""
        command = fields[0].lower()
        spec = self.analysis
        if command == ".tran":
            numbers = [f for f in fields[1:] if f.lower() != "uic"]
            uic = len(numbers) != len(fields) - 1
            if len(numbers) < 2 or len(numbers) > 4:
                raise NetlistError(
                    ".tran expects '.tran tstep tstop [tstart] [tmax] [uic]', "
                    f"got {' '.join(fields)!r}"
                )
            values = [parse_value(tok) for tok in numbers]
            spec.tran = TranCard(
                tstep=values[0],
                tstop=values[1],
                tstart=values[2] if len(values) > 2 else 0.0,
                tmax=values[3] if len(values) > 3 else None,
                uic=uic,
            )
        elif command == ".ac":
            if len(fields) != 5:
                raise NetlistError(
                    ".ac expects '.ac dec|oct|lin n fstart fstop', "
                    f"got {' '.join(fields)!r}"
                )
            try:
                n_points = int(parse_value(fields[2]))
            except NetlistError:
                raise NetlistError(
                    f".ac point count must be an integer, got {fields[2]!r}"
                ) from None
            spec.ac = AcCard(
                variation=fields[1].lower(),
                n=n_points,
                f_start=parse_value(fields[3]),
                f_stop=parse_value(fields[4]),
            )
        elif command == ".ic":
            body = re.sub(r"\s*=\s*", "=", " ".join(fields[1:]))
            for entry in body.split():
                match = re.fullmatch(r"v\((.+)\)=(\S+)", entry, re.IGNORECASE)
                if not match:
                    raise NetlistError(
                        f".ic entries must look like v(node)=value, got {entry!r}"
                    )
                node = match.group(1).strip()
                if self.is_ground(node):
                    raise NetlistError(f".ic cannot set the ground node {node!r}")
                spec.ic[node] = parse_value(match.group(2))
        elif command in (".options", ".option"):
            body = re.sub(r"\s*=\s*", "=", " ".join(fields[1:]))
            for entry in body.split():
                key, sep, value = entry.partition("=")
                if not sep or not key or not value:
                    raise NetlistError(
                        f".options entries must look like key=value, got {entry!r}"
                    )
                spec.set_option(key, value)
        # other dot-commands (.print, .plot, .temp, ...) are ignored

    @classmethod
    def from_spice(cls, text: str, title: str = "") -> "Netlist":
        """Build a netlist from SPICE-subset cards (see module docstring).

        Handles ``+`` continuation lines, inline ``;`` / ``$``
        comments, transient source functions, ``.subckt``/``.ends``
        definitions with ``X`` instances (flattened recursively, with
        hierarchical node/element names and ``{param}`` substitution),
        and the ``.tran`` / ``.ac`` / ``.ic`` / ``.options``
        dot-commands (collected into :attr:`analysis`).

        Examples
        --------
        >>> nl = Netlist.from_spice('''
        ... * simple rc
        ... I1 0 n1 SIN(0 1m 1k)  ; 1 kHz drive
        ... R1 n1 0 1kOhm
        ... C1 n1 0 1u
        ... .tran 10u 5m
        ... ''')
        >>> nl.n_nodes, nl.analysis.tran.steps
        (1, 500)

        >>> nl = Netlist.from_spice('''
        ... .subckt rcsec in out r=1k c=1u
        ... R1 in out {r}
        ... C1 out gnd {c}
        ... .ends
        ... V1 drive 0 SIN(0 1 1k)
        ... Xa drive mid rcsec
        ... Xb mid tap rcsec r=2k
        ... .tran 10u 5m
        ... ''')
        >>> nl.nodes
        ['drive', 'mid', 'tap']
        >>> [r.name for r in nl.resistors], nl.resistors[1].resistance
        (['xa.R1', 'xb.R1'], 2000.0)
        """
        netlist = cls(title)
        numbered = cls._numbered_logical_lines(text)
        top, defs = cls._collect_subckts(numbered)
        flat: list[tuple[int, list[str]]] = []
        seen: dict[str, int] = {}
        n_instances = 0
        for lineno, line in top:
            fields = line.split()
            if not fields[0].startswith(".") and fields[0][0].upper() == "X":
                n_instances += cls._expand_instance(
                    lineno,
                    fields,
                    defs,
                    parent_prefix="",
                    parent_map=lambda token: (
                        "0" if cls.is_ground(token) else token
                    ),
                    stack=(),
                    seen=seen,
                    out=flat,
                )
            else:
                flat.append((lineno, fields))
        netlist.n_instances = n_instances
        for lineno, fields in flat:
            name = fields[0]
            if name.startswith("."):
                netlist._parse_dot_card(fields)
                continue
            # hierarchical names keep the element-kind letter in the
            # leaf segment ("xa.R1" is a resistor)
            leaf = name.rsplit(".", 1)[-1]
            kind = CARD_KINDS.get(leaf[0].upper() if leaf else "?")
            if kind is None:
                raise NetlistError(f"unsupported card {name!r}")
            prior = seen.get(name)
            if prior is not None and prior != lineno:
                raise NetlistError(
                    f"duplicate element name {name!r}: first defined at "
                    f"line {prior}, redefined at line {lineno}"
                )
            seen[name] = lineno
            fewest, most = kind.arity
            if len(fields) < fewest or (most is not None and len(fields) > most):
                expected = fewest if most == fewest else f"at least {fewest}"
                raise NetlistError(
                    f"card {name!r}: expected {expected} fields, got {len(fields)}"
                )
            if kind.source:  # its nodes, then its source spec
                waveform, ac = parse_source_spec(" ".join(fields[3:]), name)
                channel = netlist._allocate_channel(waveform, None)
                netlist.add(kind.record(name, fields[1], fields[2], channel=channel))
                if ac is not None:
                    netlist.set_ac_magnitude(channel, ac)
                continue
            given = dict(zip(kind.card, fields[1:]))
            for field in kind.numbers:
                given[field] = parse_value(given[field])
            netlist.add(kind.record(name, **given))
        if not netlist.elements:
            raise NetlistError("netlist contains no elements")
        for node in netlist.analysis.ic:
            netlist.node_index(node)  # unknown .ic nodes fail fast
        return netlist

    @classmethod
    def from_spice_file(cls, path) -> "Netlist":
        """Read and parse a netlist file; the title is the file stem."""
        from pathlib import Path

        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise NetlistError(f"cannot read netlist {path}: {exc}") from exc
        return cls.from_spice(text, title=path.stem)

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Element/node counts, for logging and tests."""
        return {
            "nodes": self.n_nodes,
            "resistors": len(self.resistors),
            "capacitors": len(self.capacitors),
            "inductors": len(self.inductors),
            "cpes": len(self.cpes),
            "couplings": len(self.couplings),
            "current_sources": len(self.current_sources),
            "voltage_sources": len(self.voltage_sources),
            "channels": self.n_channels,
        }

    def __repr__(self) -> str:
        s = self.summary()
        return (
            f"Netlist({self.title!r}, nodes={s['nodes']}, "
            f"R={s['resistors']}, C={s['capacitors']}, L={s['inductors']}, "
            f"CPE={s['cpes']}, I={s['current_sources']}, V={s['voltage_sources']})"
        )
