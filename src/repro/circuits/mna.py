"""Modified nodal analysis: netlist -> descriptor / fractional / multi-term model.

State vector layout:

.. math::  x = (v_1 .. v_N, \\; i_{L,1} .. i_{L,M}, \\; i_{V,1} .. i_{V,K})

node voltages, inductor branch currents, voltage-source branch
currents.  Writing KCL at every node plus the branch equations of
inductors and voltage sources yields

.. math::

    \\underbrace{\\begin{bmatrix} C & & \\\\ & L & \\\\ & & 0 \\end{bmatrix}}_{E}
    \\dot{x} =
    \\underbrace{\\begin{bmatrix} -G & -A_L & -A_V \\\\ A_L^T & & \\\\
    A_V^T & & \\end{bmatrix}}_{A} x + B u ,

paper eq. (9) -- a DAE whenever voltage sources or capacitor-free
nodes make ``E`` singular.  Constant-phase elements add a fractional
block ``Q_alpha d^alpha v`` to the node equations; the assembler then
returns a :class:`~repro.core.lti.FractionalDescriptorSystem` (pure
CPE dynamics, paper eq. (19)) or a
:class:`~repro.core.lti.MultiTermSystem` (mixed orders).

Sign conventions (SPICE): branch quantities are defined from terminal
``a`` to terminal ``b``; a positive current-source value drives current
*through the source* from ``a`` to ``b`` (i.e. out of node ``a``'s KCL
and into node ``b``'s).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..core.lti import DescriptorSystem, FractionalDescriptorSystem, MultiTermSystem
from ..engine.backends import SPARSE_SIZE_THRESHOLD
from ..errors import NetlistError
from .components import CONDUCTANCE, ELEMENT_KINDS, MUTUAL, ONE, kind_of
from .netlist import Netlist

__all__ = [
    "MnaPattern",
    "assemble_mna",
    "assemble_mna_restamp",
    "output_matrix",
]

# SPARSE_SIZE_THRESHOLD is shared with the engine's backend selection:
# under ``sparse='auto'``, models below it are emitted dense (small
# dense LU beats SuperLU on factorisation *and* per-column overhead)
# while larger ladder/power-grid models stay ``scipy.sparse`` and are
# never densified downstream.


def output_matrix(netlist: Netlist, nodes, size: int) -> np.ndarray:
    """Selector matrix picking the voltages of the named nodes.

    ``size`` is the full state dimension (node voltages first), so the
    same selector works for MNA and NA models.
    """
    nodes = list(nodes)
    C = np.zeros((len(nodes), size))
    for row, node in enumerate(nodes):
        C[row, netlist.node_index(node)] = 1.0
    return C


class _Stamper:
    """COO pattern of one block: where each entry lands, and its value form.

    An entry's value is ``sign * v``, ``sign * (1.0 / v)`` (a resistor's
    conductance), ``sign * 1.0``, or ``k * sqrt(L1 * L2)`` (a mutual
    inductance), where ``v``, ``k``, ``L1``, ``L2`` are element values
    picked from value *slots* (see :mod:`~repro.circuits.components`).
    """

    def __init__(self, entries=()) -> None:
        entries = list(entries)  # (row, col, form, sign, slots) each
        self.rows = np.array([e[0] for e in entries], dtype=np.intp)
        self.cols = np.array([e[1] for e in entries], dtype=np.intp)
        forms = np.array([e[2] for e in entries], dtype=object)
        self.signs = np.array([e[3] for e in entries], dtype=float)
        self.slots = np.array([e[4][0] for e in entries], dtype=np.intp)
        self.conductance = np.flatnonzero(forms == CONDUCTANCE)
        self.constant = np.flatnonzero(forms == ONE)
        self.mutual = np.flatnonzero(forms == MUTUAL)
        #: the two inductance slots of each mutual entry
        self.inductances = np.array(
            [entries[i][4][1:] for i in self.mutual], dtype=np.intp
        ).reshape(-1, 2)

    def values(self, values: np.ndarray) -> np.ndarray:
        """Entry values ``(k, nnz)`` for a ``(k, n_slots)`` value matrix.

        Each form uses the arithmetic of the scalar element record
        (``Resistor.conductance`` is ``1.0 / resistance``), and the sign
        multiplies by exactly +-1, so every entry equals its scalar
        stamp bit for bit.
        """
        out = values[:, self.slots]
        if self.conductance.size:
            out[:, self.conductance] = 1.0 / out[:, self.conductance]
        out[:, self.constant] = 1.0
        if self.mutual.size:
            l1, l2 = self.inductances.T
            out[:, self.mutual] = out[:, self.mutual] * np.sqrt(
                values[:, l1] * values[:, l2]
            )
        return out * self.signs

    def matrix(self, entries: np.ndarray, shape: tuple[int, int]) -> sp.csr_matrix:
        """The CSR block of one value row's ``entries`` (duplicates summed)."""
        return sp.coo_matrix((entries, (self.rows, self.cols)), shape=shape).tocsr()

    def inputs(self, entries: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        """The dense input block(s) of ``(..., nnz)`` entries, summed in order."""
        out = np.zeros(shape)
        np.add.at(out, (..., self.rows, self.cols), entries)
        return out


def _stamp(netlist: Netlist, analysis: str, first_branch: int):
    """One pass over the netlist: every element's table stamps of ``analysis``.

    ``analysis`` is ``'mna'`` or ``'na'`` (the :class:`ElementKind
    <repro.circuits.components.ElementKind>` field read); branch
    elements (inductors, then voltage sources) get consecutive branch
    indices from ``first_branch``.  Returns the stamper of each
    block -- keyed by block name, ``('frac', alpha)`` per CPE order,
    present once any element names it -- and the number of branches.
    Entries keep element order within each block, which fixes how
    duplicates sum.
    """

    indices: dict[str, int] = {}

    def node(name: str) -> int:
        if name not in indices:
            ground = netlist.is_ground(name)
            indices[name] = -1 if ground else netlist.node_index(name)
        return indices[name]

    branches = [
        el for kind in ELEMENT_KINDS if kind.branch for el in netlist.of_type(kind.record)
    ]
    branch = {el.name: first_branch + k for k, el in enumerate(branches)}
    slot_of: dict[str, int] = {}
    blocks: dict = {}
    for slot, el in enumerate((*netlist.elements, *netlist.couplings)):
        kind = kind_of(el)
        slot_of[el.name] = slot
        stamps = getattr(kind, analysis)
        if stamps is None:
            raise NetlistError(f"element {el.name!r} has no {analysis.upper()} stamp")
        index = {field: node(getattr(el, field)) for field in kind.nodes}
        if kind.branch:
            index["branch"] = branch[el.name]
        if kind.source:
            index["channel"] = el.channel
        slots: tuple[int, ...] = (slot,)
        for field in kind.refs:
            index[field] = branch[getattr(el, field)]
            slots += (slot_of[getattr(el, field)],)
        for block, row, col, form, sign in stamps:
            key = ("frac", float(el.alpha)) if block == "frac" else block
            entries = blocks.setdefault(key, [])
            r, c = index[row], index[col]
            if r >= 0 and c >= 0:
                entries.append((r, c, form, sign, slots))
    stampers = {key: _Stamper(entries) for key, entries in blocks.items()}
    return stampers, len(branches)


class MnaPattern:
    """The MNA stamping pattern of one netlist (one pass over it).

    Takes :func:`assemble_mna`'s arguments and records where every
    element value lands in ``E``, ``A``, the fractional blocks and
    ``B``, so :meth:`fill` can assemble ``k`` variants of the circuit
    from a ``(k, n_values)`` value matrix without re-walking the
    netlist -- how :meth:`~repro.engine.executor.Ensemble.variations`
    builds all its members.  Value columns follow :attr:`names` (the
    order of :meth:`~repro.circuits.netlist.Netlist.element_values`);
    :attr:`nominal` is the netlist's own row.

    Examples
    --------
    >>> from repro.circuits.netlist import Netlist
    >>> nl = Netlist.from_spice("I1 0 n1 1m\\nR1 n1 0 1k\\nC1 n1 0 1u\\n")
    >>> pattern = MnaPattern(nl)
    >>> pattern.names
    ('I1', 'R1', 'C1')
    >>> rc, slow = pattern.fill([pattern.nominal, [1.0, 2e3, 1e-6]])
    >>> float(rc.A[0, 0]), float(slow.A[0, 0])
    (-0.001, -0.0005)
    """

    def __init__(
        self, netlist: Netlist, outputs=None, *, sparse: str = "auto", ic=None
    ) -> None:
        if sparse not in ("auto", "always", "never"):
            raise NetlistError(
                f"sparse must be 'auto', 'always' or 'never', got {sparse!r}"
            )
        n_nodes = netlist.n_nodes
        if n_nodes == 0:
            raise NetlistError("netlist has no non-ground nodes")
        blocks, n_branches = _stamp(netlist, "mna", n_nodes)
        size = n_nodes + n_branches
        self.shape = (size, size)
        self.n_inputs = max(netlist.n_channels, 1)
        empty = _Stamper()
        #: order-1 block (C on nodes, L on currents), A and the input matrix
        e1, self._a, self._b = (blocks.pop(key, empty) for key in ("E1", "A", "B"))
        frac = {alpha: stamper for (_, alpha), stamper in sorted(blocks.items())}

        values = netlist.element_values()
        #: Value-slot names: element names in order, then ``K`` couplings.
        self.names = tuple(values)
        #: The netlist's own values, one per slot.
        self.nominal = np.array(list(values.values()), dtype=float)
        self.C = None if outputs is None else output_matrix(netlist, outputs, size)
        self.x0 = None
        if ic:
            x0 = np.zeros(size)
            for node, volts in ic.items():
                x0[netlist.node_index(node)] = float(volts)
            if np.any(x0):
                self.x0 = x0
        self.keep_sparse = sparse == "always" or (
            sparse == "auto" and size >= SPARSE_SIZE_THRESHOLD
        )
        self._has_integer_dynamics = bool(e1.rows.size)
        self._e1 = e1
        self._frac = frac
        multi_term = bool(frac) and (self._has_integer_dynamics or len(frac) > 1)
        if multi_term and self.x0 is not None:
            raise NetlistError(
                "initial conditions (.ic) are not supported for mixed-order "
                "circuits: the multi-term model has no initial-state handling; "
                "remove the .ic card or unify the dynamic element orders"
            )

    def fill(self, values) -> list:
        """Assemble one system per row of a ``(k, n_values)`` value matrix.

        Every member gets the same matrix builds :func:`assemble_mna`
        performs (one ``coo_matrix(...).tocsr()`` per block, densified
        below the sparse threshold), so a row equal to a varied
        netlist's values yields that netlist's system bit for bit.  The
        members share the pattern's output matrix and initial state.
        """
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] != len(self.names):
            raise NetlistError(
                f"values must be (k, {len(self.names)}), got {values.shape}"
            )
        stampers = (self._e1, self._a, *self._frac.values())
        blocks = [(st, st.values(values)) for st in stampers]
        b = self._b.inputs(
            self._b.values(values), (values.shape[0], self.shape[0], self.n_inputs)
        )
        systems = []
        for i in range(values.shape[0]):
            E1, A, *frac = (self._build(st, entries[i]) for st, entries in blocks)
            systems.append(self._system(E1, A, dict(zip(self._frac, frac)), b[i]))
        return systems

    def _build(self, stamper: _Stamper, values: np.ndarray):
        matrix = stamper.matrix(values, self.shape)
        return matrix if self.keep_sparse else matrix.toarray()

    def _system(self, E1, A, frac: dict, b: np.ndarray):
        C_out, x0 = self.C, self.x0
        if not frac:
            return DescriptorSystem(E1, A, b, C=C_out, x0=x0)
        has_integer_dynamics = self._has_integer_dynamics
        if not has_integer_dynamics and len(frac) == 1:
            ((alpha, matrix),) = frac.items()
            if alpha == 1.0:
                return DescriptorSystem(matrix, A, b, C=C_out, x0=x0)
            return FractionalDescriptorSystem(alpha, matrix, A, b, C=C_out, x0=x0)
        terms = [(0.0, -A)]
        if has_integer_dynamics:
            terms.append((1.0, E1))
        for alpha, matrix in frac.items():
            if alpha == 1.0 and has_integer_dynamics:
                terms = [(o, (m + matrix) if o == 1.0 else m) for o, m in terms]
            else:
                terms.append((alpha, matrix))
        return MultiTermSystem(terms, b, C=C_out)


def assemble_mna(netlist: Netlist, outputs=None, *, sparse: str = "auto", ic=None):
    """Assemble the MNA model of a netlist.

    Parameters
    ----------
    netlist:
        The circuit; must contain at least one node.
    outputs:
        Optional list of node names whose voltages become the model
        outputs (default: all states).
    sparse:
        Storage of the emitted system matrices: ``'auto'`` (default)
        keeps ``scipy.sparse`` CSR for models with at least
        :data:`repro.engine.backends.SPARSE_SIZE_THRESHOLD` states and
        densifies smaller ones; ``'always'`` / ``'never'`` force the
        choice.
    ic:
        Optional initial node voltages, a mapping ``node -> volts``
        (what a ``.ic v(node)=value`` card declares -- pass
        ``netlist.analysis.ic`` to honour the deck).  Branch-current
        states start at zero.  Mixed-order circuits emit a
        :class:`MultiTermSystem`, which has no initial-state support;
        a non-trivial ``ic`` raises for them.

    Returns
    -------
    DescriptorSystem | FractionalDescriptorSystem | MultiTermSystem
        * all dynamic elements integer-order -> :class:`DescriptorSystem`
          (paper eq. (9); the section V-B "DAE model constructed using
          MNA by treating the currents flowing through inductors as
          state variables");
        * only CPEs of one common order -> :class:`FractionalDescriptorSystem`
          (paper eq. (19));
        * mixed orders -> :class:`MultiTermSystem`.

    Examples
    --------
    >>> from repro.circuits.netlist import Netlist
    >>> from repro.circuits.sources import Constant
    >>> nl = Netlist()
    >>> _ = nl.add_current_source("I1", "0", "n1", Constant(1e-3))
    >>> nl.add_resistor("R1", "n1", "0", 1e3)
    >>> nl.add_capacitor("C1", "n1", "0", 1e-6)
    >>> assemble_mna(nl).n_states
    1
    """
    pattern = MnaPattern(netlist, outputs, sparse=sparse, ic=ic)
    return pattern.fill(pattern.nominal[None, :])[0]


def assemble_mna_restamp(netlist: Netlist, base: Netlist, outputs=None, **kwargs):
    """Assemble ``netlist`` as a mid-run re-stamp of a model built from ``base``.

    MNA state indices follow the netlist's node/branch *declaration
    order*, so two netlists produce state-compatible models only when
    their nodes, inductor branches, and voltage-source branches agree
    name-for-name in the same order (extra/removed R/C/CPE/source
    elements are fine -- that is exactly what switch closures and load
    hookups change).  This wrapper verifies that alignment before
    assembling, turning a silent state-vector permutation into a clear
    :class:`~repro.errors.NetlistError`.  Use it to build the
    :class:`~repro.engine.marching.Event` system for
    :meth:`repro.Simulator.march`.

    Parameters
    ----------
    netlist:
        The switched/modified circuit to assemble.
    base:
        The circuit the running model was assembled from.
    outputs, **kwargs:
        Forwarded to :func:`assemble_mna`.

    Examples
    --------
    >>> from repro.circuits.netlist import Netlist
    >>> base = Netlist.from_spice("I1 0 a 1m\\nR1 a 0 1k\\nC1 a 0 1u\\n")
    >>> closed = Netlist.from_spice("I1 0 a 1m\\nR1 a 0 1k\\nC1 a 0 1u\\nR2 a 0 500\\n")
    >>> assemble_mna_restamp(closed, base).n_states
    1
    """

    def names(elements) -> list[str]:
        return [el.name for el in elements]

    if netlist.nodes != base.nodes:
        raise NetlistError(
            "re-stamp netlist must declare the same nodes in the same order "
            f"as the base circuit; got {netlist.nodes} vs {base.nodes}"
        )
    if names(netlist.inductors) != names(base.inductors):
        raise NetlistError(
            "re-stamp netlist must keep the base circuit's inductor branches "
            "(their currents are states); got "
            f"{names(netlist.inductors)} vs {names(base.inductors)}"
        )
    if names(netlist.voltage_sources) != names(base.voltage_sources):
        raise NetlistError(
            "re-stamp netlist must keep the base circuit's voltage-source "
            "branches (their currents are states); got "
            f"{names(netlist.voltage_sources)} vs {names(base.voltage_sources)}"
        )
    if netlist.n_channels != base.n_channels:
        raise NetlistError(
            "re-stamp netlist must use the same number of input channels as "
            f"the base circuit, got {netlist.n_channels} vs {base.n_channels}"
        )
    return assemble_mna(netlist, outputs=outputs, **kwargs)
