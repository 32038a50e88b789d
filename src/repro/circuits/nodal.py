"""Nodal analysis: netlist -> second-order (high-order) model.

Paper section V-B: "A second-order differential model can be generated
using nodal analysis (NA) due to the existence of inductors."  The
construction keeps *only node voltages* as unknowns.  KCL with inductor
branch currents ``i_l = L^{-1} integral A_L^T v`` is an
integro-differential equation; differentiating once gives

.. math::

    C \\ddot{v} + G \\dot{v} + \\Gamma v = -S \\dot{u}(t), \\qquad
    \\Gamma = A_L L^{-1} A_L^T ,

a second-order model of size ``n_nodes`` -- smaller than the MNA DAE,
which additionally carries one state per inductor (75 K vs 110 K in the
paper's grid).  The price: the *derivative* of the source vector drives
the system, so source waveforms must be differentiable
(:meth:`repro.circuits.sources.Waveform.derivative`;
``netlist.input_function(derivative=True)`` builds the right input).

CPEs of order ``alpha`` contribute a ``d^{alpha+1}`` term after the
differentiation, turning the result into a general
:class:`~repro.core.lti.MultiTermSystem`.

Restrictions (validated): no ideal voltage sources (NA cannot stamp
them -- convert to Norton form, as the power-grid generator does).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..core.lti import MultiTermSystem, SecondOrderSystem
from ..errors import NetlistError
from .mna import _stamp, _Stamper, output_matrix
from .netlist import Netlist

__all__ = ["assemble_na"]


def assemble_na(netlist: Netlist, outputs=None):
    """Assemble the second-order nodal-analysis model of a netlist.

    Parameters
    ----------
    netlist:
        Circuit with R, C, L, CPE and current sources only.
    outputs:
        Optional node-name list selecting output voltages.

    Returns
    -------
    SecondOrderSystem | MultiTermSystem
        ``C v'' + G v' + Gamma v = -S u'`` (plus ``d^{alpha+1}`` CPE
        terms).  **The input of this model is** ``du/dt``; obtain it
        with ``netlist.input_function(derivative=True)``.

    Raises
    ------
    NetlistError
        If the netlist contains voltage sources.

    Examples
    --------
    >>> from repro.circuits.netlist import Netlist
    >>> from repro.circuits.sources import Ramp
    >>> nl = Netlist()
    >>> _ = nl.add_current_source("I1", "0", "n1", Ramp(1e-3, rise=1e-9))
    >>> nl.add_resistor("R1", "n1", "0", 10.0)
    >>> nl.add_capacitor("C1", "n1", "0", 1e-12)
    >>> nl.add_inductor("L1", "n1", "0", 1e-9)
    >>> assemble_na(nl).n_states
    1
    """
    if netlist.voltage_sources:
        raise NetlistError(
            "nodal analysis cannot stamp ideal voltage sources; "
            "use assemble_mna or convert sources to Norton form"
        )
    n = netlist.n_nodes
    if n == 0:
        raise NetlistError("netlist has no non-ground nodes")
    p = max(netlist.n_channels, 1)
    blocks, n_l = _stamp(netlist, "na", 0)
    values = np.array([list(netlist.element_values().values())], dtype=float)
    empty = _Stamper()

    def build(key, shape) -> sp.csr_matrix:
        stamper = blocks.get(key, empty)
        return stamper.matrix(stamper.values(values)[0], shape)

    C_mat, G_mat = build("C", (n, n)), build("G", (n, n))
    inputs = blocks.get("B", empty)
    b = inputs.inputs(inputs.values(values)[0], (n, p))

    # stiffness term Gamma = A_L L^{-1} A_L^T with A_L the inductor
    # incidence and L the (possibly coupled) inductance matrix; the
    # uncoupled case reduces to the familiar 1/L_i pair stamps
    if n_l:
        import scipy.sparse.linalg as spla

        a_l = build("A_L", (n, n_l)).tocsc()
        solved = spla.spsolve(build("L", (n_l, n_l)).tocsc(), a_l.T.tocsc())
        if not sp.issparse(solved):  # tiny systems may come back dense
            solved = sp.csr_matrix(np.atleast_2d(solved))
        Gamma = sp.csr_matrix(a_l @ solved)
    else:
        Gamma = sp.csr_matrix((n, n))
    C_out = None if outputs is None else output_matrix(netlist, outputs, n)
    frac = sorted(key[1] for key in blocks if isinstance(key, tuple))

    if not frac:
        return SecondOrderSystem(C_mat, G_mat, Gamma, b, C=C_out)
    terms = [(2.0, C_mat), (1.0, G_mat), (0.0, Gamma)]
    for alpha in frac:
        terms.append((alpha + 1.0, build(("frac", alpha), (n, n))))
    return MultiTermSystem(terms, b, C=C_out)
