"""Equivalence of the one-pass ensemble paths with the per-member ones.

``Ensemble.variations`` stamps the base netlist once and fills the
pattern per member; ``sweep_toeplitz``'s first-order recurrence runs
over time-major blocks; an ensemble's ``BatchResult.outputs`` samples
every member at once.  Each test here compares the new path with the per-member
construction it replaced -- byte for byte, not to a tolerance.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.circuits import Netlist, assemble_mna, assemble_mna_restamp, power_grid
from repro.circuits.components import (
    CPE,
    VCCS,
    Capacitor,
    Inductor,
    Resistor,
    VoltageSource,
)
from repro.core import DescriptorSystem, FractionalDescriptorSystem, MultiTermSystem
from repro.engine.backends import (
    SPARSE_SIZE_THRESHOLD,
    DenseBackend,
    PencilBank,
    SparseBackend,
)
from repro.engine.executor import Ensemble, EnsembleMember, ParallelExecutor
from repro.engine.kernels import sweep_toeplitz
from repro.engine.netlist_session import simulate_netlist
from repro.errors import EnsembleError, NetlistError

EXAMPLES = sorted((Path(__file__).resolve().parents[2] / "examples").glob("*.cir"))

#: coupled inductors, a VCCS, two CPE orders, a capacitor and both
#: source kinds: every stamp form, assembled as a multi-term model
MIXED_DECK = """
V1 in 0 DC 1
R1 in a 1k
L1 a b 1m
L2 b 0 2m
K1 L1 L2 0.3
C1 b 0 1u
P1 a 0 2e-6 0.5
P2 b 0 3e-6 0.7
G1 b 0 a in 1e-3
I1 0 b 1m
R2 b 0 2k
"""


def decks() -> list[tuple[str, Netlist]]:
    found = [(path.stem, Netlist.from_spice_file(path)) for path in EXAMPLES]
    found.append(("power_grid", power_grid(3, 3, nz=2, seed=4)))
    found.append(("mixed", Netlist.from_spice(MIXED_DECK)))
    return found


DECKS = decks()


def raw(matrix):
    """Every byte a matrix is made of (format, indices and values)."""
    if matrix is None:
        return None
    if sp.issparse(matrix):
        return (
            matrix.format,
            matrix.shape,
            matrix.data.tobytes(),
            matrix.indices.tobytes(),
            matrix.indptr.tobytes(),
        )
    matrix = np.asarray(matrix)
    return (matrix.shape, matrix.dtype.str, matrix.tobytes())


def system_bytes(system) -> dict:
    out = {"type": type(system).__name__}
    for name in ("E", "A", "B", "C", "D", "x0"):
        if hasattr(system, name):
            out[name] = raw(getattr(system, name))
    if hasattr(system, "alpha"):
        out["alpha"] = system.alpha
    if hasattr(system, "terms"):
        out["terms"] = [(order, raw(matrix)) for order, matrix in system.terms]
    return out


def deck_ic(netlist: Netlist):
    """A non-trivial ``.ic`` unless the deck assembles as multi-term."""
    if len({el.alpha for el in netlist.cpes}) > 1 or (
        netlist.cpes and (netlist.capacitors or netlist.inductors)
    ):
        return None
    return {netlist.nodes[0]: 0.25}


def varied_values(netlist: Netlist, factor: float) -> dict[str, float]:
    """Every element value scaled by ``factor``."""
    return {name: value * factor for name, value in netlist.element_values().items()}


def reference_draws(base: Netlist, params: dict, n: int, seed) -> list[dict]:
    """The member-by-member, element-by-element scalar draws."""
    rng = np.random.default_rng(seed)
    nominal = base.element_values()
    members = []
    for _ in range(n):
        overrides = {}
        for name, spec in params.items():
            if np.isscalar(spec):
                s = float(spec)
                low, high = nominal[name] * (1.0 - s), nominal[name] * (1.0 + s)
            else:
                low, high = float(spec[0]), float(spec[1])
            overrides[name] = float(rng.uniform(low, high))
        members.append(overrides)
    return members


def reference_label(params: dict) -> str:
    return ",".join(f"{name}={value:.6g}" for name, value in params.items())


def scalar_assemble(netlist: Netlist, outputs=None, *, sparse: str = "auto", ic=None):
    """Element-by-element MNA assembly with scalar stamps: the reference
    the one-pass stamping pattern must reproduce bit for bit."""
    n_nodes, inductors, vsources = (
        netlist.n_nodes, netlist.inductors, netlist.voltage_sources
    )
    size = n_nodes + len(inductors) + len(vsources)
    l_row = {el.name: n_nodes + k for k, el in enumerate(inductors)}
    v_row = {el.name: n_nodes + len(inductors) + k for k, el in enumerate(vsources)}
    coo: dict = {"e1": ([], [], []), "a": ([], [], [])}
    b = np.zeros((size, max(netlist.n_channels, 1)))

    def idx(node):
        return -1 if netlist.is_ground(node) else netlist.node_index(node)

    def add(key, row, col, value):
        if row >= 0 and col >= 0:
            rows, cols, values = coo.setdefault(key, ([], [], []))
            rows.append(row)
            cols.append(col)
            values.append(value)

    def two_terminal(key, ia, ib, v):
        add(key, ia, ia, v)
        add(key, ib, ib, v)
        add(key, ia, ib, -v)
        add(key, ib, ia, -v)

    for el in netlist.elements:
        ia, ib = idx(el.a), idx(el.b)
        if isinstance(el, Resistor):
            two_terminal("a", ia, ib, -el.conductance)
        elif isinstance(el, Capacitor):
            two_terminal("e1", ia, ib, +el.capacitance)
        elif isinstance(el, CPE):
            two_terminal(float(el.alpha), ia, ib, +el.q)
        elif isinstance(el, (Inductor, VoltageSource)):
            row = l_row[el.name] if isinstance(el, Inductor) else v_row[el.name]
            if isinstance(el, Inductor):
                add("e1", row, row, el.inductance)
            else:
                b[row, el.channel] = -el.scale
            add("a", row, ia, +1.0)
            add("a", row, ib, -1.0)
            add("a", ia, row, -1.0)
            add("a", ib, row, +1.0)
        elif isinstance(el, VCCS):
            vc, vd = idx(el.c), idx(el.d)
            add("a", ia, vc, -el.gm)
            add("a", ia, vd, +el.gm)
            add("a", ib, vc, +el.gm)
            add("a", ib, vd, -el.gm)
        else:  # current source
            if ia >= 0:
                b[ia, el.channel] -= el.scale
            if ib >= 0:
                b[ib, el.channel] += el.scale
    by_name = {el.name: el for el in inductors}
    for pair in netlist.couplings:
        l1, l2 = by_name[pair.inductor1], by_name[pair.inductor2]
        mutual = pair.coupling * np.sqrt(l1.inductance * l2.inductance)
        add("e1", l_row[l1.name], l_row[l2.name], mutual)
        add("e1", l_row[l2.name], l_row[l1.name], mutual)

    keep_sparse = sparse == "always" or (
        sparse == "auto" and size >= SPARSE_SIZE_THRESHOLD
    )

    def build(key):
        r, c, v = coo[key]
        matrix = sp.coo_matrix((v, (r, c)), shape=(size, size)).tocsr()
        return matrix if keep_sparse else matrix.toarray()

    C = None
    if outputs is not None:
        C = np.zeros((len(outputs), size))
        for row, node in enumerate(outputs):
            C[row, netlist.node_index(node)] = 1.0
    x0 = None
    if ic:
        x0 = np.zeros(size)
        for node, volts in ic.items():
            x0[netlist.node_index(node)] = float(volts)
    A, E1 = build("a"), build("e1")
    alphas = sorted(key for key in coo if not isinstance(key, str))
    integer = bool(coo["e1"][0])
    if not alphas:
        return DescriptorSystem(E1, A, b, C=C, x0=x0)
    if not integer and len(alphas) == 1:
        if alphas[0] == 1.0:
            return DescriptorSystem(build(1.0), A, b, C=C, x0=x0)
        return FractionalDescriptorSystem(alphas[0], build(alphas[0]), A, b, C=C, x0=x0)
    terms = [(0.0, -A)] + ([(1.0, E1)] if integer else [])
    for alpha in alphas:
        if alpha == 1.0 and integer:
            terms = [(o, (m + build(alpha)) if o == 1.0 else m) for o, m in terms]
        else:
            terms.append((alpha, build(alpha)))
    return MultiTermSystem(terms, b, C=C)


@pytest.mark.parametrize("sparse", ["auto", "never", "always"])
@pytest.mark.parametrize("name,netlist", DECKS, ids=[name for name, _ in DECKS])
def test_assemble_mna_matches_scalar_stamping(name, netlist, sparse):
    outputs, ic = netlist.nodes[:2], deck_ic(netlist)
    system = assemble_mna(netlist, outputs, sparse=sparse, ic=ic)
    expected = scalar_assemble(netlist, outputs, sparse=sparse, ic=ic)
    assert system_bytes(system) == system_bytes(expected)


# ----------------------------------------------------------------------
# members against per-member re-stamps
# ----------------------------------------------------------------------
@pytest.mark.parametrize("sparse", ["never", "always"])
@pytest.mark.parametrize("name,netlist", DECKS, ids=[name for name, _ in DECKS])
class TestMembersMatchRestamps:
    def check(self, netlist, ensemble, sparse, outputs, ic):
        for member in ensemble:
            expected = assemble_mna_restamp(
                netlist.with_values(dict(member.params)),
                netlist,
                outputs=outputs,
                sparse=sparse,
                ic=ic,
            )
            assert system_bytes(member.system) == system_bytes(expected)

    def test_cartesian(self, name, netlist, sparse):
        low, high = varied_values(netlist, 0.9), varied_values(netlist, 1.1)
        names = list(low)
        # two values for the first two elements, one for the rest:
        # every element is varied, four members in all
        params = {
            key: [low[key], high[key]] if i < 2 else [high[key]]
            for i, key in enumerate(names)
        }
        outputs, ic = netlist.nodes[:2], deck_ic(netlist)
        ensemble = Ensemble.variations(
            netlist, params, outputs=outputs, sparse=sparse, ic=ic
        )
        assert len(ensemble) == 4
        self.check(netlist, ensemble, sparse, outputs, ic)

    def test_monte_carlo(self, name, netlist, sparse):
        params: dict = {key: 0.1 for key in netlist.element_values()}
        first = next(iter(params))
        value = netlist.element_values()[first]
        params[first] = (value * 0.5, value * 1.5)  # an absolute range
        outputs, ic = netlist.nodes[-1:], deck_ic(netlist)
        ensemble = Ensemble.variations(
            netlist, params, mode="monte-carlo", n=5, seed=11,
            outputs=outputs, sparse=sparse, ic=ic,
        )
        reference = reference_draws(netlist, params, 5, 11)
        assert [dict(m.params) for m in ensemble] == reference
        assert [m.label for m in ensemble] == [reference_label(p) for p in reference]
        self.check(netlist, ensemble, sparse, outputs, ic)


def test_corner_ensemble_params_and_labels():
    """The benchmark's 96-member, 80-resistor draw equals the scalar loop."""
    grid = power_grid(6, 6, nz=2, seed=7)
    params = {el.name: 0.2 for el in grid.resistors}
    ensemble = Ensemble.variations(grid, params, mode="monte-carlo", n=96, seed=2012)
    reference = reference_draws(grid, params, 96, 2012)
    assert [dict(m.params) for m in ensemble] == reference
    assert [m.label for m in ensemble] == [reference_label(p) for p in reference]


def test_members_share_input_and_output_matrix():
    grid = power_grid(3, 3, nz=1, seed=1)
    ensemble = Ensemble.variations(
        grid, {grid.resistors[0].name: [1.0, 2.0]}, outputs=grid.nodes[:1]
    )
    first, second = ensemble
    assert first.u is second.u
    assert first.system.C is second.system.C


# ----------------------------------------------------------------------
# errors are the ones the per-member path raised
# ----------------------------------------------------------------------
RC_DECK = "I1 0 n1 1m\nR1 n1 0 1k\nC1 n1 0 1u\nG1 n1 0 n1 0 1m\n"


def message(call) -> str:
    with pytest.raises((EnsembleError, NetlistError)) as excinfo:
        call()
    return f"{type(excinfo.value).__name__}: {excinfo.value}"


class TestErrors:
    @pytest.fixture
    def rc(self) -> Netlist:
        return Netlist.from_spice(RC_DECK)

    def test_unknown_names(self, rc):
        assert message(
            lambda: Ensemble.variations(rc, {"R1": [1.0], "Rx": [2.0], "Ca": [1.0]})
        ) == message(lambda: rc.with_values({"R1": 1.0, "Rx": 2.0, "Ca": 1.0}))
        assert "unknown element 'Rx'" in message(
            lambda: Ensemble.variations(rc, {"Rx": 0.1}, mode="monte-carlo", n=2)
        )

    def test_bad_spreads(self, rc):
        assert message(
            lambda: Ensemble.variations(
                rc, {"C1": 0.1, "R1": 1.5}, mode="monte-carlo", n=2
            )
        ) == "EnsembleError: relative Monte-Carlo spread must lie in (0, 1), got 1.5"
        assert message(
            lambda: Ensemble.variations(rc, {"R1": (2.0, 1.0)}, mode="monte-carlo", n=2)
        ) == "EnsembleError: Monte-Carlo range must satisfy low < high, got (2.0, 1.0)"

    @pytest.mark.parametrize(
        "overrides",
        [
            {"R1": -1.0},
            {"C1": 0.0},
            {"G1": 0.0},
            {"R1": float("nan")},
            {"C1": 1e-6, "R1": 0.0, "G1": 0.0},
            # every value must be finite, a source's scale too
            {"R1": float("inf")},
            {"G1": float("-inf")},
            {"G1": float("nan")},
            {"I1": float("inf")},
        ],
    )
    def test_invalid_cartesian_values(self, rc, overrides):
        params = {name: [1.0, value] for name, value in overrides.items()}
        first_bad = {name: 1.0 for name in overrides}
        # the first member with a bad value is the one that raises
        first_bad[list(overrides)[-1]] = overrides[list(overrides)[-1]]
        assert message(lambda: Ensemble.variations(rc, params)) == message(
            lambda: rc.with_values(first_bad)
        )

    def test_invalid_drawn_value(self, rc):
        draws = reference_draws(rc, {"R1": (-1e3, 1e3)}, 6, 3)
        bad = next(d for d in draws if not d["R1"] > 0)
        assert message(
            lambda: Ensemble.variations(
                rc, {"R1": (-1e3, 1e3)}, mode="monte-carlo", n=6, seed=3
            )
        ) == message(lambda: rc.with_values(bad))

    def test_invalid_coupling(self):
        deck = Netlist.from_spice(
            "V1 in 0 1\nL1 in n1 1m\nL2 n1 0 1m\nK1 L1 L2 0.5\nR1 n1 0 1\n"
        )
        assert message(lambda: Ensemble.variations(deck, {"K1": [0.5, 1.0]})) == (
            message(lambda: deck.with_values({"K1": 1.0}))
        )

    def test_empty_cartesian_axis(self, rc):
        assert "at least one member" in message(
            lambda: Ensemble.variations(rc, {"R1": []})
        )


# ----------------------------------------------------------------------
# .ic reaches every member
# ----------------------------------------------------------------------
IC_DECK = """
I1 0 n1 1m
R1 n1 0 1k
C1 n1 0 1u
.ic v(n1)=2
.tran 20u 2m
"""


class TestEnsembleInitialConditions:
    @pytest.mark.parametrize("use_ic", [True, False])
    def test_nominal_member_equals_the_transient(self, use_ic):
        run = simulate_netlist(
            IC_DECK,
            ensemble={"params": {"R1": [1000.0, 2000.0]}},
            parallel="serial",
            use_ic=use_ic,
        )
        member = run.ensemble[0]
        assert np.array_equal(member.coefficients, run.tran.coefficients)
        start = member.outputs([0.0])[0, 0]
        if use_ic:
            assert member.system.x0 is not None
            assert start == pytest.approx(2.0, abs=0.02)
        else:
            assert member.system.x0 is None
            assert start == pytest.approx(0.0, abs=0.02)

    def test_cli_ensemble_starts_from_ic(self, tmp_path, capsys):
        from repro.__main__ import run

        deck, spec, csv = (tmp_path / f for f in ("ic.cir", "spec.json", "ens.csv"))
        deck.write_text(IC_DECK)
        spec.write_text('{"params": {"R1": [1000.0]}}')
        argv = [str(deck), "--ensemble", str(spec), "--parallel", "serial"]
        assert run(argv + ["--csv", str(csv)]) == 0
        first_row = csv.read_text().splitlines()[1].split(",")
        assert float(first_row[1]) == pytest.approx(2.0, abs=0.02)

    def test_variations_forwards_ic(self):
        deck = Netlist.from_spice(IC_DECK)
        ensemble = Ensemble.variations(deck, {"R1": [1e3]}, ic=deck.analysis.ic)
        assert np.array_equal(ensemble[0].system.x0, [2.0])
        assert Ensemble.variations(deck, {"R1": [1e3]})[0].system.x0 is None


# ----------------------------------------------------------------------
# BatchResult.outputs of an ensemble against per-member sampling
# ----------------------------------------------------------------------
@pytest.mark.parametrize("basis", [None, "chebyshev"])
def test_ensemble_outputs_match_member_outputs(basis):
    rng = np.random.default_rng(5)
    members = []
    for i in range(4):
        n = 3
        A = -np.eye(n) * (1.0 + i) + 0.1 * rng.standard_normal((n, n))
        system = DescriptorSystem(
            np.eye(n), A, np.ones((n, 1)),
            C=rng.standard_normal((2, n)),
            D=None if i % 2 else rng.standard_normal((2, 1)),
        )
        members.append(EnsembleMember(system, 1.0 + i))
    result = ParallelExecutor("serial").run(Ensemble(members), (2.0, 40), basis=basis)
    times = np.linspace(0.0, 2.0, 57)
    expected = np.stack([res.outputs(times) for res in result])
    assert result.outputs(times).tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# the time-major alternating sweep against the column-strided loop
# ----------------------------------------------------------------------
def column_strided_sweep(bank, R, coeffs):
    """The first-order recurrence over an ``(n, m, k)`` block, column by
    column (the layout the sweep used before it went time-major)."""
    R3 = R[:, :, None] if R.ndim == 2 else R
    n, m, k = R3.shape
    solve = bank.solver(float(coeffs[0]))
    X = np.empty((n, m, k))
    c1 = coeffs[1]
    t = np.zeros((n, k))
    for j in range(m):
        if j == 0:
            rhs = R3[:, 0, :]
        else:
            t = X[:, j - 1, :] - t
            rhs = R3[:, j, :] - c1 * bank.backend.apply_E(t)
        X[:, j, :] = solve(rhs)
    return X[:, :, 0] if R.ndim == 2 else X


def pencil(n: int = 12):
    rng = np.random.default_rng(2)
    E = np.diag(rng.uniform(1.0, 2.0, n))
    E[0, 1] = 0.3
    A = -3.0 * np.eye(n) + 0.1 * rng.standard_normal((n, n))
    return E, A


BACKENDS = {
    "dense": lambda E, A: DenseBackend(E, A),
    "sparse": lambda E, A: SparseBackend(sp.csr_matrix(E), sp.csr_matrix(A)),
}


@pytest.mark.parametrize("backend", list(BACKENDS))
@pytest.mark.parametrize("k", [None, 1, 4])
def test_alternating_sweep_is_byte_identical(backend, k):
    E, A = pencil()
    n, m, h = E.shape[0], 48, 0.02
    coeffs = np.empty(m)
    coeffs[0] = 2.0 / h
    coeffs[1:] = 4.0 / h * (-1.0) ** np.arange(1, m)
    rng = np.random.default_rng(3)
    R = rng.standard_normal((n, m) if k is None else (n, m, k))
    make = BACKENDS[backend]
    X = sweep_toeplitz(PencilBank(make(E, A)), R, coeffs, alternating_tail=True)
    expected = column_strided_sweep(PencilBank(make(E, A)), R, coeffs)
    assert X.shape == expected.shape
    assert X.tobytes() == expected.tobytes()
    if k is not None:
        assert X.flags.c_contiguous
