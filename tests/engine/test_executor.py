"""Tests for the parallel ensemble executor (`repro.engine.executor`).

The deterministic-seeding and bit-identity tests here are the
regression suite for the executor's central guarantee: a seeded
ensemble produces *identical* member lists and *bit-identical* results
regardless of ``jobs`` and backend.  The nightly CI workflow re-runs
this module with ``REPRO_TEST_JOBS`` set explicitly.
"""

from __future__ import annotations

import os
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.circuits import Netlist, assemble_mna, assemble_mna_restamp
from repro.core import DescriptorSystem, Simulator, simulate
from repro.core.lti import FractionalDescriptorSystem, MultiTermSystem
from repro.engine.executor import Ensemble, EnsembleMember, ParallelExecutor
from repro.errors import EnsembleError, NetlistError, SolverError

#: worker count used by the parallel tests (the nightly workflow sets
#: REPRO_TEST_JOBS explicitly)
JOBS = max(2, int(os.environ.get("REPRO_TEST_JOBS", "2")))

RC_DECK = """
I1 0 n1 1m
R1 n1 0 1k
C1 n1 0 1u
"""

#: a constant-phase element alone: fractional members
CPE_DECK = """
I1 0 n1 1m
R1 n1 0 1k
P1 n1 0 1u 0.5
"""

#: a capacitor beside a constant-phase element: multi-term members
MULTI_TERM_DECK = """
I1 0 n1 1m
R1 n1 0 1k
C1 n1 0 1u
P1 n1 0 1u 0.5
"""

GRID = (5e-3, 48)


@pytest.fixture
def rc_netlist() -> Netlist:
    return Netlist.from_spice(RC_DECK)


def rc_system(tau: float = 1.0) -> DescriptorSystem:
    return DescriptorSystem([[1.0]], [[-tau]], [[1.0]])


# ----------------------------------------------------------------------
# Netlist.with_values / element_values
# ----------------------------------------------------------------------
class TestWithValues:
    def test_override_replaces_value_and_keeps_base(self, rc_netlist):
        varied = rc_netlist.with_values({"R1": 1.2e3})
        assert varied.resistors[0].resistance == 1200.0
        assert rc_netlist.resistors[0].resistance == 1000.0

    def test_layout_and_waveforms_preserved(self, rc_netlist):
        varied = rc_netlist.with_values({"C1": 2e-6})
        assert varied.nodes == rc_netlist.nodes
        assert varied.n_channels == rc_netlist.n_channels
        u = varied.input_function()
        assert u(np.array([1.0]))[0, 0] == pytest.approx(1e-3)
        # restamp compatibility is exactly what variations relies on
        system = assemble_mna_restamp(varied, rc_netlist)
        assert system.n_states == assemble_mna(rc_netlist).n_states

    def test_unknown_element_raises(self, rc_netlist):
        with pytest.raises(NetlistError, match="R99"):
            rc_netlist.with_values({"R99": 1.0})

    def test_element_values_lists_all(self, rc_netlist):
        values = rc_netlist.element_values()
        assert values == {"I1": 1.0, "R1": 1000.0, "C1": 1e-6}

    def test_vccs_node_registration_order(self):
        nl = Netlist()
        nl.add_vccs("G1", "out", "0", "cp", "cm", 2.0)
        nl.add_resistor("R1", "out", "0", 1.0)
        nl.add_resistor("R2", "cp", "cm", 1.0)
        nl.add_current_source("I1", "0", "cp", waveform=None)
        nl.set_channel_waveform(0, lambda t: np.ones_like(t))
        varied = nl.with_values({"G1": 3.0})
        assert varied.nodes == nl.nodes
        assert varied.of_type(type(nl.elements[0]))[0].gm == 3.0

    def test_coupling_override(self):
        nl = Netlist.from_spice(
            "V1 in 0 1\nL1 in n1 1m\nL2 n1 0 1m\nK1 L1 L2 0.5\nR1 n1 0 1\n"
        )
        varied = nl.with_values({"K1": 0.25})
        assert varied.couplings[0].coupling == 0.25
        assert nl.couplings[0].coupling == 0.5


# ----------------------------------------------------------------------
# Ensemble construction
# ----------------------------------------------------------------------
class TestEnsembleSpec:
    def test_cartesian_product_order(self, rc_netlist):
        ens = Ensemble.variations(
            rc_netlist, {"R1": [900.0, 1100.0], "C1": [1e-6, 2e-6]}
        )
        assert len(ens) == 4
        assert [m.params["R1"] for m in ens] == [900.0, 900.0, 1100.0, 1100.0]
        assert [m.params["C1"] for m in ens] == [1e-6, 2e-6, 1e-6, 2e-6]
        assert ens[0].label == "R1=900,C1=1e-06"

    def test_monte_carlo_seeded_is_deterministic(self, rc_netlist):
        kwargs = dict(mode="monte-carlo", n=8, seed=123)
        a = Ensemble.variations(rc_netlist, {"R1": 0.2}, **kwargs)
        b = Ensemble.variations(rc_netlist, {"R1": 0.2}, **kwargs)
        assert [m.params for m in a] == [m.params for m in b]
        c = Ensemble.variations(rc_netlist, {"R1": 0.2}, mode="monte-carlo",
                                n=8, seed=124)
        assert [m.params for m in a] != [m.params for m in c]

    def test_monte_carlo_relative_spread_brackets_nominal(self, rc_netlist):
        ens = Ensemble.variations(
            rc_netlist, {"R1": 0.1}, mode="monte-carlo", n=32, seed=0
        )
        values = np.array([m.params["R1"] for m in ens])
        assert np.all((values >= 900.0) & (values <= 1100.0))

    def test_monte_carlo_absolute_range(self, rc_netlist):
        ens = Ensemble.variations(
            rc_netlist, {"C1": (1e-6, 3e-6)}, mode="monte-carlo", n=16, seed=5
        )
        values = np.array([m.params["C1"] for m in ens])
        assert np.all((values >= 1e-6) & (values <= 3e-6))

    def test_invalid_specs_raise(self, rc_netlist):
        with pytest.raises(EnsembleError, match="n >= 1"):
            Ensemble.variations(rc_netlist, {"R1": 0.1}, mode="monte-carlo")
        with pytest.raises(EnsembleError, match="unknown element"):
            Ensemble.variations(rc_netlist, {"Rx": 0.1}, mode="monte-carlo", n=2)
        with pytest.raises(EnsembleError, match="spread must lie"):
            Ensemble.variations(rc_netlist, {"R1": 1.5}, mode="monte-carlo", n=2)
        with pytest.raises(EnsembleError, match="must be a sequence"):
            Ensemble.variations(rc_netlist, {"R1": 0.1})
        with pytest.raises(EnsembleError, match="cartesian"):
            Ensemble.variations(rc_netlist, {"R1": [1.0]}, mode="corner")
        with pytest.raises(EnsembleError, match="at least one member"):
            Ensemble([])

    def test_from_spec(self, rc_netlist):
        ens = Ensemble.from_spec(
            rc_netlist,
            {"mode": "monte-carlo", "n": 4, "seed": 9, "params": {"R1": 0.1}},
        )
        assert len(ens) == 4
        with pytest.raises(EnsembleError, match="unknown ensemble spec keys"):
            Ensemble.from_spec(rc_netlist, {"params": {"R1": 0.1}, "jobs": 4})
        with pytest.raises(EnsembleError, match="'params' mapping"):
            Ensemble.from_spec(rc_netlist, {"mode": "cartesian"})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n", 2.7),
            ("n", "3"),
            ("n", True),
            ("n", 0),
            ("seed", 1.5),
            ("seed", -1),
            ("seed", "7"),
            ("seed", False),
            ("outputs", "n1"),
            ("outputs", ["n1", 2]),
        ],
    )
    def test_from_spec_rejects_mistyped_json(self, rc_netlist, key, value):
        spec = {"mode": "monte-carlo", "n": 3, "params": {"R1": 0.1}, key: value}
        with pytest.raises(EnsembleError, match=f"'{key}'"):
            Ensemble.from_spec(rc_netlist, spec)

    def test_pairs_and_members(self):
        ens = Ensemble([(rc_system(), 1.0), EnsembleMember(rc_system(2.0), 2.0)])
        assert len(ens) == 2
        with pytest.raises(EnsembleError, match="EnsembleMember"):
            Ensemble([rc_system()])


# ----------------------------------------------------------------------
# execution correctness across backends
# ----------------------------------------------------------------------
def mc_ensemble(netlist, n=6, seed=7) -> Ensemble:
    return Ensemble.variations(
        netlist, {"R1": 0.2, "C1": 0.1}, mode="monte-carlo", n=n, seed=seed
    )


class TestExecutorCorrectness:
    def test_serial_matches_direct_runs(self, rc_netlist):
        ens = mc_ensemble(rc_netlist)
        result = ParallelExecutor("serial", jobs=JOBS).run(ens, GRID)
        for member, res in zip(ens, result):
            ref = Simulator(member.system, GRID).run(member.u)
            assert np.array_equal(ref.coefficients, res.coefficients)

    @pytest.mark.parametrize("backend", ["process"])
    def test_parallel_bit_identical_to_serial(self, rc_netlist, backend):
        ens = mc_ensemble(rc_netlist, n=8, seed=11)
        serial = ParallelExecutor("serial", jobs=JOBS).run(ens, GRID)
        parallel = ParallelExecutor(backend, jobs=JOBS).run(ens, GRID)
        assert np.array_equal(serial.coefficients, parallel.coefficients)
        assert serial.labels == parallel.labels

    def test_fingerprint_grouping_batches_shared_pencils(self):
        fast, slow = rc_system(2.0), rc_system(0.5)
        ens = Ensemble([(fast, 1.0), (fast, 2.0), (slow, 1.0), (fast, 0.5)])
        executor = ParallelExecutor("serial", jobs=1)
        result = executor.run(ens, GRID)
        assert result.info["n_groups"] == 2
        assert result.info["n_tasks"] == 2
        # one factorisation per distinct pencil, shared by its members
        assert result.info["factorisations"] == 2
        # each batched member matches its own standalone run (a
        # multi-column sweep may round its last bit differently)
        for member, res in zip(ens, result):
            ref = Simulator(member.system, GRID).run(member.u)
            np.testing.assert_allclose(res.coefficients, ref.coefficients, rtol=1e-12)

    def test_equal_value_members_share_a_pencil(self, rc_netlist):
        ens = Ensemble.variations(rc_netlist, {"R1": [1e3, 1e3, 2e3]})
        result = ParallelExecutor("serial", jobs=1).run(ens, GRID)
        assert result.info["n_groups"] == 2
        assert result.info["factorisations"] == 2

    def test_members_differing_only_in_B_do_not_share_results(self, rc_netlist):
        """Regression: varying a source scale changes B but not E/A; the
        grouping key must split such members, not hand every one the
        first member's solution."""
        # a current source's variable value is its scale factor on the
        # 1 mA deck waveform: x1 and x2 drive 1 mA and 2 mA
        ens = Ensemble.variations(rc_netlist, {"I1": [1.0, 2.0]})
        result = ParallelExecutor("serial", jobs=1).run(ens, (20e-3, 64))
        assert result.info["n_groups"] == 2
        finals = result.states([19.9e-3])[:, 0, 0]
        assert finals[0] == pytest.approx(1.0, rel=1e-3)  # 1 mA * 1 kOhm
        assert finals[1] == pytest.approx(2.0, rel=1e-3)  # 2 mA * 1 kOhm

    def test_members_differing_only_in_x0_do_not_share_results(self):
        base = rc_system()
        shifted = DescriptorSystem([[1.0]], [[-1.0]], [[1.0]], x0=[5.0])
        ens = Ensemble([(base, 1.0), (shifted, 1.0)])
        result = ParallelExecutor("serial", jobs=1).run(ens, GRID)
        assert result.info["n_groups"] == 2
        first = result.states([1e-6])[:, 0, 0]
        assert abs(first[0]) < 0.1 and first[1] == pytest.approx(5.0, abs=0.1)

    def test_oversized_group_is_sharded(self):
        system = rc_system()
        ens = Ensemble([(system, float(k)) for k in range(1, 9)])
        result = ParallelExecutor("serial", jobs=4).run(ens, GRID)
        assert result.info["n_groups"] == 1
        assert result.info["n_tasks"] == 4  # ceil(8 / 4) members per shard
        assert result.info["factorisations"] == 4  # one per shard worker

    def test_default_input_and_missing_input(self):
        ens = Ensemble([EnsembleMember(rc_system()), (rc_system(2.0), 2.0)])
        result = ParallelExecutor("serial").run(ens, GRID, u=1.0)
        assert len(result) == 2
        with pytest.raises(EnsembleError, match="member 0 has no input"):
            ParallelExecutor("serial").run(
                Ensemble([EnsembleMember(rc_system())]), GRID
            )

    def test_member_results_have_outputs(self, rc_netlist):
        ens = Ensemble.variations(
            rc_netlist, {"R1": [800.0, 1200.0]}, outputs=["n1"]
        )
        result = ParallelExecutor("serial").run(ens, GRID)
        finals = result.outputs([4.9e-3])
        assert finals.shape == (2, 1, 1)
        # v(n1) ~ I * R at steady state
        assert finals[0, 0, 0] == pytest.approx(0.8, rel=5e-2)
        assert finals[1, 0, 0] == pytest.approx(1.2, rel=5e-2)
        assert result[1].info["batch_index"] == 1
        assert "R1=1200" in result[1].info["label"]

    def test_invalid_backend_and_jobs(self):
        with pytest.raises(EnsembleError, match="backend must be one of"):
            ParallelExecutor("gpu")
        with pytest.raises(EnsembleError, match="jobs must be >= 1"):
            ParallelExecutor("serial", jobs=0)


class TestSessionIntegration:
    def test_run_ensemble_uses_session_settings(self, rc_netlist):
        ens = mc_ensemble(rc_netlist, n=4)
        member_system = ens[0].system
        sim = Simulator(member_system, GRID)
        result = sim.run_ensemble(ens, parallel="serial", jobs=2)
        ref = ParallelExecutor("serial", jobs=2).run(ens, GRID)
        assert np.array_equal(result.coefficients, ref.coefficients)

    def test_run_ensemble_basis_generic(self, rc_netlist):
        ens = mc_ensemble(rc_netlist, n=3)
        sim = Simulator(ens[0].system, (5e-3, 16), basis="chebyshev")
        result = sim.run_ensemble(ens, parallel="serial")
        assert result.info["basis"] == "Chebyshev"
        ref = Simulator(ens[1].system, (5e-3, 16), basis="chebyshev").run(ens[1].u)
        assert np.allclose(result[1].coefficients, ref.coefficients)


class TestDispatchIntegration:
    def test_simulate_ensemble(self, rc_netlist):
        ens = mc_ensemble(rc_netlist, n=4)
        result = simulate(ens, None, 5e-3, 48, jobs=2, parallel="serial")
        ref = ParallelExecutor("serial", jobs=2).run(ens, GRID)
        assert np.array_equal(result.coefficients, ref.coefficients)

    def test_jobs_without_ensemble_raises(self):
        with pytest.raises(SolverError, match="only meaningful"):
            simulate(rc_system(), 1.0, 5e-3, 48, jobs=2)

    def test_ensemble_requires_opm_and_steps(self, rc_netlist):
        ens = mc_ensemble(rc_netlist, n=2)
        with pytest.raises(SolverError, match="method='opm'"):
            simulate(ens, None, 5e-3, 48, method="trapezoidal")
        with pytest.raises(SolverError, match="requires steps"):
            simulate(ens, None, 5e-3)


# ----------------------------------------------------------------------
# deterministic seeding across jobs / backends (regression suite)
# ----------------------------------------------------------------------
class TestDeterministicSeeding:
    def test_member_lists_independent_of_jobs_and_backend(self, rc_netlist):
        spec = dict(mode="monte-carlo", n=10, seed=2012)
        reference = Ensemble.variations(rc_netlist, {"R1": 0.2, "C1": 0.1}, **spec)
        for _ in range(3):  # rebuilding never drifts
            again = Ensemble.variations(rc_netlist, {"R1": 0.2, "C1": 0.1}, **spec)
            assert [m.params for m in again] == [m.params for m in reference]

    @pytest.mark.parametrize(
        "deck, varied, sparse, system_type",
        [
            pytest.param(RC_DECK, "C1", "auto", DescriptorSystem, id="dense"),
            pytest.param(RC_DECK, "C1", "always", DescriptorSystem, id="sparse"),
            pytest.param(
                CPE_DECK, "P1", "auto", FractionalDescriptorSystem, id="fractional"
            ),
            pytest.param(
                MULTI_TERM_DECK, "P1", "auto", MultiTermSystem, id="multi-term"
            ),
        ],
    )
    def test_serial_vs_process_bit_identical(self, deck, varied, sparse, system_type):
        """Acceptance regression: seeded MC ensembles are bit-identical
        between the serial baseline and the process executor, whatever
        the members' storage and model kind."""
        ens = Ensemble.variations(
            Netlist.from_spice(deck),
            {"R1": 0.2, varied: 0.1},
            mode="monte-carlo",
            n=8,
            seed=2012,
            sparse=sparse,
        )
        assert all(type(member.system) is system_type for member in ens)
        if system_type is DescriptorSystem:
            stored_sparse = [hasattr(member.system.E, "tocsr") for member in ens]
            assert stored_sparse == [sparse == "always"] * len(ens)
        serial = ParallelExecutor("serial", jobs=JOBS).run(ens, GRID)
        process = ParallelExecutor("process", jobs=JOBS).run(ens, GRID)
        assert np.array_equal(serial.coefficients, process.coefficients)
        assert np.array_equal(
            serial.input_coefficients, process.input_coefficients
        )


# ----------------------------------------------------------------------
# failure paths and shared-memory hygiene
# ----------------------------------------------------------------------
def singular_system() -> DescriptorSystem:
    """A pencil that is singular at every shift (E = A = 0)."""
    return DescriptorSystem([[0.0]], [[0.0]], [[1.0]])


def big_dense_system(n: int = 80) -> DescriptorSystem:
    """A dense ``n``-state system with a stable, well-conditioned pencil."""
    rng = np.random.default_rng(0)
    A = -np.eye(n) + 0.01 * rng.standard_normal((n, n))
    B = np.zeros((n, 1))
    B[0, 0] = 1.0
    return DescriptorSystem(np.eye(n), A, B)


class TestFailurePaths:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_failure_surfaces_index_and_original_error(self, backend):
        members = [
            (rc_system(1.0), 1.0),
            (singular_system(), 1.0),
            (rc_system(2.0), 1.0),
        ]
        executor = ParallelExecutor(backend, jobs=JOBS)
        with pytest.raises(EnsembleError, match="member 1") as excinfo:
            executor.run(Ensemble(members), GRID)
        error = excinfo.value
        assert error.member_index == 1
        assert error.member_indices == (1,)
        assert isinstance(error.__cause__, SolverError)
        assert "singular" in str(error.__cause__)

    def test_sharded_failure_reports_every_member_of_the_unit(self):
        """Regression: a failing batched unit accounts for ALL of its
        members, not just the first index of the shard."""
        bad = singular_system()
        ens = Ensemble(
            [(bad, 1.0), (bad, 2.0), (bad, 3.0), (rc_system(), 1.0)]
        )
        executor = ParallelExecutor("serial", jobs=1)  # one 3-member unit
        with pytest.raises(EnsembleError) as excinfo:
            executor.run(ens, GRID)
        error = excinfo.value
        assert error.member_indices == (0, 1, 2)

    def test_failed_label_in_message(self, rc_netlist):
        ens = Ensemble(
            [EnsembleMember(singular_system(), 1.0, label="corner-7")]
        )
        with pytest.raises(EnsembleError, match="corner-7"):
            ParallelExecutor("serial").run(ens, GRID)

    def test_shm_used_and_cleaned_up_on_success(self):
        systems = [big_dense_system(80), big_dense_system(81)]
        ens = Ensemble([(s, 1.0) for s in systems])
        executor = ParallelExecutor("process", jobs=2)
        result = executor.run(ens, (1.0, 32))
        assert result.info["shm_bytes"] > 0
        assert executor.shm_names_created, "expected shared-memory output segments"
        for name in executor.shm_names_created:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_shm_cleaned_up_on_failure(self):
        n = 80
        bad = DescriptorSystem(np.zeros((n, n)), np.zeros((n, n)), np.ones((n, 1)))
        ens = Ensemble([(big_dense_system(n), 1.0), (bad, 1.0)])
        executor = ParallelExecutor("process", jobs=2)
        with pytest.raises(EnsembleError):
            executor.run(ens, (1.0, 32))
        assert executor.shm_names_created
        for name in executor.shm_names_created:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_without_shm_coefficients_pickle_back(self, monkeypatch):
        """Where no segment can be made the coefficients come back
        pickled, bit-identical to the serial run."""
        import repro.engine.executor as executor_module

        def no_shm(shapes):
            raise OSError("no /dev/shm")

        monkeypatch.setattr(executor_module, "_alloc_shm", no_shm)
        ens = Ensemble([(big_dense_system(80), 1.0), (big_dense_system(81), 1.0)])
        serial = ParallelExecutor("serial", jobs=2).run(ens, (1.0, 32))
        with ParallelExecutor("process", jobs=2) as executor:
            process = executor.run(ens, (1.0, 32))
        assert process.info["shm_bytes"] == 0
        assert executor.shm_names_created == []
        for s_res, p_res in zip(serial, process):
            assert np.array_equal(s_res.coefficients, p_res.coefficients)

    def test_serial_results_match_shm_shipped_results(self):
        """Returning through shared memory must not change a single bit."""
        systems = [big_dense_system(80), big_dense_system(81)]
        ens = Ensemble([(s, 1.0) for s in systems])
        serial = ParallelExecutor("serial", jobs=2).run(ens, (1.0, 32))
        process = ParallelExecutor("process", jobs=2).run(ens, (1.0, 32))
        # members have different state dims: compare member-wise
        for s_res, p_res in zip(serial, process):
            assert np.array_equal(s_res.coefficients, p_res.coefficients)


# ----------------------------------------------------------------------
# ragged ensembles: members with different state sizes
# ----------------------------------------------------------------------
def probed_system(n: int) -> DescriptorSystem:
    """``big_dense_system(n)`` observed through one output, its first state."""
    base = big_dense_system(n)
    C = np.zeros((1, n))
    C[0, 0] = 1.0
    return DescriptorSystem(base.E, base.A, base.B, C=C)


class TestRaggedEnsembles:
    GRID = (1.0, 32)

    def test_stacked_states_raise_a_typed_error_naming_the_sizes(self):
        ens = Ensemble([(probed_system(80), 1.0), (probed_system(81), 1.0)])
        result = ParallelExecutor("serial", jobs=2).run(ens, self.GRID)
        t = result.sample_times()
        with pytest.raises(EnsembleError, match=r"state sizes \[80, 81\]"):
            result.coefficients
        with pytest.raises(EnsembleError, match=r"state sizes \[80, 81\]"):
            result.states(t)
        with pytest.raises(EnsembleError, match=r"state sizes \[80, 81\]"):
            result.states_smooth(t)
        # one output each: the outputs still stack
        outputs = result.outputs(t)
        assert outputs.shape == (2, 1, 32)
        for i, run in enumerate(result):
            assert run.coefficients.shape == (80 + i, 32)
            assert outputs[i].tobytes() == run.outputs(t).tobytes()
        serial_runs = [Simulator(m.system, self.GRID).run(m.u) for m in ens]
        for run, ref in zip(result, serial_runs):
            assert np.array_equal(run.coefficients, ref.coefficients)

    def test_identity_outputs_name_the_output_counts(self):
        ens = Ensemble([(big_dense_system(80), 1.0), (big_dense_system(81), 1.0)])
        result = ParallelExecutor("serial", jobs=2).run(ens, self.GRID)
        with pytest.raises(EnsembleError, match=r"output counts \[80, 81\]"):
            result.outputs(result.sample_times())
        # a slice whose members agree stacks again
        assert result[:1].coefficients.shape == (1, 80, 32)
        assert result[1:].states([0.5]).shape == (1, 81, 1)
