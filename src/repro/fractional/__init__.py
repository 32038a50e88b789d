"""Fractional-calculus utilities and reference solutions.

The paper simulates fractional differential equations through
operational matrices; this subpackage provides everything needed to
*validate* that machinery:

* :mod:`~repro.fractional.definitions` -- Grünwald-Letnikov weights and
  fractional-operator notes;
* :mod:`~repro.fractional.grunwald` -- the classical GL time-stepping
  solver for FDEs, the "traditional time-domain method" whose cost the
  paper contrasts with OPM;
* :mod:`~repro.fractional.mittag_leffler` -- the two-parameter
  Mittag-Leffler function ``E_{alpha,beta}(z)``;
* :mod:`~repro.fractional.analytic` -- closed-form scalar FDE solutions
  (relaxation, step, impulse) built on Mittag-Leffler;
* :mod:`~repro.fractional.history` -- memory-tail evaluation shared by
  the GL stepper and the windowed marching engine;
* :mod:`~repro.fractional.soe` -- certified sum-of-exponentials
  compression of the memory kernels (the ``memory='soe'`` knob behind
  linear-time long-horizon fractional marching);
* :mod:`~repro.fractional.methods` -- the pluggable method zoo
  (Grünwald-Letnikov operational matrices, Oustaloup/CFE rational
  approximations, Jacobi spectral collocation) behind the engine's
  ``method=`` knob;
* :mod:`~repro.fractional.battery` -- the cross-method validation
  battery sweeping every method against Mittag-Leffler analytic
  references (what ``benchmarks/bench_methods.py`` enforces in CI).
"""

from .._lazy import attach

# eager: the function shares its submodule's name, which would shadow a
# lazy export once anything imports the submodule
from .mittag_leffler import mittag_leffler

#: Public names and the module defining each, imported on first access
#: (see :mod:`repro._lazy`): the engine's memory and method lookups do
#: not pull in the validation battery or Oustaloup's ``scipy.signal``.
_EXPORTS = {
    "gl_weights": ".definitions",
    "cached_gl_weights": ".definitions",
    "simulate_grunwald_letnikov": ".grunwald",
    "fde_relaxation": ".analytic",
    "fde_step_response": ".analytic",
    "fde_impulse_response": ".analytic",
    "second_order_step_response": ".analytic",
    "HistoryTail": ".history",
    "history_dot": ".history",
    "history_weights": ".history",
    "SoePlan": ".soe",
    "SoeFit": ".soe",
    "SoeTail": ".soe",
    "fit_discrete_kernel": ".soe",
    "fit_continuous_kernel": ".soe",
    "resolve_memory": ".soe",
    "FractionalMethod": ".methods",
    "GrunwaldLetnikovMethod": ".methods",
    "OustaloupMethod": ".methods",
    "JacobiMethod": ".methods",
    "FRACTIONAL_METHODS": ".methods",
    "method_names": ".methods",
    "resolve_method": ".methods",
    "validate_method_name": ".methods",
    "ReferenceCase": ".battery",
    "reference_battery": ".battery",
    "evaluate_method": ".battery",
    "run_method_battery": ".battery",
}

__all__ = ["mittag_leffler", *_EXPORTS]

__getattr__, __dir__ = attach(__name__, _EXPORTS)
