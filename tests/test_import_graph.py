"""Import-graph contract: entry points load only what they run.

``import repro`` and the one-shot CLI solve of a deck are what a user
waits on at start-up.  The heavy optional layers -- the method zoo's
``scipy.signal``, the service's ``asyncio``, the executor's
``multiprocessing`` -- must stay out of both until a feature that
needs them runs.  Every check runs in a fresh interpreter, since the
test session itself has long imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.cir"))

#: Third-party modules no plain import or deck solve may load.
HEAVY = {"scipy.signal", "asyncio", "multiprocessing"}

#: Package modules a plain deck solve has no use for.
NOT_FOR_A_DECK_SOLVE = {
    "repro.engine.service",
    "repro.engine.executor",
    "repro.engine.marching",
    "repro.fractional.battery",
    "repro.fractional.grunwald",
    "repro.baselines",
    "repro.core.mor",
    "repro.core.opm_adaptive",
}


def loaded_modules(code: str) -> set:
    """``sys.modules`` after running ``code`` in a fresh interpreter."""
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_plain_import_loads_no_subpackage():
    modules = loaded_modules("import repro")
    assert not modules & HEAVY
    assert {m for m in modules if m.startswith("repro.")} == {"repro._lazy"}


@pytest.mark.parametrize("deck", EXAMPLES, ids=lambda p: p.stem)
def test_cli_deck_solve_loads_only_what_it_runs(deck, tmp_path):
    csv = tmp_path / "out.csv"
    modules = loaded_modules(
        "import contextlib, io\n"
        "from repro.__main__ import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = run([{str(deck)!r}, '--csv', {str(csv)!r}])\n"
        "assert code == 0, code\n"
    )
    assert csv.stat().st_size > 0
    assert not modules & HEAVY
    assert not modules & NOT_FOR_A_DECK_SOLVE


def test_features_still_load_their_layers():
    modules = loaded_modules(
        "import repro\n"
        "assert repro.ParallelExecutor.__module__ == 'repro.engine.executor'\n"
        "assert repro.engine.service.serve is repro.engine.serve\n"
    )
    assert {"repro.engine.executor", "repro.engine.service", "asyncio"} <= modules


def test_exports_that_share_a_submodule_name_stay_functions():
    # importing the submodule first binds the module object on the
    # package; the package must still export the function
    loaded_modules(
        "import repro.fractional.mittag_leffler, repro.circuits.power_grid\n"
        "import repro.fractional as f, repro.circuits as c\n"
        "assert callable(f.mittag_leffler) and callable(c.power_grid)\n"
    )


def test_lazy_exports_resolve_and_list():
    import repro
    from repro.engine.session import Simulator

    assert repro.Simulator is Simulator
    assert "Simulator" in dir(repro) and "Simulator" in vars(repro)
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        repro.nonexistent  # noqa: B018
