"""What a fresh interpreter loads: ``import onebit_isac`` loads numpy and the
package only, a waveform design never loads scipy.linalg, and the first
MLE caps both OpenBLAS builds although scipy's is mapped only by its own
first call. Each check runs in a new process, because this test process
has long imported scipy."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import onebit_isac
from onebit_isac import linalg
from onebit_isac.estimators import MleConfig

SRC = os.path.dirname(os.path.dirname(os.path.abspath(onebit_isac.__file__)))


def _run_fresh(body):
    """Run body after ``import onebit_isac`` in a new interpreter; return the
    JSON its last line of output prints."""
    code = (f"import json, sys\nsys.path.insert(0, {SRC!r})\nimport onebit_isac\n"
            + textwrap.dedent(body))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_designs_never_load_scipy_linalg():
    seen = _run_fresh("""
        import numpy as np
        from onebit_isac import AdmmConfig, admm_run, et_scenario, pt_scenario, run_trials

        def scipy_loaded():
            return {name: name in sys.modules for name in ("scipy.linalg", "scipy.special")}

        seen = {"import": scipy_loaded()}
        cfg = AdmmConfig(rho0=10.0, c_rho=3.0, rho_max=1e6, max_outer=2, max_inner=2)
        pt = pt_scenario(n_t=4, n_r=4, n_users=2, block_len=4, seed=0)
        et = et_scenario(n_t=2, n_r=2, n_users=1, block_len=4, seed=0)
        res = admm_run(pt, "PT", config=cfg, seed=0)
        admm_run(et, "ET", config=cfg, seed=0)
        seen["designs"] = scipy_loaded()
        run_trials(pt, res.x, 2, 0)
        seen["trials"] = scipy_loaded()
        print(json.dumps(seen))
    """)
    assert seen["import"] == {"scipy.linalg": False, "scipy.special": False}
    # the SEP thresholds of the scenarios load scipy.special, nothing loads scipy.linalg
    assert seen["designs"] == {"scipy.linalg": False, "scipy.special": True}
    assert seen["trials"]["scipy.linalg"]


def test_first_estimate_caps_both_openblas_builds():
    import scipy.linalg  # noqa: F401  maps scipy's build into this process too

    # numpy's build and scipy's
    n_builds = len(linalg._blas_thread_controls())
    if n_builds != 2:
        pytest.skip(f"{n_builds} OpenBLAS builds with a thread-count symbol are loaded, not 2")
    seen = _run_fresh("""
        import contextlib
        import numpy as np
        from onebit_isac import estimators, linalg
        from onebit_isac.estimators import MleGrid
        from onebit_isac.linalg import complex_normal
        from onebit_isac.quantization import quantize_one_bit

        def counts():
            return [get() for get, _ in linalg._blas_thread_controls()]

        seen = {"levels": []}
        real_window, real_level = estimators.single_blas_thread, MleGrid._level_objectives

        @contextlib.contextmanager
        def window():
            # every build mapped at entry starts at 2 threads, so that a
            # build left uncapped, or a count left at 1, shows
            for _, put in linalg._blas_thread_controls():
                put(2)
            seen["entry"] = counts()
            with real_window():
                yield

        def level(self, *args):
            seen["levels"].append(counts())
            return real_level(self, *args)

        estimators.single_blas_thread = window
        MleGrid._level_objectives = level
        rng = np.random.default_rng(0)
        x = complex_normal(rng, 8)
        grid = MleGrid(x / np.linalg.norm(x), 1.0, 0.1, block_len=4, n_r=2)
        theta_hat, failed = grid.estimate(quantize_one_bit(complex_normal(rng, (8, 3))))
        seen.update(exit=counts(), found=len(linalg._blas["controls"]),
                    ok=not failed and bool(np.all(np.isfinite(theta_hat))))
        print(json.dumps(seen))
    """)
    assert seen["ok"]
    assert seen["found"] == 2 and seen["entry"] == [2, 2]
    assert seen["levels"] == [[1, 1]] * (MleConfig().refine_levels + 1)
    assert seen["exit"] == [2, 2]
