"""The package surface, and what importing the package and the CLI loads."""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinorlab

EXPORTS = {
    "algebra": ["FourMomentum", "gamma", "gamma5", "theta_conjugate"],
    "bilinears": ["BilinearSet", "bilinear_set", "fpk_residuals"],
    "classify": ["ClassifyReport", "HelicityProfile", "LounestoClass", "classify_report",
                 "helicity_profile", "lounesto_class"],
    "errors": ["DirectionMismatchError", "JobError", "MasslessError", "ProvenanceError",
               "ScaleError", "SingularAngleError", "SpinorError", "ZeroSpinorError"],
    "factory": ["BiSpinor", "Provenance", "boost_bispinor", "build_dual_helicity",
                "build_parity_linked", "build_self_conjugate", "build_single_helicity",
                "build_singular_form", "build_weyl", "rest_spinor"],
    "symmetries": ["CEigenCheck", "SymmetryReport", "c_eigen_check", "charge_conjugate",
                   "dirac_flip_residual", "dirac_matrix", "dirac_residual", "parity_apply",
                   "parity_eigen_check", "symmetry_report", "theta_link_check"],
    "tolerances": ["DEFAULT_TOLERANCES", "Tolerances"],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


class TestSurface:
    def test_all_lists_the_exported_names(self):
        assert len(NAMES) == 44
        assert sorted(spinorlab.__all__) == NAMES
        assert set(NAMES) <= set(dir(spinorlab))
        assert spinorlab.__version__ == "0.1.0"

    @pytest.mark.parametrize("module, name", [
        (module, name) for module, names in EXPORTS.items() for name in names])
    def test_each_name_is_its_submodule_object(self, module, name):
        defining = importlib.import_module(f"spinorlab.{module}")
        assert getattr(spinorlab, name) is getattr(defining, name)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            spinorlab.no_such_name

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from spinorlab import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == NAMES
        assert all(namespace[name] is getattr(spinorlab, name) for name in NAMES)


needs_proc = pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                                reason="needs /proc/self/task to count threads")


def _fresh(code: str, **env) -> dict:
    """Run ``code`` in a fresh interpreter whose environment lacks
    OPENBLAS_NUM_THREADS unless ``env`` sets it; returns its JSON output."""
    child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child_env.update(env)
    proc = subprocess.run([sys.executable, "-c", code], env=child_env, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


_AFTER_CLI = (
    "import json, os\n"
    "import spinorlab.cli\n"
    "print(json.dumps({'threads': len(os.listdir('/proc/self/task')),\n"
    "                  'blas': os.environ.get('OPENBLAS_NUM_THREADS')}))\n"
)


@needs_proc
def test_cli_import_leaves_one_thread():
    assert _fresh(_AFTER_CLI) == {"threads": 1, "blas": "1"}


@needs_proc
def test_cli_keeps_a_preset_blas_thread_count():
    assert _fresh(_AFTER_CLI, OPENBLAS_NUM_THREADS="2")["blas"] == "2"


def test_package_import_loads_no_numpy_and_keeps_the_environment():
    got = _fresh(
        "import json, os, sys\n"
        "before = dict(os.environ)\n"
        "import spinorlab\n"
        "print(json.dumps({'numpy': 'numpy' in sys.modules,\n"
        "                  'environ_kept': dict(os.environ) == before}))\n")
    assert got == {"numpy": False, "environ_kept": True}


def test_cli_import_leaves_the_property_suite_unloaded():
    # only verify jobs import spinorlab.verification, and only sample jobs
    # (and verify) the sampling engine
    got = _fresh(
        "import json, sys\n"
        "import spinorlab.cli\n"
        "print(json.dumps({'verification': 'spinorlab.verification' in sys.modules,\n"
        "                  'sampling': 'spinorlab.sampling' in sys.modules}))\n")
    assert got == {"verification": False, "sampling": False}


WATCHED = ("spinorlab.sampling", "spinorlab.symmetries", "spinorlab.verification",
           "_hashlib")
GOLDENS = Path(__file__).resolve().parent / "goldens"

# The child runs the process entry point with its report on /dev/null and
# os._exit wrapped, so that it can say, as the process ends, which of the
# WATCHED modules are loaded; a None entry in sys.modules is a module
# blocked from loading, not a loaded one.
_RUN_TO_EXIT = (
    "import json, os, sys\n"
    "{preload}"
    "import spinorlab.cli\n"
    "real_exit, out = os._exit, sys.stdout\n"
    "sys.stdout = open(os.devnull, 'w')\n"
    "def report(code):\n"
    "    got = {{'code': code, 'loaded': sorted(\n"
    "        name for name in {watched!r} if sys.modules.get(name) is not None)}}\n"
    "    if 'preloaded' in globals():\n"
    "        got['kept'] = sys.modules.get('_hashlib') is preloaded\n"
    "    out.write(json.dumps(got))\n"
    "    out.flush()\n"
    "    real_exit(0)\n"
    "os._exit = report\n"
    "spinorlab.cli.run({argv!r})\n"
)


def _run_to_exit(argv, preload: str = "") -> dict:
    return _fresh(_RUN_TO_EXIT.format(preload=preload, watched=WATCHED,
                                      argv=[str(a) for a in argv]))


@pytest.mark.parametrize("mode, loaded", [
    ("classify", []),
    ("symmetries", ["spinorlab.symmetries"]),
    ("sample", ["spinorlab.sampling"]),
    ("verify", ["spinorlab.sampling", "spinorlab.symmetries", "spinorlab.verification"]),
])
def test_each_mode_loads_only_what_it_runs(mode, loaded, tmp_path):
    # no CLI process loads OpenSSL's _hashlib, although sample and verify
    # jobs load numpy.random, whose secrets module imports hmac
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"mode": "sample", "family": "random_raw", "count": 10}),
                   encoding="utf-8")
    argv = {"classify": ["--job", GOLDENS / "class1.job.json"],
            "symmetries": ["--job", GOLDENS / "class5.job.json"],
            "sample": ["--job", job],
            "verify": ["--mode", "verify"]}[mode]
    assert _run_to_exit(argv) == {"code": 0, "loaded": loaded}


def test_run_keeps_an_already_loaded_hashlib():
    got = _run_to_exit(["--mode", "verify"],
                       preload="import _hashlib\npreloaded = _hashlib\n")
    assert got == {"code": 0, "kept": True,
                   "loaded": ["_hashlib", "spinorlab.sampling", "spinorlab.symmetries",
                              "spinorlab.verification"]}
