"""The startup contract: each entry point loads only the layers it runs.

Every check runs in a fresh interpreter, because this test process has
long since imported everything; the module set is ``sys.modules`` at
interpreter exit.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SRC = os.path.join(ROOT, "src")
QUICKSTART = os.path.join(ROOT, "examples", "traces", "quickstart.std")

#: Layers a plain ``analyze FILE`` (and ``import repro.cli``) never runs.
NOT_LOADED = (
    "repro.serve", "repro.client", "repro.engine.sharding",
    "repro.engine.runner", "repro.bench", "repro.simulator", "repro.mcm",
    "repro.cp", "repro.reordering", "asyncio", "multiprocessing",
)

#: Detector modules (and the compiled kernels WCP loads).
DETECTORS = (
    "repro.core.wcp", "repro.hb.hb", "repro.lockset.eraser",
    "repro.vectorclock.kernels",
)

LAZY_PACKAGES = (
    "repro", "repro.engine", "repro.core", "repro.trace", "repro.hb",
    "repro.vectorclock", "repro.analysis",
)


def _python(*args, **env):
    return subprocess.run(
        [sys.executable] + list(args),
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC, **env),
    )


#: Prefix that reports the interpreter's final module set on stderr.
_AT_EXIT = (
    "import atexit, json, sys\n"
    "atexit.register(lambda: print(json.dumps(sorted(sys.modules)),"
    " file=sys.stderr))\n"
)


def _loaded(code):
    """Run ``code`` in a fresh interpreter; return (process, modules)."""
    run = _python("-c", _AT_EXIT + code)
    return run, set(json.loads(run.stderr.splitlines()[-1]))


def _cli(*argv):
    """``python -m repro.cli ARGV``, as :func:`_loaded` runs it."""
    return _loaded(
        "import runpy\nsys.argv = %r\n"
        "runpy.run_module('repro.cli', run_name='__main__', alter_sys=True)"
        % (["repro.cli"] + list(argv),)
    )


def _offending(modules, prefixes):
    return sorted(
        name for name in modules
        if any(name == p or name.startswith(p + ".") for p in prefixes)
    )


class TestModuleSets:
    def test_import_cli_loads_no_unused_layer(self):
        run, modules = _loaded("import repro.cli")
        assert run.returncode == 0, run.stderr
        assert "repro.cli" in modules
        assert _offending(modules, NOT_LOADED) == []
        assert _offending(modules, DETECTORS) == []

    @pytest.mark.parametrize("argv", [
        ["analyze", QUICKSTART],
        ["analyze", QUICKSTART, "--stream", "--detector", "wcp,hb"],
    ])
    def test_analyze_loads_no_unused_layer(self, argv):
        run, modules = _cli(*argv)
        assert run.returncode == 1, run.stderr  # quickstart has a WCP race
        assert "WCP on quickstart" in run.stdout
        assert "repro.core.wcp" in modules
        assert _offending(modules, NOT_LOADED) == []

    @pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"]])
    def test_help_loads_no_detector(self, argv):
        run, modules = _cli(*argv)
        assert run.returncode == 0, run.stderr
        assert run.stdout.startswith("usage: repro-race")
        assert _offending(modules, DETECTORS) == []

    def test_generate_choices_come_from_the_suite(self):
        run = _python("-m", "repro.cli", "generate", "no-such-benchmark",
                      "-o", os.devnull)
        assert run.returncode == 2
        assert "invalid choice" in run.stderr
        assert "no-such-benchmark" in run.stderr
        assert "xalan" in run.stderr

    def test_bad_kernel_setting_fails_the_first_detector_run(self):
        run = _python("-m", "repro.cli", "analyze", QUICKSTART,
                      REPRO_CLOCK_KERNEL="bogus")
        assert run.returncode != 0
        assert ("KernelBuildError: REPRO_CLOCK_KERNEL must be auto, cffi "
                "or python (got 'bogus')") in run.stderr
        assert run.stdout == ""


_RESOLVE = """
import importlib, json
found = {}
for package in %r:
    module = importlib.import_module(package)
    listed = set(dir(module))  # before any name is resolved
    unresolved = []
    for name in module.__all__:
        try:
            exec("from %%s import %%s" %% (package, name), {})
        except ImportError:
            unresolved.append(name)
    star = {}
    exec("from %%s import *" %% package, star)
    found[package] = {
        "names": len(module.__all__),
        "missing_from_dir": sorted(set(module.__all__) - listed),
        "unresolved": unresolved,
        "missing_from_star": sorted(set(module.__all__) - set(star)),
    }
print(json.dumps(found))
"""


class TestLazyExports:
    def test_every_exported_name_resolves_and_is_listed(self):
        run = _python("-c", _RESOLVE % (LAZY_PACKAGES,))
        assert run.returncode == 0, run.stderr
        found = json.loads(run.stdout)
        assert set(found) == set(LAZY_PACKAGES)
        for package, outcome in found.items():
            assert outcome["names"] > 0, package
            assert outcome["missing_from_dir"] == [], package
            assert outcome["unresolved"] == [], package
            assert outcome["missing_from_star"] == [], package

    def test_exports_are_the_defining_objects(self):
        import repro
        from repro.engine.engine import RaceEngine
        from repro.vectorclock import codec

        assert repro.RaceEngine is RaceEngine
        assert repro.engine.RaceEngine is RaceEngine
        assert repro.vectorclock.codec is codec

    def test_unknown_names_raise_attribute_error(self):
        import repro
        import repro.engine

        with pytest.raises(AttributeError):
            repro.no_such_name
        with pytest.raises(AttributeError):
            repro.engine._private
        assert not hasattr(repro.engine, "serve_connection")
