"""What each entry point imports, and the lazy package surfaces that keep it small.

The fresh-interpreter checks read ``sys.modules`` in a child process, so
whatever this test process has already imported cannot hide a regression.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments import registry

REPO = Path(__file__).resolve().parents[1]

#: every package whose ``__init__`` only re-exports (``repro.eval`` defines
#: ``run_eval`` over its own names; ``repro.native`` holds the loader itself)
LAZY_PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.iter_modules(repro.__path__, "repro.")
    if info.ispkg and info.name not in ("repro.eval", "repro.native")
)


def modules_after(code: str) -> set[str]:
    """``sys.modules`` after running ``code`` in a fresh interpreter."""
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, cwd=REPO, capture_output=True,
        text=True, check=True,
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


def under(modules: set[str], package: str) -> set[str]:
    return {m for m in modules if m == package or m.startswith(package + ".")}


class TestFreshInterpreter:
    def test_import_repro_loads_no_submodule_and_no_dependency(self):
        # not numpy, not an oracle library: nothing beyond the bare interpreter
        assert modules_after("import repro") - modules_after("pass") == {"repro", "repro._lazy"}

    def test_train_loads_no_serving_shards_eval_or_drivers(self):
        loaded = modules_after("import repro; repro.train")
        assert "repro.api" in loaded
        for package in ("repro.serve", "repro.shards", "repro.eval", "repro.experiments"):
            assert not under(loaded, package), package

    def test_resumed_eval_loads_only_its_driver(self, tmp_path):
        from repro.eval import run_eval

        args = dict(scale="tiny", out_dir=tmp_path / "out", cache_dir=tmp_path / "cache",
                    run_bench=False)
        run, _ = run_eval(REPO / "configs" / "fig1.toml", **args)
        assert run.executed == 1
        loaded = modules_after(
            "import contextlib, io\n"
            "from repro.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main(['eval', 'configs/fig1.toml', '--scale', 'tiny', '--no-bench',"
            f" '--out-dir', {str(args['out_dir'])!r}, '--cache-dir', {str(args['cache_dir'])!r}])\n"
            "assert code == 0, code\n"
        )
        for package in ("repro.cluster", "repro.serve", "repro.shards", "repro.native"):
            assert not under(loaded, package), package
        drivers = {f"repro.experiments.{row.module}" for row in registry._DRIVERS}
        assert drivers & loaded == {"repro.experiments.convergence"}

    def test_import_sparse_loads_no_native_library_and_no_ctypes(self):
        loaded = modules_after("import repro.sparse")
        assert "repro.native" not in loaded
        assert "ctypes" not in loaded

    def test_native_library_loads_on_the_first_product_above_the_crossover(self):
        """Small products (serving's per-request rows) and float32 ones never
        import the loader; importing it builds nothing; the first float64
        product over ``NATIVE_MIN_NNZ`` nonzeros builds or loads the library
        (or, without a compiler, records why it cannot)."""
        modules_after(
            "import sys\n"
            "import numpy as np\n"
            "from repro.sparse import CscMatrix, CsrMatrix\n"
            "from repro.sparse.matrix import NATIVE_MIN_NNZ as n\n"
            "small = CsrMatrix((2, 5), [0, 2, 3], [0, 4, 1], [1.0, 2.0, 3.0])\n"
            "small.matvec(np.ones(5)), small.rmatvec(np.ones(2))\n"
            "big = CscMatrix((n, 1), [0, n], np.arange(n), np.ones(n))\n"
            "big.astype(np.float32).matvec(np.ones(1))\n"
            "assert 'repro.native' not in sys.modules\n"
            "from repro import native\n"
            "assert native._NATIVE == {}, native._NATIVE\n"
            "big.matvec(np.ones(1))\n"
            "assert list(native._NATIVE) == [native.CC], native._NATIVE\n"
        )


@pytest.mark.parametrize("name", LAZY_PACKAGES)
class TestLazySurface:
    def test_table_names_equal_all(self, name):
        package = importlib.import_module(name)
        table = [n for names in package._EXPORTS.values() for n in names]
        assert len(table) == len(set(table)), "a name is listed twice"
        assert set(table) == set(package.__all__) - {"__version__"}

    def test_every_name_is_its_defining_modules_object(self, name):
        package = importlib.import_module(name)
        for module_name, names in package._EXPORTS.items():
            module = importlib.import_module(module_name, name)
            for attr in names:
                expected = module if module_name == "." + attr else getattr(module, attr)
                assert getattr(package, attr) is expected, f"{name}.{attr}"

    def test_dir_lists_every_name(self, name):
        package = importlib.import_module(name)
        assert set(package.__all__) <= set(dir(package))

    def test_star_import(self, name):
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        assert set(importlib.import_module(name).__all__) <= set(namespace)

    def test_unknown_attribute_names_the_package(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match=f"module '{name}' has no attribute 'nope'"):
            package.nope
