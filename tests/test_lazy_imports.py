"""Import hygiene: the shard router and the CLI parser load no model stack.

The router only hashes object ids onto shards, so neither it nor the
``repro shard-serve`` process that hosts it should import numpy or
:mod:`repro.core`.  The package ``__init__`` files re-export their names
lazily (:mod:`repro._lazy`); the second half of this file checks that
each re-export still resolves exactly as an eager import would.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

LAZY_PACKAGES = [
    "repro",
    "repro.datagen",
    "repro.serve",
    "repro.serve.shard",
    "repro.trajectory",
]


def heavy_modules_after(script: str) -> list[str]:
    """Run ``script`` in a fresh interpreter; numpy/core modules it loaded."""
    probe = (
        script
        + "\nimport json, sys\n"
        + "print(json.dumps(sorted(m for m in sys.modules if m == 'numpy'"
        + " or m.startswith(('numpy.', 'repro.core')))))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=60,
        env={"PYTHONPATH": SRC_DIR},
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestNumpyFreeProcesses:
    def test_router_imports_and_builds_without_the_model_stack(self):
        assert heavy_modules_after(
            "import repro.serve.server, repro.serve.shard.router\n"
            "from repro.serve.shard.router import "
            "RouterConfig, RouterServer, RouterService\n"
            "RouterServer(RouterService(RouterConfig(num_shards=1)))\n"
        ) == []

    def test_cli_parser_builds_without_the_model_stack(self):
        assert heavy_modules_after(
            "import repro.cli\nrepro.cli.build_parser()\n"
        ) == []

    def test_shard_serve_command_imports_without_the_model_stack(self):
        # What ``repro shard-serve`` imports to host the router.
        assert heavy_modules_after(
            "from repro.serve.shard import "
            "RouterConfig, RouterServer, RouterService, ShardCluster\n"
        ) == []

    def test_guard_sees_an_eager_import(self):
        assert "numpy" in heavy_modules_after("import repro.serve.loadgen\n")


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
class TestLazyReExports:
    def test_every_name_is_its_defining_modules_object(self, package_name):
        package = importlib.import_module(package_name)
        exported = set()
        for module_name, names in package._EXPORTS.items():
            module = importlib.import_module(module_name, package_name)
            for name in names:
                assert getattr(package, name) is getattr(module, name)
                exported.add(name)
        assert exported == set(package.__all__) - {"__version__"}

    def test_dir_lists_every_name(self, package_name):
        package = importlib.import_module(package_name)
        assert set(package.__all__) <= set(dir(package))

    def test_star_import_binds_every_name(self, package_name):
        namespace: dict = {}
        exec(f"from {package_name} import *", namespace)
        package = importlib.import_module(package_name)
        for name in package.__all__:
            assert namespace[name] is getattr(package, name)

    def test_unknown_name_raises_attribute_error(self, package_name):
        package = importlib.import_module(package_name)
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name
        assert not hasattr(package, "__no_such_dunder__")


def test_subpackage_attribute_access_still_imports_it():
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import repro; print(repro.core.HPMConfig.__module__)",
        ],
        capture_output=True,
        text=True,
        timeout=60,
        env={"PYTHONPATH": SRC_DIR},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "repro.core.config"
