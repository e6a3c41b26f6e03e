"""Sanity checks on the public API surface of every subpackage."""

import importlib
import os
import subprocess
import sys

import pytest

import repro

SUBPACKAGES = ["verilog", "rtlir", "locking", "ml", "attacks", "bench",
               "eval", "api"]


class TestPublicApi:
    def test_version_is_exposed(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_subpackage_importable(self, name):
        module = importlib.import_module(f"repro.{name}")
        assert module is not None

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_all_exports_resolve(self, name):
        module = importlib.import_module(f"repro.{name}")
        exported = getattr(module, "__all__", [])
        assert exported, f"repro.{name} must export a public API"
        for symbol in exported:
            assert hasattr(module, symbol), f"repro.{name}.{symbol} missing"

    def test_headline_classes_reachable_from_top_level_packages(self):
        from repro.attacks import SnapShotAttack
        from repro.bench import load_benchmark
        from repro.locking import AssureLocker, ERALocker, HRALocker
        from repro.rtlir import Design

        assert callable(load_benchmark)
        for cls in (SnapShotAttack, AssureLocker, ERALocker, HRALocker, Design):
            assert isinstance(cls, type)

    def test_cli_parser_builds(self):
        from repro.cli import build_parser
        parser = build_parser()
        commands = {"analyze", "lock", "attack", "bench", "evaluate", "run"}
        help_text = parser.format_help()
        for command in commands:
            assert command in help_text

    def test_api_facade_reachable(self):
        from repro.api import (Runner, ResultsStore, Scenario,
                               register_attack, register_locker,
                               register_metric)

        for obj in (Runner, ResultsStore, Scenario):
            assert isinstance(obj, type)
        for decorator in (register_attack, register_locker, register_metric):
            assert callable(decorator)

    def test_import_loads_no_third_party_package_but_numpy(self):
        """``import repro`` pulls in nothing beyond the standard library and
        numpy: the dataflow graph is plain dicts, and a stray graph-library
        import would only add interpreter start-up time."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        probe = (
            "import sys\n"
            "def tops(): return {name.split('.')[0] for name in sys.modules}\n"
            "before = tops()\n"
            "import repro, repro.cli\n"
            "added = tops() - before - set(sys.stdlib_module_names)\n"
            "print(sorted(n for n in added if not n.startswith('__')))\n"
        )
        result = subprocess.run([sys.executable, "-c", probe],
                                env=dict(os.environ, PYTHONPATH=src),
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "['numpy', 'repro']"
