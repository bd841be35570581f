"""The package namespace: names exported lazily from their modules."""

import importlib

import pytest

import hyperchrom
from tests.conftest import fresh_process


def test_lazy_table_and_all_name_the_same_symbols():
    assert len(hyperchrom.__all__) == len(set(hyperchrom.__all__))
    assert set(hyperchrom._EXPORTS) == set(hyperchrom.__all__) - {"__version__"}


def test_each_name_is_the_object_its_module_defines():
    for name, module in hyperchrom._EXPORTS.items():
        defined = getattr(importlib.import_module(f"hyperchrom.{module}"), name)
        assert getattr(hyperchrom, name) is defined, name
        assert name in importlib.import_module(f"hyperchrom.{module}").__all__, name


def test_a_name_reads_its_module_attribute_when_read(monkeypatch):
    from hyperchrom import oracle

    def stand_in():
        return "stand-in"

    monkeypatch.setattr(oracle, "kernel_name", stand_in)
    assert hyperchrom.kernel_name is stand_in
    from hyperchrom import kernel_name

    assert kernel_name is stand_in


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hyperchrom.no_such_name


def test_dir_lists_every_export_and_module():
    names = dir(hyperchrom)
    assert set(hyperchrom.__all__) <= set(names)
    assert {"hypercore", "oracle", "pipeline", "_kernel_py", "exactarith"} <= set(names)
    assert names == sorted(names)


def test_star_import_and_submodules_in_a_fresh_process():
    probe = (
        "import sys\n"
        "import hyperchrom\n"
        "assert [m for m in sys.modules if m.startswith('hyperchrom.')] == []\n"
        "assert hyperchrom.oracle.kernel_name() == 'python'\n"
        "ns = {}\n"
        "exec('from hyperchrom import *', ns)\n"
        "missing = [n for n in hyperchrom.__all__ if n not in ns]\n"
        "print(missing, ns['colour_main'] is sys.modules['hyperchrom.pipeline'].colour_main)\n"
    )
    assert fresh_process(probe) == "[] True"
