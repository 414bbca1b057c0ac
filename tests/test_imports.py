"""What each entry point loads: the package and every command import only
the modules they run, so start-up stays small."""

import json
import os
import subprocess
import sys

import pytest

import lie_degrees
from lie_degrees.cli import COMMANDS, main

SRC = os.path.dirname(os.path.dirname(lie_degrees.__file__))
CHECK_GRAPH = {"unipotent", "partitions", "symmetric", "suites"}
# standard modules whose load is watched: the pool, and the costly imports the
# records of the bounds path do without
STDLIB = {"multiprocessing", "dataclasses", "inspect", "fractions"}


def loaded_after(code: str) -> set[str]:
    """The lie_degrees submodules (by short name) and the STDLIB modules that
    a fresh interpreter has loaded after running code."""
    probe = code + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m.split('.', 1)[-1] for m in sys.modules\n"
        f"                        if m.startswith('lie_degrees.') or m in {sorted(STDLIB)})))\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_importing_the_package_loads_no_submodule():
    assert loaded_after("import lie_degrees") == set()


def test_building_the_parser_loads_only_cli():
    loaded = loaded_after("import lie_degrees.cli as c; c.build_parser()")
    assert loaded == {"cli"}, loaded


def test_epsilon_an_loads_only_the_young_diagram_modules():
    loaded = loaded_after("import lie_degrees.cli as c\n"
                          "c.main(['epsilon', 'an', '--n', '7'])")
    # Partition is still a dataclass, so dataclasses and inspect load here
    assert loaded == {"cli", "partitions", "symmetric",
                      "dataclasses", "inspect", "fractions"}, loaded


def test_epsilon_an_table_loads_no_order_module():
    loaded = loaded_after("import lie_degrees.cli as c\n"
                          "c.main(['epsilon', 'an', '--n', '5..7', '--format', 'csv'])")
    assert loaded == {"cli", "tables", "partitions", "symmetric",
                      "dataclasses", "inspect", "fractions"}, loaded


def test_bounds_loads_no_check_graph():
    loaded = loaded_after("import lie_degrees.cli as c\n"
                          "c.main(['bounds', '--family', 'A', '--n', '1..2', '--q', '2'])")
    assert "maxdegree" in loaded
    assert not loaded & (CHECK_GRAPH | {"multiprocessing"}), loaded
    assert not loaded & {"dataclasses", "inspect"}, loaded


def test_epsilon_cert_loads_no_dataclasses():
    loaded = loaded_after("import lie_degrees.cli as c\n"
                          "c.main(['epsilon', 'cert', '--family', 'A', '--rank', '15',"
                          " '--q', '3'])")
    assert loaded == {"cli", "maxdegree", "qexact", "fractions"}, loaded


def test_serial_verify_loads_no_multiprocessing():
    loaded = loaded_after("import lie_degrees.cli as c\n"
                          "c.main(['verify', 'steinberg', '--n', '1..2', '--jobs', '1'])")
    assert "suites" in loaded and "multiprocessing" not in loaded, loaded


@pytest.mark.parametrize("name", list(COMMANDS))
def test_every_command_help_exits_0(capsys, name):
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: lie-degrees {name}")


def test_package_exports_are_the_module_attributes():
    import importlib

    assert len(lie_degrees.__all__) == len(set(lie_degrees.__all__))
    names = dir(lie_degrees)
    for name in lie_degrees.__all__:
        module = importlib.import_module(f"lie_degrees.{lie_degrees._MODULE_OF[name]}")
        assert getattr(lie_degrees, name) is getattr(module, name), name
        assert name in names
    assert lie_degrees.Partition((2, 1)) == lie_degrees.partitions.Partition((2, 1))


def test_every_traced_name_resolves():
    # perfbench/tracer.py wraps these names with getattr; it is read, not run
    import ast
    import importlib

    path = os.path.join(os.path.dirname(SRC), "perfbench", "tracer.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    [traced] = [ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "TRACED"]
    assert traced
    for layer, names in traced.items():
        module = importlib.import_module(f"lie_degrees.{layer}")
        for qualname in names:
            owner = module
            for attr in qualname.split("."):
                owner = getattr(owner, attr)
            assert callable(owner), f"{layer}.{qualname}"


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        lie_degrees.no_such_name
    assert not hasattr(lie_degrees, "fmt_rational")
