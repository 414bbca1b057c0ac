"""What each entry point loads: the package and every command import only
the modules they run, so start-up stays small."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import lie_degrees
from lie_degrees.cli import COMMANDS, main

SRC = os.path.dirname(os.path.dirname(lie_degrees.__file__))
CHECK_GRAPH = {"unipotent", "partitions", "symmetric", "suites"}
# the modules whose functions some check of the suites calls
CHECK_MODULES = {"maxdegree", "orders", "partitions", "qexact", "symmetric", "unipotent"}
# standard modules whose load is watched: multiprocessing, which no command
# needs since the suite forks its own workers, and the costly imports that no
# record of the package needs
STDLIB = {"multiprocessing", "dataclasses", "inspect", "fractions"}
# dataclasses imports inspect, ast, dis and tokenize, which takes longer than
# the work of a short command
NEVER = {"dataclasses", "inspect"}


def probe(code: str, expr: str):
    """The JSON value of expr in a fresh interpreter that has run code."""
    source = code + f"\nimport json, sys\nprint(json.dumps({expr}))\n"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", source], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after(code: str) -> set[str]:
    """The lie_degrees submodules (by short name) and the STDLIB modules that
    a fresh interpreter has loaded after running code."""
    return set(probe(code, "sorted(m.split('.', 1)[-1] for m in sys.modules"
                           f" if m.startswith('lie_degrees.') or m in {sorted(STDLIB)})"))


def loaded_by(*argv: str) -> set[str]:
    """loaded_after running the command argv, which must load nothing in NEVER."""
    loaded = loaded_after(f"import lie_degrees.cli as c\nc.main({list(argv)!r})")
    assert not loaded & NEVER, loaded
    return loaded


def test_importing_the_package_loads_no_submodule():
    assert loaded_after("import lie_degrees") == set()


def test_building_the_parser_loads_only_cli():
    loaded = loaded_after("import lie_degrees.cli as c; c.build_parser()")
    assert loaded == {"cli"}, loaded


def test_the_order_module_is_a_leaf():
    # the group orders and QProduct, the evaluator of every exact degree,
    # load no other module of the package and no fractions
    assert loaded_after("import lie_degrees.orders") == {"orders"}


def test_young_diagram_modules_load_only_themselves():
    loaded = loaded_after("from lie_degrees import partitions, symmetric")
    assert loaded == {"partitions", "symmetric", "fractions"}, loaded


def test_epsilon_an_loads_only_the_young_diagram_modules():
    loaded = loaded_by("epsilon", "an", "--n", "7")
    assert loaded == {"cli", "partitions", "symmetric", "fractions"}, loaded


def test_epsilon_an_table_loads_no_order_module():
    loaded = loaded_by("epsilon", "an", "--n", "5..7", "--format", "csv")
    assert loaded == {"cli", "tables", "partitions", "symmetric", "fractions"}, loaded


def test_bounds_loads_no_check_graph():
    loaded = loaded_by("bounds", "--family", "A", "--n", "1..2", "--q", "2")
    assert "maxdegree" in loaded
    assert not loaded & (CHECK_GRAPH | {"multiprocessing"}), loaded


def test_epsilon_cert_loads_no_dataclasses():
    loaded = loaded_by("epsilon", "cert", "--family", "A", "--rank", "15", "--q", "3")
    assert loaded == {"cli", "maxdegree", "orders", "qexact", "fractions"}, loaded


@pytest.mark.parametrize("argv", [
    ("degree", "gl", "--partition", "3,2,1", "--q", "2"),
    ("degree", "symbol", "--x", "1,2", "--y", "0"),
    ("degree", "sym", "--n", "5"),
    ("bmax", "gl", "--n", "4", "--q", "2"),
    ("ratio-search", "--partition", "3,2,1"),
], ids=lambda argv: " ".join(argv[:2]))
def test_the_other_commands_load_no_dataclasses(argv):
    assert "cli" in loaded_by(*argv)


@pytest.mark.parametrize("what, expected", [
    ("steinberg", {"cli", "orders", "partitions", "suites", "tables", "unipotent"}),
    ("props", {"cli", "orders", "partitions", "suites", "tables", "unipotent"}),
    ("lemmas", {"cli", "orders", "qexact", "suites", "tables"}),
])
def test_each_verify_selection_loads_only_the_modules_its_checks_call(what, expected):
    loaded = loaded_by("verify", what, "--n", "1..3")
    assert loaded - STDLIB == expected, loaded


def test_serial_verify_all_loads_the_check_modules_and_no_pool():
    loaded = loaded_by("verify", "all", "--n", "1..3", "--q", "2", "--jobs", "1")
    assert loaded - STDLIB == CHECK_MODULES | {"cli", "suites", "tables"}, loaded
    assert "multiprocessing" not in loaded, loaded


def test_parallel_run_loads_every_check_module_before_the_first_fork():
    # a stand-in os.fork records what is loaded when the first worker is
    # forked, then forks; lemmas alone would load orders and qexact only
    code = textwrap.dedent("""
        import os, sys
        from lie_degrees import suites
        at_fork = []
        fork = os.fork

        def recording_fork():
            if not at_fork:
                at_fork.extend(m.split(".", 1)[1] for m in sys.modules
                               if m.startswith("lie_degrees."))
            return fork()

        os.fork = recording_fork
        report = suites.run_suite(suites.SuiteConfig(n_max=3, parallelism=2), "lemmas")
        assert [c["verdict"] for c in report.checks] == ["pass", "pass"]
    """)
    assert set(probe(code, "at_fork")) >= CHECK_MODULES


def test_parallel_verify_all_loads_no_multiprocessing():
    loaded = loaded_by("verify", "all", "--n", "1..3", "--q", "2", "--jobs", "2")
    assert loaded - STDLIB == CHECK_MODULES | {"cli", "suites", "tables"}, loaded
    assert "multiprocessing" not in loaded, loaded


def test_serial_verify_loads_no_multiprocessing():
    loaded = loaded_by("verify", "steinberg", "--n", "1..2", "--jobs", "1")
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
