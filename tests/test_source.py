"""Rules on the library source itself."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import etacover
from etacover.qseries import QSeries

SOURCES = sorted(Path(etacover.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
README = Path(__file__).resolve().parent.parent / "README.md"

# the README's Library section, the one surface etacover re-exports
LIBRARY = [
    "CertReport", "CheckResult", "EtaProduct", "PrimeContext", "QSeries",
    "expand_product", "generalized_eta", "orbit_product", "prime_context",
    "report_from_json", "report_to_json",
]


def test_no_bare_asserts():
    # python -O strips assert statements, so library checks must raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and found == []


def test_eta_products_are_built_only_by_from_factors():
    # index reduction and exponent merging live in EtaProduct.from_factors
    found, constructors = [], 0
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        inside = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "from_factors":
                constructors += 1
                inside.update(id(n) for n in ast.walk(node))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in inside
            and "EtaProduct" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        ]
    assert constructors == 1 and found == []


def test_exact_law_and_z_relation_build_no_objects():
    # per drawn matrix and for the z-relation the work is on ints: no eta
    # product, moved product or root of unity is built
    tree = ast.parse((Path(etacover.__file__).parent / "certify.py").read_text())
    banned = {"from_factors", "orbit_product", "transform_product", "RootOfUnity"}
    checked, found = [], []
    for fn in tree.body:
        if getattr(fn, "name", None) in ("verify_transforms", "verify_z_relation"):
            checked.append(fn.name)
            found += [
                f"{fn.name}:{node.lineno}"
                for node in ast.walk(fn)
                if isinstance(node, ast.Call)
                and {getattr(node.func, "id", None), getattr(node.func, "attr", None)} & banned
            ]
    assert len(checked) == 2 and found == []


def test_certify_draws_one_stream_from_gamma0():
    # the unit's laws are decided on fixed class representatives; the only
    # draws left are the Gamma0 matrices of the E_g residual, from one rng
    # per prime.  random_member draws from Gamma0 alone, its one loop the
    # gcd step, so a second stream from the unit's group cannot come back
    tree = ast.parse((Path(etacover.__file__).parent / "certify.py").read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    draws = [node for node in calls if "random_member" in
             (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    streams = [node for node in calls if getattr(node.func, "attr", None) == "Random"]
    assert draws and len(streams) == 1
    tree = ast.parse((Path(etacover.__file__).parent / "subgroups.py").read_text())
    fn = next(fn for fn in tree.body if getattr(fn, "name", None) == "random_member")
    loops = [node for node in ast.walk(fn) if isinstance(node, (ast.For, ast.While))]
    assert [a.arg for a in fn.args.args] == ["ctx", "rng"]
    assert [ast.unparse(node.test) for node in loops] == ["gcd(a, c) != 1"]


def test_powers_of_g_belong_to_the_group_layer():
    # H = <g^k> is listed by subgroups.h_residues, and the z-relation walks
    # g^n itself: no pow(ctx.g, ...) elsewhere, and the reduced index of an
    # eta product is a plain (r, sign) pair
    found, allowed = [], {"h_residues", "verify_z_relation"}
    for name in ("eta.py", "certify.py", "subgroups.py"):
        tree = ast.parse((Path(etacover.__file__).parent / name).read_text())
        inside = {id(node) for fn in tree.body if getattr(fn, "name", None) in allowed
                  for node in ast.walk(fn)}
        found += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if id(node) not in inside and isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "pow"
            and node.args and getattr(node.args[0], "attr", None) == "g"
        ]
    found += [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and node.name == "EtaIndex"
    ]
    assert found == []


def test_group_layer_holds_no_cache():
    # a prime's state in subgroups is H = <g^k>, at most 12 residues, built
    # where it is read: no lru_cache holds a table of O(p) entries
    tree = ast.parse((Path(etacover.__file__).parent / "subgroups.py").read_text())
    names = {getattr(node, key, None) for node in ast.walk(tree)
             for key in ("id", "attr", "name", "module")}
    assert names & {"functools", "lru_cache", "cache"} == set()


def test_roots_of_unity_are_int_turns():
    # a root is an int t over a modulus its caller knows: no RootOfUnity
    # class is defined, imported or named anywhere in the package
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if "RootOfUnity" in (getattr(node, "name", None), getattr(node, "id", None),
                             getattr(node, "attr", None))
    ]
    assert SOURCES and found == []


def test_cusps_are_int_pairs():
    # a cusp is its (a, c) pair, printed by subgroups.cusp_name: no Cusp
    # class is defined, imported or named anywhere in the package
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if "Cusp" in (getattr(node, "name", None), getattr(node, "id", None),
                      getattr(node, "attr", None))
    ]
    assert SOURCES and found == []


def _qseries_method(name, tree=None):
    tree = tree or ast.parse((Path(etacover.__file__).parent / "qseries.py").read_text())
    cls = next(node for node in tree.body if getattr(node, "name", None) == "QSeries")
    return next(fn for fn in cls.body if getattr(fn, "name", None) == name)


def test_a_series_is_never_mutated_after_construction():
    # rescale to the same lattice and scale(1) hand back the series itself,
    # which is safe only while no statement outside QSeries.__init__ writes
    # a series' coeffs, denom or trunc, or an entry of its coeffs
    fields, mutators = {"coeffs", "denom", "trunc"}, {
        "clear", "pop", "popitem", "setdefault", "update", "__setitem__", "__delitem__"}

    def written(target):
        while isinstance(target, ast.Subscript):
            target = target.value
        return isinstance(target, ast.Attribute) and target.attr in fields

    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        init = (set(map(id, ast.walk(_qseries_method("__init__", tree))))
                if path.name == "qseries.py" else set())
        for node in ast.walk(tree):
            if id(node) in init:
                continue
            targets = (node.targets if isinstance(node, (ast.Assign, ast.Delete)) else
                       [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
            if any(written(t) for t in targets) or (
                    isinstance(node, ast.Call) and getattr(node.func, "attr", None) in mutators
                    and written(node.func.value)):
                found.append(f"{path.name}:{node.lineno}")
    assert SOURCES and found == []


def test_render_builds_no_fraction():
    # each exponent is printed from gcd(n, denom); only the O-term's trunc
    # is a Fraction already
    calls = [node.lineno for node in ast.walk(_qseries_method("render"))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Fraction"]
    assert calls == []


def test_one_spelling_of_the_gamma2_sign():
    # psi*chi (psi when p == 3 mod 4) is spelled in subgroups.twisted_sign;
    # only it and the CLI's character command ask for chi itself
    callers = [
        f"{path.stem}.{fn.name}"
        for path in SOURCES
        for fn in ast.walk(ast.parse(path.read_text()))
        if isinstance(fn, ast.FunctionDef) and any(
            isinstance(node, ast.Call)
            and "quadratic_character" in (getattr(node.func, "id", None),
                                          getattr(node.func, "attr", None))
            for node in ast.walk(fn)
        )
    ]
    assert sorted(callers) == ["cli.cmd_character", "subgroups.twisted_sign"]


def _modules_after(statement):
    # the modules a fresh interpreter holds after running statement
    probe = f"{statement}\nimport sys\nprint(' '.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(Path(etacover.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    return set(done.stdout.split())


def test_start_up_imports_no_dataclasses_inspect_or_traceback():
    # dataclasses pulls in inspect, ast, dis and tokenize, and traceback
    # textwrap: start-up costs no command uses (a failing prime imports
    # traceback when it happens)
    added = _modules_after("import etacover.cli") - _modules_after("pass")
    assert "etacover.cli" in added
    assert added & {"dataclasses", "inspect", "traceback"} == set()


def test_start_up_and_a_command_import_no_argparse_gettext_or_locale():
    # command lines are read from cli.COMMANDS: an argparse tree cost 50
    # times a parse to build in every process, most of it in gettext
    # catalogue searches for its help strings, the first of which imports locale
    bare = _modules_after("pass")
    for statement in ("import etacover.cli",
                      "import etacover.cli\netacover.cli.main(['cusps', '--p', '13'])"):
        added = _modules_after(statement) - bare
        assert "etacover.cli" in added
        assert added & {"argparse", "gettext", "locale"} == set(), statement


def test_no_dataclasses_in_the_package():
    # records are typing.NamedTuple; importing dataclasses costs start-up time
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
        or isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
    ]
    assert SOURCES and found == []


def test_group_layer_imports_no_fractions():
    # multipliers are integer exponents mod 24N, never Fractions of a turn
    tree = ast.parse((Path(etacover.__file__).parent / "subgroups.py").read_text())
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "fractions"
        or isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)
    ]
    assert found == []


def test_one_truncated_product_loop_for_E_g():
    # numeric.py multiplies in factors 1 - x in one loop; every value of
    # E_g, on either side of a law, goes through it
    tree = ast.parse((Path(etacover.__file__).parent / "numeric.py").read_text())

    def takes_factor(node):
        return isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mult) and any(
            isinstance(n, ast.BinOp) and isinstance(n.op, ast.Sub)
            and isinstance(n.left, ast.Constant) and n.left.value == 1
            for n in ast.walk(node.value)
        )

    loops = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.For, ast.While)) and any(takes_factor(n) for n in ast.walk(node))
    ]
    assert len(loops) == 1


def _numeric_calls(name):
    tree = ast.parse((Path(etacover.__file__).parent / "numeric.py").read_text())
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
    ]


def test_one_residual_routine_in_numeric():
    # every law, of E_g or of an eta product, is compared in one place
    assert len(_numeric_calls("_relative_error")) == 1


def test_numeric_takes_leading_exponents_from_order_numerator():
    # 6g^2 - 6Ng + N^2 is spelled in exact.order_numerator alone; numeric.py
    # asks it for L and writes no coefficient 6 of its own
    tree = ast.parse((Path(etacover.__file__).parent / "numeric.py").read_text())
    sixes = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value == 6
    ]
    assert _numeric_calls("order_numerator") and sixes == []


def test_benchmark_trace_targets_resolve():
    # perfbench/tracing.py wraps these names from outside the package, and
    # `perfbench/run.py --trace 1` stops with LookupError if one is gone
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.TIMED + tracing.COUNTED
    missing = [
        f"{module}.{attr}" for module, attr in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    missing += [m for m in tracing.TIMED_METHODS.values() if m not in vars(QSeries)]
    assert targets and missing == []


def test_no_unused_imports():
    # every imported name is used in its module, the tests included; __init__
    # imports exactly __all__
    found = []
    for path in SOURCES + TESTS:
        tree = ast.parse(path.read_text())
        imports = [
            node for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
        ]
        imported = {
            alias.asname or alias.name.split(".")[0]: node.lineno
            for node in imports for alias in node.names
        }
        if path.name == "__init__.py":
            if sorted(imported) != sorted(etacover.__all__):
                found.append(f"{path.name}: imports {sorted(imported)} != __all__")
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [
            f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used
        ]
    assert SOURCES and TESTS and found == []


def test_every_private_helper_has_a_caller():
    # a module-level _name function is referenced from src/ outside its own
    # body, so a helper goes with its last caller
    trees = [ast.parse(path.read_text()) for path in SOURCES]
    helpers = {fn.name: {id(node) for node in ast.walk(fn)}
               for tree in trees for fn in tree.body
               if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")
               and not fn.name.startswith("__")}
    called = {
        name for tree in trees for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
        and (name := getattr(node, "id", None) or node.attr) in helpers
        and id(node) not in helpers[name]
    }
    assert helpers
    assert sorted(set(helpers) - called) == []


def test_package_exports_the_library_surface():
    assert etacover.__all__ == LIBRARY
    assert all(getattr(etacover, name, None) is not None for name in LIBRARY)


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
