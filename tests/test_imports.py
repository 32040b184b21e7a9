"""scipy stays out of a process until a function that needs it runs, only
the CLI reads or writes files through io, and every public name of the
package, the public methods and properties of its public classes among
them, has a caller in the package or a reason on NO_CALLER."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import optoresp

SRC = Path(optoresp.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]

# each command runs through cli.main in one fresh process; after each, the
# scipy subpackages it has loaded (private modules such as scipy._lib
# excepted)
SCRIPT = """
import json, sys
from optoresp import cli
commands = [
    ["photon-number", "--fr-ghz", "2.418", "--q-int", "70134",
     "--q-ext", "3226", "--power-dbm", "-77"],
    ["slopes", "--g-mhz", "5", "--xi", "50"],
    ["synth", "--kind", "trace", "--noise", "1e-3", "--seed", "7"],
    ["mc", "--trials", "2", "--seed", "0", "--p-points", "4",
     "--fmax-ghz", "100", "--half-length-um", "60"],
    ["temp-model", "--fr-ghz", "2.418,4.884", "--pdelta", "1e-5",
     "--lambda0-um", "0.72", "--tc-k", "14"],
]
loaded = {}
for argv in commands:
    assert cli.main(argv) == 0, argv
    loaded[argv[0]] = sorted({m.split(".")[1] for m in sys.modules
                              if m.startswith("scipy.")
                              and not m.split(".")[1].startswith("_")})
    loaded[argv[0] + " scipy"] = "scipy" in sys.modules
print(json.dumps(loaded))
"""


def test_commands_load_only_the_scipy_they_call(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    env.pop("OPTORESP_OUTDIR", None)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    for command in ("photon-number", "slopes", "synth", "mc"):
        assert loaded[command + " scipy"] is False, command
    # scipy.version is a module of scipy's top level, not a subpackage
    assert set(loaded["temp-model"]) - {"version"} == {"special"}


def _module_level_scipy_imports(tree):
    """Line numbers of scipy imports outside any function body."""
    found = []
    stack = list(ast.iter_child_nodes(tree))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            names = []
        if any(n == "scipy" or n.startswith("scipy.") for n in names):
            found.append(node.lineno)
        stack.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_no_module_level_scipy_import():
    # importing any optoresp module loads numpy only: scipy is imported
    # inside the functions that call it
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.relative_to(SRC.parent)}:{n}"
                      for n in _module_level_scipy_imports(tree)]
    assert offenders == []


def test_import_guard_sees_nested_module_level_imports():
    tree = ast.parse("import numpy\n"
                     "try:\n    from scipy.special import digamma\n"
                     "except ImportError:\n    pass\n"
                     "class A:\n    import scipy.linalg as la\n"
                     "def f():\n    from scipy.integrate import quad\n")
    assert _module_level_scipy_imports(tree) == [3, 7]


def _imports_of(tree, package, targets):
    """Line numbers of the imports, anywhere in tree, of a module in
    targets or of a submodule of one.  Relative imports resolve against
    package, the dotted name of the tree's package; `from m import n`
    imports m and may import the submodule m.n."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                parts = parts[:len(parts) - node.level + 1]
                base = ".".join(parts + [base] if base else parts)
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(n == t or n.startswith(t + ".") for n in names
               for t in targets):
            found.append(node.lineno)
    return sorted(found)


def test_only_cli_imports_io():
    # the physics and fit modules take arrays and never touch files: io is
    # the CLI's, and nothing imports the CLI
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        targets = {"optoresp.cli"}
        if str(rel) not in ("cli.py", "__init__.py"):
            targets.add("optoresp.io")
        package = ".".join(("optoresp", *rel.parent.parts))
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.relative_to(SRC.parent)}:{n}"
                      for n in _imports_of(tree, package, targets)]
    assert offenders == []


def test_io_import_guard_sees_each_idiom():
    tree = ast.parse("from . import io\n"
                     "from .io import read_trace\n"
                     "from .. import io, tls\n"
                     "import optoresp.io as oio\n"
                     "from optoresp import cli\n"
                     "import io\n"
                     "from . import iox\n"
                     "def f():\n"
                     "    from ..cli import main\n")
    targets = {"optoresp.io", "optoresp.cli"}
    # in a subpackage, '.' is the subpackage and '..' is optoresp
    assert _imports_of(tree, "optoresp.fitkit", targets) == [3, 4, 5, 9]
    assert _imports_of(tree, "optoresp", targets) == [1, 2, 4, 5]


# public names with no caller in the package, and why each stays: an oracle
# or a test truth, with the acceptance criterion that pins it, or a name the
# benchmark alone calls, with its workload op
NO_CALLER = {
    "kramers_kronig_real_part": "criterion 6's Kramers-Kronig oracle",
    "spectral_diffusion_loss": "criterion 4's quadrature oracle",
    "spectral_diffusion_loss_closed_form": "criterion 4's closed form",
    "steady_state_by_integration": "criterion 5's mean-field ODE oracle",
    "transverse_complex_shift": "criterion 5's transverse closed form",
    "parameter_sweep": "acceptance criterion 7 sweeps the slopes with it",
    "ResonatorMode.q_ext_reported": "criterion 8's truth for the fitted Q_ext",
    "fit_power_inverse_q": "perfbench fit_roundtrip's inverse_q op",
    "fit_power_frequency": "perfbench fit_roundtrip's frequency op",
    "fit_tls_saturation": "perfbench fit_roundtrip's saturation op",
    "synth_tls_saturation": "perfbench fit_roundtrip's saturation input",
}


def _uncalled(modules):
    """Public names of the package modules that nothing outside their own
    body names.  modules holds (tree, in_package) pairs.

    A public top-level def or class counts as called when a Name or an
    Attribute outside its body names it; a public method or property of a
    public class (a method Class.name) when an Attribute outside the
    method's body does."""
    defined, uses = [], {}   # uses: name -> {(top owner, method owner, attr)}
    for key, (tree, in_package) in enumerate(modules):
        for stmt in tree.body:
            own = getattr(stmt, "name", None)   # a def or a class
            public = in_package and own and not own.startswith("_")
            if public:
                defined.append((own, (key, own), None))
            method_of = {}   # id of a node -> the method whose body holds it
            if isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        meth = (key, own, item.name)
                        method_of.update((id(n), meth) for n in ast.walk(item))
                        if public and not item.name.startswith("_"):
                            defined.append((f"{own}.{item.name}", None, meth))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name, attr = node.id, False
                elif isinstance(node, ast.Attribute):
                    name, attr = node.attr, True
                else:
                    continue
                uses.setdefault(name, set()).add(
                    ((key, own), method_of.get(id(node)), attr))
    return {qual for qual, top, meth in defined
            if not any(top is not None and t != top
                       or meth is not None and attr and m != meth
                       for t, m, attr in uses.get(qual.split(".")[-1], ()))}


def test_every_public_name_has_a_caller():
    # callers count in a package module only (the __init__ re-exports aside)
    package = ROOT / "src" / "optoresp"
    paths = [p for p in sorted(package.rglob("*.py"))
             if p.name != "__init__.py"]
    modules = [(ast.parse(path.read_text(), filename=str(path)), True)
               for path in paths]
    uncalled = _uncalled(modules)
    assert sorted(uncalled - set(NO_CALLER)) == []
    # an allowed name that gains a caller leaves the list
    assert sorted(set(NO_CALLER) - uncalled) == []


def test_caller_guard_sees_methods_and_properties():
    package = ast.parse(
        "def lonely():\n    return lonely()\n"
        "def user():\n    return Box().size + Box.made().used()\n"
        "class Box:\n"
        "    @property\n    def size(self):\n        return 1\n"
        "    @classmethod\n    def made(cls):\n        return cls()\n"
        "    def grow(self):\n        return self.grow()\n"
        "    def used(self):\n        return self.shrink()\n"
        "    def shrink(self):\n        return Box\n"
        "    def _hidden(self):\n        pass\n"
        "class _Private:\n    def orphan(self):\n        pass\n")
    # the benchmark calls user; a bare Name does not call a method
    bench = ast.parse("import pkg\npkg.user()\ngrow = 1\n")
    assert _uncalled([(package, True), (bench, False)]) == {"lonely",
                                                           "Box.grow"}
    # without the benchmark nothing calls user
    assert _uncalled([(package, True)]) == {"lonely", "user", "Box.grow"}


def _hand_written_finite_checks(tree):
    """Line numbers, inside a __post_init__, of np.inf or math.inf and of
    calls to np.isfinite or math.isfinite."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
            found += [n.lineno for n in ast.walk(node)
                      if isinstance(n, ast.Attribute)
                      and n.attr in ("inf", "isfinite")
                      and isinstance(n.value, ast.Name)
                      and n.value.id in ("np", "numpy", "math")]
    return sorted(found)


def test_post_init_range_checks_go_through_the_helper():
    # a parameter dataclass checks its ranges with checks.check_range, the
    # one place that decides what finite means
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.relative_to(SRC.parent)}:{n}"
                      for n in _hand_written_finite_checks(tree)]
    assert offenders == []


def test_finite_check_guard_sees_each_idiom():
    tree = ast.parse("class A:\n"
                     "    def __post_init__(self):\n"
                     "        if not 0 < self.x < np.inf: pass\n"
                     "        if not math.isfinite(self.y): pass\n"
                     "    def other(self):\n"
                     "        return np.isfinite(self.x)\n")
    assert _hand_written_finite_checks(tree) == [3, 4]


def _file_writes(tree):
    """Line numbers of calls that write a file: open() or .open() with a
    literal mode that writes, appends or updates, or with a mode= keyword
    that is not a literal, and .write_text() or .write_bytes()."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, (ast.Name, ast.Attribute))):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name in ("write_text", "write_bytes"):
            found.append(node.lineno)
        elif name == "open":
            modes = [k.value for k in node.keywords if k.arg == "mode"]
            modes += [a for a in node.args if isinstance(a, ast.Constant)
                      and isinstance(a.value, str)
                      and set(a.value) <= set("rwxabt+")]
            if any(not isinstance(m, ast.Constant)
                   or set(m.value) & set("wxa+") for m in modes):
                found.append(node.lineno)
    return sorted(found)


def test_only_io_writes_files():
    # every CSV and envelope goes through io's writers
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path != SRC / "io.py":
            tree = ast.parse(path.read_text(), filename=str(path))
            offenders += [f"{path.relative_to(SRC.parent)}:{n}"
                          for n in _file_writes(tree)]
    assert offenders == []


def test_write_guard_sees_each_idiom():
    tree = ast.parse("open(p)\n"
                     "open(p, newline='')\n"
                     "open(p, 'w')\n"
                     "open(p, mode='ab')\n"
                     "open(p, mode=m)\n"
                     "open(p, 'r+')\n"
                     "Path(p).open('wb')\n"
                     "io.open(p, 'rb')\n"
                     "p.write_text('x')\n"
                     "p.write_bytes(b'')\n"
                     "p.read_text()\n")
    assert _file_writes(tree) == [3, 4, 5, 6, 7, 9, 10]
