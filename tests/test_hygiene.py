"""Static checks over the package sources."""

import ast
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src", "ensopt")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; ``__all__`` entries count as read."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_detector_flags_an_unused_import():
    source = "import os\nimport sys\nfrom typing import Any, Sequence\nx: Any = sys.argv\n"
    assert unused_imports(source) == ["os (line 1)", "Sequence (line 3)"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(PACKAGE, module), "r", encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def unreferenced_private_definitions(sources: dict[str, str]) -> list[str]:
    """Private functions and classes (``_name``, not dunder) named nowhere else.

    ``sources`` maps module names to source text.  A definition counts as used
    when some name or attribute outside its own body spells its name, in any
    of the modules; a recursive call alone does not keep it alive.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    references = [
        (node.id if isinstance(node, ast.Name) else node.attr, id(node))
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    dead = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            name = getattr(node, "name", "")
            if not isinstance(node, DEFINITIONS) or not name.startswith("_"):
                continue
            if name.startswith("__") and name.endswith("__"):
                continue
            inside = {id(n) for n in ast.walk(node)}
            if not any(ref == name and nid not in inside for ref, nid in references):
                dead.append(f"{module}:{name} (line {node.lineno})")
    return dead


def test_detector_flags_an_unused_private_helper():
    helpers = (
        "def _used():\n    return 1\n"
        "def _dead():\n    return 2\n"
        "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
        "class _Hidden:\n    def _method(self):\n        return self._other()\n"
        "    def _other(self):\n        return 0\n"
        "    def __repr__(self):\n        return ''\n"
    )
    caller = "from .helpers import _used\nVALUE = _used()\n"
    assert unreferenced_private_definitions({"helpers": helpers, "caller": caller}) == [
        "helpers:_dead (line 3)",
        "helpers:_recursive (line 5)",
        "helpers:_Hidden (line 7)",
        "helpers:_method (line 8)",
    ]


def test_no_unreferenced_private_definitions():
    sources = {}
    for module in MODULES:
        with open(os.path.join(PACKAGE, module), "r", encoding="utf-8") as fh:
            sources[module] = fh.read()
    assert unreferenced_private_definitions(sources) == []


def unreferenced_public_definitions(sources: dict[str, str], readme: str) -> list[str]:
    """Public functions, classes and methods named nowhere outside their own body.

    ``sources`` maps module names to source text.  A definition counts as used
    when some name or attribute outside its own body spells its name, in any
    of the modules, or when ``readme`` names it inside a code span or a fenced
    code block; a word of README prose does not document it.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    references = [
        (node.id if isinstance(node, ast.Name) else node.attr, id(node))
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    code = re.findall(r"```.*?```|`[^`]*`", readme, flags=re.DOTALL)
    documented = set(re.findall(r"\w+", " ".join(code)))
    dead = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            name = getattr(node, "name", "")
            if not isinstance(node, DEFINITIONS) or name.startswith("_") or name in documented:
                continue
            inside = {id(n) for n in ast.walk(node)}
            if not any(ref == name and nid not in inside for ref, nid in references):
                dead.append(f"{module}:{name} (line {node.lineno})")
    return dead


def test_detector_flags_an_unused_public_definition():
    library = (
        "def used():\n    return 1\n"
        "def dead():\n    return 2\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
        "def documented():\n    return 3\n"
        "class Shape:\n    def area(self):\n        return self.side()\n"
        "    def side(self):\n        return 0\n"
        "    def unused(self):\n        return 1\n"
        "    def __repr__(self):\n        return ''\n"
        "def fenced():\n    return 4\n"
        "def sample():\n    return 5\n"
    )
    caller = "from .library import Shape, used\nVALUE = used() + Shape().area()\n"
    readme = (
        "Call `documented()` for a constant; a sample run prints it.\n"
        "```python\nfenced()\n```\n"
    )
    found = unreferenced_public_definitions({"library": library, "caller": caller}, readme)
    assert found == [
        "library:dead (line 3)",
        "library:recursive (line 5)",
        "library:sample (line 20)",
        "library:unused (line 14)",
    ]


def test_no_unreferenced_public_definitions():
    """The package exports only what its own code runs or the README documents."""
    sources = {}
    for module in MODULES:
        if module == "__init__.py":
            continue
        with open(os.path.join(PACKAGE, module), "r", encoding="utf-8") as fh:
            sources[module] = fh.read()
    with open(README, "r", encoding="utf-8") as fh:
        readme = fh.read()
    assert unreferenced_public_definitions(sources, readme) == []


def run_fresh(code: str, *args: str) -> str:
    """Stdout of ``code`` run with ``args`` in a new interpreter that imports ensopt from ``src``."""
    src = os.path.abspath(os.path.dirname(PACKAGE))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_package_loads_no_scipy_stats():
    """Only ``compare`` ranks, and ``scipy.stats`` would cost every process about 38 MB."""
    code = (
        "import sys, ensopt, ensopt.cli, ensopt.stats; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    )
    assert run_fresh(code).strip() == "[]"


# prints "scipy <step> <linalg or -> <special or ->": which of scipy's
# compiled modules the process has loaded after a step
LOADED = """
import sys
def loaded(step):
    linalg, special = ("scipy." + m in sys.modules for m in ("linalg", "special"))
    print("scipy", step, "linalg" if linalg else "-", "special" if special else "-")
"""


def loaded_lines(out: str) -> list[str]:
    return [line[len("scipy ") :] for line in out.splitlines() if line.startswith("scipy ")]


def test_post_and_random_runs_load_no_compiled_scipy(tmp_path):
    """Only a GP fit or a test statistic needs ``scipy.linalg`` or ``scipy.special``."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "method": "bo-best", "dataset": os.path.join(DATA, "toy.csv"), "label_col": "label",
        "output_dir": str(tmp_path / "run"), "budget": 4, "init": 4, "seed": 1,
        "folds": 3, "test_fraction": 0.25, "algorithms": ["knn", "tree"],
    }))
    code = LOADED + """
import ensopt, ensopt.cli
loaded("import")
assert ensopt.cli.main(["post", "--artifact", sys.argv[1], "--size", "5", "--warm", "2"]) == 0
loaded("post")
assert ensopt.cli.main(["run", "--config", sys.argv[2]]) == 0
loaded("run")
"""
    out = run_fresh(code, os.path.join(DATA, "artifact"), str(config))
    assert loaded_lines(out) == ["import - -", "post - -", "run - -"]


# a batch whose pool runs no task and prints which of scipy's compiled
# modules were loaded when the batch created it, that is, before the fork
STUB_POOL = LOADED + """
import concurrent.futures
import ensopt.cli
class Pool:
    def __init__(self, max_workers):
        loaded("fork")
    def __enter__(self):
        return self
    def __exit__(self, *exc):
        return False
    def submit(self, fn, *args):
        fut = concurrent.futures.Future()
        fut.set_result([])
        return fut
concurrent.futures.ProcessPoolExecutor = Pool
argv = ["batch", "--config", sys.argv[1], "--seeds", "1,2", "--results", sys.argv[2], "--jobs", "2"]
assert ensopt.cli.main(argv) == 0
"""


@pytest.mark.parametrize("init, fork", [(3, "fork linalg special"), (4, "fork - -")])
def test_a_gp_batch_loads_scipy_once_before_its_workers_fork(tmp_path, init, fork):
    """Workers share the batch's scipy pages; a batch without a GP loads none."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "method": "bo-best", "dataset": os.path.join(DATA, "toy.csv"), "label_col": "label",
        "output_dir": str(tmp_path / "runs"), "budget": 4, "init": init, "seed": 1,
        "folds": 3, "test_fraction": 0.25, "algorithms": ["knn", "tree"],
    }))
    out = run_fresh(STUB_POOL, str(config), str(tmp_path / "results.csv"))
    assert loaded_lines(out) == [fork]


# a GP from a cold start, one step per entry: the calls one EO proposal makes
GP_STEPS = (
    ("import", """
import numpy as np
from ensopt.acquisition import next_point
from ensopt.surrogate import ObservationSet, fit, slice_sample_hypers
rng = np.random.default_rng(5)
obs = ObservationSet(rng.random((8, 3)), rng.normal(size=8))
"""),
    ("slice", "samples = slice_sample_hypers(obs, 3, rng, burn_in=3, thin=1)"),
    ("fit", "gp = fit(obs, samples)"),
    ("next_point", "point = next_point(gp, float(obs.raw_targets.min()), rng, 50, 2)"),
)


def test_a_cold_gp_loads_scipy_on_first_use_with_the_same_bits():
    """The LAPACK wrappers and ``ndtr``, imported on first use, give the in-process bits."""
    code = LOADED + "".join(f"{body}\nloaded({name!r})\n" for name, body in GP_STEPS)
    code += "print(np.array([h.as_list() for h in samples]).tobytes().hex())\n"
    code += "print(point.tobytes().hex())\n"
    *out, sample_hex, point_hex = run_fresh(code).splitlines()
    assert loaded_lines("\n".join(out)) == [
        "import - -",
        "slice linalg -",
        "fit linalg -",
        "next_point linalg special",
    ]
    here: dict = {}
    exec("\n".join(body for _, body in GP_STEPS), here)
    samples = np.array([h.as_list() for h in here["samples"]])
    assert bytes.fromhex(sample_hex) == samples.tobytes()
    assert bytes.fromhex(point_hex) == here["point"].tobytes()
