"""The design rules of the code, checked on one index of the tree.

Eleven rules keep the design in place: no private names shared between
modules, no threads, no unused imports and no ``__all__``, no class member
that nothing reads, dense spectra only through ``eigensolve`` (but for the
``eigvalsh`` calls named in KEPT_EIGVALSH), no idle or always-overridden
default, ARPACK only in ``smallest_eigenpairs``, Monte-Carlo batches only
in the CLI runners, no config key that no shipped config sets, no
``DiagonalStack`` on a stencil that is not a ``periodic_laplacian``, and
LAPACK by pointer only in ``eigensolve``.  Each rule is a function of the
index that returns its violation lines, and each test asserts that the
list is empty.

Readers and callers are counted from ``src/`` and ``perfbench/`` only:
tests are not readers or callers.  A rule that parses nothing passes, so
every rule is also run on a small synthetic tree that keeps all eleven,
with one violation planted, and must give that violation's line and no
other.
"""

import ast
import configparser
from dataclasses import dataclass
from pathlib import Path, PurePosixPath

import pytest

import displab
from displab.cli import SCHEMA

ROOT = Path(__file__).resolve().parents[1]

# Members that only tests read, and why each stays.
ONLY_CHECKED = {
    "SupportSet.contains": "the membership oracle of the support-set unit tests",
    "FieldScanReport.argmin_config": "the reference test compares the scan's minimizer with a full loop",
    "BandBottom.phi0": "the fiber ground state whose positivity and norm the Floquet tests check",
    "GradientLimitTable.decreasing": "the monotone gradient limit that acceptance criterion 5 asserts",
}

# The functions outside eigensolve that call eigvalsh, and the output whose
# bits each call keeps: eigensolve's levels could differ in the last bits.
KEPT_EIGVALSH = {
    "reduced.ground_zero_iff_constant": "the reduced ground of each reduce-1d configuration in its CSV",
    "reduced.sandwich_check": "the two gap eigenvalues that sandwich-1d writes",
    "cli.run_verify_all": "the free-fiber exactness defect that verify-all writes",
}

# Config keys that no shipped config sets, and the kind of support or law
# that needs each.
UNSHIPPED_KEYS = {
    "support.semi_axes": "the semi-axes of an ellipsoid support",
    "support.vertices": "the vertices of a polygon support",
    "distribution.radial_exponent": "the exponent of the polar law",
}


@dataclass(frozen=True)
class Index:
    """The parsed tree the rules read."""

    modules: dict  # path of each src/displab module -> its parsed module
    reads: frozenset  # attributes read, and names getattr reads, in src/ and perfbench/
    calls: dict  # callee name -> [(keywords, positional count, spread)] in src/ and perfbench/
    config_keys: frozenset  # "section.key" that some shipped config sets
    n_configs: int
    schema: tuple  # every "section.key" of the config schema


def _callee(call):
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def index_of(sources, configs, schema):
    """The index of ``sources`` (path -> text of every .py file under src/
    and perfbench/), ``configs`` (path -> text of every shipped config) and
    the ``schema`` keys.  The displab modules are the files directly in
    src/displab."""
    trees = {path: ast.parse(text) for path, text in sorted(sources.items())}
    reads, calls = set(), {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.Call):
                name = _callee(node)
                spread = any(k.arg is None for k in node.keywords) or any(
                    isinstance(a, ast.Starred) for a in node.args
                )
                calls.setdefault(name, []).append(
                    ({k.arg for k in node.keywords}, len(node.args), spread)
                )
                if (
                    getattr(node.func, "id", None) == "getattr"
                    and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)
                ):
                    reads.add(node.args[1].value)
    keys = set()
    for text in configs.values():
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        parser.read_string(text)
        keys |= {f"{section}.{key}" for section in parser.sections() for key in parser[section]}
    return Index(
        modules={
            path: tree
            for path, tree in trees.items()
            if PurePosixPath(path).parent == PurePosixPath("src/displab")
        },
        reads=frozenset(reads),
        calls=calls,
        config_keys=frozenset(keys),
        n_configs=len(configs),
        schema=tuple(schema),
    )


def _texts(patterns):
    return {
        path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
        for pattern in patterns
        for path in sorted(ROOT.glob(pattern))
    }


@pytest.fixture(scope="session")
def index():
    return index_of(
        _texts(["src/**/*.py", "perfbench/**/*.py"]),
        _texts(["src/displab/presets/*.ini", "perfbench/configs/*.ini"]),
        SCHEMA,
    )


# -- the rules -----------------------------------------------------------------


def private_imports(index):
    """A helper two modules need gets a public name in the module that owns it."""
    return [
        f"{path}:{node.lineno} imports {alias.name} from a sibling module"
        for path, tree in index.modules.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level >= 1
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]


def thread_imports(index):
    """Runs are serial (the hidden --threads flag takes only 1), so module
    state such as randomfields.SITE_COUNTS needs no lock."""
    bad = []
    for path, tree in index.modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name == "threading" or name.split(".")[0] == "concurrent":
                    bad.append(f"{path}:{node.lineno} imports {name}")
    return bad


def unused_imports(index):
    """An import counts as used only where the module's own code reads it,
    so no module, __init__.py included, re-exports a sibling's name: every
    name has one binding, in the module that defines it, and its callers
    import it from there.  No module lists an __all__ either.  __future__
    imports are exempt."""
    bad = []
    for path, tree in index.modules.items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        bad += [
            f"{path}:{n.lineno} binds __all__"
            for n in ast.walk(tree)
            if isinstance(n, ast.Name) and n.id == "__all__" and isinstance(n.ctx, ast.Store)
        ]
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        bad.append(f"{path}:{node.lineno} imports {name}, which the module never uses")
    return bad


def unread_members(index):
    """Every annotated field, property and public method of a displab class
    is read somewhere in src/ or perfbench/: as an attribute, or by getattr
    with its name.  A member that only tests read is named in ONLY_CHECKED
    with the reason it stays.  Members match by name, so a read of a
    namesake keeps a member and a false match only makes the rule lenient."""
    bad, kept = [], []
    for path, tree in index.modules.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    name, what = node.target.id, "field"
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = node.name
                    what = "property" if any(
                        getattr(d, "id", None) == "property" for d in node.decorator_list
                    ) else "method"
                else:
                    continue
                if not name.startswith("_") and name not in index.reads:
                    if f"{cls.name}.{name}" in ONLY_CHECKED:
                        kept.append(f"{cls.name}.{name}")
                    else:
                        bad.append(f"{path}:{node.lineno} {cls.name}.{name} ({what}) is never read")
    stale = sorted(set(ONLY_CHECKED) - set(kept))
    return bad + [
        f"{member} is in ONLY_CHECKED but is read in src/ or perfbench/, or gone" for member in stale
    ]


def dense_spectra_outside_eigensolve(index):
    """eigensolve.dense_levels gives eigh's eigenvalues without the vectors
    and smallest_eigenpairs gives the pairs; no other module calls eigh or
    eigvalsh, but for the functions in KEPT_EIGVALSH, whose eigvalsh bits a
    run writes.  An entry whose function calls no eigvalsh is stale."""
    bad, kept = [], set()
    for path, tree in index.modules.items():
        module = PurePosixPath(path).stem
        if module == "eigensolve":
            continue
        owner = {}  # node -> the innermost function that holds it
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), f"{module}.{fn.name}") for node in ast.walk(fn))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("eigh", "eigvalsh"):
                where = owner.get(id(node))
                if node.attr == "eigvalsh" and where in KEPT_EIGVALSH:
                    kept.add(where)
                else:
                    bad.append(f"{path}:{node.lineno} calls {ast.unparse(node)}")
            elif isinstance(node, ast.ImportFrom):
                bad += [
                    f"{path}:{node.lineno} imports {a.name} from {node.module}"
                    for a in node.names
                    if a.name in ("eigh", "eigvalsh")
                ]
    return bad + [
        f"{where} is in KEPT_EIGVALSH but calls no eigvalsh, or is gone"
        for where in sorted(set(KEPT_EIGVALSH) - kept)
    ]


def idle_defaults(index):
    """A default of a displab function or method that no call in src/ or
    perfbench/ overrides, by keyword or by position, is a constant and
    belongs in the body; one that every such call overrides is dead and the
    parameter is required.  Tests are not callers: an option is justified by
    the callers that need it, so a test states every value it uses.
    Dataclass fields are not parameters.  Calls match by name (a class's
    name calls its __init__), and one with *args or **kwargs may set or
    leave every parameter, so a false match only makes the rule lenient."""

    def sets(keywords, positional, arg, i):
        return arg in keywords or (i is not None and positional > i)

    unset, overridden = [], []
    for path, tree in index.modules.items():
        for owner in ast.walk(tree):
            if not isinstance(owner, (ast.Module, ast.ClassDef)):
                continue
            for fn in owner.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                # a method's calls pass self or cls before their positionals
                bound = isinstance(owner, ast.ClassDef) and not any(
                    getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list
                )
                name = owner.name if fn.name == "__init__" else fn.name
                args = fn.args.posonlyargs + fn.args.args
                first = len(args) - len(fn.args.defaults)
                params = [(a.arg, i - bound) for i, a in enumerate(args) if i >= first]
                params += [
                    (a.arg, None)
                    for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                    if d is not None
                ]
                made = index.calls.get(name, [])
                for arg, i in params:
                    where = f"{path}:{fn.lineno} {fn.name}"
                    if not any(spread or sets(kw, pos, arg, i) for kw, pos, spread in made):
                        unset.append(f"{where}: no call sets {arg}")
                    elif all(not spread and sets(kw, pos, arg, i) for kw, pos, spread in made):
                        overridden.append(f"{where}: every call sets {arg}")
    return unset + overridden


def arpack_outside_smallest_eigenpairs(index):
    """Counting certifies its Ritz values from its own Lanczos run on the
    SuperLU factor it already has; eigsh serves only the eigenpairs that
    eigensolve.smallest_eigenpairs returns."""
    bad = []
    for path, tree in index.modules.items():
        allowed = set()
        if PurePosixPath(path).name == "eigensolve.py":
            for fn in tree.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "smallest_eigenpairs":
                    allowed = {id(node) for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if (isinstance(node, ast.Attribute) and node.attr == "eigsh") or (
                isinstance(node, ast.Name) and node.id == "eigsh"
            ):
                bad.append(f"{path}:{node.lineno} uses {ast.unparse(node)}")
            elif isinstance(node, ast.ImportFrom) and any(a.name == "eigsh" for a in node.names):
                bad.append(f"{path}:{node.lineno} imports eigsh from {node.module}")
    return bad


def batches_outside_runners(index):
    """cli.run_ids, run_lifshitz and run_wegner are the one Monte-Carlo
    driver per kind; no other displab module calls a batch function."""
    batches = {"count_rows", "lifshitz_rows", "wegner_rows"}
    bad = []
    for path, tree in index.modules.items():
        if PurePosixPath(path).name == "cli.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = _callee(node)
                if name in batches:
                    bad.append(f"{path}:{node.lineno} calls {name}")
    return bad


def unset_config_keys(index):
    """A key that no preset and no perfbench config sets is a second way in
    for a value, or a knob that no run turns.  The keys in UNSHIPPED_KEYS
    are ones a kind of support or law needs."""
    return [
        f"{key}: no shipped config sets it"
        for key in index.schema
        if key not in index.config_keys | set(UNSHIPPED_KEYS)
    ]


def _own_nodes(scope):
    """The nodes of a module or function, not those of the functions it defines."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            todo.extend(ast.iter_child_nodes(node))


def stacks_off_the_laplacian(index):
    """Counting trusts the stencil of a DiagonalStack to be exactly
    symmetric and canonical and to store every diagonal entry, as a
    periodic_laplacian is, and never tests for it.  So every DiagonalStack
    call takes its stencil from a periodic_laplacian call in the same
    function: as ``*periodic_laplacian(...)``, or as the first name that
    ``lap, where, up = periodic_laplacian(...)`` binds."""

    def laplacian(node):
        return isinstance(node, ast.Call) and _callee(node) == "periodic_laplacian"

    bad = []
    for path, tree in index.modules.items():
        functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for scope in [tree, *functions]:
            nodes = list(_own_nodes(scope))
            stencils = {
                target.elts[0].id
                for node in nodes
                if isinstance(node, ast.Assign) and laplacian(node.value)
                for target in node.targets
                if isinstance(target, ast.Tuple) and isinstance(target.elts[0], ast.Name)
            }
            for node in nodes:
                if not (isinstance(node, ast.Call) and _callee(node) == "DiagonalStack"):
                    continue
                given = [k.value for k in node.keywords if k.arg == "stencil"] + node.args[:1]
                first = given[0] if given else None
                if (isinstance(first, ast.Starred) and laplacian(first.value)) or (
                    isinstance(first, ast.Name) and first.id in stencils
                ):
                    continue
                stencil = "no stencil" if first is None else ast.unparse(first)
                bad.append(
                    f"{path}:{node.lineno} builds a DiagonalStack on {stencil}, "
                    "not on a periodic_laplacian of the same function"
                )
    return bad


def lapack_pointers_outside_eigensolve(index):
    """LAPACK routines that SciPy exports only by pointer (the capsules of
    scipy.linalg.cython_lapack's __pyx_capi__, opened with ctypes'
    PyCapsule_* calls) are bound in eigensolve alone, where the bit-for-bit
    tests of dense_levels cover them, as ARPACK serves smallest_eigenpairs
    alone.  One line per source line that names any of them."""
    bad = {}
    for path, tree in index.modules.items():
        if PurePosixPath(path).name == "eigensolve.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = [node.value]
            else:
                continue
            for name in names:
                parts = name.split(".")
                if "cython_lapack" in parts or "__pyx_capi__" in parts or name.startswith("PyCapsule_"):
                    bad.setdefault((path, node.lineno), f"{path}:{node.lineno} reaches LAPACK by pointer ({name})")
    return [bad[key] for key in sorted(bad)]


RULES = [
    private_imports,
    thread_imports,
    unused_imports,
    unread_members,
    dense_spectra_outside_eigensolve,
    idle_defaults,
    arpack_outside_smallest_eigenpairs,
    batches_outside_runners,
    unset_config_keys,
    stacks_off_the_laplacian,
    lapack_pointers_outside_eigensolve,
]


def test_the_index_holds_every_module_and_shipped_config(index):
    package = Path(displab.__file__).parent
    assert {PurePosixPath(p).name for p in index.modules} == {p.name for p in package.glob("*.py")}
    shipped = list((package / "presets").glob("*.ini")) + list(ROOT.glob("perfbench/configs/*.ini"))
    assert index.n_configs == len(shipped) > 0


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.__name__)
def test_the_code_keeps_the_rule(index, rule):
    bad = rule(index)
    assert bad == [], "\n".join(bad)


# -- each rule names a planted violation --------------------------------------

# A tree that keeps every rule: eigensolve with its dense and ARPACK
# solvers and a LAPACK routine bound by pointer, a runner that calls a batch
# function, the members that only tests read, the eigvalsh calls of
# KEPT_EIGVALSH, stacks on a periodic_laplacian in both forms, a perfbench
# script that calls the runner with and without its default, and one
# shipped config that sets every key but the unshipped ones.
SOLVERS = """\
import numpy as np
import scipy.sparse.linalg as spla


def dense_levels(a):
    return np.linalg.eigh(a)[0]


def smallest_eigenpairs(a, k):
    return spla.eigsh(a, k)
"""
CLEAN_SOURCES = {
    "src/displab/eigensolve.py": SOLVERS + """

def routine(name):
    import ctypes

    from scipy.linalg import cython_lapack

    capsule = cython_lapack.__pyx_capi__[name]
    get = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object)(("PyCapsule_GetPointer", ctypes.pythonapi))
    return get(capsule)
""",
    "src/displab/spectral_stats.py": """\
def count_rows(family, seed):
    return family, seed
""",
    "src/displab/cli.py": """\
from .eigensolve import dense_levels
from .spectral_stats import count_rows


def run_ids(cfg, seed=0):
    return dense_levels(count_rows(cfg, seed))


def run_verify_all(cfg):
    import numpy as np

    return np.linalg.eigvalsh(cfg)
""",
    "src/displab/checked.py": """\
class SupportSet:
    def contains(self, x, tol):
        return x <= tol


class FieldScanReport:
    argmin_config: tuple


class BandBottom:
    phi0: tuple


class GradientLimitTable:
    @property
    def decreasing(self):
        return True
""",
    "src/displab/reduced.py": """\
import numpy as np

from .discretize import DiagonalStack, periodic_laplacian


def build_reduced(d, side, diags):
    lap, where = periodic_laplacian(d, side, 1.0)
    return DiagonalStack(lap, where, diags)


def assemble(d, side, diags):
    return DiagonalStack(*periodic_laplacian(d, side, 1.0), diags)


def ground_zero_iff_constant(model):
    return np.linalg.eigvalsh(model)[0]


def sandwich_check(low, up):
    return np.linalg.eigvalsh(low)[0], np.linalg.eigvalsh(up)[0]
""",
    "perfbench/run.py": """\
from displab.cli import run_ids

run_ids({}, seed=1)
run_ids({})
""",
}
CLEAN_CONFIGS = {"src/displab/presets/a.ini": "[run]\nkind = ids\nseed = 0\n"}
CLEAN_SCHEMA = ("run.kind", "run.seed", *UNSHIPPED_KEYS)

# (rule, files replaced or added, schema keys added, the one line the rule gives)
PLANTED = [
    (
        private_imports,
        {"src/displab/twin.py": "from .cli import _helper\n\n_helper()\n"},
        (),
        "src/displab/twin.py:1 imports _helper from a sibling module",
    ),
    (
        thread_imports,
        {"src/displab/pool.py": "from concurrent.futures import ThreadPoolExecutor\n\nThreadPoolExecutor()\n"},
        (),
        "src/displab/pool.py:1 imports concurrent.futures",
    ),
    (
        unused_imports,
        {"src/displab/__init__.py": "from .cli import run_ids\n"},
        (),
        "src/displab/__init__.py:1 imports run_ids, which the module never uses",
    ),
    (
        unused_imports,
        {"src/displab/__init__.py": '__all__ = ["x"]\n'},
        (),
        "src/displab/__init__.py:1 binds __all__",
    ),
    (
        unread_members,
        {"src/displab/report.py": "class Report:\n    energy: float\n"},
        (),
        "src/displab/report.py:2 Report.energy (field) is never read",
    ),
    (
        unread_members,
        {"perfbench/tracer.py": "def zeta(b):\n    return b.phi0\n"},
        (),
        "BandBottom.phi0 is in ONLY_CHECKED but is read in src/ or perfbench/, or gone",
    ),
    (
        dense_spectra_outside_eigensolve,
        {"src/displab/floquet.py": "import scipy.linalg\n\n\ndef levels(a):\n    return scipy.linalg.eigh(a)\n"},
        (),
        "src/displab/floquet.py:5 calls scipy.linalg.eigh",
    ),
    (
        dense_spectra_outside_eigensolve,
        {"src/displab/floquet.py": "import numpy as np\n\n\ndef levels(a):\n    return np.linalg.eigvalsh(a)\n"},
        (),
        "src/displab/floquet.py:5 calls np.linalg.eigvalsh",
    ),
    (
        dense_spectra_outside_eigensolve,
        {
            "src/displab/cli.py": CLEAN_SOURCES["src/displab/cli.py"].replace(
                "np.linalg.eigvalsh(cfg)", "np.sort(cfg)"
            )
        },
        (),
        "cli.run_verify_all is in KEPT_EIGVALSH but calls no eigvalsh, or is gone",
    ),
    (
        idle_defaults,
        {"perfbench/run.py": "from displab.cli import run_ids\n\nrun_ids({})\n"},
        (),
        "src/displab/cli.py:5 run_ids: no call sets seed",
    ),
    (
        idle_defaults,
        {"perfbench/run.py": "from displab.cli import run_ids\n\nrun_ids({}, 1)\n"},
        (),
        "src/displab/cli.py:5 run_ids: every call sets seed",
    ),
    (
        arpack_outside_smallest_eigenpairs,
        {
            "src/displab/eigensolve.py": SOLVERS + "\n\ndef ritz(a):\n    return spla.eigsh(a, 1)\n"
        },
        (),
        "src/displab/eigensolve.py:14 uses spla.eigsh",
    ),
    (
        batches_outside_runners,
        {"src/displab/assumptions.py": "from .spectral_stats import count_rows\n\ncount_rows(None, 0)\n"},
        (),
        "src/displab/assumptions.py:3 calls count_rows",
    ),
    (
        unset_config_keys,
        {},
        ("ids.n_samples",),
        "ids.n_samples: no shipped config sets it",
    ),
    (
        stacks_off_the_laplacian,
        {
            "src/displab/reduced.py": (
                "import scipy.sparse as sp\n\nfrom .discretize import DiagonalStack, periodic_laplacian\n"
                "\n\ndef build_reduced(d, side, diags):\n"
                "    where = periodic_laplacian(d, side, 1.0)[1]\n"
                '    return DiagonalStack(sp.identity(side ** d, format="csr"), where, diags)\n'
            )
        },
        (),
        "src/displab/reduced.py:8 builds a DiagonalStack on sp.identity(side ** d, format='csr'), "
        "not on a periodic_laplacian of the same function",
    ),
    (
        stacks_off_the_laplacian,
        {
            "src/displab/reduced.py": (
                "from .discretize import DiagonalStack, periodic_laplacian\n"
                "\n\ndef stencil(d, side):\n"
                "    lap, where = periodic_laplacian(d, side, 1.0)\n"
                "    return lap, where\n"
                "\n\ndef build_reduced(d, side, diags):\n"
                "    lap, where = stencil(d, side)\n"
                "    return DiagonalStack(lap, where, diags)\n"
            )
        },
        (),
        "src/displab/reduced.py:11 builds a DiagonalStack on lap, "
        "not on a periodic_laplacian of the same function",
    ),
    (
        lapack_pointers_outside_eigensolve,
        {"src/displab/floquet.py": "import ctypes\n\nGET = ctypes.pythonapi.PyCapsule_GetPointer\n"},
        (),
        "src/displab/floquet.py:3 reaches LAPACK by pointer (PyCapsule_GetPointer)",
    ),
]


@pytest.mark.parametrize("rule, planted, keys, line", PLANTED, ids=[case[-1] for case in PLANTED])
def test_each_rule_names_a_planted_violation(rule, planted, keys, line):
    tree = index_of({**CLEAN_SOURCES, **planted}, CLEAN_CONFIGS, CLEAN_SCHEMA + keys)
    assert rule(tree) == [line]


def test_every_rule_has_a_planted_violation():
    assert {case[0] for case in PLANTED} == set(RULES)
