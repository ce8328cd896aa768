"""Rules on the source itself: decision procedures in ``cppc`` do not
enumerate subsets, only the reference oracles may; no module imports another
one's private names; only ``cones`` searches CP factors, so every CP verdict
comes from one place, and ``cones`` takes every spectrum from the checked
``sym_eigh``; and every function the benchmark's tracer wraps exists and
reads what it records, and the benchmark's completion adaptor still passes
its gates."""

import ast
import pathlib

import cppc
from cppc import completion, conic_solver, qp_relax
from cppc.conic_solver import SolveOptions

from conftest import load_perfbench

SRC = pathlib.Path(cppc.__file__).parent
ENUMERATORS = {"product", "combinations", "combinations_with_replacement", "permutations"}
#: (module, top-level function or None for the whole module) allowed to enumerate.
ALLOWED = {("oracles.py", None)}


def enumerator_uses(tree):
    """``(top-level function or None, line)`` of every use of an itertools
    enumerator, through ``import itertools`` or ``from itertools import``."""
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "itertools"}
        elif isinstance(node, ast.ImportFrom) and node.module == "itertools":
            names |= {a.asname or a.name for a in node.names if a.name in ENUMERATORS}
    uses = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr in ENUMERATORS
                    and isinstance(node.value, ast.Name) and node.value.id in modules):
                uses.append((owner, node.lineno))
            elif isinstance(node, ast.Name) and node.id in names:
                uses.append((owner, node.lineno))
    return uses


def test_subset_enumeration_only_in_oracles():
    found, violations = set(), []
    for path in sorted(SRC.glob("*.py")):
        for owner, line in enumerator_uses(ast.parse(path.read_text())):
            if (path.name, None) in ALLOWED or (path.name, owner) in ALLOWED:
                found.add(path.name)
            else:
                violations.append(f"{path.name}:{line} ({owner})")
    assert violations == []
    # The scan sees the allowed uses, so an empty list is not vacuous.
    assert found == {"oracles.py"}


def test_scan_catches_both_import_forms():
    code = (
        "import itertools as it\n"
        "from itertools import combinations as comb\n"
        "from cppc.cones import product\n"
        "def f(a):\n"
        "    return list(it.product(a, a)), list(comb(a, 2)), product()\n"
    )
    assert enumerator_uses(ast.parse(code)) == [("f", 5), ("f", 5)]


def private_imports(tree):
    """``(line, name)`` of every underscore-prefixed name imported from a
    ``cppc`` module, by relative or absolute import."""
    return [
        (node.lineno, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "cppc")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_no_private_names_cross_modules():
    violations = [
        f"{path.name}:{line} imports {name}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in private_imports(ast.parse(path.read_text()))
    ]
    assert violations == []


def test_private_import_scan_sees_both_forms():
    code = (
        "from .conic_solver import _entry, solve\n"
        "from cppc.cones import _rotate as rot\n"
        "from numpy.linalg import _umath_linalg\n"
        "from . import _private\n"
    )
    assert private_imports(ast.parse(code)) == [(1, "_entry"), (2, "_rotate"), (4, "_private")]


def cp_factorize_calls(tree):
    """Lines of every call of ``cp_factorize``, by bare or dotted name."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "cp_factorize"
             or getattr(node.func, "attr", None) == "cp_factorize")
    ]


def test_only_cones_searches_cp_factors():
    callers = {
        path.name
        for path in sorted(SRC.glob("*.py"))
        if cp_factorize_calls(ast.parse(path.read_text()))
    }
    # The scan sees the calls in cones, so the rule is not vacuous.
    assert callers == {"cones.py"}


def test_cp_factorize_scan_sees_both_forms():
    code = (
        "from cppc import cones\n"
        "from cppc.cones import cp_factorize as cp_factorize\n"
        "def f(m):\n"
        "    return cones.cp_factorize(m), cp_factorize(m, tol=1e-8), cones.is_cp(m)\n"
    )
    assert cp_factorize_calls(ast.parse(code)) == [4, 4]


EIGEN = {"eigh", "eigvalsh"}


def eigen_calls(tree):
    """Lines of every call of numpy's ``eigh`` or ``eigvalsh``, by bare or
    dotted name."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) in EIGEN
             or getattr(node.func, "attr", None) in EIGEN)
    ]


def test_cones_spectra_come_from_the_checked_path():
    assert eigen_calls(ast.parse((SRC / "cones.py").read_text())) == []
    # The scan sees the call that sym_eigh checks, so the rule is not vacuous.
    assert eigen_calls(ast.parse((SRC / "matrix_core.py").read_text()))


def test_eigen_scan_sees_both_forms():
    code = (
        "import numpy as np\n"
        "from numpy.linalg import eigvalsh\n"
        "def f(m):\n"
        "    return np.linalg.eigh(m), eigvalsh(m), jacobi_eigh(m)\n"
    )
    assert eigen_calls(ast.parse(code)) == [4, 4]


def test_tracer_targets_exist(monkeypatch):
    # perfbench/tracer.py wraps each (owner, attr) of TARGETS by name; a
    # renamed or deleted target would break the benchmark, not this suite.
    (tracer,) = load_perfbench(monkeypatch, "tracer")
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in tracer.TARGETS
               if attr not in owner.__dict__]
    assert tracer.TARGETS
    assert missing == []


def test_tracer_readers_see_the_results(monkeypatch, qp_two_constraints, pm_completable):
    # The tracer's readers take program and solver attributes by name: an
    # API change that drops one would empty the per-layer metrics or break
    # the benchmark, not this suite.
    tracer = load_perfbench(monkeypatch, "tracer")[0].Tracer()
    tracer.install()
    try:
        report = qp_relax.exactness_report(qp_two_constraints, SolveOptions(polish=False))
        dense = conic_solver.solve(qp_relax.build_dense_reformulation(qp_two_constraints))
        problem = completion.CompletionProblem.from_partial_matrix(pm_completable)
        completion.certify_completable(problem)
        complete = completion.complete_numeric(problem)
    finally:
        tracer.remove()
    assert report.solution is not None and dense.optimal and complete.completion is not None
    prog = qp_relax.build_sparse_relaxation(qp_two_constraints)
    builds = [s.info for s in tracer.spans if s.name == "qp_relax.build"]
    solves = [s.info for s in tracer.spans if s.name == "conic_solver.solve"]
    assert builds and solves
    assert all(info == {"eq_rows": len(prog.equalities), "num_vars": prog.num_vars}
               for info in builds)
    assert all({"status", "iterations"} <= info.keys() for info in solves)
    assert {"conic_solver.constraint_matrix", "completion.certify",
            "completion.complete_numeric", "cones.is_cp"} <= {s.name for s in tracer.spans}


def test_benchmark_completion_adaptor_passes_its_gates(monkeypatch):
    # perfbench/workloads.py reads the partial matrix and the certified data
    # by layout (pm.X, pm.Z, pm.Y, data.f, data.g, data.d); a layout change
    # that breaks its gates would otherwise only show under pytest perfbench.
    _, cases, _, _, workloads = load_perfbench(monkeypatch, "gates", "cases", "speed",
                                               "tracer", "workloads")
    picked = {c.name: c for c in cases.make_cases("completion", 7)
              if c.name in ("rank1-n8-S10", "positive-n6-S10")}
    assert len(picked) == 2
    for case in picked.values():
        ref = workloads.reference(case)
        result = workloads.ENTRY["completion"](case, ref)
        # Certified, so the certificate gate reads the data too.
        assert result["verdict"] == "Certified", case.name
        assert workloads.check(case, ref, result) == (None, []), case.name
