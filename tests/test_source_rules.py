"""Rules on the source itself: decision procedures in ``cppc`` do not
enumerate subsets, only the reference oracles may; no module imports another
one's private names; only ``cones`` searches CP factors, so every CP verdict
comes from one place; every spectrum but the references' and the
interior-point step length's comes from the checked ``sym_eigh``; only
``cones`` reads a ground cone's factors; the arm width ``n2`` is named only
where the pattern checks it and the JSON schema carries it; no module reads
the leftover ``SolveOptions.polish`` field; and every function the
benchmark's tracer wraps exists and reads what it records, and the
benchmark's completion adaptor still passes its gates."""

import ast
import pathlib
import re

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


#: Owners that may call numpy's eigensolvers directly: ``sym_eigh`` itself,
#: the reference oracles, and the interior-point step length, which
#: certifies nothing and runs twice per step.
RAW_EIGEN = {("matrix_core.py", "sym_eigh"), ("oracles.py", None),
             ("conic_solver.py", "_step_to_boundary")}


def test_cones_spectra_come_from_the_checked_path():
    found, violations = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        spans = owner_spans(tree)
        for line in eigen_calls(tree):
            owner = max([(a, name) for a, b, name in spans if a <= line <= b],
                        default=(0, None))[1]
            if (path.name, None) in RAW_EIGEN or (path.name, owner) in RAW_EIGEN:
                found.add((path.name, None if (path.name, None) in RAW_EIGEN else owner))
            else:
                violations.append(f"{path.name}:{line} ({owner})")
    assert violations == []
    # The scan sees every allowed call, so an empty list is not vacuous.
    assert found == RAW_EIGEN


def test_eigen_scan_sees_both_forms():
    code = (
        "import numpy as np\n"
        "from numpy.linalg import eigvalsh\n"
        "def f(m):\n"
        "    return np.linalg.eigh(m), eigvalsh(m), jacobi_eigh(m)\n"
    )
    assert eigen_calls(ast.parse(code)) == [4, 4]


#: (module, owner) that may name the arm width ``n2``, which must be 1: the
#: pattern that checks it and the JSON reader and keys that carry it.  An
#: owner covers its methods.
WIDTH_OWNERS = {
    ("matrix_core.py", "ArrowheadPattern"),
    ("matrix_core.py", "PartialMatrix.from_json_dict"),
    ("cli.py", "_COMPLETION_KEYS"),
}


def owner_spans(tree):
    """``(first line, last line, name)`` of every top-level class, function
    and assigned name, and of every method as ``Class.method``."""
    spans = []
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            spans.append((top.lineno, top.end_lineno, top.name))
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            targets = top.targets if isinstance(top, ast.Assign) else [top.target]
            spans += [(top.lineno, top.end_lineno, t.id) for t in targets
                      if isinstance(t, ast.Name)]
        if isinstance(top, ast.ClassDef):
            spans += [(node.lineno, node.end_lineno, f"{top.name}.{node.name}")
                      for node in top.body if isinstance(node, ast.FunctionDef)]
    return spans


def width_mentions(source):
    """``(line, innermost owner or None)`` of every line that names ``n2``,
    in code, strings or comments."""
    spans = owner_spans(ast.parse(source))
    mentions = []
    for k, line in enumerate(source.splitlines(), start=1):
        if re.search(r"\bn2\b", line):
            inner = [(a, name) for a, b, name in spans if a <= k <= b]
            mentions.append((k, max(inner)[1] if inner else None))
    return mentions


def test_width_named_only_by_the_pattern_and_the_json_schema():
    found, violations = set(), []
    for path in sorted(SRC.glob("*.py")):
        for line, owner in width_mentions(path.read_text()):
            allowed = {name for module, name in WIDTH_OWNERS if module == path.name
                       and owner is not None
                       and (owner == name or owner.startswith(name + "."))}
            if allowed:
                found |= {(path.name, name) for name in allowed}
            else:
                violations.append(f"{path.name}:{line} ({owner})")
    assert violations == []
    # The scan sees every allowed owner, so an empty list is not vacuous.
    assert found == WIDTH_OWNERS


def test_width_scan_sees_code_strings_and_nesting():
    code = (
        "KEYS = {'n1',\n"
        "        'n2'}\n"
        "class P:\n"
        "    n2: int\n"
        "    def f(self):\n"
        "        return self.n2  # n2\n"
        "def g(n21, n2_):\n"
        "    return n2\n"
    )
    assert width_mentions(code) == [(2, "KEYS"), (4, "P"), (6, "P.f"), (8, "g")]


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


def factor_reads(tree):
    """Lines of every read of an attribute named ``factors``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "factors"]


def test_only_cones_reads_cone_factors():
    readers = {path.name for path in sorted(SRC.glob("*.py"))
               if factor_reads(ast.parse(path.read_text()))}
    # The scan sees the reads in cones, so the rule is not vacuous.
    assert readers == {"cones.py"}
    tests = pathlib.Path(__file__).parent
    assert not [path.name for path in sorted([*SRC.glob("*.py"), *tests.glob("*.py")])
                if path.name != pathlib.Path(__file__).name
                and "coordinate_kinds" in path.read_text()]


def test_factor_scan_sees_attribute_reads():
    code = (
        "def f(K, cone):\n"
        "    factors = K.factors\n"
        "    return [d for _, d in cone.K0.factors], factors\n"
    )
    assert factor_reads(ast.parse(code)) == [2, 3]


def polish_reads(tree):
    """Lines of every read of an attribute named ``polish``, directly or by
    ``getattr`` with a constant name."""
    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr == "polish")
            or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "getattr" and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant) and node.args[1].value == "polish")]


def test_no_module_reads_the_polish_field():
    # SolveOptions.polish stays only so that callers that pass it keep
    # working; a read would give it a meaning again.
    assert {path.name: polish_reads(ast.parse(path.read_text()))
            for path in sorted(SRC.glob("*.py"))} == {path.name: [] for path in sorted(SRC.glob("*.py"))}
    assert "polish" in SolveOptions.__dataclass_fields__


def test_polish_scan_sees_attribute_reads():
    code = (
        "def f(opts, report):\n"
        "    on = opts.polish\n"
        "    return on or getattr(report, 'polish'), report.polished\n"
    )
    assert polish_reads(ast.parse(code)) == [2, 3]
