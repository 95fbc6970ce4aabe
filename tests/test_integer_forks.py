"""The functions of the package that fork to the integer core.

Over F_p and Q a function may branch to an int loop instead of the field
methods.  Each such fork is a second implementation of one concept, kept
only where a workload spends time in it, so the forks of every module of
the package are pinned as a literal set, and a fork added or deleted shows
up in a diff.  A function forks when an `if` (statement or expression) of
its own, outside nested definitions, tests `INTEGER_CORE`, or tests against
None either `lifted`, a name assigned from a `.lifted` attribute, or an
attribute `_flat`, `lifted` or `_lifted` (the flat table of an Algebra,
the lift of a linalg.Matrix and the slot that holds it).
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "csawitness"
NESTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def functions(body, prefix=""):
    """(qualified name, node) of the functions and methods in body."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from functions(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node


def own_nodes(fn):
    """The nodes of fn's body and arguments, outside nested definitions."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if not isinstance(node, NESTED):
            yield node
            stack.extend(ast.iter_child_nodes(node))


LIFTED_ATTRIBUTES = ("_flat", "lifted", "_lifted")


def _is_none_test(node, names):
    """node is `x is None` or `x is not None`, x one of names or an
    attribute named in LIFTED_ATTRIBUTES."""
    if not (isinstance(node, ast.Compare) and len(node.ops) == 1
            and isinstance(node.ops[0], (ast.Is, ast.IsNot))
            and isinstance(node.comparators[0], ast.Constant)
            and node.comparators[0].value is None):
        return False
    x = node.left
    return ((isinstance(x, ast.Name) and x.id in names)
            or (isinstance(x, ast.Attribute) and x.attr in LIFTED_ATTRIBUTES))


def forks(fn):
    nodes = list(own_nodes(fn))
    names = {"lifted"} | {
        target.id for node in nodes if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Attribute) and node.value.attr == "lifted"
        for target in node.targets if isinstance(target, ast.Name)}
    return any((isinstance(sub, ast.Name) and sub.id == "INTEGER_CORE")
               or _is_none_test(sub, names)
               for node in nodes if isinstance(node, (ast.If, ast.IfExp))
               for sub in ast.walk(node.test))


def forking_functions(source, module):
    return {f"{module}.{name}" for name, fn in functions(ast.parse(source).body)
            if forks(fn)}


def test_integer_forks_are_these():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= forking_functions(path.read_text(), path.stem)
    assert found == {
        # linalg: a Matrix lifts only over F_p and Q; the elimination behind
        # rref, pivots and rank, membership and products, which workloads
        # time; kernel lowers only the kernel vectors of int rows (the
        # commutator kernels of connect_exp2: 2.2 % of build_q, 4.7 % of
        # build_fp operation time); the intertwiner check compares the int
        # products of anti_automorphism_mismatch, so an involution's matrix
        # is never lowered
        "linalg.Matrix.lifted", "linalg._echelon", "linalg.mat_vec",
        "linalg.in_row_space", "linalg.kernel", "linalg.intertwiner_mismatch",
        # algebra: the product, the commutator rows (for rank and kernel),
        # the int multiplication matrices of the anti-automorphism check and
        # the Krylov elimination of the inverse
        "algebra.Algebra.__init__", "algebra.Algebra.mul",
        "algebra.Algebra.commutator_rows", "algebra.Algebra.sandwich_matrix",
        "algebra.Algebra.anti_automorphism_mismatch", "algebra.Algebra.inverse",
        # etale: the first dependency of the int powers, held lifted (F_{p^k}
        # takes linalg.dependency), and equality on the lifted rref basis,
        # which over F_p and Q is canonical
        "etale.generate_etale", "etale.EtaleSubalgebra.__init__",
        # ideals: the left-unit system of a splitting idempotent, built as
        # int products and solved off its rref's lift, and the D-rows of a
        # module presentation as int products (3.7 % of build_q)
        "ideals.splitting_idempotent", "ideals.ModulePresentation._d_rows",
        # involutions: Sym as the int kernel of the lifted matrix minus its
        # scale, so a twisted involution is never lowered (0.8 % of build_q,
        # 1.6 % of build_fp; about three times that on the lowered matrix)
        "involutions.sym_basis",
        # poly: F_p[x] gcds
        "poly.poly_gcd", "poly.poly_squarefree",
        # polyrings: the etale validity as one Z[t] determinant of the pencil
        # minimal polynomial solved on ints from the rows it needs; its F[t]
        # form took 13 % of build_q and 9 % of build_fp operation time.
        # pencil_min_poly itself eliminates the whole system by rref, on
        # F_{p^k} alone in the pipelines
        "polyrings.pencil_discriminant",
        # witness: the ideal-pencil rank minors as Z[t] determinants; their
        # F[t] form (_subspace_validity) took 7.5 % of build_fp and 6.1 % of
        # build_q operation time
        "witness._pencil_validity",
    }


def test_a_fork_is_caught():
    source = (
        "def by_type(f):\n"
        "    return 1 if isinstance(f, INTEGER_CORE) else 2\n"
        "def by_lift(m):\n"
        "    la = m.lifted\n"
        "    if la is not None:\n"
        "        return la\n"
        "def by_value(m):\n"
        "    return 0 if m.lifted is None else 1\n"
        "def by_lifted_slot(m):\n"
        "    return 0 if m._lifted is None else 1\n"
        "class A:\n"
        "    def by_table(self):\n"
        "        if self._flat is None:\n"
        "            return 0\n"
        "    def by_argument(self, lifted=None):\n"
        "        if lifted is None:\n"
        "            return 0\n"
        "def other_none(x):\n"
        "    if x is None:\n"
        "        return 0\n"
        "def only_nested():\n"
        "    def inner(lifted):\n"
        "        return 0 if lifted is None else 1\n"
        "    return inner\n"
        "def unbranched(f):\n"
        "    return INTEGER_CORE\n")
    assert forking_functions(source, "m") == {
        "m.by_type", "m.by_lift", "m.by_value", "m.A.by_table", "m.A.by_argument",
        "m.by_lifted_slot"}
