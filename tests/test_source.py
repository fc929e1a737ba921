import ast
import builtins
import importlib
import inspect
import re
from pathlib import Path

import qf
import qf.groups
from qf.cli import _INPUT_ERRORS, _INTERNAL_ERRORS
from qf.groups import BranchedCover, CosetTable, Overflow


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so invariants must raise instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(qf.__file__).parent.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_every_exported_name_resolves():
    assert [name for name in qf.__all__ if not hasattr(qf, name)] == []


def test_every_public_exception_has_an_exit_code():
    # the CLI maps each exception that qf defines to exit 2, 3 or 5; a private
    # one (_CapHit) is caught where it is raised
    classes = {}
    for path in sorted(Path(qf.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                bases = [b.id for b in node.bases if isinstance(b, ast.Name)]
                classes[node.name] = (f"qf.{path.stem}", bases)

    def is_exception(name):
        if name in classes:
            return any(is_exception(base) for base in classes[name][1])
        builtin = getattr(builtins, name, None)
        return isinstance(builtin, type) and issubclass(builtin, BaseException)

    public = [getattr(importlib.import_module(module), name)
              for name, (module, _) in classes.items()
              if not name.startswith("_") and is_exception(name)]
    assert sorted(cls.__name__ for cls in public) == [
        "AxiomViolation", "DivisibilityError", "IncompleteTable", "LabelError",
        "MalformedWitness", "MultiComponent", "NotAComplex", "OrientationInconsistent",
        "Overflow", "PDSyntaxError", "ParameterError", "TableMismatch"]
    assert [cls.__name__ for cls in public
            if cls is not Overflow and not issubclass(cls, _INPUT_ERRORS + _INTERNAL_ERRORS)] == []


def test_no_group_table_layer():
    # pi1(M_n) is a group and GAlex(pi1, phi) a quandle by the lemma of
    # qf.verify, and the witness reads its columns off G_n's table over <m>,
    # with no regular table of G_n; the validated Cayley table of pi1 and its
    # automorphism are the tests' reference (cover_reference), not the package's
    gone = {"FiniteGroupElementSet", "GroupAutomorphism", "AutomorphismInvalid", "galex",
            "enumerate_regular"}
    found = [f"{path.stem}.{node.name}"
             for path in sorted(Path(qf.__file__).parent.glob("*.py"))
             for node in ast.parse(path.read_text()).body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in gone]
    assert found == []
    assert [name for name in ("group", "phi", "longitude") if hasattr(BranchedCover, name)] == []


def test_integer_elimination_lives_in_intlinalg():
    # one home of integer elimination, with one dense kernel: smith_normal_form
    # takes its dense remainder by alternating hermite_rows, and no other
    # module keeps a Hermite form, an extended gcd, a diagonalization or a rank
    # mod p of its own; rank_mod_p is the elimination over F_p
    elimination = re.compile(r"hermite|smith|xgcd|diagonali[sz]|abelian_group$|rank_mod")
    found = {}
    for path in sorted(Path(qf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and elimination.search(node.name.lower()):
                found.setdefault(path.stem, set()).add(node.name)
    assert found == {"intlinalg": {"abelian_group", "hermite_rows", "rank_mod_p", "smith_normal_form"}}
    # nor calls the dense kernel: pi1 / pi1' is read off the character map of
    # H1, one Smith form, not off a Hermite form of its own
    users = {path.stem for path in Path(qf.__file__).parent.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if "hermite_rows" in (getattr(node, "id", None), getattr(node, "attr", None),
                                   getattr(node, "name", None))}
    assert users == {"intlinalg"}


def test_one_coset_table_constructor():
    # every CosetTable, computed or loaded, is built from its forward columns
    # by the one constructor, which standardizes and proves it in one pass;
    # nothing bypasses it, and no function of its own renumbers a table
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(qf.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.Attribute, ast.Name))
             and (node.attr if isinstance(node, ast.Attribute) else node.id) == "__new__"]
    assert found == []
    assert list(inspect.signature(CosetTable).parameters) == ["ngens", "forward", "subgroup"]
    assert not hasattr(qf.groups, "_standardized_table")
