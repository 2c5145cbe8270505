"""Every module-level function and class in src/crossmae, and every method
and property of such a class, has a caller in src.

A definition counts as reached when its name appears as a `Name` or as an
`Attribute` anywhere in the package outside the definition itself. The match
is by name only, so `x.mean()` on an array also reaches `tape.mean`; the check
catches definitions whose name nothing in the package mentions. Dunder
methods are called by Python itself and are not checked. Names kept for
callers outside the package are listed in KEEP, each with its reason.
"""

import ast
import importlib.util
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "crossmae"

KEEP = {
    "tape.slice_": "perfbench/tracer.py wraps it by name (ROADMAP item 1)",
    "tape.concat": "perfbench/tracer.py wraps it by name (ROADMAP item 1)",
    "tape.transpose": "perfbench/tracer.py wraps it by name (ROADMAP item 1)",
    "tape.softmax": "perfbench/tracer.py wraps it by name (ROADMAP item 1)",
    "tape.mean": "perfbench/tracer.py wraps it by name (ROADMAP item 1)",
    "model.alignment_identity": "acceptance criterion 10",
    "kcca.kcca_solve": "acceptance criterion 05",
    "model.ModelState.fingerprint": "acceptance criterion 09",
}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _module_name(path: Path) -> str:
    rel = path.relative_to(PACKAGE).with_suffix("")
    parts = rel.parts[:-1] if rel.name == "__init__" else rel.parts
    return ".".join(parts) or "crossmae"


def _referenced(node) -> set:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _definitions() -> tuple:
    """(qualified name, bare name, units it spans) of every module-level
    function and class and of every non-dunder method of such a class, plus
    the names each unit refers to. A unit is a top-level statement, or one
    statement of a top-level class body (its decorators and bases form one
    more unit of the class)."""
    definitions = []
    refs = {}  # unit key -> names referenced in that unit
    for path in sorted(PACKAGE.rglob("*.py")):
        module = _module_name(path)
        for i, stmt in enumerate(ast.parse(path.read_text()).body):
            if not isinstance(stmt, ast.ClassDef):
                refs[(path, i)] = _referenced(stmt)
                if isinstance(stmt, FUNCTIONS):
                    definitions.append((f"{module}.{stmt.name}", stmt.name, {(path, i)}))
                continue
            refs[(path, i, "head")] = set().union(
                *(_referenced(node) for node in stmt.decorator_list + stmt.bases))
            units = {(path, i, "head")}
            for j, sub in enumerate(stmt.body):
                refs[(path, i, j)] = _referenced(sub)
                units.add((path, i, j))
                if isinstance(sub, FUNCTIONS) and not sub.name.startswith("__"):
                    definitions.append((f"{module}.{stmt.name}.{sub.name}", sub.name,
                                        {(path, i, j)}))
            definitions.append((f"{module}.{stmt.name}", stmt.name, units))
    return definitions, refs


def _unreached() -> set:
    """Qualified names of definitions no other code refers to."""
    definitions, refs = _definitions()
    return {qual for qual, name, where in definitions
            if not any(name in names for key, names in refs.items() if key not in where)}


def test_every_definition_is_reached_from_the_package():
    unreached = _unreached() - KEEP.keys()
    assert not unreached, (
        f"defined but never referenced in src/crossmae: {sorted(unreached)}; "
        "give each a caller, delete it with its tests, or add it to KEEP with a reason")


def test_keep_list_names_existing_definitions():
    defined = {qual for qual, _, _ in _definitions()[0]}
    stale = KEEP.keys() - defined
    assert not stale, f"KEEP entries that are no longer defined: {sorted(stale)}"


def test_tape_backward_rules_return_gradients_and_add_into_nothing():
    """A backward rule, any function nested in a crossmae.tape primitive,
    returns one gradient per operand: it neither tests an operand's type
    (DiffArray) nor reads or adds into a gradient (grad, _grad, accumulate).
    Only Tape.backward adds gradients into tracked operands."""
    forbidden = {"DiffArray", "grad", "_grad", "accumulate"}
    rules, offenders = 0, []
    for stmt in ast.parse((PACKAGE / "tape.py").read_text()).body:
        if not isinstance(stmt, FUNCTIONS):
            continue
        for inner in ast.walk(stmt):
            if inner is stmt or not isinstance(inner, FUNCTIONS):
                continue
            rules += 1
            for node in ast.walk(inner):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name in forbidden:
                    offenders.append(f"{stmt.name}.{inner.name}, line {node.lineno}: {name}")
    assert rules >= 17, f"found only {rules} backward rules in crossmae.tape"
    assert not offenders, f"backward rules that touch an operand: {offenders}"


def test_perfbench_tracer_installs_and_restores_its_patches():
    """perfbench/tracer.py wraps every name in its LAYERS, TAPE_OTHER and
    METHODS by name; renaming or deleting one of them breaks its per-layer
    run at install."""
    import crossmae.model
    import crossmae.tape

    path = PACKAGE.parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    matmul, binding_init = crossmae.tape.matmul, crossmae.model.Binding.__init__
    with tracer.Tracer():
        assert crossmae.tape.matmul.__wrapped__ is matmul
        assert crossmae.model.Binding.__init__ is not binding_init
    assert crossmae.tape.matmul is matmul
    assert crossmae.model.Binding.__init__ is binding_init
