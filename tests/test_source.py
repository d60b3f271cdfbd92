"""Source-level checks on the blockplan package."""

import ast
from pathlib import Path

import blockplan

PACKAGE = Path(blockplan.__file__).parent


def test_no_function_level_imports():
    """Every import sits at the top of its module: the package has no import
    cycle that an import inside a function body would have to work around."""
    sites = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                sites.update(
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                )
    assert not sites, sorted(sites)


def test_no_unused_imports():
    """Every name a module imports at its top level is used in that module;
    the package ``__init__`` only re-exports, so it is left out."""
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        imported.pop("annotations", None)  # from __future__ import annotations
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused.update(
            f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used
        )
    assert not unused, sorted(unused)


def _names_used(tree, skip=None) -> set:
    """Every ``ast.Name`` id and ``ast.Attribute`` attr in ``tree``, leaving
    out the subtree ``skip``."""
    used, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return used


def test_no_unreferenced_functions():
    """Every module-level function of the package is referenced somewhere in
    the repository's source, tests, demos or benchmark, outside its own
    definition; references a function makes to itself do not count."""
    root = Path(__file__).resolve().parent.parent
    files = [p for d in ("src", "tests", "demos", "perfbench") for p in (root / d).rglob("*.py")]
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in files}
    used_by = {path: _names_used(tree) for path, tree in trees.items()}
    unreferenced = []
    for path in sorted((root / "src" / "blockplan").glob("*.py")):
        tree = trees[path]
        elsewhere = set().union(*(used for p, used in used_by.items() if p != path))
        for func in tree.body:
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if func.name not in elsewhere | _names_used(tree, skip=func):
                    unreferenced.append(f"{path.name}:{func.lineno} {func.name}")
    assert not unreferenced, unreferenced


def test_range_rules_written_once():
    """No ``__post_init__`` builds a ``must be >``, ``must be <`` or ``must
    be in`` message itself: every range rule goes through ``world.require``."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and func.name == "__post_init__":
                sites.extend(
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(func)
                    if isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and any(
                        rule in node.value for rule in ("must be >", "must be <", "must be in")
                    )
                )
    assert not sites, sites


def test_only_world_compares_with_the_sentinel():
    """No module but ``world.py`` compares a value with ``SENTINEL_POS``, by an
    operator or an equality function: a lost block is told by its negative
    coordinate, in ``world.goal_distance`` for a stack and ``world.lost_rows``
    for one state."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "world.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
            elif isinstance(node, ast.Call) and _names_used(node.func) & {
                "array_equal", "array_equiv", "allclose", "isclose", "equal", "not_equal"
            }:
                operands = node.args
            else:
                continue
            if any("SENTINEL_POS" in _names_used(op) for op in operands):
                sites.append(f"{path.name}:{node.lineno}")
    assert not sites, sites


def _dotted(node) -> list[str]:
    """The dotted names an import, a name or an attribute chain spells."""
    if isinstance(node, ast.ImportFrom):
        return [f"{node.module}.{alias.name}" for alias in node.names]
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, (ast.Name, ast.Attribute)):
        return [ast.unparse(node).replace("np.", "numpy.")]
    return []


def test_only_seeding_builds_generators():
    """No module but ``seeding.py`` names ``default_rng``, ``SeedSequence``,
    ``PCG64``, ``Philox``, ``ISeedSequence``, ``bit_generator`` or
    ``numpy.random``: every generator comes from ``seeding.rng_from`` or, for
    a plan's rollouts, from ``seeding.rollout_streams``, whose known first
    draws `test_seeding` pins, so one module turns every seed into its
    generator. Other modules name the generator type as ``seeding.Rng``."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "seeding.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if any(
                word in name
                for name in _dotted(node)
                for word in (
                    "default_rng",
                    "SeedSequence",
                    "PCG64",
                    "Philox",
                    "bit_generator",
                    "numpy.random",
                )
            ):
                sites.append(f"{path.name}:{node.lineno}")
    assert not sites, sites


def test_no_numpy_hypot_or_einsum_in_the_geometry():
    """``world.py`` and ``submodels.py`` use neither ``np.hypot`` nor
    ``np.einsum``: both differ in the last bit from the norm rule that traces
    depend on, the square root of the sum of two rounded squares."""
    sites = []
    for name in ("world.py", "submodels.py"):
        tree = ast.parse((PACKAGE / name).read_text(), filename=name)
        sites.extend(
            f"{name}:{node.lineno} {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("hypot", "einsum")
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        )
    assert not sites, sites


def _reduces_last_axis(node) -> bool:
    """Whether ``node`` calls a ``.reduce`` over axis -1."""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "reduce"
    ):
        return False
    axes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "axis"]
    return any(ast.unparse(axis) == "-1" for axis in axes)


def test_one_spelling_per_norm_and_draw():
    """One rule for every norm: the square root of the sum of two rounded
    squares, ``math.sqrt(dx * dx + dy * dy)`` on Python floats and
    `world.norms` on arrays, which round alike on every IEEE host
    (``tests/test_numpy_forms.py``). So no
    module names a ``dot``, bound or called, multiplies with ``@`` or names
    anything ``hypot``, ``linalg`` or ``einsum``: a BLAS dot product rounds
    as its CPU kernel does, and ``hypot`` and ``einsum`` differ from the rule
    in the last bit. No module calls a ``.reduce`` over axis -1 either: over
    the 2-wide last axis of a norm it adds the same two squares as
    `world.norms`, at several times the cost of its two-column sum (the
    centroid sums over axes 0 and 1 stay). Nor does a module call a ``.choice(``: a proposal draw searches
    the cumulative weights, equal to ``Generator.choice`` without its
    per-call checks."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            parts = {part for name in _dotted(node) for part in name.split(".")}
            if (
                parts & {"dot", "hypot", "linalg", "einsum"}
                or isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.MatMult)
                or _reduces_last_axis(node)
                or isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "choice"
            ):
                sites.append(f"{path.name}:{node.lineno}")
    assert not sites, sites


def test_no_module_calls_idealized_outcome():
    """No module calls the one-action ``idealized_outcome``: the search and
    the oracle expand states through ``idealized_outcomes``, and the
    one-action form is only the reference that tests pin it to."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and "idealized_outcome" in _names_used(node.func):
                sites.append(f"{path.name}:{node.lineno}")
    assert not sites, sites


def test_the_true_step_runs_on_python_floats():
    """``world.step_true``, ``_resolve_collisions`` and ``_clamp`` call no
    ``np.*`` function but the one ``np.array`` that ``step_true`` returns:
    the step runs on Python floats, whose per-call cost a numpy call on two
    or twelve numbers would dwarf."""
    tree = ast.parse((PACKAGE / "world.py").read_text(), filename="world.py")
    funcs = {
        f.name: f
        for f in tree.body
        if isinstance(f, ast.FunctionDef) and f.name in ("step_true", "_resolve_collisions", "_clamp")
    }
    assert len(funcs) == 3
    calls = [
        (name, node)
        for name, func in funcs.items()
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and any(n.startswith("numpy.") for n in _dotted(node.func))
    ]
    sites = [f"{name}:{node.lineno} {ast.unparse(node.func)}" for name, node in calls]
    assert [(name, _dotted(node.func)) for name, node in calls] == [
        ("step_true", ["numpy.array"])
    ], sites
    returned = funcs["step_true"].body[-1]
    assert isinstance(returned, ast.Return) and calls[0][1] in list(ast.walk(returned)), sites


def test_the_control_path_runs_on_python_floats():
    """Per control, the closed loop checks completion and asks a controller
    for the next push: ``world.is_complete``, ``reward``, ``satisfied_rows``,
    ``lost_rows`` and ``ControlAction.bounded``, and in ``submodels.py`` the
    controllers, their discrepancies and their argmax, call no ``np.*``
    function. Each reads a state's positions with one ``tolist``."""
    wanted = {
        "world.py": {"is_complete", "reward", "satisfied_rows", "lost_rows", "bounded"},
        "submodels.py": {
            "_goal_discrepancies", "_largest", "goal_policy", "inverse_dynamics", "_controller"
        },
    }
    sites, found = [], set()
    for name, funcs in wanted.items():
        tree = ast.parse((PACKAGE / name).read_text(), filename=name)
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and func.name in funcs:
                found.add(func.name)
                sites.extend(
                    f"{name}:{node.lineno} {func.name} {ast.unparse(node.func)}"
                    for node in ast.walk(func)
                    if isinstance(node, ast.Call)
                    and any(n.startswith("numpy.") for n in _dotted(node.func))
                )
    assert found == set().union(*wanted.values())
    assert not sites, sites


def test_target_point_and_rollout_sum_without_compensation():
    """``Target.point`` and ``rollout_dynamics`` call neither the built-in
    ``sum`` nor ``math.fsum``. From Python 3.12 ``sum`` compensates float
    sums, and ``fsum`` always does, so either would move a centroid's bits
    away from ``np.add.reduce``'s plain sum on an interpreter CI does not
    run."""
    tree = ast.parse((PACKAGE / "submodels.py").read_text(), filename="submodels.py")
    (target,) = [c for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "Target"]
    funcs = [f for f in target.body if isinstance(f, ast.FunctionDef) and f.name == "point"]
    funcs += [
        f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "rollout_dynamics"
    ]
    assert [f.name for f in funcs] == ["point", "rollout_dynamics"]
    sites = [
        f"{func.name}:{node.lineno} {ast.unparse(node.func)}"
        for func in funcs
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("sum", "fsum", "math.fsum")
    ]
    assert not sites, sites
