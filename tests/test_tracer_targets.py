"""The benchmark tracer's patch targets still exist where it looks for them.

benchmarks/tracer.py wraps ``cls.__dict__[attr]`` for each law's own
quantile, Tilted's construction and table build and the PathBatch
functionals.  A name it does not find there is only listed as missing, so
a refactor that moved one of them (say quantile to the base class) would
silently zero that layer's metrics.  This test reads the tracer with ast,
without importing or installing it, and checks that every (class,
attribute) it patches is in that class's own __dict__.
"""

import ast
import pathlib

from cmpplab import dist, expr, sim

TRACER = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
MODULES = {"dist": dist, "expr": expr, "sim": sim}


def tracer_patches():
    """The tracer's module-level constants, and every (module, class,
    attribute) its patch_method calls name, with loop variables over
    constant tuples expanded."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    consts = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            try:
                consts[node.targets[0].id] = ast.literal_eval(node.value)
            except ValueError:  # not a literal (PER_LAYER is built by comprehensions)
                pass

    def loop_values(it):
        if isinstance(it, ast.Name):
            return consts.get(it.id)
        try:
            return ast.literal_eval(it)
        except ValueError:
            return None

    def values(node, loops):
        if isinstance(node, ast.Constant):
            return [node.value]
        assert isinstance(node, ast.Name) and loops.get(node.id) is not None, ast.dump(node)
        return loops[node.id]

    found = set()

    def visit(node, loops):
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name):
            loops = {**loops, node.target.id: loop_values(node.iter)}
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "patch_method"):
            cls_expr, attr_expr = node.args[:2]
            # getattr(<module>, <class name>, None)
            assert isinstance(cls_expr, ast.Call) and cls_expr.func.id == "getattr", \
                ast.dump(cls_expr)
            module = cls_expr.args[0].id
            for cls in values(cls_expr.args[1], loops):
                for attr in values(attr_expr, loops):
                    found.add((module, cls, attr))
        for child in ast.iter_child_nodes(node):
            visit(child, loops)

    visit(tree, {})
    return consts, found


def test_tracer_patch_targets_are_in_their_class_dicts():
    consts, found = tracer_patches()
    expected = ({("dist", law, "quantile") for law in consts["LAWS"]}
                | {("dist", "Tilted", "__init__"), ("dist", "Tilted", "_build_table")}
                | {("sim", "PathBatch", attr)
                   for attr in ("counts_at", "aggregates_at", "claim_prefix_apply")})
    assert expected <= found
    for module, cls, attr in sorted(found):
        assert attr in vars(getattr(MODULES[module], cls)), f"{module}.{cls}.{attr}"
