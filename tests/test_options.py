"""Pin the number of options the library offers.

An option is a defaulted parameter of a function, method or lambda, or a
defaulted field of a dataclass (`field(init=False)` is not an option: the
caller cannot set it).  A new knob, or one swapped for another, changes
the list, so it shows up in review as a change to OPTIONS below.
"""

import ast
import pathlib

import thermolim

OPTIONS = [
    "cli.main(argv)",
    "hamiltonians.diagonalize(n_modes)",
    "hamiltonians.soft_wall_trap(coupling)",
    "propagators.gated_gap(margin)",
    "quasifree.HomogeneousState.kappa",
    "quasifree.RadialFunction3D.phi1",
]


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        fn = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(fn, "id", getattr(fn, "attr", None)) == "dataclass":
            return True
    return False


def _init_false(value: ast.expr) -> bool:
    return isinstance(value, ast.Call) and any(
        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
        for k in value.keywords
    )


def library_options() -> list[str]:
    names = []
    for path in sorted(pathlib.Path(thermolim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                where = f"{path.stem}.{getattr(node, 'name', '<lambda>')}"
                args = node.args.posonlyargs + node.args.args
                defaulted = args[len(args) - len(node.args.defaults):]
                defaulted += [a for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults) if d is not None]
                names += [f"{where}({a.arg})" for a in defaulted]
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                names += [
                    f"{path.stem}.{node.name}.{st.target.id}"
                    for st in node.body
                    if isinstance(st, ast.AnnAssign) and st.value is not None and not _init_false(st.value)
                ]
    return names


def test_option_count_is_pinned():
    names = sorted(library_options())
    assert names == OPTIONS, "options now:\n" + "\n".join(names)
