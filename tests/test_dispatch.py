"""Every dispatch on a node or value class ends in TypeError.

Each function here picks its case by the class of its argument, and what
matches no case raises a `TypeError` that says what it wanted ("not an
expression", "cannot render ..."), never a `KeyError`, an `AttributeError`,
a `TypeError` of some operation on it, or a silent fall-through.  A rewrite
of any of them as a table of functions keeps that contract.
"""

import pytest

from kdb import kernel as k
from kdb import net
from kdb import semantics
from kdb import syntax as s
from kdb import values
from kdb.typesys import Checker

STRANGER = object()


def _checker(method):
    return lambda x: getattr(Checker({}, {}), method)(s.Scope(), x)


DISPATCHES = {
    "Checker.type_expr": _checker("type_expr"),
    "Checker.type_pred": _checker("type_pred"),
    "Checker.type_table": _checker("type_table"),
    "Checker.type_action": _checker("type_action"),
    "Checker.type_process": _checker("type_process"),
    "kernel.compile_expr": lambda x: k.compile_expr(x, {}),
    "kernel.compile_pred": lambda x: k.compile_pred(x, {}),
    "kernel.well_sorted_value": lambda x: k.well_sorted_value(1, x),
    "kernel.value_to_expr": k.value_to_expr,
    "semantics._proc_outcomes": lambda x: semantics._proc_outcomes({}, x, s.System({}, (), s.NilNet())),
    "syntax.render": s.render,
    "syntax.net_parts": s.net_parts,
    "net._json_value": net._json_value,
    "values.value_sort_key": values.value_sort_key,
}


@pytest.mark.parametrize("call", DISPATCHES.values(), ids=DISPATCHES.keys())
def test_unknown_class_raises_type_error(call):
    with pytest.raises(TypeError, match=r"^(not an? |cannot render )"):
        call(STRANGER)
