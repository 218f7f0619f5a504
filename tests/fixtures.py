"""Shared fixtures: the department-store tables used across the suite."""

import copy

from kdb import semantics
from kdb import syntax as s
from kdb.values import Multiset, ValueTuple, VInt, VLoc, VSet, VStr, VTid

KLD_SCHEMA = (s.STRING, s.STRING, s.STRING, s.STRING, s.STRING, s.INT, s.INT)
STORES_SCHEMA = (s.STRING, s.STRING, s.STRING, s.MSet("Id"), s.LOC)
SSRESULT_SCHEMA = (s.STRING, s.STRING, s.INT)


def srow(*parts) -> ValueTuple:
    vals = []
    for p in parts:
        if isinstance(p, int):
            vals.append(VInt(p))
        elif isinstance(p, str):
            vals.append(VStr(p))
        else:
            vals.append(p)
    return ValueTuple(tuple(vals))


KLD_ROWS = Multiset([
    srow("001", "HB", "2015", "red", "38", 5, 2),
    srow("001", "HB", "2015", "red", "37", 8, 5),
    srow("001", "HB", "2015", "red", "36", 3, 1),
    srow("001", "HB", "2015", "black", "38", 3, 2),
    srow("001", "HB", "2015", "black", "37", 5, 2),
    srow("002", "SB", "2015", "green", "38", 2, 0),
    srow("002", "SB", "2015", "brown", "37", 4, 3),
])

WHITE_ROW = srow("001", "HB", "2015", "white", "37", 6, 0)

STORES_ROWS = Multiset([
    srow("CPH", "ABC DEF 2, 1050", "Shop1", VSet(Multiset([VTid("KLD"), VTid("SH")])), VLoc("l1")),
    srow("AAL", "KLM NOP 3, 3570", "Shop4", VSet(Multiset([VTid("LAM"), VTid("IMK")])), VLoc("l4")),
])

KLD_TABLE = s.TableComp(s.Interface("KLD", KLD_SCHEMA), KLD_ROWS)
STORES_TABLE = s.TableComp(s.Interface("Stores", STORES_SCHEMA), STORES_ROWS)

SEVEN_BINDERS = s.Template((
    s.BindData("id"), s.BindData("tp"), s.BindData("yr"), s.BindData("cr"),
    s.BindData("sz"), s.BindData("is0"), s.BindData("ss"),
))


def keeps_old_table(loc, tab, rows, cont):
    """A faulty `semantics._write`: it adds the new table but keeps the old
    one, so that the table's identifier repeats."""
    return semantics._Outcome(cont, add=((loc, s.TableComp(tab.interface, rows)),))


def fresh(x):
    """A deep copy of x, whose nodes keep nothing computed: `copy` rebuilds a
    node through its `__init__`, which starts every cache slot at None.  So
    the engine computes every outcome of a copied net or system afresh."""
    return copy.deepcopy(x)
