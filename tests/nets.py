"""Helpers over nets that only tests use: a canonical net expanded back to
a plain net term, with its items in a deterministic order; the test that no
(locality, table identifier) pair of a `lid` repeats; and the check of a
bare net under a given schema map."""

from typing import Optional

from kdb import syntax as s
from kdb.net import CanonicalNet
from kdb.typesys import Checker
from kdb.values import Multiset


def item_sort_key(pair):
    loc, body = pair
    return (loc, 0 if isinstance(body, s.TableComp) else 1, s.render(body))


def sorted_items(cn: CanonicalNet) -> list:
    """Items repeated by multiplicity, in deterministic order."""
    out = []
    for pair, n in sorted(cn.items.items(), key=lambda kv: item_sort_key(kv[0])):
        out.extend([pair] * n)
    return out


def to_net(cn: CanonicalNet) -> s.Net:
    """Expand back to a plain net term (restrictions outermost)."""
    if cn.err and not cn.items:
        return s.ErrNet()
    parts = []
    for loc, body in sorted_items(cn):
        comp = body if isinstance(body, s.TableComp) else s.ProcComp(body)
        parts.append(s.Node(loc, comp))
    if cn.err:
        parts.append(s.ErrNet())
    if not parts:
        net: s.Net = s.NilNet()
    else:
        net = parts[0]
        for p in parts[1:]:
            net = s.ParNet(net, p)
    for loc in reversed(cn.restricted):
        net = s.Restrict(loc, net)
    return net


def no_rep(pairs: Multiset) -> bool:
    """True when no (locality, table identifier) pair repeats."""
    return all(n == 1 for _, n in pairs.items())


def check_net(net: s.Net, nabla: dict, procedures: Optional[dict] = None) -> list:
    """Diagnostics for a bare net under a given schema map."""
    checker = Checker(nabla, procedures or {})
    checker.type_parts(s.Scope(), s.net_parts(net)[1])
    return checker.diags
