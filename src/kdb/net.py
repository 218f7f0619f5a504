"""Canonical runtime representation of nets.

A canonical net is the net's parallel normal form: all restrictions are
extruded to a single outer prefix (renaming restricted localities apart when
extrusion would capture), every node is split into one item per co-located
process or table, and inert-process units are absorbed.  Rule matching in
the engine then becomes multiset lookup instead of congruence search.
`make_canonical` builds every canonical net: from the items `canonicalize`
finds in one loop over an explicit stack, or from a parent's and a delta.

`tables_by_id` says where every table `tid@loc` is, in one pass over the
items: the engine builds that map once per enumeration and every rule that
names a table, select and create included, reads it, as do the `lid`
integrity check, `find_tables` and the dumps.  It holds the one tie rule:
different tables under one (locality, identifier) are in render order.

Two keys identify a net up to congruence and renaming of its restricted
names.  `canonical_key` renders every item that mentions one of those
names under every numbering of them, and every other item once, keeping
its text on the body; it orders the successors of transitions that share a
label.
`StateKeys`, by which `explore` deduplicates states, renders nothing and
numbers the names by colour refinement.
"""

from __future__ import annotations

import itertools
import json
from typing import NamedTuple

from kdb import syntax as s
from kdb.values import Multiset, VInt, VLoc, VSet, VStr, VTid, sorted_rows


class CanonicalNet(NamedTuple):
    restricted: tuple  # locality names, outermost first
    items: Multiset  # of (loc, Process | TableComp)
    err: bool = False


def _is_table(body) -> bool:
    return isinstance(body, s.TableComp)


_NIL = s.NilProc()


def canonicalize(net: s.Net) -> CanonicalNet:
    """Normal form under structural congruence.

    Subterms pop off an explicit stack, left ones first: no Python frame per
    level (`free_locs` costs one per level of a process, none per `||` or
    `|`).  A net is paired with the renaming of the restricted names in
    scope, a renamed component with its node's locality.  `make_canonical`
    makes the net of the items found, inert units last.
    """
    used = set(s.free_locs(net))
    counter = itertools.count(1)
    restricted: list = []
    items: list = []  # (loc, body), in walk order
    inert: list = []  # (loc, nil)
    err = False
    stack = [(net, {})]
    while stack:
        n, ctx = stack.pop()
        if isinstance(n, (s.ParNet, s.ParComp)):
            stack += [(n.right, ctx), (n.left, ctx)]
        elif isinstance(n, s.Restrict):
            name = n.loc
            while name in used:
                name = f"{n.loc}#{next(counter)}"
            used.add(name)
            restricted.append(name)
            stack.append((n.inner, {**ctx, n.loc: name}))
        elif isinstance(n, s.Node):
            stack.append((s.rename_localities(n.component, ctx), ctx.get(n.loc, n.loc)))
        elif isinstance(n, (s.ProcComp, s.TableComp)):
            body = n.process if isinstance(n, s.ProcComp) else n
            if isinstance(body, s.NilProc):
                inert.append((ctx, _NIL))
            else:
                items.append((ctx, body))
        elif isinstance(n, s.ErrNet):
            err = True
        elif not isinstance(n, s.NilNet):
            raise TypeError(f"not a net or a component: {n!r}")
    return make_canonical(CanonicalNet(tuple(restricted), Multiset(), err), (), items + inert)


def make_canonical(parent: CanonicalNet, removed, added) -> CanonicalNet:
    """The canonical net `parent` becomes when `removed` items give way to `added`.

    It starts from a copy of the parent's item counts, takes one copy of each
    removed item away (never below zero) and adds one of each added item, so
    only the touched items are hashed.  Inert units are absorbed only at the
    touched localities, one scan of the items serving them all: a locality
    keeps one unit if it hosts nothing else and none if it does.  Every
    other locality is already absorbed in a canonical parent.
    """
    counts = parent.items.copy_counts()
    for item in removed:
        n = counts.get(item, 0)
        if n > 1:
            counts[item] = n - 1
        else:
            counts.pop(item, None)
    for item in added:
        counts[item] = counts.get(item, 0) + 1
    touched = {loc for loc, _ in removed} | {loc for loc, _ in added}
    nil_locs = [loc for loc in touched if (loc, _NIL) in counts]
    if nil_locs:
        busy = {loc for loc, body in counts if not isinstance(body, s.NilProc)}
        for loc in nil_locs:
            if loc in busy:
                del counts[loc, _NIL]
            else:
                counts[loc, _NIL] = 1
    return CanonicalNet(parent.restricted, Multiset.of_counts(counts), parent.err)


ERR_NET = CanonicalNet((), Multiset(), True)


# ---------------------------------------------------------------------------
# Table bookkeeping

def tables_by_id(cn: CanonicalNet) -> dict:
    """Every table of the net under its (locality, table identifier), each
    repeated by its multiplicity, from one pass over the items.

    Several different tables under one key, which only a net whose `lid`
    repeats can hold, are in render order: the one tie rule.
    """
    tables: dict = {}
    for (loc, body), n in cn.items.items():
        if _is_table(body):
            tables.setdefault((loc, body.interface.tid), []).extend([body] * n)
    for found in tables.values():
        if len(found) > 1:
            found.sort(key=s.render)
    return tables


def find_tables(cn: CanonicalNet, loc: str, tid: str) -> list:
    """All tables named tid at loc, in `tables_by_id`'s order."""
    return tables_by_id(cn).get((loc, tid), [])


def lid(cn: CanonicalNet) -> Multiset:
    """The multiset of (locality, table identifier) pairs of all tables."""
    return Multiset.of_counts({key: len(found) for key, found in tables_by_id(cn).items()})


def ok(cn: CanonicalNet) -> bool:
    return not cn.err


# ---------------------------------------------------------------------------
# Comparison keys and dumps

def canonical_key(cn: CanonicalNet):
    """A key identifying the net up to congruence and renaming of restrictions.

    Restricted names are anonymized positionally; with several restrictions
    the minimum over their permutations is taken, so the key costs n! renders
    of every body that mentions one of the n restricted names.  A body that
    mentions none is rendered once: it keeps its text on itself, as a row
    does, and only its locality is renamed.  Its value is text, ordered the
    same on every run: `semantics.enumerate_transitions` orders and merges
    the successors of transitions that share a label by it, and nowhere else
    is it computed.  `explore` deduplicates states by `StateKeys`, which
    agrees with it on which nets are equal.
    """
    restricted = frozenset(cn.restricted)
    fixed = []  # (loc, text, count) of the items whose body mentions no restricted name
    held = []  # (loc, body, count) of the others
    for (loc, body), cnt in cn.items.items():
        if restricted and not restricted.isdisjoint(s.free_locs(body)):
            held.append((loc, body, cnt))
        else:
            text = body._text
            if text is None:
                text = s.render(body)
                object.__setattr__(body, "_text", text)
            fixed.append((loc, text, cnt))
    best = None
    for perm in itertools.permutations(cn.restricted):  # no names: one empty perm
        mapping = {name: f"ρ{i}" for i, name in enumerate(perm)}
        rows = [(mapping.get(loc, loc), text, cnt) for loc, text, cnt in fixed]
        rows += [(mapping.get(loc, loc), s.render(s.rename_localities(body, mapping)), cnt)
                 for loc, body, cnt in held]
        cand = tuple(sorted(rows))
        if best is None or cand < best:
            best = cand
    return (cn.err, len(cn.restricted), best)


_SELF, _OTHER = "ρ1", "ρ"  # placeholders for restricted names; no source name has a ρ


class StateKeys:
    """Keys that identify nets up to congruence and renaming of restrictions,
    as `canonical_key` does, without rendering: one keyer serves one
    `explore`.  It treats the names in `restricted` as restricted wherever
    they occur, so it serves any nets whose restricted names are among them
    and whose free names are not.  Keys from two keyers do not compare.

    Each body is remembered by identity, with a reference to it, for the life
    of the keyer: which restricted names it mentions, and its forms with
    those names renamed to placeholders, each interned to a small int.  A
    successor shares every body but the one or two its transition made with
    its parent, so its key renames and hashes only those.

    A key is the set of the items that hold no restricted name and a
    certificate of the others (`_certificate`): the items with every
    restricted name replaced by a number, the names numbered canonically by
    colour refinement with individualisation (McKay & Piperno, "Practical
    Graph Isomorphism II", J. Symb. Comput. 2014).  Names that no item
    links are certified apart, so like groups of names, such as the clients
    of one hub once the hub is numbered, never need to be told apart.
    """

    def __init__(self, restricted: tuple):
        self._restricted = frozenset(restricted)
        self._bodies: dict = {}  # id(body) -> (body, its restricted names, {placeholders: form})
        self._ids: dict = {}  # free locality or renamed body -> small int

    def _intern(self, x) -> int:
        return self._ids.setdefault(x, len(self._ids))

    def _body(self, body) -> tuple:
        names = ()
        if self._restricted:
            names = tuple(sorted(s.free_locs(body) & self._restricted))
        entry = self._bodies[id(body)] = (body, names, {} if names else {(): self._intern(body)})
        return entry

    def _form(self, entry: tuple, placeholders: tuple) -> int:
        """The body with its restricted names, in the entry's order, renamed
        to `placeholders`, as an interned int."""
        body, names, forms = entry
        form = forms.get(placeholders)
        if form is None:  # only a body with restricted names can miss
            form = forms[placeholders] = self._intern(
                s.rename_localities(body, dict(zip(names, placeholders))))
        return form

    def key(self, cn: CanonicalNet):
        loose = []  # items that hold no restricted name
        held = []  # (loc, body entry, count, restricted names) of the others
        for (loc, body), n in cn.items.items():
            entry = self._bodies.get(id(body)) or self._body(body)
            names = entry[1]
            if loc in self._restricted and loc not in names:
                names = (*names, loc)
            if names:
                held.append((loc, entry, n, names))
            else:
                loose.append((loc, entry[2][()], n))
        return cn.err, len(cn.restricted), frozenset(loose), self._certificate(held, {})

    def _certificate(self, items: list, number: dict) -> tuple:
        """The items with the restricted names in `number` numbered by it and
        the others numbered canonically: equal for two lists of items exactly
        when a renaming of the unnumbered names takes one to the other.

        The unnumbered names fall into groups linked by the items that hold
        them.  Each group is certified on its own and the certificates are
        sorted, so like groups never need to be told apart.
        """
        done, groups = _groups(items, number)
        return (tuple(sorted(self._numbered(item, number) for item in done)),
                tuple(sorted(self._group(group, names, number) for group, names in groups)))

    def _group(self, items: list, names: list, number: dict) -> tuple:
        """The certificate of one linked group of unnumbered names.

        The names that colour refinement leaves alone in their class are
        numbered in colour order, which splits the rest into smaller groups.
        When no name stands alone, each name of the least class is numbered
        in turn and the least certificate is kept.
        """
        if len(names) == 1:  # its items hold no other unnumbered name
            number = {**number, names[0]: len(number)}
            return tuple(sorted(self._numbered(item, number) for item in items)), ()
        classes: dict = {}
        for name, c in self._colours(items, names, number).items():
            classes.setdefault(c, []).append(name)
        alone = [classes[c][0] for c in sorted(classes) if len(classes[c]) == 1]
        if not alone:
            return min(self._certificate(items, {**number, name: len(number)})
                       for name in classes[min(classes)])
        number = dict(number)
        for name in alone:
            number[name] = len(number)
        return self._certificate(items, number)

    def _colours(self, items: list, names: list, number: dict) -> dict:
        """Colour refinement of the unnumbered names, from len(number) up; a
        numbered name's colour is its number.

        A name is first coloured by the items it occurs in, with itself
        erased to one placeholder and the other restricted names to a
        second; colours are then refined by the colours of the names it
        shares an item with, until no class splits.
        """
        occurs: dict = {name: [] for name in names}
        for loc, entry, n, item_names in items:
            for name in item_names:
                if name in occurs:
                    where = (-1 if loc == name else -2 if loc in self._restricted
                             else self._intern(loc))
                    form = self._form(entry, tuple(_SELF if x == name else _OTHER
                                                   for x in entry[1]))
                    occurs[name].append(((where, form, n), [x for x in item_names if x != name]))
        colour = dict.fromkeys(names, len(number))
        classes = 1
        while classes < len(colour):
            every = {**number, **colour}
            signature = {name: (colour[name], tuple(sorted(
                             (occurrence, tuple(sorted(every[x] for x in others)))
                             for occurrence, others in occurs[name])))
                         for name in colour}
            rank = {sig: len(number) + i
                    for i, sig in enumerate(sorted(set(signature.values())))}
            if len(rank) == classes:
                break
            colour = {name: rank[sig] for name, sig in signature.items()}
            classes = len(rank)
        return colour

    def _numbered(self, item: tuple, number: dict) -> tuple:
        """An item whose restricted names are all numbered, as ints."""
        loc, entry, n, _ = item
        numbers = sorted(number[name] for name in entry[1])
        placeholders = tuple(f"ρ{numbers.index(number[name]) + 1}" for name in entry[1])
        where = -1 - number[loc] if loc in number else self._intern(loc)
        return (where, self._form(entry, placeholders), tuple(numbers), n)


def _groups(items: list, number: dict) -> tuple:
    """The items that hold no unnumbered restricted name, and the others
    grouped by the unnumbered names that link them, each group with its
    names in sorted order."""
    root: dict = {}

    def find(name):
        while name in root:
            name = root[name]
        return name

    done, linked = [], []
    for item in items:
        names = [x for x in item[3] if x not in number]
        if not names:
            done.append(item)
            continue
        linked.append((item, names))
        first = find(names[0])
        for name in names[1:]:
            other = find(name)
            if other != first:
                root[other] = first
    groups: dict = {}
    for item, names in linked:
        group, group_names = groups.setdefault(find(names[0]), ([], set()))
        group.append(item)
        group_names.update(names)
    return done, [(group, sorted(group_names)) for group, group_names in groups.values()]


def dump_tables(cn: CanonicalNet) -> list:
    """JSON-ready dump of every table, in `tables_by_id`'s order under
    sorted keys."""
    return [{
        "loc": loc,
        "tid": tid,
        "schema": s.render_schema(body.interface.schema),
        "rows": [[_json_value(v) for v in row.components] for row in sorted_rows(body.rows)],
    } for (loc, tid), found in sorted(tables_by_id(cn).items()) for body in found]


def _json_value(v):
    if isinstance(v, VInt):
        return v.value
    if isinstance(v, VStr):
        return v.value
    if isinstance(v, (VTid, VLoc)):
        return v.name
    if isinstance(v, VSet):
        return [_json_value(e) for e in sorted(v.elements, key=s.render_value)]
    raise TypeError(f"not a value: {v!r}")


def dump_json(cn: CanonicalNet) -> str:
    return json.dumps(dump_tables(cn), indent=2, sort_keys=False)
