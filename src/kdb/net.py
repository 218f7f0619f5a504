"""Canonical runtime representation of nets.

A canonical net is the net's parallel normal form: all restrictions are
extruded to a single outer prefix (renaming restricted localities apart when
extrusion would capture), every node is split into one item per co-located
process or table, and inert-process units are absorbed.  Rule matching in
the engine then becomes multiset lookup instead of congruence search.
`make_canonical` builds every canonical net, from a parent and a delta:
the items a transition removes and adds, exact, inert units absorbed
(`item_delta`).  `canonicalize` hands it the empty net and a net's parts,
which `syntax.net_parts` finds for the checker too.

`tables_by_id` says where every table `tid@loc` is, in one pass over the
items: the engine builds that map once per enumeration and every rule that
names a table, select and create included, reads it, as do the `lid`
integrity check, `find_tables` and the dumps.  It holds the one tie rule:
different tables under one (locality, identifier) are in render order.  The
same pass counts the items that are not nil at each locality, from which
`item_delta` absorbs inert units without a scan of the items.

Two keys identify a net up to congruence and renaming of its restricted
names.  `canonical_key` renders the items under every numbering of the
names, and orders the successors of transitions that share a label.
`StateKeys`, by which `explore` deduplicates states, renders nothing and
numbers the names by colour refinement, once per configuration of the items
that hold them; it keys a successor from its parent's key parts and the
transition's delta, so `explore` builds only the states it has not met.
"""

from __future__ import annotations

import itertools
import json
from typing import NamedTuple

from kdb import syntax as s
from kdb.values import Multiset, VLoc, VSet, VTid, sorted_rows


class CanonicalNet(NamedTuple):
    restricted: tuple  # locality names, outermost first
    items: Multiset  # of (loc, Process | TableComp)
    err: bool = False


_NIL = s.NilProc()


def canonicalize(net: s.Net, procedures=None) -> CanonicalNet:
    """Normal form under structural congruence: `make_canonical` of the
    parts `syntax.net_parts` finds, inert units last.  Pass the system's
    `procedures`, whose free localities no restricted name may take."""
    restricted, parts = s.net_parts(net, procedures)
    err = any(isinstance(body, s.ErrNet) for _, body in parts)
    items = sorted(((loc, _NIL) if isinstance(body, s.NilProc) else (loc, body)
                    for loc, body in parts if not isinstance(body, s.ErrNet)),
                   key=lambda item: item[1] is _NIL)
    empty = CanonicalNet(restricted, Multiset(), err)
    return make_canonical(empty, item_delta(empty, {}, (), tuple(items)))


def item_delta(parent: CanonicalNet, busy: dict, removed: tuple, added: tuple) -> tuple:
    """The delta of `parent` when `removed` items give way to `added`, with
    inert units absorbed at the touched localities: a locality keeps one
    unit if it then hosts nothing else and none if it does.  Every other
    locality is already absorbed in a canonical parent.  The delta is the
    exact change of the items, a pair of tuples (removed, added): one copy
    of each removed item goes, then one of each added item comes.

    The removed items are the parent's and none is an inert unit, which
    takes part in no transition.  `busy` counts the parent's items that are
    not nil at each locality (`tables_by_id`), so the work is the delta's:
    the parent holds a unit at a locality only where it counts none.
    """
    count = {}  # touched loc -> its count of items that are not nil, after
    for loc, _ in removed:
        count[loc] = count.get(loc, busy.get(loc, 0)) - 1
    nil_added = False
    for loc, body in added:
        n = count.get(loc, busy.get(loc, 0))
        if body.__class__ is s.NilProc:
            count[loc], nil_added = n, True
        else:
            count[loc] = n + 1
    had = [loc for loc in count if not busy.get(loc) and (loc, _NIL) in parent.items]
    if had or nil_added:
        units = set(had)
        kept = []
        for item in added:
            loc, body = item
            if body.__class__ is s.NilProc:
                if count[loc] or loc in units:
                    continue
                units.add(loc)
            kept.append(item)
        removed += tuple((loc, _NIL) for loc in had if count[loc])
        added = tuple(kept)
    return removed, added


def make_canonical(parent: CanonicalNet, delta: tuple) -> CanonicalNet:
    """The canonical net the delta (`item_delta`) makes of `parent`: a copy
    of its item counts with the delta applied, so only the touched items
    are hashed."""
    removed, added = delta
    counts = parent.items.copy_counts()
    for item in removed:
        n = counts[item]
        if n > 1:
            counts[item] = n - 1
        else:
            del counts[item]
    for item in added:
        counts[item] = counts.get(item, 0) + 1
    return CanonicalNet(parent.restricted, Multiset.of_counts(counts), parent.err)


ERR_NET = CanonicalNet((), Multiset(), True)


# ---------------------------------------------------------------------------
# Table bookkeeping

def tables_by_id(cn: CanonicalNet, busy=None) -> dict:
    """Every table of the net under its (locality, table identifier), each
    repeated by its multiplicity, from one pass over the items.  The same
    pass counts into a given dict `busy` the items that are not nil at each
    locality, which `item_delta` reads.

    Several different tables under one key, which only a net whose `lid`
    repeats can hold, are in render order: the one tie rule.
    """
    tables: dict = {}
    for (loc, body), n in cn.items.items():
        if isinstance(body, s.TableComp):
            tables.setdefault((loc, body.interface.tid), []).extend([body] * n)
        if busy is not None and body.__class__ is not s.NilProc:
            busy[loc] = busy.get(loc, 0) + n
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


# ---------------------------------------------------------------------------
# Comparison keys and dumps

def canonical_key(cn: CanonicalNet):
    """A key identifying the net up to congruence and renaming of restrictions:
    the least, over the n! numberings of its n restricted names, of the
    sorted (locality, text, count) rows of the items renamed by the
    numbering.  A body that no numbering changes is rendered once, as
    `render` keeps its text.  `semantics.enumerate_transitions` orders and
    merges the successors of transitions that share a label by it; `explore`
    deduplicates states by `StateKeys`, which agrees with it on which nets
    are equal.
    """
    numberings = ({name: f"ρ{i}" for i, name in enumerate(perm)}
                  for perm in itertools.permutations(cn.restricted))  # no names: one, {}
    best = min(tuple(sorted((m.get(loc, loc), s.render(s.rename_localities(body, m)), n)
                            for (loc, body), n in cn.items.items()))
               for m in numberings)
    return (cn.err, len(cn.restricted), best)


_SELF, _OTHER = "ρ1", "ρ"  # placeholders for restricted names; no source name has a ρ
_COUNT = 1 << 40  # an item's tally: its place + its count × _COUNT


class StateKeys:
    """Keys that identify nets up to congruence and renaming of restrictions,
    as `canonical_key` does, without rendering: one keyer serves one
    `explore`.  It treats the names in `restricted` as restricted wherever
    they occur, so it serves any nets whose restricted names are among them
    and whose free names are not.  Keys from two keyers do not compare.

    A key is read off a net's parts: whether it is the error net, how many
    restricted names it has, and its items, the loose ones and those that
    hold a restricted name apart, each by its place, a number for its
    locality and the int interned for its body, with its tally, one int for
    its place and its count.  `parts` reads a whole net; `after` applies a
    transition's delta (`item_delta`) to a parent's parts, so `explore` keys
    a successor at the cost of its delta and of copying the parts, without
    building it.  Each body is remembered by identity, with a reference to
    it, for the life of the keyer: its int, which equal bodies share, which
    restricted names it mentions, its place at each locality, and its forms
    with those names renamed to placeholders, each interned to a small int.

    A key is the set of the loose tallies and a certificate of the held
    ones, interned to an int (`_certificate`): the items with every
    restricted name replaced by a number, the names numbered canonically by
    colour refinement with individualisation (McKay & Piperno, "Practical
    Graph Isomorphism II", J. Symb. Comput. 2014).  Names that no item links
    are certified apart, so like groups of names, such as the clients of one
    hub once the hub is numbered, never need to be told apart.

    The certificate is memoized per configuration, the held part: it is a
    function of it, as an item's restricted names come from its body and its
    locality.  A configuration recurs across the states `explore` reaches,
    and is certified once.
    """

    def __init__(self, restricted: tuple):
        self._restricted = frozenset(restricted)
        self._bodies: dict = {}  # id(body) -> (body, whether it holds a restricted name,
        #                                      its int, {loc: its place there})
        self._entries: dict = {}  # body int -> (body, its restricted names, {placeholders: form})
        self._ids: dict = {}  # free locality, body, renamed body or certificate -> small int
        self._places: dict = {}  # (loc, body int) -> place, its index in `_sites`
        self._sites: list = []
        self._certified: dict = {}  # set of held tallies -> its certificate's int

    def _intern(self, x) -> int:
        return self._ids.setdefault(x, len(self._ids))

    def _locate(self, loose: dict, held: dict, item) -> tuple:
        """The item's part, held if it holds a restricted name and else
        loose, and its place."""
        loc, body = item
        known = self._bodies.get(id(body))
        if known is None:
            names = ()
            if self._restricted:
                names = tuple(sorted(s.free_locs(body) & self._restricted))
            ident = self._intern(body)
            self._entries.setdefault(ident, (body, names, {(): ident}))
            known = self._bodies[id(body)] = (body, bool(names), ident, {})
        place = known[3].get(loc)
        if place is None:
            site = loc, known[2]
            place = self._places.get(site)
            if place is None:
                place = self._places[site] = len(self._sites)
                self._sites.append(site)
            known[3][loc] = place
        return held if known[1] or loc in self._restricted else loose, place

    def _form(self, entry: tuple, placeholders: tuple) -> int:
        """The body with its restricted names, in the entry's order, renamed
        to `placeholders`, as an interned int."""
        body, names, forms = entry
        form = forms.get(placeholders)
        if form is None:  # only a body with restricted names can miss
            form = forms[placeholders] = self._intern(
                s.rename_localities(body, dict(zip(names, placeholders))))
        return form

    def parts(self, cn: CanonicalNet) -> tuple:
        """(err, restricted names, loose tallies, held tallies) of cn, each
        set of tallies a map from place to tally."""
        loose, held = {}, {}
        for item, n in cn.items.items():
            part, place = self._locate(loose, held, item)
            part[place] = place + n * _COUNT
        return cn.err, len(cn.restricted), loose, held

    def after(self, parts: tuple, delta: tuple) -> tuple:
        """The parts of the net that `delta` makes of the net of `parts`."""
        err, restricted, loose, held = parts
        loose, held = dict(loose), dict(held)
        removed, added = delta
        for item in removed:
            part, place = self._locate(loose, held, item)
            tally = part[place] - _COUNT
            if tally >= _COUNT:
                part[place] = tally
            else:
                del part[place]
        for item in added:
            part, place = self._locate(loose, held, item)
            part[place] = part.get(place, place) + _COUNT
        return err, restricted, loose, held

    def key(self, parts: tuple):
        """The key of a net, read off its parts (`parts` or `after`)."""
        err, restricted, loose, held = parts
        config = frozenset(held.values())
        cert = self._certified.get(config)
        if cert is None:
            items = []
            for tally in sorted(config):
                loc, ident = self._sites[tally % _COUNT]
                entry = self._entries[ident]
                names = entry[1]
                if loc in self._restricted and loc not in names:
                    names = (*names, loc)
                items.append((loc, entry, tally // _COUNT, names))
            cert = self._certified[config] = self._intern(self._certificate(items, {}))
        return err, restricted, frozenset(loose.values()), cert

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
        "rows": [[_json_value(v) for v in row] for row in sorted_rows(body.rows)],
    } for (loc, tid), found in sorted(tables_by_id(cn).items()) for body in found]


def _json_value(v):
    if v.__class__ in (int, str):
        return v
    if isinstance(v, (VTid, VLoc)):
        return v.name
    if isinstance(v, VSet):
        return [_json_value(e) for e in sorted(v.elements, key=s.render_value)]
    raise TypeError(f"not a value: {v!r}")


def dump_json(cn: CanonicalNet) -> str:
    return json.dumps(dump_tables(cn), indent=2, sort_keys=False)
