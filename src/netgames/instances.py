"""Instance and strategy file codecs, and the seeded random instance
generator.

Instances are JSON documents with exact rationals written as "p/q" (or plain
integer) strings:

    {
      "version": 1,
      "kind": "multicast",
      "graph": {"nodes": ["a", "b", "r"], "root": "r",
                "edges": [{"u": "a", "v": "r", "cost": "2"}, ...]},
      "players": [{"distribution": [{"type": "a", "prob": "1/2"}, ...]}],
      "caps": {"support": 1000000, "strategies": 10000000}
    }

"kind" is a `games.FAMILIES` key, checked before anything else is read.
Cover kinds replace "graph" with "cover": {"node_costs": {"u": "1", ...}}.
A block that the kind does not read is ignored like an unknown key.
A type is a node name if the kind's row is rooted, else a list of nodes.

A strategy file gives every player one action for each type in its
support, in the same type encoding:

    {"players": [{"strategies": [{"type": "a", "action": [["a", "r"]],
                                  "cost": "2"}, ...]}, ...]}

Actions are edge lists (graph kinds) or node lists (cover kinds).  `cost`
is written by `encode_profile` and ignored by `parse_strategy`, so the
`players` list of a `bne` report is a valid strategy file.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from .errors import NetgamesError, ParseError, PreconditionError, ValidationError
from .games import (
    DEFAULT_STRATEGY_CAP,
    DEFAULT_SUPPORT_CAP,
    FAMILIES,
    GameInstance,
    PlayerSpec,
    family_of,
)
from .graphs import Graph, edge_key

FORMAT_VERSION = 1
GEN_KINDS = ("multicast", "source-sink", "vertex-cover")  # the kinds gen_instance draws


def _rational(value, field: str) -> Fraction:
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise ValidationError(field, f"not a rational: {value!r}")


def _cap(caps: dict, name: str, default: int) -> int:
    value = caps.get(name, default)
    try:  # an integer, an integral number such as 1e6, or a digit string
        cap = int(value)
    except (TypeError, ValueError, OverflowError):
        cap = None
    if cap is None or isinstance(value, bool) or isinstance(value, float) and cap != value:
        raise ValidationError(f"caps.{name}", f"not an integer: {value!r}")
    if cap < 1:
        raise ValidationError(f"caps.{name}", f"must be at least 1, got {value!r}")
    return cap


_JSON_NAMES = {dict: "an object", list: "a list", str: "a string"}


def _expect(value, cls: type, field: str):
    """`value` if it is a JSON value of type `cls`, else a ValidationError."""
    if not isinstance(value, cls):
        raise ValidationError(field, f"not {_JSON_NAMES[cls]}: {value!r}")
    return value


def _decode_type(kind: str, raw):
    """A type of `kind`: a node name when rooted, else a non-empty node list
    of the row's arity, kept in order for a graph pair, sorted for a cover."""
    family = FAMILIES[kind]
    if family.rooted and isinstance(raw, str):
        return raw
    nodes = isinstance(raw, list) and raw and all(isinstance(n, str) for n in raw)
    if nodes and not family.rooted and family.arity in (None, len(raw)):
        return tuple(raw) if family.graph else tuple(sorted(raw))
    raise ValidationError("players", f"not a {kind} type: {raw!r}")


def _encode(x):
    """A type or an element in JSON: a node name, else a list of nodes."""
    return x if isinstance(x, str) else list(x)


def _load_json(text: str, what: str):
    """`json.loads(text)`, with every way it rejects a document a ParseError
    whose message starts with `what`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what}line {exc.lineno}: {exc.msg}")
    except RecursionError:
        raise ParseError(f"{what}nested too deeply")
    except ValueError:  # an integer literal beyond Python's int-string limit
        raise ParseError(f"{what}integer literal too long")


def parse_instance(text: str) -> GameInstance:
    doc = _load_json(text, "")
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    if doc.get("version") != FORMAT_VERSION:
        raise ValidationError("version", f"expected {FORMAT_VERSION}")
    kind = doc.get("kind")
    family = family_of(kind)  # before any type is decoded by its kind
    caps = _expect(doc.get("caps") or {}, dict, "caps")
    support_cap = _cap(caps, "support", DEFAULT_SUPPORT_CAP)
    strategy_cap = _cap(caps, "strategies", DEFAULT_STRATEGY_CAP)

    graph = node_costs = None  # only the block the kind reads is parsed
    if family.graph and "graph" in doc:
        gdoc = _expect(doc["graph"], dict, "graph")
        edges = []
        for e in _expect(gdoc.get("edges", []), list, "graph.edges"):
            if not isinstance(e, dict) or "u" not in e or "v" not in e:
                raise ValidationError("graph.edges", f"edge without u or v: {e!r}")
            u, v = (_expect(e[k], str, f"graph.edges.{k}") for k in "uv")
            edges.append(((u, v), _rational(e.get("cost"), "graph.edges.cost")))
        nodes = _expect(gdoc.get("nodes", []), list, "graph.nodes")
        root = gdoc.get("root")
        try:
            graph = Graph(
                nodes=tuple(_expect(n, str, "graph.nodes") for n in nodes),
                edges=tuple(edges),
                root=root if root is None else _expect(root, str, "graph.root"),
            )
        except ValueError as exc:
            raise ValidationError("graph", str(exc))
    elif not family.graph and "cover" in doc:
        cdoc = _expect(doc["cover"], dict, "cover")
        costs = _expect(cdoc.get("node_costs", {}), dict, "cover.node_costs")
        node_costs = tuple(
            (n, _rational(c, f"cover.node_costs.{n}")) for n, c in costs.items()
        )

    players = []
    for i, pdoc in enumerate(_expect(doc.get("players", []), list, "players")):
        dist = []
        pdoc = _expect(pdoc, dict, f"players[{i}]")
        for entry in _expect(pdoc.get("distribution", []), list, f"players[{i}]"):
            entry = _expect(entry, dict, f"players[{i}].distribution")
            t = _decode_type(kind, entry.get("type"))
            p = _rational(entry.get("prob"), f"players[{i}].prob")
            dist.append((t, p))
        players.append(PlayerSpec(distribution=tuple(dist)))

    return GameInstance(
        kind=kind,
        players=tuple(players),
        graph=graph,
        node_costs=node_costs,
        support_cap=support_cap,
        strategy_cap=strategy_cap,
    )


def serialize_instance(inst: GameInstance) -> str:
    doc: dict = {"version": FORMAT_VERSION, "kind": inst.kind}
    if inst.family.graph:
        doc["graph"] = {
            "nodes": list(inst.graph.nodes),
            "root": inst.graph.root,
            "edges": [
                {"u": u, "v": v, "cost": str(c)} for (u, v), c in inst.graph.edges
            ],
        }
    else:
        doc["cover"] = {"node_costs": {n: str(c) for n, c in inst.node_costs}}
    doc["players"] = [
        {
            "distribution": [
                {"type": _encode(t), "prob": str(p)}
                for t, p in spec.distribution
            ]
        }
        for spec in inst.players
    ]
    doc["caps"] = {"support": inst.support_cap, "strategies": inst.strategy_cap}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _decode_element(inst: GameInstance, raw):
    if not inst.family.graph and isinstance(raw, str):
        return raw
    pair = isinstance(raw, list) and len(raw) == 2 and all(isinstance(n, str) for n in raw)
    if inst.family.graph and pair:
        return tuple(sorted(raw))
    raise ValidationError("action", f"not a {inst.kind} element: {raw!r}")


def encode_profile(inst: GameInstance, s: tuple) -> list:
    """The `players` list of a strategy file for the profile `s`."""
    out = []
    for spec, strat in zip(inst.players, s):
        entries = []
        for t, _ in spec.distribution:
            a = strat[t]
            action = sorted(_encode(e) for e in a.elements)
            entries.append({"type": _encode(t), "action": action, "cost": str(a.cost)})
        out.append({"strategies": entries})
    return out


def _field(doc, key: str, where: str):
    if not isinstance(doc, dict) or key not in doc:
        raise ValidationError(where, f"missing {key!r}")
    return doc[key]


def parse_strategy(inst: GameInstance, text: str) -> tuple:
    """The profile in strategy file `text`: each action must be feasible
    for its type, and every support type needs exactly one."""
    doc = _load_json(text, "strategy ")
    players = _expect(_field(doc, "players", "strategy"), list, "players")
    if len(players) != inst.n:
        raise ValidationError("players", f"{len(players)} strategies for {inst.n} players")
    profile = []
    for i, pdoc in enumerate(players):
        menus = {t: {a.elements: a for a in actions} for t, actions in inst.menus[i]}
        strat = {}
        where = f"players[{i}].strategies"
        entries = _field(pdoc, "strategies", f"players[{i}]")
        for entry in _expect(entries, list, where):
            t = _decode_type(inst.kind, _field(entry, "type", where))
            if t not in inst.players[i].support():
                raise NetgamesError(f"player {i}: type {t!r} not in its support")
            if t in strat:
                raise ValidationError(f"players[{i}]", f"type {t!r} listed twice")
            action = _expect(_field(entry, "action", where), list, where)
            elements = frozenset(_decode_element(inst, e) for e in action)
            if elements not in menus[t]:
                raise NetgamesError(
                    f"player {i}: action {sorted(elements)} infeasible for type {t!r}"
                )
            strat[t] = menus[t][elements]
        for t, _ in inst.players[i].distribution:
            if t not in strat:
                raise NetgamesError(f"player {i}: no action for support type {t!r}")
        profile.append(strat)
    return tuple(profile)


def _random_probs(rng: random.Random, k: int) -> list[Fraction]:
    weights = [rng.randint(1, 6) for _ in range(k)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def _random_graph(rng: random.Random, n_nodes: int, rooted: bool) -> Graph:
    nodes = [f"v{j}" for j in range(n_nodes)]
    edges = {}
    shuffled = nodes[:]
    rng.shuffle(shuffled)
    for a, b in zip(shuffled, shuffled[1:]):  # random spanning tree
        key = (a, b) if a <= b else (b, a)
        edges[key] = Fraction(rng.randint(1, 10), rng.randint(1, 4))
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            # The draw is keyed by index order and the edge by name order
            # ('v10' < 'v2'): a tree edge is drawn for but never added twice.
            key = (nodes[i], nodes[j])
            if key not in edges and rng.random() < 0.4 and edge_key(*key) not in edges:
                edges[key] = Fraction(rng.randint(1, 10), rng.randint(1, 4))
    root = rng.choice(nodes) if rooted else None
    return Graph(nodes=tuple(nodes), edges=tuple(edges.items()), root=root)


def gen_instance(
    kind: str,
    n_nodes: int = 4,
    n_players: int = 2,
    n_types: int = 2,
    seed: int = 0,
    iid: bool = False,
    root_mass: bool = False,
) -> GameInstance:
    """Seeded random instance.  `iid` forces one shared distribution;
    `root_mass` generates two-point distributions with residual mass on the
    root (the independent-decisions model)."""
    if kind not in GEN_KINDS:
        raise PreconditionError(f"generator does not support kind {kind!r}")
    family = FAMILIES[kind]
    root_mass = root_mass and family.rooted  # ignored by the other kinds
    # the root (and a non-root node for root mass), or two nodes for a pair
    need = 1 if family.rooted and not root_mass else 2
    if n_nodes < need:
        raise PreconditionError(f"{kind} generator needs n_nodes >= {need}, got {n_nodes}")
    if n_players < 1:
        raise PreconditionError(f"generator needs n_players >= 1, got {n_players}")
    if n_types < 1 and not root_mass:  # root mass ignores it
        raise PreconditionError(f"generator needs n_types >= 1, got {n_types}")
    rng = random.Random(seed)
    graph = node_costs = None
    if family.graph:
        graph = _random_graph(rng, n_nodes, rooted=family.rooted)
        nodes = list(graph.nodes)
    else:
        nodes = [f"v{j}" for j in range(n_nodes)]
        node_costs = tuple(
            (n, Fraction(rng.randint(1, 10), rng.randint(1, 4))) for n in nodes
        )
    pairs = [(a, b) for a in nodes for b in nodes if a < b]

    def random_dist():
        if root_mass:
            node = rng.choice([n for n in nodes if n != graph.root])
            p = Fraction(rng.randint(1, 5), 6)
            return ((node, p), (graph.root, 1 - p))
        types = nodes if family.rooted else pairs
        k = min(n_types, len(types))
        support = rng.sample(types, k)
        return tuple(zip(support, _random_probs(rng, k)))

    if iid:
        shared = random_dist()
        players = tuple(PlayerSpec(distribution=shared) for _ in range(n_players))
    else:
        players = tuple(PlayerSpec(distribution=random_dist()) for _ in range(n_players))
    return GameInstance(kind=kind, players=players, graph=graph, node_costs=node_costs)
