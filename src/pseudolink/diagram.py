"""Planar tangles and pseudodiagrams.

A tangle is an open 4-ended fragment: crossing nodes (classical or
precrossing) wired together by strand segments, with four labelled corner
endpoints NW, NE, SE, SW.  Node slots are stored in clockwise planar
rotation order; the two diagonals of a node are slot pairs (0,2) and (1,3),
and `over` names the diagonal whose strand passes on top (None for a
precrossing).

The calculus follows the usual Conway conventions: sum places tangles side
by side, the product a b is (transpose of a) + b where the transpose flips
the picture about the NW-SE axis, and ramification (a,b,...) sums the
transposes.  The "-" prefix of the notation switches every classical
crossing of its operand.  Numerator closure joins NE-NW and SE-SW,
denominator closure NE-SE and NW-SW.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping

from . import notation
from .errors import DiagramError, TooManyPrecrossings, UnknownNode
from .notation import ConwayExpr, Kind

DEFAULT_PRECROSSING_CAP = 20


@dataclass(frozen=True)
class Node:
    slots: tuple[int, int, int, int]  # endpoint ids, clockwise rotation
    over: int | None  # 0: slots (0,2) on top; 1: slots (1,3); None: precrossing

    @property
    def is_precrossing(self) -> bool:
        return self.over is None

    @property
    def kind(self) -> str:
        if self.over is None:
            return "pre"
        return "pos" if self.over == 0 else "neg"


def _weld(pair: dict[int, int], x: int, y: int) -> int:
    """Join endpoints x and y, erasing both; returns 1 if a closed loop forms."""
    px = pair.pop(x)
    if px == y:
        del pair[y]
        return 1
    py = pair.pop(y)
    pair[px] = py
    pair[py] = px
    return 0


class Tangle:
    """Open 4-ended diagram fragment.  Treat instances as immutable."""

    __slots__ = ("nodes", "pair", "corners", "loops", "next_id")

    def __init__(
        self,
        nodes: list[Node],
        pair: dict[int, int],
        corners: dict[str, int],
        loops: int,
        next_id: int,
    ):
        self.nodes = nodes
        self.pair = pair
        self.corners = corners
        self.loops = loops
        self.next_id = next_id

    # -- elementary builders -------------------------------------------------

    @staticmethod
    def zero() -> "Tangle":
        # two horizontal strands: NW-NE and SW-SE
        return Tangle([], {0: 1, 1: 0, 3: 2, 2: 3}, {"nw": 0, "ne": 1, "se": 2, "sw": 3}, 0, 4)

    @staticmethod
    def crossing(over: int | None) -> "Tangle":
        node = Node((0, 1, 2, 3), over)
        pair = {4: 0, 0: 4, 5: 1, 1: 5, 6: 2, 2: 6, 7: 3, 3: 7}
        return Tangle([node], pair, {"nw": 4, "ne": 5, "se": 6, "sw": 7}, 0, 8)

    @staticmethod
    def twist(over: int | None, count: int) -> "Tangle":
        """Horizontal chain of `count` identical crossings."""
        if count < 1:
            raise ValueError("twist length must be >= 1")
        nodes = [Node((4 * k, 4 * k + 1, 4 * k + 2, 4 * k + 3), over) for k in range(count)]
        pair: dict[int, int] = {}

        def link(a: int, b: int) -> None:
            pair[a] = b
            pair[b] = a

        for k in range(count - 1):
            link(4 * k + 1, 4 * (k + 1))      # NE of k to NW of k+1
            link(4 * k + 2, 4 * (k + 1) + 3)  # SE of k to SW of k+1
        base = 4 * count
        link(base, 0)                    # NW corner
        link(base + 1, 4 * (count - 1) + 1)  # NE corner
        link(base + 2, 4 * (count - 1) + 2)  # SE corner
        link(base + 3, 3)                # SW corner
        corners = {"nw": base, "ne": base + 1, "se": base + 2, "sw": base + 3}
        return Tangle(nodes, pair, corners, 0, base + 4)

    # -- structural operations ------------------------------------------------

    def shifted(self, delta: int) -> "Tangle":
        return Tangle(
            [Node(tuple(s + delta for s in n.slots), n.over) for n in self.nodes],
            {a + delta: b + delta for a, b in self.pair.items()},
            {c: e + delta for c, e in self.corners.items()},
            self.loops,
            self.next_id + delta,
        )

    def transpose(self) -> "Tangle":
        """Flip the picture about the NW-SE axis (over/under drawing kept)."""
        nodes = [Node((n.slots[0], n.slots[3], n.slots[2], n.slots[1]), n.over) for n in self.nodes]
        corners = {
            "nw": self.corners["nw"],
            "ne": self.corners["sw"],
            "se": self.corners["se"],
            "sw": self.corners["ne"],
        }
        return Tangle(nodes, dict(self.pair), corners, self.loops, self.next_id)

    def mirror(self) -> "Tangle":
        """Switch every classical crossing; precrossings stay undetermined."""
        nodes = [Node(n.slots, None if n.over is None else 1 - n.over) for n in self.nodes]
        return Tangle(nodes, dict(self.pair), dict(self.corners), self.loops, self.next_id)

    def rotate90(self) -> "Tangle":
        """Rotate the picture a quarter turn counterclockwise."""
        corners = {
            "nw": self.corners["ne"],
            "ne": self.corners["se"],
            "se": self.corners["sw"],
            "sw": self.corners["nw"],
        }
        return Tangle(list(self.nodes), dict(self.pair), corners, self.loops, self.next_id)

    def __add__(self, other: "Tangle") -> "Tangle":
        """Tangle sum: east ends of self join west ends of other."""
        rhs = other.shifted(self.next_id)
        pair = dict(self.pair)
        pair.update(rhs.pair)
        loops = self.loops + rhs.loops
        loops += _weld(pair, self.corners["ne"], rhs.corners["nw"])
        loops += _weld(pair, self.corners["se"], rhs.corners["sw"])
        corners = {
            "nw": self.corners["nw"],
            "sw": self.corners["sw"],
            "ne": rhs.corners["ne"],
            "se": rhs.corners["se"],
        }
        return Tangle(self.nodes + rhs.nodes, pair, corners, loops, rhs.next_id)


def build_tangle(expr: ConwayExpr) -> Tangle:
    """Realize a tangle expression; polyhedral forms are rejected."""
    if isinstance(expr, notation.Elementary):
        if expr.kind is Kind.ZERO:
            return Tangle.zero()
        return Tangle.crossing(_OVER[expr.kind])
    if isinstance(expr, notation.Twist):
        return Tangle.twist(_OVER[expr.kind], expr.count)
    if isinstance(expr, notation.Product):
        return build_tangle(expr.left).transpose() + build_tangle(expr.right)
    if isinstance(expr, notation.Sum):
        return build_tangle(expr.left) + build_tangle(expr.right)
    if isinstance(expr, notation.Ramification):
        parts = [build_tangle(p).transpose() for p in expr.parts]
        out = parts[0]
        for p in parts[1:]:
            out = out + p
        return out
    if isinstance(expr, notation.Reflect):
        return build_tangle(expr.inner).mirror()
    if isinstance(expr, notation.Polyhedral):
        raise DiagramError("polyhedral symbols close themselves; use build_diagram")
    raise TypeError(f"not a Conway expression: {expr!r}")


_OVER = {Kind.POS: 0, Kind.NEG: 1, Kind.PRE: None}


# ---------------------------------------------------------------------------
# Closed diagrams


@dataclass(frozen=True)
class ArcData:
    """Arc partition of a closed diagram.

    Arcs are maximal strand runs interrupted only by under-passages at
    classical crossings; they pass through over-positions and precrossings.
    `classical[i]` holds (over_arc, under_in, under_out) for node i,
    `precrossing[i]` holds the arcs through the two diagonals.
    """

    n_arcs: int
    classical: dict[int, tuple[int, int, int]]
    precrossing: dict[int, tuple[int, int]]
    components: int


class PseudoDiagram:
    """Closed 4-valent planar map with classical and undetermined crossings."""

    __slots__ = ("nodes", "pair", "loops", "_arcs")

    def __init__(self, nodes: list[Node], pair: dict[int, int], loops: int):
        self.nodes = nodes
        self.pair = pair
        self.loops = loops
        self._arcs: ArcData | None = None

    # -- basic counts ---------------------------------------------------------

    @property
    def crossing_count(self) -> int:
        return len(self.nodes)

    @property
    def classical_count(self) -> int:
        return sum(1 for n in self.nodes if not n.is_precrossing)

    def precrossing_indices(self) -> list[int]:
        return [i for i, n in enumerate(self.nodes) if n.is_precrossing]

    def slot_map(self) -> dict[int, tuple[int, int]]:
        out: dict[int, tuple[int, int]] = {}
        for idx, node in enumerate(self.nodes):
            for s, e in enumerate(node.slots):
                out[e] = (idx, s)
        return out

    # -- strand walking -------------------------------------------------------

    def _cycles(self) -> list[list[tuple[int, int, int]]]:
        """Strand cycles as passage lists (node, entry_slot, diagonal)."""
        slot_map = self.slot_map()
        departed: set[int] = set()
        arrived: set[int] = set()
        cycles = []
        for start in sorted(self.pair):
            if start in departed or start in arrived:
                continue
            passages = []
            e = start
            while True:
                departed.add(e)
                f = self.pair[e]
                arrived.add(f)
                node_idx, s = slot_map[f]
                passages.append((node_idx, s, s % 2))
                e = self.nodes[node_idx].slots[(s + 2) % 4]
                if e == start:
                    break
            cycles.append(passages)
        return cycles

    def _is_cut(self, passage: tuple[int, int, int]) -> bool:
        node_idx, _s, diag = passage
        over = self.nodes[node_idx].over
        return over is not None and diag != over

    def arcs(self) -> ArcData:
        if self._arcs is not None:
            return self._arcs
        cycles = self._cycles()
        arc_counter = 0
        arc_of: dict[tuple[int, int], int] = {}  # (cycle idx, passage idx) -> arc
        for ci, passages in enumerate(cycles):
            cuts = [k for k, p in enumerate(passages) if self._is_cut(p)]
            if not cuts:
                for k in range(len(passages)):
                    arc_of[(ci, k)] = arc_counter
                arc_counter += 1
                continue
            # each cut opens a fresh arc right after it; every passage lies on
            # the arc opened by the most recent cut behind it
            arc_after_cut = {c: arc_counter + i for i, c in enumerate(cuts)}
            arc_counter += len(cuts)
            current = arc_after_cut[cuts[-1]]
            for k in range(len(passages)):
                arc_of[(ci, k)] = current
                if k in arc_after_cut:
                    current = arc_after_cut[k]
        over_arc: dict[int, int] = {}
        under_in: dict[int, int] = {}
        under_out: dict[int, int] = {}
        pre_arcs: dict[int, dict[int, int]] = {}
        for ci, passages in enumerate(cycles):
            length = len(passages)
            for k, (node_idx, _s, diag) in enumerate(passages):
                node = self.nodes[node_idx]
                arc_here = arc_of[(ci, k)]
                if node.over is None:
                    pre_arcs.setdefault(node_idx, {})[diag] = arc_here
                elif diag == node.over:
                    over_arc[node_idx] = arc_here
                else:
                    under_in[node_idx] = arc_here
                    under_out[node_idx] = arc_of[(ci, (k + 1) % length)]
        classical = {
            idx: (over_arc[idx], under_in[idx], under_out[idx])
            for idx, node in enumerate(self.nodes)
            if node.over is not None
        }
        precrossing = {idx: (arcs[0], arcs[1]) for idx, arcs in pre_arcs.items()}
        data = ArcData(
            n_arcs=arc_counter + self.loops,
            classical=classical,
            precrossing=precrossing,
            components=len(cycles) + self.loops,
        )
        self._arcs = data
        return data

    # -- resolutions ------------------------------------------------------

    def resolve(self, assignment: Mapping[int, int]) -> "PseudoDiagram":
        """Assign over-diagonals to some precrossings; others stay undetermined."""
        nodes = list(self.nodes)
        for idx, choice in assignment.items():
            if not (0 <= idx < len(nodes)):
                raise UnknownNode(f"no node {idx} in this diagram")
            if not nodes[idx].is_precrossing:
                raise UnknownNode(f"node {idx} is not a precrossing")
            if choice not in (0, 1):
                raise ValueError("resolution choice must be 0 or 1")
            nodes[idx] = Node(nodes[idx].slots, choice)
        return PseudoDiagram(nodes, dict(self.pair), self.loops)

    def resolutions(self, cap: int = DEFAULT_PRECROSSING_CAP) -> Iterator[dict[int, int]]:
        """All 2^k full resolution assignments, precrossings in index order."""
        pres = self.precrossing_indices()
        if len(pres) > cap:
            raise TooManyPrecrossings(len(pres), cap)
        for bits in itertools.product((0, 1), repeat=len(pres)):
            yield dict(zip(pres, bits))

    def twist_classes(self) -> dict[int, tuple[int, int]]:
        """(group, sense flip) of every precrossing, joined across bigon faces.

        Nodes a != b bound a bigon when slots j and j+1 of a are joined to
        slots l and l-1 (mod 4) of b.  Precrossings linked by bigons share a
        group, with flip[a] ^ flip[b] = 1 ^ (j&1) ^ (l&1) across each bigon,
        so that a choice equal to its node's flip has the same (positive)
        twist sense everywhere in the group.  Two opposite-sense choices at a
        bigon cancel by Reidemeister II whichever way round they sit, so
        resolutions with the same count of positive-sense choices per group
        are isotopic: an i^n has n + 1 classes.

        The flips never contradict: a cycle of bigons passes each node
        through opposite faces, so its parities sum to 0.  A non-planar map
        (the raw constructor builds one; from_dict rejects it) has bigons
        that bound no disc, so there every precrossing keeps a group of its
        own.
        """
        pres = self.precrossing_indices()
        pre_slot = {e: (i, s) for i in pres for s, e in enumerate(self.nodes[i].slots)}
        links: dict[int, list[tuple[int, int]]] = {i: [] for i in pres}
        for a in pres:
            slots = self.nodes[a].slots
            for j in range(4):
                b, l = pre_slot.get(self.pair[slots[j]], (None, 0))
                b2, l2 = pre_slot.get(self.pair[slots[(j + 1) % 4]], (None, 0))
                if b is not None and b == b2 != a and l2 == (l - 1) % 4:
                    links[a].append((b, 1 ^ (j & 1) ^ (l & 1)))
        if any(links.values()) and not self.euler_ok():
            links = {i: [] for i in pres}
        classes: dict[int, tuple[int, int]] = {}
        n_groups = 0
        for start in pres:
            if start in classes:
                continue
            classes[start] = (n_groups, 0)
            queue = [start]
            while queue:
                cur = queue.pop()
                for nxt, parity in links[cur]:
                    if nxt not in classes:
                        classes[nxt] = (n_groups, classes[cur][1] ^ parity)
                        queue.append(nxt)
            n_groups += 1
        return classes

    # -- shadow / alternation ---------------------------------------------

    def alternating_assignment(self) -> tuple[dict[int, int], dict[int, int]] | None:
        """One alternating over-diagonal assignment of the underlying shadow.

        Returns (assignment, component-of-node); flipping every choice within
        a connected component yields the only other alternating assignment
        there.  None when no assignment exists, which cannot happen for a
        genuinely planar closed diagram.
        """
        x: dict[int, int] = {}
        comp: dict[int, int] = {}
        n_comp = 0
        adjacency: dict[int, list[tuple[int, int]]] = {i: [] for i in range(len(self.nodes))}
        for passages in self._cycles():
            length = len(passages)
            for k in range(length):
                n1, _s1, d1 = passages[k]
                n2, _s2, d2 = passages[(k + 1) % length]
                parity = 1 ^ d1 ^ d2
                adjacency[n1].append((n2, parity))
                adjacency[n2].append((n1, parity))
        for start in range(len(self.nodes)):
            if start in x:
                continue
            x[start] = 0
            comp[start] = n_comp
            queue = [start]
            while queue:
                cur = queue.pop()
                for nxt, parity in adjacency[cur]:
                    want = x[cur] ^ parity
                    if nxt not in x:
                        x[nxt] = want
                        comp[nxt] = n_comp
                        queue.append(nxt)
                    elif x[nxt] != want:
                        return None
            n_comp += 1
        return x, comp

    def is_pseudoalternating(self) -> bool:
        """True when some full resolution is an alternating diagram."""
        if not self.nodes:
            return True
        solved = self.alternating_assignment()
        if solved is None:
            return False
        x, comp = solved
        agree: dict[int, set[int]] = {}
        for idx, node in enumerate(self.nodes):
            c = comp[idx]
            agree.setdefault(c, {0, 1})
            if node.over is None:
                continue
            agree[c] &= {x[idx] ^ node.over}
        return all(choices for choices in agree.values())

    # -- planarity ---------------------------------------------------------

    def components_nodes(self) -> list[set[int]]:
        slot_map = self.slot_map()
        seen: set[int] = set()
        comps = []
        for start in range(len(self.nodes)):
            if start in seen:
                continue
            comp = {start}
            queue = [start]
            seen.add(start)
            while queue:
                cur = queue.pop()
                for e in self.nodes[cur].slots:
                    other, _ = slot_map[self.pair[e]]
                    if other not in seen:
                        seen.add(other)
                        comp.add(other)
                        queue.append(other)
            comps.append(comp)
        return comps

    def euler_ok(self) -> bool:
        """Check V - E + F = 2 on every connected component of the map."""
        slot_map = self.slot_map()
        next_dart: dict[int, int] = {}
        for e in self.pair:
            f = self.pair[e]
            node_idx, s = slot_map[f]
            next_dart[e] = self.nodes[node_idx].slots[(s + 1) % 4]
        face_of: dict[int, int] = {}
        n_faces = 0
        for e in self.pair:
            if e in face_of:
                continue
            cur = e
            while cur not in face_of:
                face_of[cur] = n_faces
                cur = next_dart[cur]
            n_faces += 1
        for comp in self.components_nodes():
            v = len(comp)
            e_count = sum(1 for a, b in self.pair.items() if a < b and slot_map[a][0] in comp)
            faces = {face_of[x] for idx in comp for x in self.nodes[idx].slots}
            if v - e_count + len(faces) != 2:
                return False
        return True

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        nodes = [
            {"id": i, "kind": n.kind, "slots": list(n.slots), "over": n.over}
            for i, n in enumerate(self.nodes)
        ]
        joins = sorted([min(a, b), max(a, b)] for a, b in self.pair.items() if a < b)
        return {"nodes": nodes, "joins": joins, "free_loops": self.loops}

    @staticmethod
    def from_dict(data: dict) -> "PseudoDiagram":
        raw_nodes = data["nodes"]
        nodes: list[Node] = []
        seen_slots: set[int] = set()
        for i, entry in enumerate(raw_nodes):
            if entry["id"] != i:
                raise DiagramError("node ids must be 0..n-1 in order")
            slots = tuple(entry["slots"])
            if len(slots) != 4 or len(set(slots)) != 4:
                raise DiagramError("each node needs 4 distinct slots")
            if seen_slots & set(slots):
                raise DiagramError("slot endpoint reused across nodes")
            seen_slots |= set(slots)
            over = entry["over"]
            kind = entry["kind"]
            expected = {"pos": 0, "neg": 1, "pre": None}[kind]
            if over != expected:
                raise DiagramError(f"kind {kind!r} inconsistent with over={over!r}")
            nodes.append(Node(slots, over))
        pair: dict[int, int] = {}
        for a, b in data["joins"]:
            if a in pair or b in pair or a == b:
                raise DiagramError("joins must form a perfect matching")
            pair[a] = b
            pair[b] = a
        if set(pair) != seen_slots:
            raise DiagramError("joins must cover every slot endpoint exactly once")
        d = PseudoDiagram(nodes, pair, int(data.get("free_loops", 0)))
        if not d.euler_ok():
            # the coloring minors of a non-planar map are not link invariants
            raise DiagramError("joins do not form a planar map (V - E + F != 2)")
        return d


def numerator_close(t: Tangle) -> PseudoDiagram:
    pair = dict(t.pair)
    loops = t.loops
    loops += _weld(pair, t.corners["ne"], t.corners["nw"])
    loops += _weld(pair, t.corners["se"], t.corners["sw"])
    return PseudoDiagram(list(t.nodes), pair, loops)


def denominator_close(t: Tangle) -> PseudoDiagram:
    pair = dict(t.pair)
    loops = t.loops
    loops += _weld(pair, t.corners["ne"], t.corners["se"])
    loops += _weld(pair, t.corners["nw"], t.corners["sw"])
    return PseudoDiagram(list(t.nodes), pair, loops)


def build_diagram(expr: ConwayExpr | str) -> PseudoDiagram:
    """Closed diagram of a Conway symbol: polyhedral form or numerator closure."""
    if isinstance(expr, str):
        expr = notation.parse(expr)
    if isinstance(expr, notation.Polyhedral):
        from .polyhedra import build_polyhedral

        return build_polyhedral(expr)
    return numerator_close(build_tangle(expr))
