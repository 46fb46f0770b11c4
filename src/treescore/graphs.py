"""Planar embedded multigraphs.

A graph is stored as integer edge ids with endpoint pairs plus a rotation
system: for every vertex, the cyclic counterclockwise order of incident
edge-ends. An edge-end ("dart") is the pair (edge_id, end) where end 0 sits at
the first endpoint and end 1 at the second; a self-loop contributes both of
its darts to the same vertex. Faces are recovered by walking dart orbits, so
deletion and contraction can preserve the embedding combinatorially.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Iterable
from dataclasses import dataclass, field

Dart = tuple[int, int]


class InvalidGraphError(ValueError):
    """Raised for malformed graph data (bad rotations, unknown edges, bad format)."""


def _memoised(build):
    """Decorator: ``build(g)`` runs once per graph, and later calls return its result.

    The result is kept in ``g``'s memo, which every new graph starts empty;
    callers must treat it as read-only. A build that raises stores nothing.
    """

    @functools.wraps(build)
    def view(g: EmbeddedMultiGraph):
        memo = g._memo
        if build not in memo:
            memo[build] = build(g)
        return memo[build]

    return view


class EmbeddedMultiGraph:
    """Multigraph with an explicit rotation system.

    Mutating operations return new graphs; instances are treated as immutable
    after construction. ``validate`` refuses every id, end, key or dart that
    is not an ``int``; derived graphs skip it and keep the dicts they pass.
    """

    __slots__ = ("_edges", "_rotation", "labels", "_memo")

    def __init__(
        self,
        edges: dict[int, tuple[int, int]],
        rotation: dict[int, list[Dart]],
        labels: dict[int, str] | None = None,
        validate: bool = True,
    ):
        self._edges, self._rotation = edges, rotation
        self.labels = dict(labels) if labels else {}
        self._memo: dict = {}
        if validate:
            self._check_structure()

    def _check_structure(self) -> None:
        """Rebuild every id, end, key and dart by the integer rule, then check the rotation."""
        try:
            self._edges = {
                _strict_int(e, "edge id"): (_strict_int(u, "edge end"), _strict_int(v, "edge end"))
                for e, (u, v) in self._edges.items()
            }
            self._rotation = {
                _strict_int(v, "rotation key"): [
                    (_strict_int(e, "dart edge"), _strict_int(s, "dart side")) for e, s in rot
                ]
                for v, rot in self._rotation.items()
            }
        except (TypeError, ValueError) as exc:
            raise InvalidGraphError(f"malformed graph object: {exc}") from exc
        seen: dict[Dart, int] = {}
        for v, rot in self._rotation.items():
            for dart in rot:
                if dart in seen:
                    raise InvalidGraphError(f"dart {dart} appears twice")
                seen[dart] = v
        for e, (u, v) in self._edges.items():
            if u not in self._rotation or v not in self._rotation:
                raise InvalidGraphError(f"edge {e} references missing vertex")
            if seen.get((e, 0)) != u or seen.get((e, 1)) != v:
                raise InvalidGraphError(f"edge {e} darts misplaced in rotation")
        if len(seen) != 2 * len(self._edges):
            raise InvalidGraphError("rotation contains darts of unknown edges")

    # --- basic accessors -------------------------------------------------

    @property
    def vertices(self) -> list[int]:
        return sorted(self._rotation)

    @property
    def edge_ids(self) -> list[int]:
        return sorted(self._edges)

    @property
    def num_vertices(self) -> int:
        return len(self._rotation)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def endpoints(self, e: int) -> tuple[int, int]:
        return self._edges[e]

    def edges_dict(self) -> dict[int, tuple[int, int]]:
        return dict(self._edges)

    def is_loop(self, e: int) -> bool:
        u, v = self._edges[e]
        return u == v

    def degree(self, v: int) -> int:
        """Number of incident edge-ends (a self-loop counts twice)."""
        return len(self._rotation[v])

    def rotation(self, v: int) -> list[Dart]:
        return list(self._rotation[v])

    def neighbors(self, v: int) -> set[int]:
        out = set()
        for e, s in self._rotation[v]:
            u, w = self._edges[e]
            out.add(w if s == 0 else u)
        out.discard(v)
        return out

    def is_connected(self) -> bool:
        verts = self.vertices
        if not verts:
            return False
        seen = {verts[0]}
        stack = [verts[0]]
        while stack:
            v = stack.pop()
            for w in self.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(verts)

    def copy(self) -> "EmbeddedMultiGraph":
        rotation = {v: list(r) for v, r in self._rotation.items()}
        return EmbeddedMultiGraph(dict(self._edges), rotation, self.labels, validate=False)

    def __repr__(self) -> str:
        return f"EmbeddedMultiGraph(|V|={self.num_vertices}, |E|={self.num_edges})"

    # --- embedding-preserving operations ---------------------------------

    def delete_edge(self, e: int | Iterable[int]) -> "EmbeddedMultiGraph":
        """Remove edge e, or every edge in a collection of ids, keeping all vertices.

        The graph is copied once however many edges go; the result equals
        deleting them one at a time, and may be disconnected.
        """
        ids = [e] if isinstance(e, int) else list(e)
        for f in ids:
            if f not in self._edges:
                raise InvalidGraphError(f"no edge {f}")
        gone = set(ids)
        edges = {f: uv for f, uv in self._edges.items() if f not in gone}
        rotation = {w: [d for d in r if d[0] not in gone] for w, r in self._rotation.items()}
        return EmbeddedMultiGraph(edges, rotation, self.labels, validate=False)

    def contract_edge(self, e: int) -> "EmbeddedMultiGraph":
        """Contract non-loop edge e; the merged vertex keeps the smaller id.

        The rotation of the removed vertex is spliced into the kept vertex at
        the position of the contracted edge, so faces are preserved (other
        edges between the two endpoints become self-loops).
        """
        if e not in self._edges:
            raise InvalidGraphError(f"no edge {e}")
        a, b = self._edges[e]
        if a == b:
            raise InvalidGraphError(f"cannot contract self-loop {e}")
        keep, gone = (a, b) if a < b else (b, a)
        dart_keep = (e, 0) if a == keep else (e, 1)
        dart_gone = (e, 1) if a == keep else (e, 0)

        rot_keep = self._rotation[keep]
        rot_gone = self._rotation[gone]
        i = rot_keep.index(dart_keep)
        j = rot_gone.index(dart_gone)
        merged = rot_keep[:i] + rot_gone[j + 1:] + rot_gone[:j] + rot_keep[i + 1:]

        edges: dict[int, tuple[int, int]] = {}
        for f, (u, v) in self._edges.items():
            if f == e:
                continue
            if u == gone:
                u = keep
            if v == gone:
                v = keep
            edges[f] = (u, v)

        rotation = {w: list(r) for w, r in self._rotation.items() if w not in (keep, gone)}
        rotation[keep] = merged
        labels = {v: s for v, s in self.labels.items() if v != gone}
        return EmbeddedMultiGraph(edges, rotation, labels, validate=False)

    # --- faces ------------------------------------------------------------

    @_memoised
    def trace_faces(self) -> "DualGraph":
        """Walk all face orbits of the embedding.

        From a dart d = (e, s) leaving vertex tail(d), the next dart on the
        same face is the rotation successor of d's twin at the opposite
        endpoint. Orbit count F satisfies V - E + F = 2 on a connected planar
        embedding.
        """
        succ: dict[Dart, Dart] = {}
        for v, rot in self._rotation.items():
            k = len(rot)
            for i, d in enumerate(rot):
                succ[d] = rot[(i + 1) % k]

        dart_face: dict[Dart, int] = {}
        faces: dict[int, list[int]] = {}
        fid = 0
        for start in sorted(succ):
            if start in dart_face:
                continue
            walk: list[int] = []
            d = start
            while True:
                dart_face[d] = fid
                walk.append(d[0])
                e, s = d
                d = succ[(e, 1 - s)]
                if d == start:
                    break
            faces[fid] = walk
            fid += 1
        if not faces:
            faces = {0: []}

        dual_edges = {
            e: (dart_face[(e, 0)], dart_face[(e, 1)]) for e in self._edges
        }
        face_degree = {f: len(w) for f, w in faces.items()}
        euler = self.num_vertices - self.num_edges + len(faces)
        return DualGraph(
            faces=faces,
            dart_face=dart_face,
            dual_edges=dual_edges,
            face_degree=face_degree,
            euler=euler,
        )


class _UnionFind:
    """Union-find with minimum-element representatives."""

    __slots__ = ("parent",)

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b) -> int | None:
        """Join the classes of a and b; the kept root, or None if they were one class."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return None
        keep, gone = (ra, rb) if ra < rb else (rb, ra)
        self.parent[gone] = keep
        return keep


@dataclass(frozen=True)
class DualGraph:
    """Faces of an embedding: boundary walks, per-edge face pairs, degrees."""

    faces: dict[int, list[int]]
    dart_face: dict[Dart, int]
    dual_edges: dict[int, tuple[int, int]]
    face_degree: dict[int, int]
    euler: int

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    def bridges(self) -> set[int]:
        """Edges with the same face on both sides (self-loops of the dual)."""
        return {e for e, (f, g) in self.dual_edges.items() if f == g}


@dataclass(frozen=True)
class BoundednessCertificate:
    """Outcome of a degree-boundedness check on one embedding.

    Every vertex except v0 must have degree at most k1, every face except f0
    degree at most k2, and neither the graph nor its dual may contain a
    self-loop. The check applies to the given embedding only.
    """

    k1: int
    k2: int
    v0: int
    f0: int
    holds: bool
    violations: tuple = ()
    scope: str = "given-embedding"

    def to_json(self) -> dict:
        return {
            "k1": self.k1,
            "k2": self.k2,
            "v0": self.v0,
            "f0": self.f0,
            "holds": self.holds,
            "violations": [list(v) for v in self.violations],
            "scope": self.scope,
        }


def bound_violations(
    g: EmbeddedMultiGraph, dual: DualGraph, k1: int, k2: int, v0: int, f0: int
) -> list[tuple]:
    """Everything that keeps ``g`` from being (k1, k2)-bounded with exemptions v0, f0.

    ``dual`` is ``g.trace_faces()``. Each violation is ``(kind, id, value)``:
    vertex degrees above k1, face degrees above k2, self-loops, then bridges
    (self-loops of the dual, reported with their face); empty means bounded.
    """
    violations: list[tuple] = []
    for v in g.vertices:
        if v != v0 and g.degree(v) > k1:
            violations.append(("vertex-degree", v, g.degree(v)))
    for f in dual.faces:
        if f != f0 and dual.face_degree[f] > k2:
            violations.append(("face-degree", f, dual.face_degree[f]))
    for e in g.edge_ids:
        if g.is_loop(e):
            violations.append(("self-loop", e, 0))
    for e in sorted(dual.bridges()):
        violations.append(("bridge", e, dual.dual_edges[e][0]))
    return violations


def check_bounded(g: EmbeddedMultiGraph, k1: int, k2: int) -> BoundednessCertificate:
    """Check vertex/face degree bounds with one exemption on each side.

    v0 is the maximum-degree vertex (ties broken by lowest id) and f0 the
    maximum-degree face, so the certificate holds whenever any exemption
    choice would make it hold on this embedding.
    """
    if k1 < 1 or k2 < 1:
        raise ValueError("degree bounds must be positive")
    dual = g.trace_faces()
    v0 = max(g.vertices, key=lambda v: (g.degree(v), -v))
    f0 = max(dual.faces, key=lambda f: (dual.face_degree[f], -f))
    violations = bound_violations(g, dual, k1, k2, v0, f0)
    return BoundednessCertificate(
        k1=k1, k2=k2, v0=v0, f0=f0, holds=not violations, violations=tuple(violations)
    )


def make_grid(width: int, height: int) -> EmbeddedMultiGraph:
    """Rectangular grid graph with vertex ids row*width+col.

    The rotation at every vertex lists the incident edges in north, east,
    south, west order, which is a consistent planar embedding.
    """
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be positive")
    if width * height < 2:
        raise ValueError("grid needs at least two vertices")
    edges: dict[int, tuple[int, int]] = {}
    east: dict[int, int] = {}
    south: dict[int, int] = {}
    eid = 0
    for r in range(height):
        for c in range(width):
            v = r * width + c
            if c + 1 < width:
                edges[eid] = (v, v + 1)
                east[v] = eid
                eid += 1
            if r + 1 < height:
                edges[eid] = (v, v + width)
                south[v] = eid
                eid += 1
    rotation: dict[int, list[Dart]] = {}
    for r in range(height):
        for c in range(width):
            v = r * width + c
            rot: list[Dart] = []
            if r > 0:
                rot.append((south[v - width], 1))
            if c + 1 < width:
                rot.append((east[v], 0))
            if r + 1 < height:
                rot.append((south[v], 0))
            if c > 0:
                rot.append((east[v - 1], 1))
            rotation[v] = rot
    return EmbeddedMultiGraph(edges, rotation)


def induced_subgraph(g: EmbeddedMultiGraph, vertices) -> EmbeddedMultiGraph:
    """Subgraph on the given vertices; rotations keep their cyclic order."""
    vs = set(vertices)
    unknown = vs - set(g.vertices)
    if unknown:
        raise InvalidGraphError(f"unknown vertices {sorted(unknown)}")
    edges = {e: (u, v) for e, (u, v) in g.edges_dict().items() if u in vs and v in vs}
    rotation = {
        v: [d for d in g.rotation(v) if d[0] in edges] for v in sorted(vs)
    }
    labels = {v: s for v, s in g.labels.items() if v in vs}
    return EmbeddedMultiGraph(edges, rotation, labels, validate=False)


# --- serialization ---------------------------------------------------------


def graph_to_json(g: EmbeddedMultiGraph) -> dict:
    """Canonical JSON form: sorted ids, rotations rotated to start at their smallest dart."""
    rotation = {}
    for v in g.vertices:
        rot = g.rotation(v)
        if rot:
            k = rot.index(min(rot))
            rot = rot[k:] + rot[:k]
        rotation[str(v)] = [[e, s] for e, s in rot]
    obj = {
        "vertices": g.vertices,
        "edges": [{"id": e, "u": g.endpoints(e)[0], "v": g.endpoints(e)[1]} for e in g.edge_ids],
        "rotation": rotation,
    }
    if g.labels:
        obj["labels"] = {str(v): g.labels[v] for v in sorted(g.labels)}
    return obj


def graph_to_json_str(g: EmbeddedMultiGraph) -> str:
    return json.dumps(graph_to_json(g), indent=2, sort_keys=True) + "\n"


def _strict_int(value, what: str, key: bool = False) -> int:
    """``value`` if it is exactly an integer; nothing is coerced.

    Accepts an ``int`` that is not a ``bool`` and, for an object key, which
    JSON writes as a string (``key``), a canonical decimal string
    (``s == str(int(s))``). Anything else raises ``TypeError`` or
    ``ValueError``.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if key and isinstance(value, str) and value == str(int(value)):
        return int(value)
    raise TypeError(f"{what} must be an integer, not {value!r}")


def graph_from_json(obj: dict, require_connected: bool = True) -> EmbeddedMultiGraph:
    try:
        vertices = [_strict_int(v, "vertex") for v in obj["vertices"]]
        # dict keys are checked here (1 and true would merge); ends and darts once built
        edges = {_strict_int(rec["id"], "edge id"): (rec["u"], rec["v"]) for rec in obj["edges"]}
        rotation = {
            _strict_int(v, "rotation key", key=True): rot for v, rot in obj["rotation"].items()
        }
        labels = {
            _strict_int(v, "label key", key=True): str(s) for v, s in obj.get("labels", {}).items()
        }
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InvalidGraphError(f"malformed graph object: {exc}") from exc
    if sorted(rotation) != sorted(set(vertices)):
        raise InvalidGraphError("rotation keys do not match the vertex list")
    g = EmbeddedMultiGraph(edges, rotation, labels, validate=True)
    if require_connected and not g.is_connected():
        raise InvalidGraphError("graph is not connected")
    return g


def save_graph(g: EmbeddedMultiGraph, path) -> None:
    with open(path, "w") as fh:
        fh.write(graph_to_json_str(g))


def load_graph(path, require_connected: bool = True) -> EmbeddedMultiGraph:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidGraphError(f"not valid JSON: {exc}") from exc
    return graph_from_json(obj, require_connected=require_connected)


def same_embedding(a: EmbeddedMultiGraph, b: EmbeddedMultiGraph) -> bool:
    """Equality up to cyclic rotation of each vertex's dart order."""
    if a.vertices != b.vertices or a.edges_dict() != b.edges_dict():
        return False
    for v in a.vertices:
        ra, rb = a.rotation(v), b.rotation(v)
        if len(ra) != len(rb):
            return False
        if not ra:
            continue
        if min(ra) != min(rb):
            return False
        ka, kb = ra.index(min(ra)), rb.index(min(rb))
        if ra[ka:] + ra[:ka] != rb[kb:] + rb[:kb]:
            return False
    return True
