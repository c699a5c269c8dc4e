"""Compile a reversible machine's graph into a placed billiard table.

Layout scheme (all coordinates exact integer records, each over its one
denominator; every gadget is built where it stays, so each wall, mirror
family and chart is placed once, by the builder):

* one station per state along the x axis, pitch 16.  A station stacks,
  bottom to top: the launch pad (initial state only, y=-16), the merge
  for incoming edges (y in [-12,-2], states with in-degree 2), the
  checkpoint chart at y=0 (a hard wall for halting states, a marked
  crossing line otherwise), the read/rewrite split (y in [1,11]) and one
  shift stage per outgoing branch (y in [13,25], branch lanes -2/+2).

* one corridor per graph edge: after its shift stage the beam turns
  right along a private row (y = 28 + 3*edge), descends a private lane
  right of all stations, runs back left under everything (y = -24 -
  3*edge) and turns up into the target's merge lane.  Rows, lanes and
  mirror cells are disjoint by construction and verified exactly; beams
  may cross beams freely, only walls must never intersect.

The four turn mirrors of a corridor sit at the corners of its route and
keep the transverse coordinate rigid, so a corridor's transfer is split o
shift o rebase o merge, which per head level reduces to the machine edge
acting on the encoded value.

What is the same on every table is one record per key, made once per
process and moved by integer offsets: a shift stage's (eps, sigma) record
(arcs, lane constants, port offsets), a mirror family's (levels, cell
offset, writes) level records and index, a merge's injectivity verdict
per family key, and the turns' and rebases' lane pieces.  Per table are
what the layout places: the checkpoints, the launch pad, the split ports
and the turn mirrors, each by its one constructor, and each gadget's
placed walls and ports; and, on the first run_numeric, the trace scene
that files them (``trace_scene``).
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from json.encoder import encode_basestring_ascii
from typing import Optional

from .encoding import digit_position, head_of, rewrite_scale
from .gadgets import (
    SIGMA,
    DomainError,
    Gadget,
    Piece,
    PiecewiseTransfer,
    build_merge_gadget,
    build_shift_stage,
    build_split_gadget,
    turn_mirror,
)
from .geometry import Chart, ParabolaArc, Segment, integers, walls_clash
from .machine import build_graph, check_reversible
from .ternary import T

# the stations and the gadgets' heights, and the corridors' routes, whose
# corners place the turn mirrors: all integers
STATION_PITCH = 16
SPLIT_DY = 1
STAGE_DY = 13
MERGE_DY = -12
PAD_Y = -16
ROW0 = 28
ROW_PITCH = 3
BROW0 = -24
LANE_MARGIN = 8
LANE_PITCH = 3
DEFAULT_SCENE_LEVELS = 3

#: The types of a scene entry that is a wall, not a mirror family.
_WALLS = (Segment, ParabolaArc)


class CompileError(Exception):
    pass


class NotReversible(CompileError):
    def __init__(self, witness):
        super().__init__(f"machine is not reversible: {witness.reason}")
        self.witness = witness


class OutOfRange(Exception):
    """A trajectory needs a head position beyond the compiled K."""

    def __init__(self, k):
        super().__init__(f"head position {k} beyond table range")
        self.k = k


@dataclass
class Station:
    state: str
    x: int
    checkpoint: Chart
    split: Optional[Gadget] = None
    merge: Optional[Gadget] = None


@dataclass
class Corridor:
    """One graph edge: split, shift stage, four turn mirrors and merge, with
    their composed transfer."""

    edge: object  # machine.Transition
    index: int
    branch: int          # read symbol, selects the split branch and lane
    sigma_in: int        # lane offset after the split (-2 or +2)
    sigma_out: int       # lane offset expected by the target (0 if merge-free)
    split: Gadget
    stage: Gadget        # built at STAGE_DY
    turns: tuple         # four turn mirrors (Segments), at the route's corners
    merge: Optional[Gadget]
    K: int = 8
    premerge: Optional[PiecewiseTransfer] = None   # virtual split behind merge

    def apply(self, value):
        """Exact corridor transfer; returns (new value, ordered pieces).

        Raises OutOfRange for head levels the table does not cover and
        DomainError for values that are not valid codes (a compiler bug,
        surfaced loudly).
        """
        k = head_of(value)
        if k is None:
            raise DomainError(f"corridor {self.edge}: {value} is not a code")
        if abs(k) > self.K:
            raise OutOfRange(k)
        k_target = k + self.edge.shift
        if abs(k_target) > self.K:
            raise OutOfRange(k_target)
        pieces = []
        v, piece = self.split.transfer.apply(value)
        if piece.tag != f"branch{self.branch}":
            raise DomainError(
                f"corridor {self.edge}: value {value} belongs to {piece.tag}")
        pieces.append(piece)
        v, piece = self.stage.transfer.apply(v)
        pieces.append(piece)
        one = 3 ** v.exp
        if not self.sigma_in * one <= v.num <= (self.sigma_in + 1) * one:
            raise DomainError(f"corridor {self.edge}: {v} outside its lane window")
        pieces += self.turn_pieces
        v = self.rebase_piece.apply(v)
        pieces.append(self.rebase_piece)
        if self.merge is not None:
            v, piece = self.merge.transfer.apply(v)
            pieces.append(piece)
        return v, pieces

    @cached_property
    def turn_pieces(self):
        """The turns' transfer: the identity on the lane window, one piece
        per mirror, over the lane's values (``_lane_identity``)."""
        lo, hi, one, zero = _lane_identity(self.sigma_in)
        return tuple(Piece(lo, hi, one, zero, (w.wall_id,), "turn") for w in self.turns)

    @cached_property
    def rebase_piece(self):
        """The move from the stage's lane to the target's, u -> u + rebase
        (``_rebase``)."""
        return _rebase(self.sigma_out - self.sigma_in)

    def apply_inverse(self, value_after):
        """Run the corridor's transfer chain backwards, piece by piece.

        Inverts each stage: merge via its virtual-split piece, the shift
        via its own piece, the split via the rewrite displacement; used by
        the time-reversed periodicity replay.  The shift's piece for head
        level k maps I_k onto I_(k + shift) (in lane coordinates), so the
        value's level after the shift picks it: u -> a*u + b, a = 3 or 1/3.
        """
        w = value_after
        if self.merge is not None:
            piece = self.premerge.locate(w)
            w = w + piece.b
        rebase = self.sigma_out - self.sigma_in
        if rebase:
            w = w - rebase
        k = head_of(w - self.sigma_in)
        if k is None or abs(k) > self.K or abs(k - self.edge.shift) > self.K:
            raise DomainError(f"inverse corridor {self.edge}: {w} outside the shift's image")
        k -= self.edge.shift
        piece, = self.stage.transfer.pieces([k])
        u = w - piece.b
        u = u * 3 if piece.a < 1 else u.div3()
        x = u - self.sigma_in - (self.edge.write - self.edge.read) * 2 * rewrite_scale(k)
        forward, piece = self.split.transfer.apply(x)
        if forward != u or piece.tag != f"branch{self.branch}":
            raise DomainError(f"inverse corridor {self.edge}: not in image")
        return x


# one entry per lane offset: a table's lanes are SIGMA's and 0
@lru_cache(maxsize=16)
def _lane_identity(sigma):
    """(lo, hi, 1, 0): the window [sigma, sigma + 1] and the identity's
    coefficients, the values of a turn's piece in lane ``sigma``."""
    return T(sigma), T(sigma + 1), T(1), T(0)


# one entry per move between lanes: at most the differences of SIGMA and 0
@lru_cache(maxsize=16)
def _rebase(rebase):
    """The piece u -> u + ``rebase`` that moves a beam between lanes."""
    return Piece(T(0), T(0), T(1), T(rebase), (), "rebase")


@dataclass
class BilliardTable:
    machine: object
    K: int
    graph: object
    stations: dict
    corridors: dict        # (state, read) -> Corridor
    initial_pad: Chart
    machine_hash: str
    scene_levels: int = DEFAULT_SCENE_LEVELS

    # -- charts ----------------------------------------------------------

    def checkpoint_point(self, state, value):
        """The point of ``state``'s checkpoint chart at ``value``, in
        Fractions, read off the chart's and the value's integers."""
        x, y, w = self.stations[state].checkpoint.point(value.num, 3 ** value.exp)
        return Fraction(x, w), Fraction(y, w)

    # -- scene -------------------------------------------------------------

    @cached_property
    def scene(self):
        """The scene as one flat tuple in scene_walls order: the launch pad,
        the stations, then the corridors.  Each static wall (pad, hard
        checkpoint, stage arc, turn mirror) is an entry, a Segment or a
        ParabolaArc, as compile_table placed it, and so is each split and
        merge's mirror family (a _BlockMirrors), as its gadget holds it."""
        scene = [self.initial_pad.wall]
        for q in self.machine.states:
            st = self.stations[q]
            if st.checkpoint.hard:
                scene.append(st.checkpoint.wall)
            scene += [g.mirrors for g in (st.split, st.merge) if g is not None]
        for key in sorted(self.corridors):
            corridor = self.corridors[key]
            scene += corridor.stage.static_walls
            scene += corridor.turns
        return tuple(scene)

    @cached_property
    def static_walls(self):
        return tuple(entry for entry in self.scene if isinstance(entry, _WALLS))

    @cached_property
    def mirror_families(self):
        return tuple(entry for entry in self.scene if not isinstance(entry, _WALLS))

    @cached_property
    def trace_scene(self):
        """The scene as the exact tracer reads it (``numeric.TraceScene``):
        the static walls and charts read with their float boxes, the mirror
        families and the hard checkpoints, built on the first run_numeric
        and kept, as ``scene`` is."""
        from .numeric import TraceScene    # the tracer, which symbolic runs skip
        halts = {st.checkpoint.wall.wall_id: st.checkpoint
                 for st in self.stations.values() if st.checkpoint.hard}
        return TraceScene(self.static_walls, self.mirror_families, self.marked_segments(),
                          halts)

    def scene_walls(self, levels=None):
        """All placed walls for the given head levels (default: the
        ``scene_levels`` around 0), in scene order: each static wall as
        itself and each split/merge mirror as its Segment.  The one wall
        listing that to_json, verify_layout and to_svg read."""
        if levels is None:
            levels = range(-self.scene_levels, self.scene_levels + 1)
        levels = list(levels)
        walls = []
        for entry in self.scene:   # a wall, or a mirror family
            walls += [entry] if isinstance(entry, _WALLS) else entry.rows(levels)
        return walls

    def wall_count(self, levels):
        """How many walls ``scene_walls`` lists for the head levels |k| <=
        ``levels``, counted in O(K) before anything is listed: a family's
        level k holds 2^(digit_pos + 1) mirrors."""
        return len(self.static_walls) + sum(
            2 ** (digit_position(k + mirrors.cell_offset) + 1)
            for mirrors in self.mirror_families for k in mirrors.levels
            if abs(k) <= levels)

    def marked_segments(self):
        marks = [self.initial_pad]
        for q in self.machine.states:
            marks.append(self.stations[q].checkpoint)
        return marks

    def verify_layout(self, levels=None):
        """Exact pairwise non-intersection of all walls.

        Reads ``scene_walls``: the walls' bounding boxes, from a segment's
        integer ends and an arc's box, are scaled to integers over their
        common denominator and swept in x order.  Every pair whose x ranges
        meet is inspected; only a pair whose boxes also meet in y is decided
        by ``walls_clash``: segment pairs exactly, pairs involving a
        parabola arc conservatively by bounding boxes.  Returns the number
        of pairs inspected; raises CompileError with the offending ids
        otherwise.
        """
        walls = self.scene_walls(levels)
        corners = [w[:5] if w.kind == "segment" else integers(*w.bbox()) for w in walls]
        den = math.lcm(*{c[0] for c in corners})
        boxes = []
        for i, (d, *c) in enumerate(corners):
            x0, y0, x1, y1 = (v * (den // d) for v in c)
            boxes.append((min(x0, x1), i, max(x0, x1), min(y0, y1), max(y0, y1)))
        boxes.sort()
        x_los = [box[0] for box in boxes]
        checked = 0
        for n, (_, i, x_hi, y_lo, y_hi) in enumerate(boxes):
            # the boxes after this one in x order that start inside its x range
            end = bisect.bisect_right(x_los, x_hi, n + 1)
            checked += end - n - 1
            for _, j, _, y_lo2, y_hi2 in boxes[n + 1:end]:
                if y_lo2 <= y_hi and y_lo <= y_hi2 and walls_clash(walls[i], walls[j]):
                    raise CompileError(
                        f"walls intersect: {walls[i].wall_id} / {walls[j].wall_id}")
        return checked

    # -- serialization -----------------------------------------------------

    def to_json(self):
        """The table file: the chunks of ``_chunks``, joined."""
        return "".join(self._chunks())

    def write(self, fh):
        """Write the table file to ``fh`` as ``_chunks`` makes it, never
        holding it whole: the bytes of to_json."""
        fh.writelines(self._chunks())

    def _chunks(self):
        """The table file as a stream of texts: ``_document`` as
        json.dumps(indent=1, sort_keys=True) writes it, each corridor's
        pieces put in its "pieces", and the walls of the scene added as its
        last key, "scene" (it sorts after every other key).  Each piece and
        each wall is written from one fixed text per kind, the bytes json
        would write: values as reduced strings, ids escaped as ensure_ascii
        does.  Each split's pieces are listed once, divided by branch; the
        walls come one chunk per static wall and per mirror family, so no
        list of every wall is made."""
        levels = range(-self.scene_levels, self.scene_levels + 1)
        parts = json.dumps(self._document(), indent=1, sort_keys=True).split(_NO_PIECES)
        assert len(parts) == len(self.corridors) + 1
        split_texts = {}      # source state -> {tag: its split's piece texts}
        for part, ((q, a), c) in zip(parts, sorted(self.corridors.items())):
            yield part
            if q not in split_texts:
                split_texts[q] = {}
                for p in c.split.transfer.pieces(levels):
                    split_texts[q].setdefault(p.tag, []).append(_piece_text("split", p))
            # never empty: a shift stage has a piece for level 0
            texts = split_texts[q].get(f"branch{a}", []) + [
                _piece_text("shift", p) for p in c.stage.transfer.pieces(levels)]
            yield '"pieces": [\n' + ",\n".join(texts) + "\n   ]"
        # the last part ends the document, "\n}"; the scene goes before it.
        # It always holds the launch pad, so the list is never empty
        yield parts[-1][:-2] + ',\n "scene": [\n'
        sep = ""
        for entry in self.scene:   # a wall, or a mirror family
            walls = (entry,) if isinstance(entry, _WALLS) else entry.rows(levels)
            if walls:
                yield sep + ",\n".join(map(_wall_text, walls))
                sep = ",\n"
        yield "\n ]\n}"

    def _document(self):
        """The serialized table but its scene, as a JSON-ready dict, each
        corridor's "pieces" left empty for ``_chunks`` to fill."""
        marks = []
        for m in self.marked_segments():
            marks.append({"name": m.name, "origin": [_ratio(m.ox, m.den), _ratio(m.oy, m.den)],
                          "tangent": [_ratio(t, 1) for t in m.tangent],
                          "beam": [_ratio(b, 1) for b in m.beam], "hard": m.hard})
        corridors = []
        for (q, a), c in sorted(self.corridors.items()):
            corridors.append({
                "source": q, "read": a, "target": c.edge.target,
                "write": c.edge.write, "shift": c.edge.shift,
                "sigma_in": c.sigma_in, "sigma_out": c.sigma_out,
                "index": c.index,
                "ports": {
                    "in": {"window": [0, 1], "beam": "+y"},
                    "branch": {"window": [c.sigma_in, c.sigma_in + 1], "beam": "+y"},
                    "out": {"window": [c.sigma_out, c.sigma_out + 1], "beam": "+y"},
                },
                "pieces": [],
            })
        return {
            "format": "carom-table/1",
            "meta": {
                "machine": self.machine.canonical_text(),
                "machine_sha256": self.machine_hash,
                "K": self.K,
                "scene_levels": self.scene_levels,
                "grid_pitch": str(STATION_PITCH),
            },
            "checkpoints": marks,
            "corridors": corridors,
        }


def _ratio(n, d):
    """n / d, d > 0, in lowest terms as the table file writes it: "n/d"."""
    g = math.gcd(n, d)
    return f"{n // g}/{d // g}"


def _piece_text(stage, p):
    # a tag is a fixed ASCII word ("branch1", "neg:k-3"): json escapes nothing
    return _PIECE_TEXT % (p.a, p.b, p.hi, p.lo, stage, p.tag,
                          *map(encode_basestring_ascii, p.wall_ids))


def _wall_text(w):
    if w.kind == "segment":
        den, x0, y0, x1, y1, wid = w
        return _SEGMENT_TEXT % (encode_basestring_ascii(wid), _ratio(x0, den), _ratio(y0, den),
                                _ratio(x1, den), _ratio(y1, den))
    den = w.den
    return _ARC_TEXT % (_ratio(w.apex, den), _ratio(w.axis, den),
                        encode_basestring_ascii(w.wall_id), _ratio(w.focal, den), w.sign,
                        _ratio(w.hi, den), _ratio(w.lo, den))


#: a corridor's "pieces" as ``_document`` leaves it.  Only a key can read
#: so, since json escapes every quote inside a string
_NO_PIECES = '"pieces": []'

# one piece of a corridor and one wall of the scene list as
# json.dumps(indent=1, sort_keys=True) writes them: ids json-escaped, a
# piece's values TernaryRational strings, a wall's reduced "n/d" strings
# (_ratio), a sign an int
_PIECE_TEXT = """\
    {
     "a": "%s",
     "b": "%s",
     "hi": "%s",
     "lo": "%s",
     "stage": "%s",
     "tag": "%s",
     "walls": [
      %s,
      %s
     ]
    }"""
_SEGMENT_TEXT = """\
  {
   "id": %s,
   "kind": "segment",
   "p0": [
    "%s",
    "%s"
   ],
   "p1": [
    "%s",
    "%s"
   ]
  }"""
_ARC_TEXT = """\
  {
   "apex_y": "%s",
   "axis_x": "%s",
   "id": %s,
   "kind": "parabola_arc",
   "p": "%s",
   "sign": %d,
   "x_hi": "%s",
   "x_lo": "%s"
  }"""


def machine_hash(machine):
    return hashlib.sha256(machine.canonical_text().encode()).hexdigest()


def compile_table(machine, K, scene_levels=DEFAULT_SCENE_LEVELS):
    """Build the computational billiard for ``machine`` with |head| <= K."""
    witness = check_reversible(machine)
    if witness is not None:
        raise NotReversible(witness)
    if K < 1:
        raise CompileError("K must be >= 1")
    if scene_levels < 0:
        raise CompileError("scene_levels must be >= 0")
    graph = build_graph(machine)

    stations = {}
    for i, q in enumerate(machine.states):
        x = STATION_PITCH * i
        halting = machine.is_halting(q)
        checkpoint = Chart.of((x, 0), (1, 0), (0, 1), name=f"chk:{q}", hard=halting)
        stations[q] = Station(state=q, x=x, checkpoint=checkpoint)

    # splits: one per non-halting state, writing what its two out-edges write
    writes = {}
    for t in graph.edges:
        writes[(t.state, t.read)] = t.write
    for q in machine.states:
        if machine.is_halting(q):
            continue
        st = stations[q]
        st.split = build_split_gadget(K, (writes[(q, 0)], writes[(q, 1)]), base_x=st.x,
                                      base_y=SPLIT_DY, name=f"split:{q}")

    # merges: states entered by two edges; the walls classify on the tape
    # cell behind the head, which reversibility makes branch-disjoint.
    # premerge[q] is the transfer of the virtual split a merge mirrors
    premerge = {}
    for q in machine.states:
        incoming = graph.in_edges(q)
        if len(incoming) < 2:
            continue
        st = stations[q]
        eps = incoming[0].shift
        assert all(e.shift == eps for e in incoming), "reversibility broken"
        virtual = build_split_gadget(K, cell_offset=-eps, base_x=st.x, base_y=MERGE_DY,
                                     name=f"premerge:{q}")
        st.merge = build_merge_gadget(virtual, name=f"merge:{q}")
        premerge[q] = virtual.transfer

    # corridors
    edges = list(graph.edges)
    n_states = len(machine.states)
    lane0 = STATION_PITCH * (n_states - 1) + STATION_PITCH // 2 + LANE_MARGIN
    corridors = {}
    for idx, edge in enumerate(edges):
        src, tgt = stations[edge.state], stations[edge.target]
        a = edge.read
        sigma_in = SIGMA[a]
        merged = tgt.merge is not None
        sigma_out = SIGMA[edge.write] if merged else 0
        stage = build_shift_stage(edge.shift, base_x=src.x, base_y=STAGE_DY, sigma=sigma_in,
                                  K=K, name=f"stage:{edge.state}.r{a}")

        # the beam window [sigma_in, sigma_in + 1] leaves the stage going
        # up; its lo edge turns at four corners, right along a private row,
        # down a private lane, left along a private bottom row and up into
        # the target's lane.  Each turn mirror meets the beam at lo + s at
        # corner + s*v: the route keeps the transverse coordinate rigid
        row = ROW0 + ROW_PITCH * idx
        brow = BROW0 - ROW_PITCH * idx
        lane = lane0 + LANE_PITCH * idx
        corners = (((src.x + 2 + sigma_in, row), (1, 1)), ((lane, row), (-1, 1)),
                   ((lane, brow), (-1, -1)), ((tgt.x + sigma_out, brow), (1, -1)))
        turns = tuple(turn_mirror(corner, v, 1, f"c{idx}:t{i}")
                      for i, (corner, v) in enumerate(corners, 1))
        corridors[(edge.state, a)] = Corridor(
            edge=edge, index=idx, branch=a, sigma_in=sigma_in,
            sigma_out=sigma_out, split=src.split, stage=stage, turns=turns,
            merge=tgt.merge, K=K, premerge=premerge.get(edge.target))

    q0 = machine.initial
    pad_x = stations[q0].x if graph.in_degree(q0) == 0 else stations[q0].x - 4
    initial_pad = Chart.of((pad_x, PAD_Y), (1, 0), (0, 1), name="launch", hard=True)

    return BilliardTable(
        machine=machine, K=K, graph=graph, stations=stations,
        corridors=corridors, initial_pad=initial_pad,
        machine_hash=machine_hash(machine), scene_levels=scene_levels)


def load_table(text):
    """Rebuild a table from its serialized form.

    The file's ``meta`` pins the machine, K and the scene levels; the table
    is recompiled deterministically, its scene must hold as many walls as
    the file lists, and the file must equal its to_json() byte for byte,
    compared chunk by chunk as the recompilation writes it.  A file
    formatted otherwise (re-dumped compactly, or with another indent) is
    compared by the compact encodings of both documents instead, which see
    the same values and types.
    """
    from .machine import parse_machine

    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("format") != "carom-table/1":
        raise ValueError("not a carom table file")
    try:
        meta = doc["meta"]
        machine = parse_machine(meta["machine"])
        K, levels = int(meta["K"]), int(meta["scene_levels"])
        sha = meta["machine_sha256"]
        n_walls = len(doc["scene"])
    except (AttributeError, KeyError, TypeError) as err:
        raise ValueError(f"not a carom table file: {err!r}") from None
    del doc, meta    # the text itself is compared, so the document goes now
    table = compile_table(machine, K, scene_levels=levels)
    if table.machine_hash != sha:
        raise ValueError("machine hash mismatch")
    count = table.wall_count(levels)     # what to_json() would list
    if n_walls != count:
        raise ValueError(f"stored scene lists {n_walls} walls, the recompilation {count}")
    if _spells(text, table._chunks()):
        return table
    # compact encodings go through json's C encoder and, unlike a dict ==,
    # tell 1 from true
    if (json.dumps(json.loads(text), sort_keys=True)
            != json.dumps(json.loads(table.to_json()), sort_keys=True)):
        raise ValueError("stored scene does not match deterministic recompilation")
    return table


def _spells(text, chunks):
    """Whether ``text`` is the chunks joined, read along as they come: the
    first chunk that differs ends the stream."""
    pos = 0
    for chunk in chunks:
        if not text.startswith(chunk, pos):
            return False
        pos += len(chunk)
    return pos == len(text)


# ---------------------------------------------------------------------------
# SVG export
# ---------------------------------------------------------------------------

def to_svg(table, levels=None, trace_points=None, precision=12):
    """Render walls (one path per wall), checkpoints and an optional
    trajectory polyline.  Decimal output is presentation only."""
    walls = table.scene_walls(levels)

    def fmt(x):
        return f"{float(x):.{precision}g}"

    xs, ys = [], []
    for w in walls:
        b = w.bbox()
        xs += [b[0], b[2]]
        ys += [b[1], b[3]]
    pad = 2
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(ys) - pad, max(ys) + pad
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'viewBox="{fmt(x0)} {fmt(-y1)} {fmt(x1 - x0)} {fmt(y1 - y0)}">',
             f'<g transform="scale(1,-1)" stroke-width="0.05" fill="none">']
    for w in walls:
        if w.kind == "segment":
            d = (f"M {fmt(w.p0[0])} {fmt(w.p0[1])} "
                 f"L {fmt(w.p1[0])} {fmt(w.p1[1])}")
        else:
            # a parabola arc is exactly a quadratic Bezier: the control
            # point is the intersection of the end tangents (mid-x)
            xa, xb = w.x_lo, w.x_hi
            ya, yb = w.y_at(xa), w.y_at(xb)
            xc = (xa + xb) / 2
            yc = ya + w.sign * (xa - w.axis_x) / (2 * w.p) * (xc - xa)
            d = (f"M {fmt(xa)} {fmt(ya)} Q {fmt(xc)} {fmt(yc)} "
                 f"{fmt(xb)} {fmt(yb)}")
        parts.append(f'<path id="{w.wall_id}" stroke="black" d="{d}"/>')
    for m in table.marked_segments():
        p0, p1 = m.chart(0), m.chart(1)
        color = "#c22" if m.hard else "#2a7"
        parts.append(
            f'<path id="mark:{m.name}" stroke="{color}" stroke-dasharray="0.2 0.1" '
            f'd="M {fmt(p0[0])} {fmt(p0[1])} L {fmt(p1[0])} {fmt(p1[1])}"/>')
    if trace_points:
        pts = " ".join(f"{fmt(x)},{fmt(y)}" for x, y in trace_points)
        parts.append(f'<polyline stroke="#36c" points="{pts}"/>')
    parts.append("</g></svg>")
    return "\n".join(parts)
