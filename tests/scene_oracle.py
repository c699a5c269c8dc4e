"""A fresh table's static records and trace scene in their earlier, plainer
form, kept as the oracle the per-key records are checked against.

Here every shift stage is built afresh: the ``_REGIMES[eps]`` arcs moved by
(base_x + sigma, base_y) one by one, its ports and its pieces' lane
constants computed for that stage alone; every port, checkpoint and the
launch pad is made over the least common denominator of its rationals; a
table's records are placed by the layout of ``table.compile_table``; and
the ray index files every box in a list per strip, then sorts a strip's
lane with ``itertools.accumulate``.  The compiled records and the scene's
index must equal these.
"""

import itertools
import math

from carom.encoding import head_hull, head_of, k_max_cap
from carom.gadgets import _REGIMES, SIGMA, SPLIT_HEIGHT, STAGE_HEIGHT, Piece, turn_mirror
from carom.geometry import Chart, ParabolaArc
from carom.machine import build_graph
from carom.table import (
    BROW0,
    LANE_MARGIN,
    LANE_PITCH,
    MERGE_DY,
    PAD_Y,
    ROW0,
    ROW_PITCH,
    SPLIT_DY,
    STAGE_DY,
    STATION_PITCH,
)
from carom.ternary import TernaryRational


def integers(*values):
    """(den, n_0, n_1, ...): the rationals ``values`` over their least
    common denominator."""
    den = math.lcm(*[v.denominator for v in values])
    return (den, *[v.numerator * (den // v.denominator) for v in values])


def chart(origin, tangent, beam, lo=0, hi=1, name="", hard=False):
    """The Chart of these rationals, over their least common denominator."""
    return Chart(*integers(*origin, lo, hi), tuple(map(int, tangent)), tuple(map(int, beam)),
                 name, hard)


def translated(arc, dx, dy):
    """The ParabolaArc moved by (dx, dy), over den times the least common
    denominator of dx and dy."""
    e, ex, ey = integers(dx, dy)
    ex, ey = ex * arc.den, ey * arc.den
    return ParabolaArc(arc.den * e, arc.axis * e + ex, arc.apex * e + ey, arc.focal * e,
                       arc.sign, arc.lo * e + ex, arc.hi * e + ex, arc.wall_id)


def shift_stage(eps, base_x, base_y, sigma, K, name):
    """(walls, in port, out port, pieces): the shift stage of head move
    ``eps`` in lane ``sigma``, in-port at (base_x, base_y), built afresh;
    ``pieces(levels)`` its pieces, ``locate(u)`` the piece of u."""
    regimes = _REGIMES[eps]
    walls = tuple(ParabolaArc(*translated(w, base_x + sigma, base_y)[:7], f"{name}:{w.wall_id}")
                  for regime in regimes for w in regime.arcs)
    lane_b = [r.b + sigma * (1 - r.a) for r in regimes]
    k_cap = K if K is not None else k_max_cap()

    def piece_for_level(k):
        i = next(i for i, r in enumerate(regimes) if r.k_lo <= k <= r.k_hi)
        lo, hi, e = head_hull(k)
        lane = sigma * 3 ** e
        return Piece(TernaryRational(lo + lane, e), TernaryRational(hi + lane, e),
                     regimes[i].a, lane_b[i], (walls[2 * i].wall_id, walls[2 * i + 1].wall_id),
                     f"{regimes[i].tag}:k{k}")

    def pieces(levels):
        return [piece_for_level(k) for k in sorted(levels) if abs(k) <= k_cap]

    def locate(u):
        k = head_of(TernaryRational(u.num - sigma * 3 ** u.exp, u.exp))
        return None if k is None or abs(k) > k_cap else piece_for_level(k)

    in_port = chart((base_x, base_y), (1, 0), (0, 1), sigma, sigma + 1)
    out_port = chart((base_x + 2, base_y + STAGE_HEIGHT), (1, 0), (0, 1), sigma, sigma + 1)
    return walls, in_port, out_port, pieces, locate


def split_ports(base_x, base_y):
    """The in, b0 and b1 ports of a split with its in-port at (base_x,
    base_y)."""
    top = (base_x, base_y + SPLIT_HEIGHT)
    return {"in": chart((base_x, base_y), (1, 0), (0, 1)),
            "b0": chart(top, (1, 0), (0, 1), -2, -1), "b1": chart(top, (1, 0), (0, 1), 2, 3)}


def merge_ports(base_x, base_y):
    """(in ports, out port) of the merge mirrored from the split at (base_x,
    base_y), across its midline."""
    def flip(p):
        return p._replace(oy=(2 * base_y + SPLIT_HEIGHT) * p.den - p.oy,
                          tangent=(p.tangent[0], -p.tangent[1]))

    ports = split_ports(base_x, base_y)
    return {key: flip(ports[key]) for key in ("b0", "b1")}, flip(ports["in"])


def placed_records(machine, K):
    """Every static record ``table.compile_table`` places for ``machine``,
    each built afresh, by name: ``chk:<state>``, ``launch``, ``split:<state>``
    and ``merge:<state>`` ports, and per corridor (state, read) its stage
    (walls, in port, out port, pieces, locate) and its four turn mirrors."""
    graph = build_graph(machine)
    xs = {q: STATION_PITCH * i for i, q in enumerate(machine.states)}
    records = {}
    for q, x in xs.items():
        records[f"chk:{q}"] = chart((x, 0), (1, 0), (0, 1), name=f"chk:{q}",
                                    hard=machine.is_halting(q))
        if not machine.is_halting(q):
            records[f"split:{q}"] = split_ports(x, SPLIT_DY)
        if len(graph.in_edges(q)) >= 2:
            records[f"merge:{q}"] = merge_ports(x, MERGE_DY)
    lane0 = STATION_PITCH * (len(machine.states) - 1) + STATION_PITCH // 2 + LANE_MARGIN
    for idx, edge in enumerate(graph.edges):
        src, tgt = xs[edge.state], xs[edge.target]
        sigma_in = SIGMA[edge.read]
        sigma_out = SIGMA[edge.write] if len(graph.in_edges(edge.target)) >= 2 else 0
        stage = shift_stage(edge.shift, src, STAGE_DY, sigma_in, K,
                            f"stage:{edge.state}.r{edge.read}")
        row, brow, lane = ROW0 + ROW_PITCH * idx, BROW0 - ROW_PITCH * idx, lane0 + LANE_PITCH * idx
        corners = (((src + 2 + sigma_in, row), (1, 1)), ((lane, row), (-1, 1)),
                   ((lane, brow), (-1, -1)), ((tgt + sigma_out, brow), (1, -1)))
        turns = tuple(turn_mirror(corner, v, 1, f"c{idx}:t{i}")
                      for i, (corner, v) in enumerate(corners, 1))
        records[(edge.state, edge.read)] = stage, turns
    q0 = machine.initial
    pad_x = xs[q0] if graph.in_degree(q0) == 0 else xs[q0] - 4
    records["launch"] = chart((pad_x, PAD_Y), (1, 0), (0, 1), name="launch", hard=True)
    return records


#: A RayIndex spans at most this many strips across each axis.
STRIPS = 4096


class RayIndex:
    """The float boxes (x0, y0, x1, y1, payload) ``entries`` filed in strips
    across each axis, a list of entry numbers per strip, and each strip's
    lane for a ray's sense sorted on demand."""

    def __init__(self, entries):
        self.entries = entries
        self.lanes = (({}, {}), ({}, {}))
        self.box = None
        if not entries:
            return
        self.box = (min(e[0] for e in entries), min(e[1] for e in entries),
                    max(e[2] for e in entries), max(e[3] for e in entries))
        extent, size = max(self.box[2] - self.box[0], self.box[3] - self.box[1]), 1.0
        while extent > STRIPS * size:
            size *= 2
        self.size = size
        self.strips = ({}, {})
        floor = math.floor
        for n, e in enumerate(entries):
            for axis, strips in enumerate(self.strips):
                j, last = floor(e[axis] / size), floor(e[axis + 2] / size)
                while j <= last:
                    strips.setdefault(j, []).append(n)
                    j += 1
        self.span = tuple((min(strips), max(strips)) for strips in self.strips)

    def lane(self, c, sense, j):
        """(prefix max of u1, items (u0, u1, v0, v1, n, payload)) of strip
        j across axis c for a ray of this sense along the other axis."""
        a, entries, strip = 1 - c, self.entries, self.strips[c].get(j, ())
        items = ([(e[a], e[a + 2], e[c], e[c + 2], n, e[4]) for n in strip for e in [entries[n]]]
                 if sense > 0 else
                 [(-e[a + 2], -e[a], e[c], e[c + 2], n, e[4]) for n in strip for e in [entries[n]]])
        items.sort()
        return list(itertools.accumulate([item[1] for item in items], max)), items


def lane_keys(index):
    """Every (axis, sense, strip) of ``index`` that holds a box."""
    return [(c, sense, j) for c, strips in enumerate(index.strips) for j in strips
            for sense in (1, -1)]

