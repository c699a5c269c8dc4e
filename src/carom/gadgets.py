"""Billiard gadgets: wall geometry plus exact transfer maps.

Three families realize the machine operations on the encoded coordinate:

* split / rewrite-split: one short mirror above every Cantor block, slope
  -1 over read-0 blocks and +1 over read-1 blocks (tilted to
  -1/(1 + 3**-(3k+2)) when the edge writes the opposite symbol), paired
  with an exactly parallel return mirror two units to the side.  Two
  reflections across parallel mirrors translate a vertical beam rigidly,
  so read-0 states exit at x - 2 and read-1 states at x + 2, with the
  rewrite displacement folded into the mirror offset.  Every block's
  mirror pair lives in its own horizontal height band (band centre
  8 * (block centre - 1/2) around the gadget midline); bands are pairwise
  disjoint because blocks are, which is what guarantees the connecting
  flight between a pair never meets another block's walls.

* merge: the y-mirror image of a split that classifies on the tape cell
  *behind* the head; reversibility makes the two incoming beams occupy
  disjoint block families, so the mirrored walls funnel them into one
  window without collisions.

* shift: a confocal parabola pair per head-sign regime.  A vertical beam
  entering the bowl of the first parabola leaves the second one vertical
  again with its transverse offset scaled by the focal-parameter ratio
  (exactly 3 or 1/3); the regime's affine constant is absorbed by where
  the pair sits.  Each regime's pair is built once, with its in-window at
  x = 0 (``_REGIMES``), and every stage places it by translation, which
  keeps each arc's latus-rectum bound.  Scaling pairs preserve the
  vertical sense, so both ports face beam-up and corridors stack them
  directly.

The transfer maps are the exact source of truth; ray tracing through the
walls (numeric.run_numeric) certifies that the geometry implements them.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .encoding import (
    KRangeExceeded,
    NotACode,
    block_of,
    blocks_in,
    cantor_blocks_at,
    cantor_walk,
    digit_position,
    head_hull,
    head_of,
    k_max_cap,
)
from .geometry import Chart, ParabolaArc, Segment
from .ternary import T, TernaryRational

F = Fraction


class DomainError(ValueError):
    """Transfer map evaluated outside its domain."""


class Piece(NamedTuple):
    """One affine piece u -> a*u + b of a transfer map, with provenance."""

    lo: TernaryRational
    hi: TernaryRational
    a: TernaryRational
    b: TernaryRational
    wall_ids: tuple
    tag: str

    def apply(self, u):
        """a*u + b, over one power of three."""
        a, b = self.a, self.b
        n, e = a.num * u.num, a.exp + u.exp
        if e < b.exp:
            n, e = n * 3 ** (b.exp - e), b.exp
        return TernaryRational(n + b.num * 3 ** (e - b.exp), e)


class PiecewiseTransfer:
    """Exact piecewise-affine map with lazy domain lookup.

    ``locate`` maps a coordinate to its Piece (or raises DomainError);
    ``enumerate_pieces(levels)`` lists pieces explicitly for the given
    head levels, for tests and serialization.  Laziness matters: block
    counts grow as 2**(2k), but evaluating a point only needs its own
    digits.
    """

    def __init__(self, locate, enumerate_pieces, label=""):
        self._locate = locate
        self._enumerate = enumerate_pieces
        self.label = label

    def locate(self, u):
        return self._locate(u)

    def apply(self, u):
        piece = self._locate(u)
        return piece.apply(u), piece

    def pieces(self, levels):
        return self._enumerate(levels)

    def check_injective(self, levels):
        """Verify piece images are pairwise disjoint (needed to invert)."""
        images = sorted(((p.apply(p.lo), p.apply(p.hi), p) for p in self.pieces(levels)),
                        key=lambda t: t[0])
        for (lo1, hi1, p1), (lo2, hi2, p2) in zip(images, images[1:]):
            if hi1 > lo2:
                raise ValueError(
                    f"transfer {self.label}: images of {p1.tag} and {p2.tag} overlap")


@dataclass(frozen=True)
class Gadget:
    """Walls in a local frame plus the exact transfer between its ports.

    Walls come in two kinds: ``static_walls`` (arcs, turn mirrors), and
    the per-head-level Cantor-block mirrors of split and merge gadgets,
    2**(2k)-ish per level: ``mirrors``, a (_BlockMirrors, frame) pair,
    the frame (oy, sy) placing them at y -> oy + sy*y.  A shift stage is
    built where a table places it (its base_y), so its walls and ports
    hold final coordinates; a split or merge is built at y = 0 and a table
    places it by moving its family's frame (table.SPLIT_DY, MERGE_DY), its
    ports staying in the local frame.  Every wall is a
    Segment or ParabolaArc record.  A tracer files ``static_walls`` and
    the family's level regions in one index, once, and asks the family
    only for the blocks of the regions a leg walks into, as for a table.
    """

    kind: str
    name: str
    in_ports: dict
    out_ports: dict
    transfer: PiecewiseTransfer
    static_walls: tuple = ()
    mirrors: Optional[tuple] = None    # (_BlockMirrors, frame)

    def walls(self, levels=()):
        """The static walls, then every mirror of ``levels``."""
        walls = list(self.static_walls)
        if self.mirrors is not None:
            mirrors, frame = self.mirrors
            walls += mirrors.rows(levels, frame)
        return walls


# ---------------------------------------------------------------------------
# split / merge
# ---------------------------------------------------------------------------

#: Branch lane offset by classified symbol: read-0 exits left, read-1 right.
SIGMA = {0: -2, 1: 2}

#: Local frame height of a split cell; walls live in bands around y = 5.
SPLIT_HEIGHT = 10
_H_MID = F(5)
_BAND_GAIN = F(8)


def _band_center(lo, hi):
    """Height band centre for the block [lo, hi].

    8 * |centre difference| >= 8 * (sum of half-lengths + gap) beats the
    band half-widths 4*h, so distinct blocks get disjoint bands.
    """
    c = (lo.as_fraction() + hi.as_fraction()) / 2
    return _H_MID + _BAND_GAIN * (c - F(1, 2))


def _displacement(k, read_s, write_s):
    """The displacement d_s(k) = sigma_s + 2 (w - s) u_k by which the split
    moves every (k, read_s) block whose edge writes w = write_s, u_k =
    rewrite_scale(k) = 3^-e, e = digit_position(k) + 1 + |k|: (n, e),
    d_s(k) = n / 3^e."""
    e = 3 * k + 2 if k >= 0 else 1 - 3 * k
    return SIGMA[read_s] * 3 ** e + 2 * (write_s - read_s), e


def _block_wall_params(k, read_s, write_s):
    """Slope and displacement of the mirror pairs realizing u -> u + sigma
    + rewrite displacement over the (k, read_s) blocks."""
    num, e = _displacement(k, read_s, write_s)
    disp = F(num, 3 ** e)
    if write_s == read_s:
        slope = F(-1) if read_s == 0 else F(1)
    else:
        tilt = 1 / (1 + F(1, 3 ** e))  # tan(alpha_k) = 1/(1+3^-(3k+2))
        slope = -tilt if read_s == 0 else tilt
    return slope, disp


#: The ends of a mirror pair's ids: primary, return mirror.
_ID_ENDS = (":W", ":Wt")

#: The Segment of a tuple of its fields, made by tuple.__new__ in C: the
#: lister makes one per mirror listed, three times per table written,
#: reloaded and checked, and NamedTuple's own constructor is Python code.
_segment = functools.partial(tuple.__new__, Segment)


def _id_prefix(name, k, digit_pos, symbol):
    """What the ids of the mirror pairs over the (k, digit_pos, symbol)
    CantorBlocks begin with: the pair over the block of free digits
    ``bits`` has the ids prefix + str(2*bits + symbol) + _ID_ENDS[w]."""
    return f"{name}:k{k}:d{digit_pos}:s{symbol}:b"


def _wall_ids(name, k, digit_pos, symbol, bits):
    """The ids of the (primary, return) mirror pair over the CantorBlock
    with these fields."""
    wid = f"{_id_prefix(name, k, digit_pos, symbol)}{bits * 2 + symbol}"
    return wid + _ID_ENDS[0], wid + _ID_ENDS[1]


def _block_walls(name, blk, write_s, base_x):
    """The (primary, return) mirror pair over the CantorBlock ``blk``, as
    exact wall geometry in gadget-local coordinates: the explicit formula,
    which builds each level's template (``_pair_template``)."""
    slope, disp = _block_wall_params(blk.k, blk.symbol, write_s)
    lo_f, hi_f = blk.lo.as_fraction(), blk.hi.as_fraction()
    h = hi_f - lo_f
    pad = h / 3
    center = (lo_f + hi_f) / 2
    height = _band_center(blk.lo, blk.hi)
    primary_id, return_id = _wall_ids(name, blk.k, blk.digit_pos, blk.symbol, blk.bits)

    def primary_y(x):
        return height + slope * (x - center - base_x)

    primary = Segment.of(
        (base_x + lo_f - pad, primary_y(base_x + lo_f - pad)),
        (base_x + hi_f + pad, primary_y(base_x + hi_f + pad)),
        primary_id)
    # parallel return mirror: two reflections across parallel lines
    # translate the beam by exactly `disp` horizontally
    shift = disp * (slope * slope + 1) / (2 * slope * slope)

    def return_y(x):
        return height + slope * (x - center - shift - base_x)

    returning = Segment.of(
        (base_x + lo_f + disp - pad, return_y(base_x + lo_f + disp - pad)),
        (base_x + hi_f + disp + pad, return_y(base_x + hi_f + disp + pad)),
        return_id)
    return primary, returning


class _Template(NamedTuple):
    """The mirror pairs of one level and symbol, in integers at base_x = 0,
    and the float regions a tracer's index files them by (see
    _pair_template)."""

    walls: tuple       # (den, step, x0, y0, x1, y1) per wall of the pair over block 0
    boxes: tuple       # (2den, 2step, x, y, rx, ry) per wall, over one den
    regions: tuple     # (x0, y0, x1, y1) per wall: the box around it over every block


# one entry per (k, digit_pos, read_s, write_s) with |k| <= K_max: bounded
@functools.lru_cache(maxsize=None)
def _pair_template(k, digit_pos, read_s, write_s):
    """The one description of a level's mirror pairs, which the wall
    listing, the positional query and a tracer's index all read: the pair
    over block F = 0 of ``cantor_walk`` at base_x = 0, in integers.

    In _block_walls a pair depends on its block only through the centre c:
    its x range follows c and its band sits at height 8c + 1.  So the pair
    over block F, centre F*step further right, is the pair over block 0
    translated by F*step * (1, 8): it has the endpoints ((x + F*step) / den,
    (y + 8*F*step) / den) for (den, step, x0, y0, x1, y1) in walls, each
    wall over the lcm of its own and the step's denominators, so every row
    is in lowest terms; and it lies in the box (x + F*2step +- rx, y +
    8*F*2step +- ry) / 2den for (2den, 2step, x, y, rx, ry) in boxes.

    The blocks' indices F run from 0 to 3^(digit_pos - 1) - 1, so each
    wall's boxes over every block lie in one region, from block 0's box to
    the last block's: its corners, each a quotient of integers, correctly
    rounded to floats."""
    first, = cantor_walk(k, digit_pos, read_s, (0, 0))
    # block F + 1's centre lies three block lengths right of block F's
    step = 3 * first.length.as_fraction()
    pair = _block_walls("", first, write_s, F(0))
    walls = tuple((d, int(step * d), *(v * (d // w.den) for v in w[1:5]))
                  for w, d in ((w, math.lcm(step.denominator, w.den)) for w in pair))
    den = math.lcm(*(w[0] for w in walls))
    boxes = tuple((2 * den, 2 * int(step * den), x0 + x1, y0 + y1, abs(x1 - x0), abs(y1 - y0))
                  for x0, y0, x1, y1 in (tuple(v * (den // w[0]) for v in w[2:]) for w in walls))
    last = 3 ** (digit_pos - 1) - 1
    regions = tuple(((x - rx) / d, (y - ry) / d,
                     (x + last * s + rx) / d, (y + 8 * last * s + ry) / d)
                    for d, s, x, y, rx, ry in boxes)
    return _Template(walls, boxes, regions)


class _MirrorLevel(NamedTuple):
    """One level of a family: its two symbols' _pair_template records read
    together."""

    k: int
    digit_pos: int
    boxes: tuple       # boxes[symbol][wall], from _pair_template
    regions: tuple     # regions[symbol][wall], from _pair_template


# one entry per family key (level range, cell offset, writes): bounded, as
# _pair_template is
@functools.lru_cache(maxsize=None)
def _family_levels(levels, cell_offset, writes):
    """The _MirrorLevel records of the family keyed by these ``levels`` (a
    range of k), classifying cell k + ``cell_offset``, that writes
    ``writes`` = (w0, w1) over its read-0 and read-1 blocks: each level's
    two _pair_template records read together.  Families of one key share
    them, across tables too."""
    w0, w1 = writes
    out = []
    for k in levels:
        digit_pos = digit_position(k + cell_offset)
        t0, t1 = _pair_template(k, digit_pos, 0, w0), _pair_template(k, digit_pos, 1, w1)
        out.append(_MirrorLevel(k, digit_pos, (t0.boxes, t1.boxes), (t0.regions, t1.regions)))
    return tuple(out)


def _exact_leg(leg, origin):
    """The leg for _window in integers, in the local frame of a family
    placed with its ``origin`` (_BlockMirrors.origin): its x- and
    y-extents as (numerator, denominator) pairs, None where unbounded, and
    its line n . p = n0 / h, with n . (1, 8) >= 0 and h > 0.  Read off the
    integers of ``leg``, a Leg or its (origin, direction, t_max), with no
    Fraction arithmetic: the pairs are exact, not reduced."""
    (x, y, w), (dx, dy), t = leg
    bn, bd, on, od, sy = origin
    # the origin in the local frame, (xn / xd, yn / yd), and the direction
    xd, yd = w * bd, w * od
    xn, yn = x * bd - bn * w, sy * (y * od - on * w)
    dy *= sy
    extents = []
    for a, b, dn in ((xn, xd, dx), (yn, yd, dy)):
        end = (a, b) if not dn else None if t is None else (
            a * t[1] + b * t[0] * dn, b * t[1])
        extents.append(((a, b), end) if dn >= 0 else (end, (a, b)))
    nx, ny = -dy, dx
    if nx + 8 * ny < 0:
        nx, ny = -nx, -ny
    return extents[0], extents[1], nx, ny, xd * yd, nx * xn * yd + ny * yn * xd


def _window(lv, s, w, exact):
    """The range (F_lo, F_hi) of the blocks F of level ``lv`` and symbol s
    whose wall w's box (_pair_template) meets the leg ``exact`` (_exact_leg).
    Each separating axis, x, y and the leg's normal n (|n . (box centre -
    origin)| <= the box's reach along n), bounds F by a floor or ceiling.
    An axis-parallel leg's normal is its x or y axis: skipped."""
    xs, ys, nx, ny, h, n0 = exact
    den, step, x, y, rx, ry = lv.boxes[s][w]
    lo, hi = 0, math.inf
    for (end_lo, end_hi), c, r, gain in ((xs, x, rx, 1), (ys, y, ry, 8)):
        if end_lo is not None:
            a, b = end_lo
            lo = max(lo, -((b * (c + r) - a * den) // (gain * step * b)))
        if end_hi is not None:
            a, b = end_hi
            hi = min(hi, (a * den - b * (c - r)) // (gain * step * b))
    if nx and ny:
        slope = h * step * (nx + 8 * ny)
        m = h * (nx * x + ny * y) - den * n0
        reach = h * (abs(nx) * rx + abs(ny) * ry)
        if slope:
            lo, hi = max(lo, -((reach + m) // slope)), min(hi, (reach - m) // slope)
        elif abs(m) > reach:
            hi = -1
    return lo, hi


class _BlockMirrors:
    """The mirror pairs of a split gadget, one per Cantor block, found by
    position and built in the frame they are placed in.

    A family is named by its ``key``, (levels, cell_offset, writes):
    ``writes`` = (w0, w1) are written over its read-0 and read-1 blocks,
    and ``levels``, the one level set the walls and the split's transfer
    read, are the head levels |k| <= K whose classified cell k +
    cell_offset also has |k + cell_offset| <= K.

    A level's pairs are one template pair translated by c * (1, 8) for the
    block centres c, and block F of ``cantor_walk`` has its centre at c_0 +
    F * step (``_pair_template``).  So ``_placed`` places the pair over
    block 0 and the step in integers, each wall over its own denominator,
    and ``_segments``, the one lister, lists the walls over the blocks F of
    a window from them as Segments, with no Fraction arithmetic.  ``rows``
    lists every mirror of some levels for serialization, the layout check
    and a full wall listing; ``block_rows`` lists one wall of one level and
    symbol over the blocks a leg meets, which the numeric tracer reads as
    they are, for the regions its index walks into (``numeric.TraceScene``);
    and ``walls_in`` scans every level for a leg.  ``_window`` bounds the
    blocks F a leg meets exactly, in integers, and ``blocks_in`` lists
    exactly those blocks.

    Everything read per level and symbol (the integer boxes and the float
    region around each wall) is in the key's ``_pair_template`` record,
    made once per (k, digit_pos, read, write) at base_x = 0, whatever
    family or table asks.  ``_level_data`` only looks up the family's
    records by its key (``_family_levels``), on first need (never at
    compile time).

    ``rows``, ``block_rows`` and ``walls_in`` take a frame (oy, sy), the
    placement y -> oy + sy*y of the gadget's local frame (sy = -1 for a
    merge's mirror image), and list the walls there.  The leg is given in
    that placed frame; ``_exact_leg`` takes it back to the local frame.
    """

    def __init__(self, name, K, cell_offset, writes, base_x):
        self.name, self.cell_offset, self.writes = name, cell_offset, writes
        self.base_x = base_x
        self.levels = range(max(-K, -K - cell_offset), min(K, K - cell_offset) + 1)
        self.key = (self.levels, cell_offset, writes)

    def origin(self, frame):
        """(bn, bd, on, od, sy), base_x = bn / bd and ``frame`` = (on / od,
        sy): the placement as _exact_leg reads it."""
        (oy, sy), bx = frame, self.base_x
        return bx.numerator, bx.denominator, oy.numerator, oy.denominator, sy

    def _placed(self, k, digit_pos, s, frame):
        """_pair_template of level k and symbol s placed by ``frame``, x
        counted from base_x: (_id_prefix, walls), per wall (den, step_x,
        step_y, x0, y0, x1, y1), the wall over block F having the
        endpoints ((x + F*step_x) / den, (y + F*step_y) / den)."""
        bn, bd, on, od, sy = self.origin(frame)
        walls = []
        for den, step, x0, y0, x1, y1 in _pair_template(k, digit_pos, s, self.writes[s]).walls:
            d = math.lcm(den, bd, od)     # den, for an integer base_x and frame
            m = d // den
            dx, dy, step = bn * (d // bd), on * (d // od), m * step
            walls.append((d, step, 8 * sy * step,
                          m * x0 + dx, sy * m * y0 + dy, m * x1 + dx, sy * m * y1 + dy))
        return _id_prefix(self.name, k, digit_pos, s), walls

    @staticmethod
    def _segments(s, placed, w, blocks):
        """The Segments (den, x0 + F*sx, y0 + F*sy, x1 + F*sx, y1 + F*sy,
        id) of wall w (0 primary, 1 return) of symbol s over the blocks (F,
        bits) of ``blocks``, read off ``placed``, the level and symbol's
        _placed record."""
        (prefix, walls), end = placed, _ID_ENDS[w]
        d, sx, sy, x0, y0, x1, y1 = walls[w]
        return [_segment((d, x0 + index * sx, y0 + index * sy, x1 + index * sx,
                          y1 + index * sy, f"{prefix}{bits * 2 + s}{end}"))
                for index, bits in blocks]

    def rows(self, levels, frame):
        """Every mirror of ``levels`` placed by ``frame`` as a Segment (see
        ``_segments``), ordered by level as given, symbol and block, the
        primary before the return mirror."""
        rows = []
        for k in levels:
            if k not in self.levels:
                continue
            digit_pos = digit_position(k + self.cell_offset)
            for s in (0, 1):
                placed, blocks = self._placed(k, digit_pos, s, frame), blocks_in(digit_pos - 1)
                rows += itertools.chain.from_iterable(zip(
                    self._segments(s, placed, 0, blocks), self._segments(s, placed, 1, blocks)))
        return rows

    def _level_data(self):
        """The family's levels, sorted by k: ``_family_levels`` of its key."""
        return _family_levels(*self.key)

    def block_rows(self, lv, s, w, exact, placed):
        """Wall w (0 primary, 1 return) of level ``lv`` and symbol s over
        every block whose box meets the leg ``exact`` (_exact_leg), as
        Segments (see ``_segments``), ``placed`` the level and symbol's
        _placed record."""
        return self._segments(s, placed, w, blocks_in(lv.digit_pos - 1,
                                                       _window(lv, s, w, exact)))

    def walls_in(self, leg, frame):
        """The mirrors whose boxes the Leg ``leg`` meets, placed by
        ``frame``, as Segments (see ``_segments``), in ``rows`` order over
        the levels ascending, every level scanned: each wall's blocks
        decided exactly by ``_window``, on the exact leg.

        Sound, not tight: no wall the leg meets is left out, and a wall is
        returned only if the leg meets its bounding box."""
        exact = _exact_leg(leg, self.origin(frame))
        rows = []
        for lv in self._level_data():
            for s in (0, 1):
                placed, found = self._placed(lv.k, lv.digit_pos, s, frame), []
                for w in (0, 1):
                    blocks = blocks_in(lv.digit_pos - 1, _window(lv, s, w, exact))
                    found += zip([index for index, _ in blocks], itertools.repeat(w),
                                 self._segments(s, placed, w, blocks))
                # each wall's blocks ascending, merged by F, primary first
                rows += [row for _, _, row in sorted(found, key=lambda e: e[:2])]
        return rows


class _TranslationTransfer(PiecewiseTransfer):
    """A split's transfer: on head level k it moves every block of symbol
    s by one displacement d_s(k) = _displacement(k, s, w_s), (n, e) for n
    / 3^e, over the levels of its family ``mirrors`` (_BlockMirrors), each
    classifying cell k + cell_offset, that writes w_s = mirrors.writes[s].

    So its injectivity is a lemma, with no piece enumerated.  The blocks of
    one level and symbol are disjoint and move together.  They span H_s(k),
    I_k less two block lengths on the other symbol's side, and the I_k lie
    left to right by k.  So the images are disjoint if in each symbol's
    lane the translated hulls H_s(k) + d_s(k) of adjacent levels stay in
    order, and the two lanes are disjoint: O(levels) integer comparisons.
    A split that rewrites nothing moves each lane rigidly by sigma_s, so
    the lane test decides alone.  The test is sufficient, and on the splits
    compile_table builds (rewriting ones classify the head cell) it agrees
    with the enumerated check; a split that rewrites the head cell while
    classifying another can move blocks into the gaps of a neighbour
    level's hull, which it refuses even where the map is injective.
    """

    def __init__(self, locate, enumerate_pieces, label, mirrors):
        super().__init__(locate, enumerate_pieces, label)
        self.mirrors = mirrors

    def check_injective(self, levels):
        """Verify, by the lemma, that the images of the pieces of ``levels``
        (those in the family's) are pairwise disjoint, raising the
        ValueError PiecewiseTransfer.check_injective raises (touching ends
        do not overlap)."""
        mirrors = self.mirrors
        chosen = sorted(set(levels).intersection(mirrors.levels))
        if not chosen:
            return
        (w0, w1), offset = mirrors.writes, mirrors.cell_offset
        # per level: I_k = [lo, hi] / 3^e, its blocks 3^-(e + digit_pos) long
        ends = [(head_hull(k), digit_position(k + offset),
                 _displacement(k, 0, w0), _displacement(k, 1, w1)) for k in chosen]
        top = max(max(e + digit_pos, e0, e1)
                  for (_, _, e), digit_pos, (_, e0), (_, e1) in ends)
        pow3 = list(itertools.accumulate(itertools.repeat(3, top), operator.mul, initial=1))
        lanes = ([], [])    # per symbol, H_s(k) + d_s(k) over 3^top
        for (lo, hi, e), digit_pos, (n0, e0), (n1, e1) in ends:
            scale, two = pow3[top - e], 2 * pow3[top - e - digit_pos]
            lo, hi, d0, d1 = lo * scale, hi * scale, n0 * pow3[top - e0], n1 * pow3[top - e1]
            lanes[0].append((lo + d0, hi - two + d0))
            lanes[1].append((lo + two + d1, hi + d1))
        for s, lane in enumerate(lanes):
            for (_, hi), (lo, _) in zip(lane, lane[1:]):
                if hi > lo:
                    raise ValueError(
                        f"transfer {self.label}: images of branch{s} and branch{s} overlap")
        (lo0, hi0), (lo1, hi1) = ((lane[0][0], lane[-1][1]) for lane in lanes)
        if hi0 > lo1 and hi1 > lo0:
            raise ValueError(f"transfer {self.label}: images of branch0 and branch1 overlap")


def build_split_gadget(K, writes=(0, 1), *, cell_offset=0, base_x=0, name="split"):
    """A separating wall family for head levels |k| <= K.

    ``writes`` = (w0, w1) are the symbols the split writes over its read-0
    and read-1 blocks, as a machine edge writes by (state, read) alone;
    the default (0, 1) is read-only.  ``cell_offset`` selects which tape
    cell the walls classify on, relative to the head: 0 is the ordinary
    read split; merges use the cell behind the head.  Walls and transfer
    cover the mirror family's levels: those |k| <= K whose classified cell
    also lies within K (``_BlockMirrors``).

    Transfer: u -> u + sigma_s (+ rewrite displacement) where s is the
    classified symbol, on every Cantor block; in-port window [0, 1],
    branch out-ports at windows [-2, -1] and [2, 3].
    """
    if K > k_max_cap():
        raise KRangeExceeded(f"split K={K} beyond cap {k_max_cap()}")
    writes = tuple(writes)
    mirrors = _BlockMirrors(name, K, cell_offset, writes, base_x)
    levels = mirrors.levels

    def locate(u):
        v = u  # in-port coordinate equals the encoded value
        k = head_of(v)
        if k is None or k not in levels:
            raise DomainError(f"{name}: {v} outside supported head intervals")
        try:
            blk = block_of(v, k, digit_position(k + cell_offset))
        except NotACode as err:
            raise DomainError(f"{name}: {err}") from err
        s = blk.symbol
        return Piece(blk.lo, blk.hi, T(1), T(*_displacement(k, s, writes[s])),
                     _wall_ids(name, k, blk.digit_pos, s, blk.bits), f"branch{s}")

    def enumerate_pieces(chosen):
        pieces = []
        for k in chosen:
            if k not in levels:
                continue
            digit_pos = digit_position(k + cell_offset)
            for s in (0, 1):
                b = T(*_displacement(k, s, writes[s]))
                for blk in cantor_blocks_at(k, digit_pos, s):
                    pieces.append(Piece(blk.lo, blk.hi, T(1), b,
                                        _wall_ids(name, k, digit_pos, s, blk.bits),
                                        f"branch{s}"))
        return pieces

    transfer = _TranslationTransfer(locate, enumerate_pieces, name, mirrors)
    ports_out = {
        "b0": Chart.of((base_x, SPLIT_HEIGHT), (1, 0), (0, 1), -2, -1),
        "b1": Chart.of((base_x, SPLIT_HEIGHT), (1, 0), (0, 1), 2, 3),
    }
    return Gadget(
        kind="split", name=name,
        in_ports={"in": Chart.of((base_x, 0), (1, 0), (0, 1))},
        out_ports=ports_out,
        transfer=transfer,
        mirrors=(mirrors, (0, 1)),
    )


def build_merge_gadget(split, *, name=None):
    """Time reversal of a split: mirrored walls, inverted transfer.

    The two incoming beams (windows [-2,-1] and [2,3]) are funnelled onto
    the single [0,1] window.  Requires the split's transfer to be
    injective; overlapping images mean the machine was not reversible and
    merging would glue distinct histories.  It is checked on every level
    of the split's mirror family, by the per-key lemma of
    _TranslationTransfer.check_injective: no piece is enumerated.
    """
    name = name or split.name + ":merged"
    mirrors, (oy, sy) = split.mirrors
    split.transfer.check_injective(mirrors.levels)

    def locate(u):
        # the lane by its integer ends, compared with u's
        n, e = u.num, u.exp
        one = 3 ** e
        if -2 * one <= n <= -one:
            v = TernaryRational(n + 2 * one, e)
        elif 2 * one <= n <= 3 * one:
            v = TernaryRational(n - 2 * one, e)
        else:
            raise DomainError(f"{name}: {u} outside branch lanes")
        piece = split.transfer.locate(v)
        img_lo, img_hi = piece.apply(piece.lo), piece.apply(piece.hi)
        top = max(e, img_lo.exp, img_hi.exp)
        n *= 3 ** (top - e)
        if not (img_lo.num * 3 ** (top - img_lo.exp) <= n <= img_hi.num * 3 ** (top - img_hi.exp)):
            raise DomainError(f"{name}: {u} not in the image of block {piece.tag}")
        return Piece(img_lo, img_hi, T(1), -piece.b,
                     tuple(reversed(piece.wall_ids)), piece.tag)

    def enumerate_pieces(levels):
        out = []
        for p in split.transfer.pieces(levels):
            out.append(Piece(p.apply(p.lo), p.apply(p.hi), T(1), -p.b,
                             tuple(reversed(p.wall_ids)), p.tag))
        return out

    def flip_port(p):
        # mirrored across the midline y = SPLIT_HEIGHT / 2, y ->
        # SPLIT_HEIGHT - y, in the port's integers; mirroring flips the
        # beam and time reversal flips it back, so it keeps its +y beam
        return p._replace(oy=SPLIT_HEIGHT * p.den - p.oy,
                          tangent=(p.tangent[0], -p.tangent[1]))

    in_ports = {key: flip_port(port) for key, port in split.out_ports.items()}
    out_port = flip_port(split.in_ports["in"])
    # the split's mirrors, reflected: y -> SPLIT_HEIGHT - (oy + sy*y)
    return Gadget(
        kind="merge", name=name,
        in_ports=in_ports,
        out_ports={"out": out_port},
        transfer=PiecewiseTransfer(locate, enumerate_pieces, label=name),
        mirrors=(mirrors, (SPLIT_HEIGHT - oy, -sy)),
    )


# ---------------------------------------------------------------------------
# shift
# ---------------------------------------------------------------------------

#: Stage frame height; ports at y=0 and y=STAGE_HEIGHT, out window shifted
#: +2 in x relative to the in window.
STAGE_HEIGHT = 12
_FOCUS_EXPAND = F(10)  # focus height of the upward (expanding) pair
_FOCUS_FUNNEL = F(1)   # focus height of the downward (contracting) pair
_P_SMALL = F(1)
_P_BIG = F(3)
_ARC_PAD = F(1, 24)


class _Regime(NamedTuple):
    """One head-sign regime of a head move: u -> a*u + b on the head levels
    k_lo <= k <= k_hi, realized by ``arcs``, its confocal pair with the
    in-window at x = 0 (``_confocal_pair``)."""

    tag: str
    a: TernaryRational
    b: TernaryRational
    k_lo: float
    k_hi: float
    arcs: tuple


def _confocal_pair(tag, a, b, d_lo, d_hi):
    """Two confocal arcs realizing u -> a*u + b on the coordinates [d_lo,
    d_hi] of the regime's head intervals, in-window at x = 0.

    With the out-port chart two units right of the in-port chart, the
    parabola axis must sit at (b+2)/(1-a); the focal parameters 1 and 3
    give the scaling ratio.  Expansions use an upward pair entered at the
    small arc; contractions a downward pair entered at the big arc.  Every
    beam meets an arc within its latus rectum, |x - axis| < 2p, which a
    translated pair keeps: translation moves the axis and both ends alike.
    """
    a, b = a.as_fraction(), b.as_fraction()
    f_x = (b + 2) / (1 - a)
    expanding = a > 1
    sign = 1 if expanding else -1
    focus_y = _FOCUS_EXPAND if expanding else _FOCUS_FUNNEL
    p_in = _P_SMALL if expanding else _P_BIG
    p_out = _P_BIG if expanding else _P_SMALL

    def arc(p, x_lo, x_hi, suffix):
        for x in (x_lo - f_x, x_hi - f_x):
            assert abs(x) < 2 * p, f"{tag}: offset {x} beyond latus rectum of p={p}"
        return ParabolaArc.of(f_x, focus_y - sign * p, p, sign,
                              x_lo - _ARC_PAD, x_hi + _ARC_PAD, f"{tag}:{suffix}")

    return (arc(p_in, d_lo, d_hi, "in"), arc(p_out, 2 + a * d_lo + b, 2 + a * d_hi + b, "out"))


def _regime(tag, a, b, d_lo, d_hi, k_lo, k_hi):
    return _Regime(tag, a, b, k_lo, k_hi, _confocal_pair(tag, a, b, d_lo, d_hi))


#: The two regimes of each head move eps, in wall order, each built once.
#: [d_lo, d_hi] is the coordinate hull of the regime's head intervals.
_REGIMES = {
    +1: (_regime("neg", T(3), T(0), F(0), F(2, 9), -math.inf, -1),
         _regime("pos", T(1, 1), T(2, 1), F(1, 3), F(1), 0, math.inf)),
    -1: (_regime("pos", T(3), T(-2), F(7, 9), F(1), 1, math.inf),
         _regime("neg", T(1, 1), T(0), F(0), F(2, 3), -math.inf, 0)),
}


def build_shift_stage(eps, *, base_x=0, base_y=0, sigma=0, K=None, name="shift"):
    """Both head-sign regimes of a head move, side by side in one frame,
    its in-port at (base_x, base_y): where a table places it.

    In-port window [sigma, sigma+1] (lane coordinate = value + sigma,
    sigma an integer lane offset), out-port window identical but two
    units to the right; transfer u -> sigma + shift(u - sigma) piecewise
    over the head intervals.  The walls are the ``_REGIMES[eps]`` pairs
    moved by (base_x + sigma, base_y) in one step, each id prefixed with
    ``name``: for an int base_x and base_y, by integer adds alone.
    """
    sigma = int(sigma)
    regimes = _REGIMES[eps]
    dx = base_x + sigma
    walls = tuple(ParabolaArc(*w.translated(dx, base_y)[:7], f"{name}:{w.wall_id}")
                  for regime in regimes for w in regime.arcs)
    k_cap = K if K is not None else k_max_cap()
    # per regime: u -> a*u + b moved to lane sigma, a*u + b + sigma*(1 - a)
    lane_b = [r.b + sigma * (1 - r.a) for r in regimes]

    def piece_for_level(k):
        i = next(i for i, r in enumerate(regimes) if r.k_lo <= k <= r.k_hi)
        lo, hi, e = head_hull(k)
        lane = sigma * 3 ** e
        return Piece(TernaryRational(lo + lane, e), TernaryRational(hi + lane, e),
                     regimes[i].a, lane_b[i], (walls[2 * i].wall_id, walls[2 * i + 1].wall_id),
                     f"{regimes[i].tag}:k{k}")

    def locate(u):
        k = head_of(TernaryRational(u.num - sigma * 3 ** u.exp, u.exp))
        if k is None or abs(k) > k_cap:
            raise DomainError(f"{name}: {u} outside supported head intervals")
        return piece_for_level(k)

    def enumerate_pieces(levels):
        return [piece_for_level(k) for k in sorted(levels) if abs(k) <= k_cap]

    return Gadget(
        kind=f"shift({eps:+d})", name=name,
        in_ports={"in": Chart.of((base_x, base_y), (1, 0), (0, 1), sigma, sigma + 1)},
        out_ports={"out": Chart.of((base_x + 2, base_y + STAGE_HEIGHT), (1, 0), (0, 1),
                                   sigma, sigma + 1)},
        transfer=PiecewiseTransfer(locate, enumerate_pieces, label=name),
        static_walls=walls,
    )


# ---------------------------------------------------------------------------
# turns
# ---------------------------------------------------------------------------

#: The widest window build_turn_gadget accepts: its mirror, padded, spans
#: at most 10 units along the beam's tangent.
_TURN_MAX_WIDTH = F(9)


def turn_mirror(corner, v, width, name):
    """The flat mirror of a quarter turn, for a beam window [lo, lo + width].

    ``v`` is a diagonal such as (1, 1) whose component along the window's
    tangent is 1: the beam at lo + s meets the mirror at corner + s*v.  The
    mirror runs from s = -1/2 to s = width + 1/2, half a unit past each end
    of the window.  From an integer corner, diagonal and width it is the
    Segment over 2, in lowest terms, as its ends' numerators are odd.
    """
    (cx, cy), (vx, vy) = corner, v
    return Segment(2, 2 * cx - vx, 2 * cy - vy, 2 * cx + (2 * width + 1) * vx,
                   2 * cy + (2 * width + 1) * vy, f"{name}:mirror")


def build_turn_gadget(direction_change, window=(F(-4), F(4))):
    """Stand-alone quarter-turn mirror for an upward beam.

    +90 turns the beam right (+x), -90 left (-x); the identity transfer
    covers the full window, which must fit the wall extent guard.  The
    beam at u meets the mirror at height rise + d*(u - lo), d = +-1 the
    turn's side, and leaves along that height past the mirror's far end.
    """
    if direction_change not in (+90, -90):
        raise ValueError("direction_change must be +-90")
    lo, hi = F(window[0]), F(window[1])
    name = f"turn[{direction_change:+d}]"
    if hi - lo > _TURN_MAX_WIDTH:
        raise ValueError(f"turn {name}: beam window wider than wall extent")
    d = F(1 if direction_change == +90 else -1)
    rise = hi - lo + 2
    # a rational window makes the record's integers rationals: rebuild it
    # over its ends' least common denominator
    mirror = turn_mirror((lo, rise), (1, d), hi - lo, name)
    wall = Segment.of(mirror.p0, mirror.p1, mirror.wall_id)
    out_port = Chart.of((lo + d * (hi - lo + 3), rise - d * lo), (0, d), (d, 0), lo, hi)
    piece = Piece(TernaryRational.from_fraction(lo), TernaryRational.from_fraction(hi),
                  T(1), T(0), (wall.wall_id,), "turn")

    def locate(u):
        if not (piece.lo <= u <= piece.hi):
            raise DomainError(f"{name}: {u} outside turn window")
        return piece

    return Gadget(
        kind="turn", name=name,
        in_ports={"in": Chart.of((F(0), F(0)), (1, 0), (0, 1), lo, hi)},
        out_ports={"out": out_port},
        transfer=PiecewiseTransfer(locate, lambda levels: [piece], label=name),
        static_walls=(wall,),
    )


# ---------------------------------------------------------------------------
# separation audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparationReport:
    """Exact evaluation of the wall-clearance inequality between the block
    families of head levels k and k_other.

    A block [lo, hi] of length h carries a mirror that must stay clear of
    [a, b] = [lo - h/2, hi + h/2].  For two same-symbol blocks L and R with
    lo_L < lo_R, gap > half-length sum reads slack = a_R - b_L > 0, for
    either symbol.  Read-0 trajectories travel left, so symbol 0 files the
    pair under k = R's level, k_other = L's; read-1 walls mirror that, with
    k = L's level and k_other = R's.  ``pair_count`` counts the pairs and
    ``min_slack`` is the smallest slack among them (None: no pairs).
    """

    k: int
    k_other: int
    pair_count: int
    min_slack: Optional[Fraction]
    passed: bool


def check_separation(K, *, perturb=None):
    """Exact clearance audit of all head-cell blocks with |k|, |k'| <= K.

    One sweep per symbol over the blocks sorted by lo.  The slack a_R - b_L
    of a pair is a term of R minus a term of L, so R's smallest slack
    against level j is a_R minus the largest b of the level-j blocks left
    of R: a running max of b per level makes the sweep exact, with
    n * (2K + 1) comparisons after an O(n log n) sort.  Blocks with equal lo
    are never paired, so each such group is scored before it is inserted.
    Endpoints are scaled to integers over their common denominator, a
    power of three unless ``perturb`` says otherwise.

    ``perturb`` optionally maps (k, symbol, index, lo, hi) to a replacement
    (lo, hi) pair; the mutation tests shift one wall sideways and expect a
    negative slack.
    """
    if K < 0:
        raise ValueError(f"separation K={K} is negative")
    if K > k_max_cap():
        raise KRangeExceeded(f"separation K={K} beyond cap {k_max_cap()}")
    levels = range(-K, K + 1)
    out = []
    for symbol in (0, 1):
        ends = []   # (lo, hi, level index), each end a (numerator, denominator)
        for k in levels:
            for i, blk in enumerate(cantor_blocks_at(k, digit_position(k), symbol)):
                lo, hi = (blk.lo.num, 3 ** blk.lo.exp), (blk.hi.num, 3 ** blk.hi.exp)
                if perturb is not None:
                    lo, hi = ((f.numerator, f.denominator) for f in perturb(
                        k, symbol, i, blk.lo.as_fraction(), blk.hi.as_fraction()))
                ends.append((lo, hi, k + K))
        den = math.lcm(*{d for lo, hi, _ in ends for _, d in (lo, hi)})
        # per block: lo, 2a and 2b, all times den
        rows = []
        for (lo, lo_den), (hi, hi_den), j in ends:
            lo, hi = lo * (den // lo_den), hi * (den // hi_den)
            rows.append((lo, 3 * lo - hi, 3 * hi - lo, j))
        rows.sort()
        count, max_b = [0] * len(levels), [0] * len(levels)
        pairs = [[0] * len(levels) for _ in levels]       # [R's level][L's level]
        least = [[math.inf] * len(levels) for _ in levels]
        for _, group in itertools.groupby(rows, key=lambda row: row[0]):
            group = list(group)
            for _, a, _, r in group:
                p, m = pairs[r], least[r]
                for j, c in enumerate(count):
                    if c:
                        p[j] += c
                        m[j] = min(m[j], a - max_b[j])
            for _, _, b, j in group:
                max_b[j] = max(max_b[j], b) if count[j] else b
                count[j] += 1
        for k in levels:
            for k2 in levels:
                r, l = (k + K, k2 + K) if symbol == 0 else (k2 + K, k + K)
                m = Fraction(least[r][l], 2 * den) if pairs[r][l] else None
                out.append(SeparationReport(k, k2, pairs[r][l], m,
                                            m is None or m > 0))
    return out
