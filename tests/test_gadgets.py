import dataclasses
import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from carom import encoding, gadgets, numeric
from carom.encoding import (
    cantor_blocks,
    cantor_blocks_at,
    cantor_walk,
    digit_position,
    encode_state,
    read_digit,
    rewrite_point,
    shift_point,
)
from carom.gadgets import (
    _BAND_GAIN,
    DomainError,
    PiecewiseTransfer,
    SeparationReport,
    _BlockMirrors,
    _block_walls,
    _pair_template,
    build_merge_gadget,
    build_shift_stage,
    build_split_gadget,
    build_turn_gadget,
    check_separation,
)
from carom.geometry import Leg, Segment, walls_clash
from carom.machine import enumerate_tapes
from carom.table import MERGE_DY, SPLIT_DY, STAGE_DY, compile_table
from carom.ternary import T
from carom.zoo import MACHINE_TEXTS, get_machine

#: Every writes pair of a split, (w0, w1): read-only, both flipped, and the
#: two that write one symbol everywhere, so rewrite one read only
WRITES = [(0, 1), (1, 0), (0, 0), (1, 1)]
WRITES_IDS = ["read-only", "rewriting", "write-0", "write-1"]


def sample_points(k_range=3, cells=3):
    out = []
    for tape in enumerate_tapes(range(-cells, cells + 1)):
        for k in range(-k_range, k_range + 1):
            out.append(encode_state(tape, k))
    return out


# --- shift ---------------------------------------------------------------

def test_shift_gadget_examples():
    # each head move, in each head-sign regime, on one point
    for eps, u, want, regime in ((+1, T(1, 1), T(7, 2), "pos:"),
                                 (+1, T(1, 2), T(1, 1), "neg:"),
                                 (-1, T(7, 2), T(1, 1), "pos:"),
                                 (-1, T(1, 1), T(1, 2), "neg:")):
        got, piece = build_shift_stage(eps).transfer.apply(u)
        assert got == want and piece.tag.startswith(regime), (eps, u)


def test_shift_gadget_inverse_composition():
    fwd = build_shift_stage(+1)
    bwd = build_shift_stage(-1)
    for p in sample_points(2, 2):
        if p.head < 0:
            continue
        out, piece = fwd.transfer.apply(p.value)
        back, back_piece = bwd.transfer.apply(out)
        assert back == p.value
        assert piece.tag.startswith("pos:") and back_piece.tag.startswith("pos:")


def test_shift_stage_matches_shift_point():
    for eps in (+1, -1):
        stage = build_shift_stage(eps)
        for p in sample_points(3, 3):
            want = shift_point(p, eps).value
            got, piece = stage.transfer.apply(p.value)
            assert got == want, (p, eps)
            assert piece.lo <= p.value <= piece.hi


def test_shift_stage_rebased_lane():
    stage = build_shift_stage(+1, sigma=-2)
    for p in sample_points(2, 2):
        got, _ = stage.transfer.apply(p.value - 2)
        assert got == shift_point(p, +1).value - 2


def test_shift_stage_domain_error():
    stage = build_shift_stage(+1)
    with pytest.raises(DomainError):
        stage.transfer.apply(T(1, 2) - T(1, 9))  # in a gap between intervals
    bounded = build_shift_stage(+1, K=2)
    deep = encode_state(frozenset(), 5)
    with pytest.raises(DomainError):
        bounded.transfer.apply(deep.value)


def test_shift_stage_walls_are_four_arcs():
    stage = build_shift_stage(+1)
    walls = stage.walls([])
    assert len(walls) == 4
    assert all(w.kind == "parabola_arc" for w in walls)
    # regime arcs must not overlap horizontally
    for i in range(4):
        for j in range(i + 1, 4):
            b1, b2 = walls[i].bbox(), walls[j].bbox()
            assert b1[2] < b2[0] or b2[2] < b1[0]


def test_regime_arcs_within_latus_rectum():
    # every beam of a regime window meets its arcs within |x - axis| < 2p,
    # padded ends included; a translated pair keeps the bound
    for eps in (+1, -1):
        assert [r.tag for r in gadgets._REGIMES[eps]] == (
            ["neg", "pos"] if eps == +1 else ["pos", "neg"])
        for regime in gadgets._REGIMES[eps]:
            assert len(regime.arcs) == 2
            for arc in regime.arcs:
                for x in (arc.x_lo, arc.x_hi):
                    assert abs(x - arc.axis_x) < 2 * arc.p, (eps, arc.wall_id)


def _demo_tables(K):
    return [compile_table(get_machine(name), K) for name in sorted(MACHINE_TEXTS)]


def test_stage_arcs_are_translated_regime_pairs():
    # each stage's four arcs are its head move's regime pairs moved by
    # (base_x + sigma_in, STAGE_DY), where the table places them, ids
    # prefixed with the stage's name
    for table in _demo_tables(8):
        for corridor in table.corridors.values():
            stage, edge = corridor.stage, corridor.edge
            dx = table.stations[edge.state].x + corridor.sigma_in
            want = [arc.translated(dx, STAGE_DY)._replace(wall_id=f"{stage.name}:{arc.wall_id}")
                    for regime in gadgets._REGIMES[edge.shift] for arc in regime.arcs]
            assert list(stage.static_walls) == want, stage.name


def test_compile_builds_no_confocal_pair(monkeypatch):
    # the regime pairs are built once, at import: compiling places them
    calls = []

    def counting(*args):
        calls.append(args)
        return confocal_pair(*args)

    confocal_pair = gadgets._confocal_pair
    monkeypatch.setattr(gadgets, "_confocal_pair", counting)
    _demo_tables(8)
    assert calls == []


# --- split ---------------------------------------------------------------

def test_split_transfer_examples():
    split = build_split_gadget(4)
    out, piece = split.transfer.apply(T(1, 1))
    assert out == T(1, 1) - 2 and piece.tag == "branch0"
    out, piece = split.transfer.apply(T(5, 2))
    assert out == T(5, 2) + 2 and piece.tag == "branch1"


def test_split_rewrite_example():
    split = build_split_gadget(4, writes=(1, 1))
    out, piece = split.transfer.apply(T(1, 1))
    # 1/3 + 2*3^-2 - 2 = -13/9
    assert out == T(-13, 2)
    assert piece.tag == "branch0"


def test_split_matches_encoding_semantics():
    writes = (1, 1)
    split = build_split_gadget(3, writes)
    for p in sample_points(3, 3):
        a = read_digit(p)
        want = rewrite_point(p, writes[a]).value + (-2 if a == 0 else 2)
        got, piece = split.transfer.apply(p.value)
        assert got == want
        assert piece.tag == f"branch{a}"


def test_split_wall_slopes_and_parallelism():
    split = build_split_gadget(2)
    for k in range(-2, 3):
        walls = split.walls([k])
        by_id = {w.wall_id: w for w in walls}
        for w in walls:
            if not w.wall_id.endswith(":W"):
                continue
            (x0, y0), (x1, y1) = w.p0, w.p1
            slope = (y1 - y0) / (x1 - x0)
            expected = Fraction(-1) if ":s0:" in w.wall_id else Fraction(1)
            assert slope == expected
            ret = by_id[w.wall_id[:-2] + ":Wt"]
            (a0, b0), (a1, b1) = ret.p0, ret.p1
            assert (b1 - b0) / (a1 - a0) == slope  # exactly parallel


def test_rewrite_wall_angle_law():
    split = build_split_gadget(2, writes=(1, 0))
    for k in range(0, 3):
        for w in split.walls([k]):
            if not (w.wall_id.endswith(":W") and ":s0:" in w.wall_id):
                continue
            (x0, y0), (x1, y1) = w.p0, w.p1
            slope = (y1 - y0) / (x1 - x0)
            d = Fraction(1, 3 ** (3 * k + 2))
            assert slope == -1 / (1 + d)


def test_rewrite_slope_approaches_straight():
    # tan(alpha_k) -> 1 as k grows: the rewrite wall flattens toward the
    # plain separating wall
    d = lambda k: Fraction(1, 3 ** (3 * k + 2))
    slopes = [Fraction(-1) / (1 + d(k)) for k in (0, 2, 5)]
    gaps = [abs(s - Fraction(-1)) for s in slopes]
    assert gaps[0] > gaps[1] > gaps[2] > 0


def test_split_walls_disjoint():
    split = build_split_gadget(3, writes=(1, 0))
    walls = split.walls(range(-3, 4))
    boxes = [(w, w.bbox()) for w in walls]
    boxes.sort(key=lambda t: t[1][0])
    for i, (w1, b1) in enumerate(boxes):
        for w2, b2 in boxes[i + 1:]:
            if b2[0] > b1[2]:
                break
            assert not walls_clash(w1, w2), (w1.wall_id, w2.wall_id)


def test_split_domain_guard():
    split = build_split_gadget(2)
    deep = encode_state(frozenset(), 4)
    with pytest.raises(DomainError):
        split.transfer.apply(deep.value)


# --- merge ---------------------------------------------------------------

def test_merge_inverts_split():
    split = build_split_gadget(3)
    merge = build_merge_gadget(split)
    assert merge.transfer.apply(T(-5, 1) * T(1))[0] == T(1, 1)  # -5/3 -> 1/3
    assert merge.transfer.apply(T(23, 2))[0] == T(5, 2)         # 23/9 -> 5/9
    for p in sample_points(2, 2):
        mid, _ = split.transfer.apply(p.value)
        back, piece = merge.transfer.apply(mid)
        assert back == p.value
        assert piece.a == T(1)


def test_piece_apply_matches_the_ternary_rational_form():
    # Piece.apply computes a*u + b on integers; the oracle is the
    # TernaryRational form, on the pieces a step meets at |k| <= 64 (a
    # rewriting split, a read-only one and its merge, both shift stages in
    # a lane) and on seeded affine maps
    rng = random.Random(64)
    rewrite, split = build_split_gadget(64, (1, 0)), build_split_gadget(64)
    merge = build_merge_gadget(split)
    stages = [(sigma, build_shift_stage(eps, sigma=sigma, K=64))
              for eps in (-1, 1) for sigma in (-2, 2)]
    for _ in range(150):
        k = rng.randint(-63, 63)
        tape = frozenset(c for c in range(-abs(k) - 2, abs(k) + 3) if rng.random() < 0.3)
        u = encode_state(tape, k).value
        uses = [(rewrite.transfer.locate(u), u)]
        v, piece = split.transfer.apply(u)
        uses += [(piece, u), (piece, piece.lo), (piece, piece.hi)]
        back, piece = merge.transfer.apply(v)
        assert back == u
        uses.append((piece, v))
        for sigma, stage in stages:
            uses.append((stage.transfer.locate(u + sigma), u + sigma))
        a, b = (T(rng.randint(-40, 40), rng.randrange(6)) for _ in range(2))
        uses.append((gadgets.Piece(T(0), T(1), a, b, (), ""), T(rng.randint(-99, 99), rng.randrange(70))))
        for piece, x in uses:
            assert piece.apply(x) == piece.a * x + piece.b, (piece.tag, x)


def test_merge_rejects_noninjective():
    # a split whose two branches land on overlapping lanes cannot be reversed
    split = build_split_gadget(1)
    bad = build_split_gadget(1, name="bad")
    bad_pieces = bad.transfer.pieces([0])

    class Clashing:
        label = "clashing"

        def pieces(self, levels):
            # drag the branch-1 image onto the branch-0 image window
            return [p if p.tag == "branch0" else p._replace(b=T(-20, 2))
                    for p in bad_pieces]

        def check_injective(self, levels):
            from carom.gadgets import PiecewiseTransfer
            PiecewiseTransfer(None, self.pieces, self.label).check_injective(levels)

    fake = dataclasses.replace(bad, transfer=Clashing())
    with pytest.raises(ValueError):
        build_merge_gadget(fake)
    # the honest split merges fine
    build_merge_gadget(split)


@pytest.mark.parametrize("writes", WRITES[1:], ids=WRITES_IDS[1:])
def test_merge_refuses_a_rewriting_split(writes):
    # a merge's inverse takes u -/+ 2 as the pre-image, which leaves out a
    # rewrite displacement: a split that writes is refused when the merge
    # is built, naming the split, not by a DomainError on its first use
    split = build_split_gadget(4, writes, name="split:R")
    with pytest.raises(ValueError, match="split split:R writes") as err:
        build_merge_gadget(split)
    assert not isinstance(err.value, DomainError)


def test_merge_walls_mirror_split():
    split = build_split_gadget(1)
    merge = build_merge_gadget(split)
    sw = {w.wall_id: w for w in split.walls([0])}
    for w in merge.walls([0]):
        twin = sw[w.wall_id]
        assert w.p0[0] == twin.p0[0]
        assert w.p0[1] == 10 - twin.p0[1]


@pytest.mark.parametrize("base_y", [7, -12])
def test_merge_mirrors_a_placed_split_across_its_midline(base_y):
    # a split built at base_y, its merge mirrored across the split's own
    # midline, y = base_y + 5: walls and ports alike, the ports keeping the
    # +y beam, and the merge's family a copy of the split's, of one key
    split = build_split_gadget(1, base_y=base_y)
    merge = build_merge_gadget(split)
    sw = {w.wall_id: w for w in split.walls([0])}
    for w in merge.walls([0]):
        twin = sw[w.wall_id]
        assert w.p0[0] == twin.p0[0]
        assert w.p0[1] == 2 * base_y + 10 - twin.p0[1]
    assert split.in_ports["in"].origin == (0, base_y)
    assert merge.out_ports["out"].origin == (0, base_y + 10)
    for key, port in split.out_ports.items():
        assert port.origin == (0, base_y + 10)
        assert merge.in_ports[key].origin == (0, base_y)
        assert merge.in_ports[key].beam == port.beam == (0, 1)
    assert merge.mirrors.key == split.mirrors.key
    assert merge.mirrors.frame == (base_y + 10, -1) and split.mirrors.frame == (base_y, 1)


# --- mirror templates ----------------------------------------------------

def explicit_pairs(name, levels, writes, base_x):
    """Every split mirror pair by the explicit per-block formula, in the
    order ``walls(levels)`` lists them."""
    walls = []
    for k in levels:
        digit_pos = digit_position(k)
        for s in (0, 1):
            for blk in cantor_blocks_at(k, digit_pos, s):
                walls += _block_walls(name, blk, writes[s], base_x)
    return walls


def placed(walls, oy, sy):
    """The walls under y -> oy + sy*y, point by point."""
    return [Segment.of(*((x, oy + sy * y) for x, y in (w.p0, w.p1)), w.wall_id)
            for w in walls]


def _values(walls):
    """Each wall's ends and id: a mirror's integer record need not be in
    lowest terms, so walls built apart are compared by value."""
    return [(w.p0, w.p1, w.wall_id) for w in walls]


@pytest.mark.parametrize("writes", WRITES, ids=WRITES_IDS)
@pytest.mark.parametrize("base_x", [Fraction(0), Fraction(48)], ids=["x0", "x48"])
def test_template_pairs_equal_explicit_formula(writes, base_x):
    # every block of levels -4..4 of a K=8 split, both symbols, for each of
    # the four writes pairs: the split built at y = 0 and where a table
    # builds it, at SPLIT_DY, and for the read-only pair its mirror image
    # as a merge, of a split built at 0 and at MERGE_DY; a merge refuses
    # the three splits that write.  The full listing equals the explicit
    # formula pair for pair, and so does every wall a positional query
    # returns (both list pairs with _segments)
    levels = range(-4, 5)
    want = explicit_pairs("split:A", levels, writes, base_x)
    mirrored = placed(want, 10, -1)
    place = functools.partial(build_split_gadget, 8, writes, base_x=base_x, name="split:A")
    sources = [(place(), want), (place(base_y=SPLIT_DY), placed(want, SPLIT_DY, 1))]
    if writes == (0, 1):
        sources += [(build_merge_gadget(place(base_y=dy), name="merge:A"), placed(mirrored, dy, 1))
                    for dy in (0, MERGE_DY)]
    else:
        with pytest.raises(ValueError, match="split split:A writes"):
            build_merge_gadget(place(), name="merge:A")

    rng = random.Random(7)
    for source, walls in sources:
        assert _values(source.walls(levels)) == _values(walls)
        by_id = {w.wall_id: w for w in walls}
        for wall in rng.sample(walls, 40):
            # a short vertical leg through the wall's midpoint
            x, y = ((a + b) / 2 for a, b in zip(wall.p0, wall.p1))
            leg = Leg.of((x, y - Fraction(1, 3 ** 12)), (Fraction(0), Fraction(1)),
                         Fraction(2, 3 ** 12))
            got = _values(source.mirrors.walls_in(leg))
            assert _values([wall])[0] in got
            assert got == _values(by_id[wid] for _, _, wid in got)


def _mirror_template(k, digit_pos, read_s, write_s):
    """The mirror pair of every (k, digit_pos, read_s) block, up to a
    translation: ((p0, p1) of the primary, (p0, p1) of the return mirror),
    exact.

    In _block_walls a pair depends on its block only through the centre c:
    its x range follows c and its band sits at height 8c + 1.  So the pair
    over centre c is the pair over any other centre translated by a
    multiple of (1, 8).  The template is the pair over the first block
    moved to centre 0 at base_x = 0; placed at y -> oy + sy*y, the pair
    over centre c is the template, y scaled by sy, plus (base_x + c,
    oy + 8c*sy).
    """
    first, = cantor_walk(k, digit_pos, read_s, (0, 0))
    c = first.centre
    return tuple(tuple((x - c, y - _BAND_GAIN * c) for x, y in (w.p0, w.p1))
                 for w in _block_walls("", first, write_s, Fraction(0)))


@functools.lru_cache(maxsize=None)
def _mirror_boxes(k, digit_pos, read_s, write_s):
    """Bounding boxes of the mirror pair over every (k, digit_pos, read_s)
    block, at base_x = 0: the template's, so the walls over centre c lie in
    the boxes (ax + c +- rx, ay + 8c +- ry).  Returns ((ax, ay, rx, ry) of
    the primary, the same for the return mirror), exact.
    """
    return tuple(((p0[0] + p1[0]) / 2, (p0[1] + p1[1]) / 2,
                  abs(p1[0] - p0[0]) / 2, abs(p1[1] - p0[1]) / 2)
                 for p0, p1 in _mirror_template(k, digit_pos, read_s, write_s))


def test_mirror_boxes_match_explicit_pair():
    # the level record of every level |k| <= 8, both symbols, for each of
    # the four writes pairs, against the explicit pairs over the first and
    # the last block of the level: its boxes, moved to the last block, are
    # that pair's boxes; centred on their block they are the Fraction
    # oracle's (_mirror_boxes); and each wall's float region is the box
    # from the first block's wall box to the last one's, each corner
    # correctly rounded
    for writes in WRITES:
        mirrors = build_split_gadget(8, writes).mirrors
        levels = mirrors._level_data()
        assert [lv.k for lv in levels] == list(range(-8, 9))
        for lv in levels:
            k, digit_pos = lv.k, lv.digit_pos
            last = 3 ** (digit_pos - 1) - 1
            for s in (0, 1):
                ends = []
                for index in (0, last):
                    blk, = cantor_walk(k, digit_pos, s, (index, index))
                    pair = _block_walls("", blk, writes[s], Fraction(0))
                    ends.append([((w.p0[0] + w.p1[0]) / 2, (w.p0[1] + w.p1[1]) / 2,
                                  abs(w.p1[0] - w.p0[0]) / 2, abs(w.p1[1] - w.p0[1]) / 2)
                                 for w in pair])
                c, c0 = blk.centre, cantor_walk(k, digit_pos, s, (0, 0))[0].centre
                boxes = ends[1]
                assert _mirror_boxes(k, digit_pos, s, writes[s]) == tuple(
                    (ax - c, ay - 8 * c, rx, ry) for ax, ay, rx, ry in boxes)
                record = _pair_template(k, digit_pos, s, writes[s])
                assert lv.boxes[s] == record.boxes and lv.regions[s] == record.regions
                assert [tuple(Fraction(v, den) for v in (x + last * step, y + 8 * last * step,
                                                         rx, ry))
                        for den, step, x, y, rx, ry in record.boxes] == boxes
                centred = tuple((Fraction(x, den) - c0, Fraction(y, den) - 8 * c0,
                                 Fraction(rx, den), Fraction(ry, den))
                                for den, _, x, y, rx, ry in record.boxes)
                assert centred == _mirror_boxes(k, digit_pos, s, writes[s])
                assert record.regions == tuple(
                    tuple(map(float, (ax - rx, ay - ry, bx + qx, by + qy)))
                    for (ax, ay, rx, ry), (bx, by, qx, qy) in zip(*ends))


def _level_data_oracle(mirrors):
    """_BlockMirrors._level_data as every family once computed it for
    itself: per level, both symbols' boxes from their records, and each
    wall's region, from block 0's box to the last block's, read in
    Fractions and rounded to floats."""
    levels = []
    for k in mirrors.levels:
        digit_pos = digit_position(k + mirrors.cell_offset)
        # the last block index reads every free digit as 2 (blocks_in)
        last = int("2" * (digit_pos - 1) or "0", 3)
        boxes = tuple(_pair_template(k, digit_pos, s, mirrors.writes[s]).boxes
                      for s in (0, 1))
        regions = tuple(tuple(tuple(float(Fraction(v, den)) for v in (
            x - rx, y - ry, x + last * step + rx, y + 8 * last * step + ry))
            for den, step, x, y, rx, ry in per_symbol) for per_symbol in boxes)
        levels.append(gadgets._MirrorLevel(k, digit_pos, boxes, regions))
    return tuple(levels)


@pytest.mark.parametrize("K", [8, 24])
def test_level_records_match_the_per_family_oracle(K):
    # every family of every demo table, split and merge frames alike: the
    # levels are the oracle's, and the box a tracer's scene files the
    # family by holds every level's region placed by base_x and the frame,
    # within the rounding of that placement, far inside the slack a walk
    # reads boxes with
    frames = set()
    for table in _demo_tables(K):
        for mirrors in table.mirror_families:
            frames.add(mirrors.frame[1])
            levels = mirrors._level_data()
            assert levels == _level_data_oracle(mirrors)
            box = numeric._Family(mirrors).box
            x0, y0, x1, y1 = map(Fraction, box)
            tol = Fraction(4 * math.ulp(max(map(abs, box))))
            (oy, sy), base = mirrors.frame, mirrors.base_x
            for lv in levels:
                for rx0, ry0, rx1, ry1 in itertools.chain(*lv.regions):
                    ys = sorted(oy + sy * Fraction(y) for y in (ry0, ry1))
                    assert (x0 - tol <= base + Fraction(rx0) and y0 - tol <= ys[0]
                            and base + Fraction(rx1) <= x1 + tol and ys[1] <= y1 + tol)
            assert tol < numeric._BOX_SLACK
    assert frames == {1, -1}


def _scene_families(table):
    """The _Family records of ``table``'s trace scene, in scene order."""
    return [entry[4] for entry in table.trace_scene.index.entries
            if entry[4].kind == "family"]


def test_family_index_is_cached_by_the_family_key():
    # two fresh tables of one machine at K=8: the second table's scene adds
    # no miss to the family-index cache, and families of one key, in either
    # table, read one _RayIndex object, though they are other _BlockMirrors;
    # a split of writes (1, 0) gets another index than one of (0, 1)
    machine = get_machine("pacer")
    first = _scene_families(compile_table(machine, 8))
    misses = numeric._family_index.cache_info().misses
    second = _scene_families(compile_table(machine, 8))
    assert numeric._family_index.cache_info().misses == misses
    assert len(first) == len(second) >= 4
    by_key = {}
    for family, twin in zip(first, second):
        assert family.mirrors.key == twin.mirrors.key and family.mirrors is not twin.mirrors
        for f in (family, twin):
            assert by_key.setdefault(f.mirrors.key, f.index) is f.index
    assert len(by_key) < len(first)
    read, flipped = (numeric._Family(build_split_gadget(8, writes).mirrors)
                     for writes in ((0, 1), (1, 0)))
    assert read.mirrors.key != flipped.mirrors.key
    assert read.index is not flipped.index
    assert [e[:4] for e in read.index.entries] != [e[:4] for e in flipped.index.entries]


def _verdict(check, levels):
    try:
        check(levels)
    except ValueError as err:
        return str(err)
    return None


def _both_verdicts(transfer, levels=range(-3, 4)):
    """The lemma's verdict and the enumerated check's, each None or the
    ValueError's message."""
    return (_verdict(transfer.check_injective, levels),
            _verdict(functools.partial(PiecewiseTransfer.check_injective, transfer), levels))


def test_injectivity_lemma_matches_the_enumerated_check():
    # every demo machine's premerge splits; read-only splits at K=8 that
    # classify the head cell or a neighbour, as premerge splits do; and
    # splits of every writes pair at K=8, which classify the head cell, as
    # compiled splits do: (0, 0) and (1, 1) move one lane rigidly and
    # rewrite in the other, so one split holds both kinds of lane
    transfers = {}
    for table in _demo_tables(8):
        for corridor in table.corridors.values():
            if corridor.premerge is not None:
                transfers[id(corridor.premerge)] = corridor.premerge
    assert len(transfers) >= 4
    for offset in (0, 1, -1):
        split = build_split_gadget(8, cell_offset=offset)
        transfers[id(split)] = split.transfer
    for writes in WRITES:
        split = build_split_gadget(8, writes)
        transfers[id(split)] = split.transfer
    for transfer in transfers.values():
        assert _both_verdicts(transfer) == (None, None), transfer.label


@pytest.mark.parametrize("mutation", ["clashing", "dragged"])
def test_injectivity_lemma_rejects_what_the_enumeration_rejects(monkeypatch, request, mutation):
    # clashing: the branch-1 displacement of test_merge_rejects_noninjective,
    # -20/9 at every level, lays the branch-1 lane over the branch-0 lane;
    # dragged: branch 1 moved by sigma_0 less two block lengths, which lays
    # every read-1 block's image exactly on its read-0 neighbour's.  The
    # lemma is decided once per family key, and this key's honest verdict
    # may be cached: the cache is cleared before, and after, as the mutated
    # verdict is cached under the honest key
    displacement = gadgets._displacement
    gadgets._overlap.cache_clear()
    request.addfinalizer(gadgets._overlap.cache_clear)

    def mutated(k, read_s, write_s):
        n, e = displacement(k, read_s, write_s)
        if read_s == 0:
            return n, e
        if mutation == "clashing":
            return -20 * 3 ** (e - 2), e
        return displacement(k, 0, 0)[0] - 2, e

    monkeypatch.setattr(gadgets, "_displacement", mutated)
    split = build_split_gadget(1 if mutation == "clashing" else 8)
    lemma, enumerated = _both_verdicts(split.transfer)
    assert lemma == enumerated == "transfer split: images of branch0 and branch1 overlap"
    with pytest.raises(ValueError, match="images of branch0 and branch1 overlap"):
        build_merge_gadget(split)


def test_compile_places_and_does_not_enumerate(monkeypatch):
    # compile_table walks no Cantor block, builds or reads no level
    # record and makes no family's level data, at the default K and deep
    def refuse(*args, **kwargs):
        raise AssertionError("compile_table enumerated")

    monkeypatch.setattr(encoding, "cantor_walk", refuse)
    monkeypatch.setattr(gadgets, "cantor_walk", refuse)
    # the record builder itself, uncached, so a warm cache hides no call
    monkeypatch.setattr(gadgets, "_pair_template", gadgets._pair_template.__wrapped__)
    monkeypatch.setattr(_BlockMirrors, "_level_data", refuse)
    for K in (8, 60):
        assert len(_demo_tables(K)) == len(MACHINE_TEXTS)


# --- turns ---------------------------------------------------------------

def test_turn_gadget_basics():
    turn = build_turn_gadget(+90)
    assert len(turn.static_walls) == 1
    out_port = turn.out_ports["out"]
    assert out_port.beam == (1, 0)
    got, piece = turn.transfer.apply(T(1, 1))
    assert got == T(1, 1)

    left = build_turn_gadget(-90)
    assert left.out_ports["out"].beam == (-1, 0)


def test_turn_window_guard():
    with pytest.raises(ValueError):
        build_turn_gadget(+90, window=(-9, 9))


# --- separation ----------------------------------------------------------

def test_separation_k0_passes():
    reports = check_separation(0)
    assert all(r.passed for r in reports)


def test_separation_k3_min_slack_positive():
    reports = check_separation(3)
    assert all(r.passed for r in reports)
    slacks = [r.min_slack for r in reports if r.min_slack is not None]
    assert slacks and min(slacks) > 0


def test_separation_block_count_at_top_level():
    from carom.encoding import cantor_blocks
    assert len(cantor_blocks(4, 0)) == 2 ** 8


def test_separation_mutation_fails():
    # shifting the k=0 read-0 wall left by 3^-(3k+1) = 1/3 rams it into the
    # k=-1 block family
    def perturb(k, symbol, index, lo, hi):
        if k == 0 and symbol == 0:
            return lo - Fraction(1, 3), hi - Fraction(1, 3)
        return lo, hi

    reports = check_separation(1, perturb=perturb)
    assert any(not r.passed for r in reports)
    assert any(r.min_slack is not None and r.min_slack < 0 for r in reports)


def test_separation_negative_K_rejected():
    # an empty report list would read as "all inequalities hold"
    with pytest.raises(ValueError, match="negative"):
        check_separation(-1)


def separation_reports(blocks_by_level, *, symbol):
    """All ordered same-family pairs across the given levels.

    ``blocks_by_level`` maps k -> [(lo, hi)] as Fractions.  For symbol 0
    the moving trajectory travels left, so each block is checked against
    every block left of it; symbol 1 is the mirror image.
    """
    reports = []
    levels = sorted(blocks_by_level)
    for k in levels:
        for k2 in levels:
            slacks = []
            for lo, hi in blocks_by_level[k]:
                for lo2, hi2 in blocks_by_level[k2]:
                    if symbol == 0:
                        if lo <= lo2:
                            continue
                        gap = lo - hi2
                    else:
                        if lo >= lo2:
                            continue
                        gap = lo2 - hi
                    slacks.append(gap - (hi - lo) / 2 - (hi2 - lo2) / 2)
            m = min(slacks) if slacks else None
            reports.append(SeparationReport(k, k2, len(slacks), m,
                                            m is None or m > 0))
    return reports


def reference_blocks(K, perturb, symbol):
    """k -> [(lo, hi)] for |k| <= K, as check_separation audits them."""
    table = {}
    for k in range(-K, K + 1):
        blks = []
        for i, blk in enumerate(cantor_blocks_at(k, digit_position(k), symbol)):
            lo, hi = blk.lo.as_fraction(), blk.hi.as_fraction()
            if perturb is not None:
                lo, hi = perturb(k, symbol, i, lo, hi)
            blks.append((lo, hi))
        table[k] = blks
    return table


def reference_separation(K, perturb=None):
    """check_separation by comparing every same-symbol pair: O(n**2)."""
    out = []
    for symbol in (0, 1):
        out.extend(separation_reports(reference_blocks(K, perturb, symbol),
                                      symbol=symbol))
    return out


def shift_k0_read0_left(k, symbol, index, lo, hi):
    if k == 0 and symbol == 0:
        return lo - Fraction(1, 3), hi - Fraction(1, 3)
    return lo, hi


def scramble(k, symbol, index, lo, hi):
    """Seeded per block: snaps some blocks to a 1/3 grid, so equal lo values
    occur within and across levels, and stretches some so they overlap."""
    rng = random.Random(f"scramble:{k}:{symbol}:{index}")
    h = hi - lo
    if rng.random() < 0.3:
        lo = Fraction(math.floor(lo * 3), 3)
    return lo, lo + h * rng.choice((1, 1, 5, 40))


def test_scramble_makes_ties_across_levels_and_overlaps():
    for symbol in (0, 1):
        table = reference_blocks(3, scramble, symbol)
        levels_at = {}
        for k, blks in table.items():
            for lo, _ in blks:
                levels_at.setdefault(lo, set()).add(k)
        assert any(len(ks) > 1 for ks in levels_at.values())
    reports = check_separation(3, perturb=scramble)
    assert any(r.min_slack is not None and r.min_slack < 0 for r in reports)
    assert any(r.passed and r.pair_count for r in reports)


@pytest.mark.parametrize("perturb", [None, shift_k0_read0_left, scramble],
                         ids=["exact", "shift", "scramble"])
@pytest.mark.parametrize("K", range(5))
def test_separation_sweep_matches_all_pairs(K, perturb):
    assert check_separation(K, perturb=perturb) == reference_separation(K, perturb)


@pytest.mark.parametrize("K, pairs", [
    (1, 42), (2, 930), (3, 16_002), (4, 260_610), (5, 4_188_162), (6, 67_084_290)])
def test_separation_closed_form(K, pairs):
    reports = check_separation(K)
    assert all(r.passed for r in reports)
    assert sum(r.pair_count for r in reports) == pairs
    slacks = [r.min_slack for r in reports if r.min_slack is not None]
    assert min(slacks) == Fraction(4, 3 ** (3 * K + 2))
