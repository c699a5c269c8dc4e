import hashlib
import io
import json
import math
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest

from carom import gadgets
from carom import table as table_module
from carom.encoding import encode_state
from carom.gadgets import DomainError
from carom.machine import enumerate_tapes, parse_machine, step, ComputationState
from carom.geometry import ParabolaArc, Segment, walls_clash
from carom.table import (
    BilliardTable,
    CompileError,
    NotReversible,
    OutOfRange,
    compile_table,
    load_table,
    to_svg,
)
from carom.ternary import T
from carom.zoo import MACHINE_TEXTS, fixture_machines, get_machine
from test_machine import first_betti_number

NONREV = """\
states: A B H
initial: A
halting: H
A 0 -> B 0 R
A 1 -> B 0 R
B 0 -> H 0 R
B 1 -> H 1 R
"""


def test_compile_rev_move_structure():
    m = get_machine("rev-move")
    table = compile_table(m, 4)
    assert len(table.stations) == 2
    assert len(table.corridors) == 2
    # both targets have in-degree 1, so no merges anywhere
    assert all(st.merge is None for st in table.stations.values())
    assert table.stations["H"].checkpoint.hard
    assert not table.stations["A"].checkpoint.hard


def test_compile_merge_only_at_indegree_two():
    looper = get_machine("looper")
    table = compile_table(looper, 3)
    assert table.stations["L"].merge is not None
    assert table.stations["H"].merge is None
    walker = compile_table(get_machine("walker"), 3)
    # Q is entered by P and by itself: one merge; P and H are merge-free
    assert walker.stations["Q"].merge is not None
    assert walker.stations["P"].merge is None
    assert walker.stations["H"].merge is None


def test_mirror_families_own_their_levels():
    # each family derives its levels from K and the cell it classifies:
    # |k| <= K for a split, |k| <= K and |k - eps| <= K for a merge's
    # virtual split, whose transfer refuses the levels left out
    K, full = 8, set(range(-8, 9))
    for name in sorted(MACHINE_TEXTS):
        table = compile_table(get_machine(name), K)
        seen = set()
        for q, st in table.stations.items():
            if st.split is not None:
                assert set(st.split.mirrors[0].levels) == full, (name, q)
                seen.add(id(st.split.mirrors[0]))
            if st.merge is not None:
                eps = table.graph.in_edges(q)[0].shift
                mirrors = st.merge.mirrors[0]
                assert set(mirrors.levels) == {k for k in full if abs(k - eps) <= K}, (name, q)
                seen.add(id(mirrors))
                premerge = next(c.premerge for c in table.corridors.values()
                                if c.edge.target == q)
                with pytest.raises(DomainError):
                    premerge.locate(encode_state(frozenset(), -K * eps).value)
        assert seen == {id(mirrors) for mirrors, _ in table.mirror_families}, name


@pytest.mark.parametrize("scene_levels", [0, 3])
def test_load_table_counts_the_scene(scene_levels):
    # load_table counts the recompiled scene before listing it: the count
    # agrees with every valid file, scene_levels beyond K included, and a
    # file with one wall too many is refused on the count
    for name in sorted(MACHINE_TEXTS):
        text = compile_table(get_machine(name), 2, scene_levels=scene_levels).to_json()
        assert load_table(text).to_json() == text, name
        table = compile_table(get_machine(name), 2)
        for levels in (0, 1, 2, 3):
            assert table.wall_count(levels) == len(
                table.scene_walls(range(-levels, levels + 1))), (name, levels)
        doc = json.loads(text)
        doc["scene"].append(doc["scene"][0])
        with pytest.raises(ValueError, match="stored scene lists"):
            load_table(json.dumps(doc))


def test_compile_rejects_nonreversible():
    with pytest.raises(NotReversible) as err:
        compile_table(parse_machine(NONREV), 3)
    assert err.value.witness is not None


def test_corridor_correctness_exhaustive():
    # composed corridor transfer == one machine step at the encoding level
    K = 3
    for name, m in fixture_machines().items():
        table = compile_table(m, K)
        for (q, a), corridor in table.corridors.items():
            for tape in enumerate_tapes(range(-2, 3)):
                for k in range(-K + 1, K):
                    if (1 if k in tape else 0) != a:
                        continue
                    if abs(k + corridor.edge.shift) > K:
                        continue
                    before = encode_state(tape, k).value
                    conf2 = step(m, ComputationState(tape, q, k))
                    want = encode_state(conf2.tape, conf2.head).value
                    got, pieces = corridor.apply(before)
                    assert got == want, (name, q, a, sorted(tape), k)


def test_corridor_out_of_range():
    m = get_machine("rev-move")
    table = compile_table(m, 4)
    deep = encode_state(frozenset(), 4).value
    with pytest.raises(OutOfRange) as err:
        table.corridors[("A", 0)].apply(deep)
    assert err.value.k == 5


def test_corridor_inverse():
    # every corridor of the demo machines at K=8 and every head level it
    # covers: the inverse undoes the transfer, on tapes around the head
    K = 8
    for name, m in fixture_machines().items():
        table = compile_table(m, K)
        for (q, a), corridor in table.corridors.items():
            shift = corridor.edge.shift
            for k in range(-K, K + 1):
                if abs(k + shift) > K:
                    continue
                for tape in enumerate_tapes(range(k - 1, k + 2)):
                    if (1 if k in tape else 0) != a:
                        continue
                    v = encode_state(tape, k).value
                    out, _ = corridor.apply(v)
                    assert corridor.apply_inverse(out) == v, (name, q, a, k)
            # outside the image: head level -shift*K, reached only from
            # beyond K, level shift*(K + 1) beyond it, and 8/27, between
            # I_-1 and I_0
            for bad in (encode_state(frozenset(), -shift * K).value,
                        encode_state(frozenset(), shift * (K + 1)).value, T(8, 3)):
                with pytest.raises(DomainError):
                    corridor.apply_inverse(bad)


def test_compile_builds_only_placed_walls(monkeypatch):
    # every wall compile_table builds is a wall of the table's scene: the
    # walls built from rationals, and the turn mirrors, built in integers
    built = []
    for cls in (Segment, ParabolaArc):
        def record(*args, build=cls.of):
            wall = build(*args)
            built.append(wall.wall_id)
            return wall
        monkeypatch.setattr(cls, "of", staticmethod(record))

    def record_turn(*args):
        wall = gadgets.turn_mirror(*args)
        built.append(wall.wall_id)
        return wall
    monkeypatch.setattr(table_module, "turn_mirror", record_turn)
    for name, m in fixture_machines().items():
        built.clear()
        table = compile_table(m, 8)
        ids = list(built)
        assert ids, name
        assert set(ids) <= {w.wall_id for w in table.static_walls}, name


#: SHA-256 of every fixture's K=8 placed records, as ``_records_text``
#: writes them, computed on the tables placed through Fractions: the
#: integer placement changed no record
RECORDS_SHA256 = "b9ef62edb8cdb37b1fb6492f57608add645c8c3d1fc920930d38eab5c288b1be"


def _records_text(table):
    """The table's static walls and charts, one str per record, then each
    mirror family's key, base_x and frame, each number as str writes it."""
    lines = [str(w) for w in table.static_walls] + [str(c) for c in table.marked_segments()]
    lines += [f"{mirrors.key} {mirrors.base_x} {oy} {sy}"
              for mirrors, (oy, sy) in table.mirror_families]
    return "".join(line + "\n" for line in lines)


def test_placed_records_pinned():
    digest = hashlib.sha256()
    for _, m in sorted(fixture_machines().items()):
        table = compile_table(m, 8)
        for w in table.static_walls:
            assert all(type(v) is int for v in w[:-1]), w
        charts = [*table.marked_segments()]
        for st in table.stations.values():
            charts += [port for gadget in (st.split, st.merge) if gadget is not None
                       for port in (*gadget.in_ports.values(), *gadget.out_ports.values())]
        for corridor in table.corridors.values():
            charts += [*corridor.stage.in_ports.values(), *corridor.stage.out_ports.values()]
        for chart in charts:
            assert all(type(v) is int for v in chart[:5] + chart.tangent + chart.beam), chart
        for mirrors, frame in table.mirror_families:
            assert all(type(v) is int for v in (mirrors.base_x, *frame)), mirrors.name
        digest.update(_records_text(table).encode())
    assert digest.hexdigest() == RECORDS_SHA256


def test_fresh_table_makes_no_fraction(monkeypatch):
    # compile_table and a fresh table's trace scene place every wall and
    # chart in integers.  The per-key level records a trace scene reads
    # (gadgets._pair_template, the explicit formula) are made once per key
    # and process, shared by every table: warmed first
    for m in fixture_machines().values():
        compile_table(m, 8).trace_scene
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    # from CPython 3.12 on, Fraction arithmetic makes its results through
    # _from_coprime_ints, which skips __new__: count those too
    coprime = getattr(Fraction, "_from_coprime_ints", None)
    if coprime is not None:
        def counted_coprime(cls, *args):
            made.append(args)
            return coprime.__func__(cls, *args)
        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counted_coprime))
    for name, m in fixture_machines().items():
        compile_table(m, 8).trace_scene
        assert made == [], name


def test_wall_sequence_reports_all_bounces():
    m = get_machine("walker")  # has a merge on Q
    table = compile_table(m, 3)
    v = encode_state(frozenset(), 0).value  # read 0: the edge P -> Q
    seq = _wall_ids(table.corridors[("P", 0)], v)
    # split pair, two shift arcs, four turn mirrors, merge pair
    assert len(seq) == 10
    assert seq[0].startswith("split:P") and seq[0].endswith(":W")
    assert "stage:P.r0" in seq[2]
    assert seq[-1].startswith("premerge:Q")
    # merge-free target: no merge walls at the end
    seq2 = _wall_ids(table.corridors[("P", 1)],
                     encode_state(frozenset({0}), 0).value)
    assert len(seq2) == 8


def _wall_ids(corridor, value):
    """Wall ids a trajectory entering at ``value`` bounces on, in order."""
    _, pieces = corridor.apply(value)
    return [wid for piece in pieces for wid in piece.wall_ids]


def test_layout_exact_disjointness():
    for name, m in fixture_machines().items():
        table = compile_table(m, 2)
        checked = table.verify_layout(levels=range(-2, 3))
        assert checked > 0, name


def test_layout_rev_move_k3():
    table = compile_table(get_machine("rev-move"), 3)
    table.verify_layout(levels=range(-3, 4))


def fraction_sweep(table, levels):
    """verify_layout's pair count by the earlier Fraction sweep: the boxes
    sorted by their left edge, each paired with every later box that
    starts inside its x range."""
    boxes = sorted(((w.bbox(), w) for w in table.scene_walls(levels)), key=lambda t: t[0][0])
    checked = 0
    for i, (b1, w1) in enumerate(boxes):
        for b2, w2 in boxes[i + 1:]:
            if b2[0] > b1[2]:
                break
            checked += 1
            assert not walls_clash(w1, w2), (w1.wall_id, w2.wall_id)
    return checked


@pytest.mark.parametrize("K, levels", [(2, 2), (4, 3)])
def test_layout_sweep_matches_fraction_sweep(K, levels):
    for name, m in fixture_machines().items():
        table = compile_table(m, K)
        span = range(-levels, levels + 1)
        assert table.verify_layout(span) == fraction_sweep(table, span), name


def _row(segment):
    """The probe segment over twice its denominator: a record not in
    lowest terms, as a mirror row may be."""
    return Segment(*(2 * v for v in segment[:5]), segment.wall_id)


_scene_walls = BilliardTable.scene_walls     # unpatched, for _layout_of


def _layout_of(monkeypatch, as_rows, *walls):
    """A table whose scene listing is rev-move's own plus ``walls``, far
    below it, in lowest terms or as mirror rows."""
    table = compile_table(get_machine("rev-move"), 2)
    own = _scene_walls(table, range(-1, 2))
    probes = [_row(w) for w in walls] if as_rows else list(walls)
    monkeypatch.setattr(BilliardTable, "scene_walls",
                        lambda self, levels=None: own + probes)
    return table


def test_layout_rejects_crossing_walls(monkeypatch):
    F = Fraction
    a = Segment.of((F(-100), F(-100)), (F(-98), F(-98)), "probe:a")
    b = Segment.of((F(-100), F(-98)), (F(-98), F(-100)), "probe:b")
    for as_rows in (False, True):
        table = _layout_of(monkeypatch, as_rows, a, b)
        with pytest.raises(CompileError, match="probe:a / probe:b"):
            table.verify_layout()


def test_layout_counts_and_checks_touching_boxes(monkeypatch):
    F = Fraction
    base = compile_table(get_machine("rev-move"), 2)
    pairs = base.verify_layout(range(-1, 2))
    a = Segment.of((F(-100), F(-100)), (F(-99), F(-99)), "probe:a")
    # boxes meeting at x = -99 only: counted, disjoint in y, no clash
    apart = Segment.of((F(-99), F(-97)), (F(-98), F(-96)), "probe:apart")
    # boxes meeting in the one point (-99, -99), the walls' shared end
    touching = Segment.of((F(-99), F(-99)), (F(-98), F(-98)), "probe:touch")
    for as_rows in (False, True):
        table = _layout_of(monkeypatch, as_rows, a, apart)
        assert table.verify_layout() == pairs + 1
        table = _layout_of(monkeypatch, as_rows, a, touching)
        with pytest.raises(CompileError, match="probe:a / probe:touch"):
            table.verify_layout()


def test_layout_rejects_mirror_across_its_neighbour(monkeypatch):
    # the level-0 read-0 primary mirror of every split, lengthened from its
    # first end through the midpoint of the level's read-1 primary, its
    # neighbour on the band diagonal; level 0 has one block per symbol
    template = gadgets._pair_template

    def stretched(k, digit_pos, read_s, write_s):
        record = template(k, digit_pos, read_s, write_s)
        if (k, digit_pos, read_s) != (0, 1, 0):
            return record
        (den, step, x0, y0, _, _), back = record.walls
        # a primary's midpoint is its block's (centre, band height), whatever
        # the slope, so the read-only read-1 pair has the neighbour's
        (other_den, _, u0, v0, u1, v1), _ = template(k, digit_pos, 1, 1).walls
        end_x = Fraction(x0, den) + Fraction(9, 8) * (Fraction(u0 + u1, 2 * other_den)
                                                      - Fraction(x0, den))
        end_y = Fraction(y0, den) + Fraction(9, 8) * (Fraction(v0 + v1, 2 * other_den)
                                                      - Fraction(y0, den))
        d = math.lcm(den, end_x.denominator, end_y.denominator)
        m = d // den
        # the layout check reads the walls only, not the boxes of the query
        return record._replace(walls=(
            (d, step * m, x0 * m, y0 * m, int(end_x * d), int(end_y * d)), back))

    monkeypatch.setattr(gadgets, "_pair_template", stretched)
    table = compile_table(get_machine("rev-move"), 2)
    with pytest.raises(CompileError) as err:
        table.verify_layout()
    assert str(err.value) == ("walls intersect: split:A:k0:d1:s0:b0:W"
                              " / split:A:k0:d1:s1:b1:W")
    # unpatched, the same table passes
    monkeypatch.undo()
    assert compile_table(get_machine("rev-move"), 2).verify_layout() > 0


def test_iota_charts():
    # a state's checkpoint point is read off its own station's chart, for
    # states named like the launch pad or a halting role too
    m = parse_machine("states: initial halt H\ninitial: initial\nhalting: halt H\n"
                      "initial 0 -> halt 1 R\ninitial 1 -> H 0 R\n")
    table = compile_table(m, 3)
    value = encode_state(frozenset({1}), 0).value
    for state in m.states:
        chart = table.stations[state].checkpoint
        assert table.checkpoint_point(state, value) == chart.chart(value.as_fraction())
    assert table.checkpoint_point("initial", value) != table.initial_pad.chart(
        value.as_fraction())
    with pytest.raises(KeyError):
        table.checkpoint_point("nope", value)


def test_initial_pad_placement():
    # rev-move's initial state is re-entered: the pad sits off-column
    table = compile_table(get_machine("rev-move"), 2)
    st = table.stations["A"]
    assert table.initial_pad.origin[0] == st.x - 4
    # a machine whose initial state is never re-entered gets an in-column pad
    fresh = parse_machine(
        "states: S A H\ninitial: S\nhalting: H\n"
        "S 0 -> A 1 R\nS 1 -> H 0 R\nA 0 -> A 0 R\nA 1 -> H 1 R\n")
    t2 = compile_table(fresh, 2)
    assert t2.initial_pad.origin[0] == t2.stations["S"].x


def test_serialize_roundtrip_and_stability():
    m = get_machine("rev-move")
    t1 = compile_table(m, 2, scene_levels=2)
    t2 = compile_table(m, 2, scene_levels=2)
    assert t1.to_json() == t2.to_json()
    loaded = load_table(t1.to_json())
    assert loaded.to_json() == t1.to_json()
    assert loaded.machine_hash == t1.machine_hash


#: SHA-256 and size of to_json() at K=8 and the pair count of
#: verify_layout(), for each machine file in demos/machines, as the seed
#: commit produced them.
PINNED_TABLES = {
    "rev-move": ("b1c103dbe4084b74344c2d8dbcbbdcaa8c010de36a5f31ef15f6b6b1ed55e654",
                 159127, 1026),
    "bit-flipper": ("2ac441baf7e7e082d34b47a0bd544226a6cad929ff0fcfe273325553db5e0c8e",
                    173018, 1026),
    "counter": ("efa31be2ffde147142653d3be698e056e2867b3b04c91c7873b8b2a0c3619c29",
                173018, 1026),
    "walker": ("ed5f476c67de5927a14c55d38b03232f3588c41afc9a103822bfa1fe8789bdf4",
               595418, 6009),
    "looper": ("c34852e04bb0e29ac44ef780ca06e1d07b707ff7b6bf271c8c9fef6b0362e12a",
               304840, 3319),
    "pacer": ("c30add169c6c3859b78b900ef7be6123bd31b7110fedd3b83b7321243d350911",
              741727, 8302),
}


@pytest.mark.parametrize("name", sorted(PINNED_TABLES))
def test_table_bytes_pinned(name):
    path = Path(__file__).resolve().parent.parent / "demos" / "machines" / f"{name}.tm"
    table = compile_table(parse_machine(path.read_text()), 8)
    blob = table.to_json().encode()
    got = (hashlib.sha256(blob).hexdigest(), len(blob), table.verify_layout())
    assert got == PINNED_TABLES[name]
    assert load_table(blob.decode()).to_json().encode() == blob


DEMOS = Path(__file__).resolve().parent.parent / "demos" / "machines"

#: walker with state ids that json must escape: ids are whitespace-split
#: tokens, so they may hold quotes, backslashes and non-ASCII letters
ODD_IDS = """\
states: P"q Q\\r Hé
initial: P"q
halting: Hé
P"q 1 -> P"q 1 R
P"q 0 -> Q\\r 0 L
Q\\r 1 -> Q\\r 1 L
Q\\r 0 -> Hé 0 L
"""


def writer_machines():
    """The fixture and demo machines, once each, and ODD_IDS."""
    machines = [*fixture_machines().values(),
                *(parse_machine(p.read_text(), name=p.stem) for p in sorted(DEMOS.glob("*.tm"))),
                parse_machine(ODD_IDS, name="odd-ids")]
    return list({m.canonical_text(): m for m in machines}.values())


def scene_oracle(table):
    """The "scene" list as a dict per wall of scene_walls, the way the
    table document was built before the scene got its own writer."""
    def frac(x):
        return f"{x.numerator}/{x.denominator}"

    def pt(p):
        return [frac(p[0]), frac(p[1])]

    walls = []
    for w in table.scene_walls():
        if w.kind == "segment":
            walls.append({"kind": "segment", "id": w.wall_id,
                          "p0": pt(w.p0), "p1": pt(w.p1)})
        else:
            walls.append({"kind": "parabola_arc", "id": w.wall_id,
                          "axis_x": frac(w.axis_x), "apex_y": frac(w.apex_y),
                          "p": frac(w.p), "sign": w.sign,
                          "x_lo": frac(w.x_lo), "x_hi": frac(w.x_hi)})
    return walls


def corridors_oracle(table):
    """The "corridors" list with each corridor's pieces as dicts, the way
    the table document was built before the pieces got fixed texts: every
    piece of its split at the scene levels, those of its branch kept, then
    the pieces of its shift stage."""
    levels = range(-table.scene_levels, table.scene_levels + 1)
    corridors = table._document()["corridors"]
    for doc, ((q, a), c) in zip(corridors, sorted(table.corridors.items())):
        pieces = []
        for stage_name, transfer in (("split", c.split.transfer),
                                     ("shift", c.stage.transfer)):
            for p in transfer.pieces(levels):
                if stage_name == "split" and p.tag != f"branch{a}":
                    continue
                pieces.append({
                    "stage": stage_name, "lo": str(p.lo), "hi": str(p.hi),
                    "a": str(p.a), "b": str(p.b), "tag": p.tag,
                    "walls": list(p.wall_ids),
                })
        doc["pieces"] = pieces
    return corridors


@pytest.mark.parametrize("scene_levels", range(4))
@pytest.mark.parametrize("K", [2, 8])
def test_writer_equals_json(K, scene_levels):
    # to_json writes the pieces and the scene itself; json must write the
    # same bytes, the pieces and the scene must be the dict-built ones, and
    # the streamed chunks must spell the same text
    for m in writer_machines():
        table = compile_table(m, K, scene_levels=scene_levels)
        text = table.to_json()
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=1, sort_keys=True), m.name
        assert doc["scene"] == scene_oracle(table), m.name
        assert doc["corridors"] == corridors_oracle(table), m.name
        assert "".join(table._chunks()) == text, m.name
        written = io.StringIO()
        table.write(written)
        assert written.getvalue() == text, m.name


def test_table_file_builds_no_mirror_segments(monkeypatch):
    # writing, reloading and layout-checking a table read each mirror's
    # integers: none is read through a Fraction view
    def guarded(view):
        def read(wall):
            if wall.wall_id.endswith((":W", ":Wt")):
                raise AssertionError(f"mirror {wall.wall_id} read in Fractions")
            return view.fget(wall)
        return property(read)

    for name in ("p0", "p1"):
        monkeypatch.setattr(Segment, name, guarded(getattr(Segment, name)))
    text = compile_table(get_machine("walker"), 8).to_json()
    assert load_table(text).verify_layout() == PINNED_TABLES["walker"][2]


def test_odd_state_ids_escaped():
    table = compile_table(parse_machine(ODD_IDS), 2, scene_levels=1)
    text = table.to_json()
    for escaped in ('split:P\\"q:k', 'split:Q\\\\r:k', 'premerge:Q\\\\r:k',
                    '"stage:Q\\\\r.r0:'):
        assert escaped in text, escaped
    assert "é" not in text and "H\\u00e9" in text
    assert load_table(text).to_json() == text


def test_load_table_verdicts():
    # the file is compared with the recompilation's chunks as they are
    # made; a file written otherwise is compared by value, as json reads it
    table = compile_table(get_machine("walker"), 3, scene_levels=2)
    text = table.to_json()
    doc = json.loads(text)
    assert load_table(text).to_json() == text
    for indent in (None, 2):
        assert load_table(json.dumps(doc, indent=indent)).to_json() == text, indent
    # json reads past trailing whitespace, and nothing else
    assert load_table(text + "\n").to_json() == text
    for bad in (text[:-1], text + "x", "x" + text[1:]):
        with pytest.raises(json.JSONDecodeError):
            load_table(bad)
    last = doc["scene"][-1]
    n, d = map(int, last["p1"][1].split("/"))
    last["p1"][1] = str(Fraction(n + 1, d))
    moved = json.dumps(doc, indent=1, sort_keys=True)
    assert moved.startswith(text[:text.rindex('"p1"')]), "only the last wall moved"
    with pytest.raises(ValueError, match="does not match deterministic recompilation"):
        load_table(moved)


def test_load_table_counts_before_listing(monkeypatch):
    # a doctored scene_levels is refused on the count of walls, before the
    # recompilation lists a wall or writes a chunk
    doc = json.loads(compile_table(get_machine("walker"), 3, scene_levels=2).to_json())
    doc["meta"]["scene_levels"] = 1

    def refuse(*args):
        raise AssertionError("a wall was listed")

    monkeypatch.setattr(gadgets._BlockMirrors, "rows", refuse)
    monkeypatch.setattr(BilliardTable, "_chunks", refuse)
    with pytest.raises(ValueError, match="stored scene lists"):
        load_table(json.dumps(doc, indent=1, sort_keys=True))


def test_serialize_tamper_detected():
    t1 = compile_table(get_machine("rev-move"), 2, scene_levels=2)
    doc = json.loads(t1.to_json())
    doc["scene"][0]["p0"][0] = "1/7"
    with pytest.raises(ValueError):
        load_table(json.dumps(doc))


def test_svg_export():
    table = compile_table(get_machine("rev-move"), 2)
    svg = to_svg(table, levels=range(-1, 2))
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    paths = root.findall(f".//{ns}path")
    walls = table.scene_walls(range(-1, 2))
    marks = table.marked_segments()
    assert len(paths) == len(walls) + len(marks)


def test_every_corridor_routes_with_four_turns():
    # self loops and plain edges alike: a rectangle of four turn mirrors
    for name, m in fixture_machines().items():
        table = compile_table(m, 2)
        for corridor in table.corridors.values():
            assert len(corridor.turns) == 4


def test_parallel_corridors_one_row_apart():
    # the looper's two self-loop corridors share endpoints: private rows
    # and lanes one pitch apart
    from carom.table import ROW_PITCH, LANE_PITCH
    table = compile_table(get_machine("looper"), 2)
    c0, c1 = table.corridors[("L", 0)], table.corridors[("L", 1)]
    y0 = c0.turns[0].p0[1]
    y1 = c1.turns[0].p0[1]
    assert abs(y1 - y0) == ROW_PITCH
    x0 = c0.turns[2].p0[0]
    x1 = c1.turns[2].p0[0]
    assert abs(x1 - x0) == LANE_PITCH


def _reflect_off(mirror, pos, d):
    """Where the ray pos + t*d (t > 0) meets the segment ``mirror``, and its
    direction after reflecting there, in exact arithmetic; the hit must lie
    inside the mirror."""
    (ax, ay), (bx, by) = mirror.p0, mirror.p1
    ex, ey = bx - ax, by - ay
    cross = d[0] * ey - d[1] * ex
    assert cross != 0, mirror.wall_id
    wx, wy = ax - pos[0], ay - pos[1]
    t = (wx * ey - wy * ex) / cross
    lam = (wx * d[1] - wy * d[0]) / cross
    assert t > 0 and 0 < lam < 1, (mirror.wall_id, t, lam)
    # reflection across the mirror's line: d -> 2 (d.e / e.e) e - d
    k = 2 * (d[0] * ex + d[1] * ey) / (ex * ex + ey * ey)
    return (pos[0] + t * d[0], pos[1] + t * d[1]), (k * ex - d[0], k * ey - d[1])


@pytest.mark.parametrize("K", [2, 8])
def test_corridor_route_carries_beams(K):
    # beams across the lane window leave the shift stage going up and
    # reflect exactly off the corridor's four turn mirrors in order; they
    # leave the last one going up in the target's lane, at the same offset;
    # the stage is built where the table places it, at STAGE_DY
    for name, m in fixture_machines().items():
        table = compile_table(m, K)
        for key, corridor in table.corridors.items():
            src = table.stations[corridor.edge.state]
            tgt = table.stations[corridor.edge.target]
            port = corridor.stage.out_ports["out"]
            for du in (Fraction(0), Fraction(1, 2), Fraction(1)):
                x, y = port.chart(corridor.sigma_in + du)
                assert x == src.x + 2 + corridor.sigma_in + du
                pos, d = (x, y), (Fraction(0), Fraction(1))
                for mirror in corridor.turns:
                    pos, d = _reflect_off(mirror, pos, d)
                assert d == (0, 1), (name, key)
                assert pos[0] == tgt.x + corridor.sigma_out + du, (name, key, du)


def test_serialized_pieces_cover_transfers():
    doc = json.loads(compile_table(get_machine("rev-move"), 2, scene_levels=2).to_json())
    for c in doc["corridors"]:
        assert c["pieces"], c
        assert all(p["stage"] in ("split", "shift") for p in c["pieces"])
        split_tags = {p["tag"] for p in c["pieces"] if p["stage"] == "split"}
        assert split_tags == {f"branch{c['read']}"}


def test_kmax_env_override(monkeypatch):
    from carom.encoding import cantor_blocks, k_max_cap, KRangeExceeded
    monkeypatch.setenv("BILLIARD_KMAX", "2")
    assert k_max_cap() == 2
    with pytest.raises(KRangeExceeded):
        cantor_blocks(3, 0)


def test_corridor_cycles_match_betti():
    for name, m in fixture_machines().items():
        table = compile_table(m, 2)
        g = table.graph
        assert first_betti_number(g) == len(g.edges) - len(g.vertices) + \
            _components(g)


def _components(g):
    parent = {v: v for v in g.vertices}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for e in g.edges:
        ra, rb = find(e.state), find(e.target)
        if ra != rb:
            parent[ra] = rb
    return len({find(v) for v in g.vertices})
