"""A fresh table's static records and trace scene against the oracle of
``scene_oracle``: each shift stage is its (eps, sigma) record moved by
integer offsets (``gadgets._stage``), its ports and every checkpoint, pad
and split port are made by ``Chart.of``, and the scene's ray index files
and sorts its boxes; each must equal what the plainer construction makes,
record by record and lane by lane, and every index entry must hold the
exact extent of what it files."""

import random
from fractions import Fraction

import pytest
import scene_oracle

from carom import gadgets
from carom.table import compile_table
from carom.ternary import TernaryRational
from carom.zoo import fixture_machines, random_reversible

MACHINES = dict(sorted(fixture_machines().items()))
MACHINES.update((f"random-{seed}", random_reversible(random.Random(seed), 2 + seed % 7))
                for seed in range(20))


def _values(K):
    """Seeded lane coordinates of codes at head levels -3..3 and +-K, each
    in lanes -2, 0 and +2, for the stages' locate."""
    rng = random.Random(K)
    out = []
    for k in (-K, -3, -1, 0, 1, 3, K):
        e = 3 * abs(k) + 4
        for sigma in (-2, 0, 2):
            out.append(TernaryRational(rng.randrange(3 ** e) + sigma * 3 ** e, e))
    return out


def _mismatches(table, machine, K):
    """The names of the records of ``table`` that differ from the oracle's."""
    want, bad = scene_oracle.placed_records(machine, K), []
    for q, st in table.stations.items():
        if st.checkpoint != want[f"chk:{q}"]:
            bad.append(f"chk:{q}")
        split, merge = st.split, st.merge
        if split is not None and {**split.in_ports, **split.out_ports} != want[f"split:{q}"]:
            bad.append(f"split:{q}")
        if merge is not None and (merge.in_ports, merge.out_ports["out"]) != want[f"merge:{q}"]:
            bad.append(f"merge:{q}")
    levels = range(-K, K + 1)
    values = _values(K)
    for key, corridor in table.corridors.items():
        (walls, in_port, out_port, pieces, locate), turns = want[key]
        stage = corridor.stage
        if (stage.static_walls, stage.in_ports["in"], stage.out_ports["out"]) != (
                walls, in_port, out_port):
            bad.append(f"stage:{key}")
        if stage.transfer.pieces(levels) != pieces(levels):
            bad.append(f"pieces:{key}")
        for u in values:
            try:
                got = stage.transfer.locate(u)
            except gadgets.DomainError:
                got = None
            if got != locate(u):
                bad.append(f"locate:{key}")
                break
        if corridor.turns != turns:
            bad.append(f"turns:{key}")
    if table.initial_pad != want["launch"]:
        bad.append("launch")
    return bad


def _extent(entry):
    """The exact box (x0, y0, x1, y1) of what the index entry files: a
    wall's bbox, a chart's window widened by 1/2 each side, and a family's
    mirrors at the head levels -2..2."""
    payload = entry[4]
    if payload.kind == "chart":
        (x0, y0), (x1, y1) = (payload.chart(payload.lo - Fraction(1, 2)),
                              payload.chart(payload.hi + Fraction(1, 2)))
        return min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1)
    if payload.kind == "family":
        boxes = [w.bbox() for w in payload.mirrors.rows(range(-2, 3))]
        return (min(b[0] for b in boxes), min(b[1] for b in boxes),
                max(b[2] for b in boxes), max(b[3] for b in boxes))
    return payload.bbox()


def _index_mismatches(table):
    """What of the table's trace scene index differs from the oracle's
    filing of the same entries, or fails to hold its entry's extent."""
    index, bad = table.trace_scene.index, []
    oracle = scene_oracle.RayIndex(index.entries)
    if (index.box, index.size, index.span) != (oracle.box, oracle.size, oracle.span):
        bad.append("box")
    for c, sense, j in scene_oracle.lane_keys(oracle):
        if index.lane(c, sense, j) != oracle.lane(c, sense, j):
            bad.append(f"lane {c} {sense} {j}")
    for entry in index.entries:
        x0, y0, x1, y1 = _extent(entry)
        if not (Fraction(entry[0]) < x0 and Fraction(entry[1]) < y0
                and Fraction(entry[2]) > x1 and Fraction(entry[3]) > y1):
            bad.append(f"extent {entry[4]!r:.40}")
    return bad


@pytest.mark.parametrize("K", [8, 64])
@pytest.mark.parametrize("name", sorted(MACHINES))
def test_fresh_table_records_equal_the_oracle(name, K):
    machine = MACHINES[name]
    table = compile_table(machine, K)
    assert _mismatches(table, machine, K) == []
    assert _index_mismatches(table) == []


def test_a_moved_stage_record_fails_the_oracle(monkeypatch):
    # the (eps, sigma) record with its out-port one unit right of where
    # the stage's beams leave: every stage placed from it differs
    record = gadgets._stage

    def moved(eps, sigma):
        rec = record(eps, sigma)
        (ix, iy), (ox, oy) = rec.offsets
        return rec._replace(offsets=((ix, iy), (ox + 1, oy)))

    monkeypatch.setattr(gadgets, "_stage", moved)
    machine = MACHINES["rev-move"]
    bad = _mismatches(compile_table(machine, 8), machine, 8)
    assert bad and all(name.startswith("stage:") for name in bad)


def test_a_moved_stage_arc_fails_the_oracle(monkeypatch):
    # the record's arcs one unit up: every stage's walls differ from the
    # oracle's
    record = gadgets._stage

    def moved(eps, sigma):
        rec = record(eps, sigma)
        return rec._replace(arcs=tuple(w.translated(0, 1) for w in rec.arcs))

    monkeypatch.setattr(gadgets, "_stage", moved)
    machine = MACHINES["walker"]
    bad = _mismatches(compile_table(machine, 8), machine, 8)
    assert bad and all(name.startswith("stage:") for name in bad)


def test_the_stage_record_is_made_once_per_key():
    gadgets._stage.cache_clear()
    for machine in MACHINES.values():
        compile_table(machine, 8)
    # two head moves, two lanes
    assert gadgets._stage.cache_info().currsize == 4


def test_the_merge_lemma_is_decided_once_per_family_key():
    # compiling the same merges again decides no lemma anew
    for machine in MACHINES.values():
        compile_table(machine, 8)
    misses = gadgets._overlap.cache_info().misses
    for machine in MACHINES.values():
        compile_table(machine, 8)
    assert gadgets._overlap.cache_info().misses == misses
