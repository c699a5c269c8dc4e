"""Hand-built reversible machines used across the test and demo suites.

All six pass the reversibility criterion: into any state, incoming
transitions share one shift and write distinct symbols.
"""

from .machine import LEFT, RIGHT, Machine, parse_machine

REV_MOVE = """\
# scan right over zeros, halt on the first one
states: A H
initial: A
halting: H
A 0 -> A 0 R
A 1 -> H 1 R
"""

BIT_FLIPPER = """\
# set zeros to one while moving right; clear the first one and halt
states: A H
initial: A
halting: H
A 0 -> A 1 R
A 1 -> H 0 R
"""

COUNTER = """\
# binary increment, least significant bit at cell 0: carry through the
# ones, set the first zero, halt (a single bounded counting step)
states: C H
initial: C
halting: H
C 1 -> C 0 R
C 0 -> H 1 R
"""

WALKER = """\
# palindromic walker: cross a block of ones rightward, bounce, recross
# it leftward and halt just past its left end
states: P Q H
initial: P
halting: H
P 1 -> P 1 R
P 0 -> Q 0 L
Q 1 -> Q 1 L
Q 0 -> H 0 L
"""

LOOPER = """\
# moves right forever; the halting state exists but is unreachable
states: L H
initial: L
halting: H
L 0 -> L 0 R
L 1 -> L 1 R
"""

PACER = """\
# oscillates between cells 0 and 1 forever: a non-halting run whose head
# stays inside every finite table
states: A B H
initial: A
halting: H
A 0 -> B 0 R
A 1 -> B 1 R
B 0 -> A 0 L
B 1 -> A 1 L
"""

MACHINE_TEXTS = {
    "rev-move": REV_MOVE,
    "bit-flipper": BIT_FLIPPER,
    "counter": COUNTER,
    "walker": WALKER,
    "looper": LOOPER,
    "pacer": PACER,
}


def fixture_machines():
    """The six named machines, parsed and validated."""
    return {name: parse_machine(text, name=name)
            for name, text in MACHINE_TEXTS.items()}


def get_machine(name):
    return parse_machine(MACHINE_TEXTS[name], name=name)


def random_reversible(rng, n_states):
    """A random reversible machine drawn by ``rng``: working states q0..q{n-1},
    q0 initial, and one halting state H.  Each state gets one shift, the
    shift of every transition into it, and the 2n transitions go to distinct
    (target, written symbol) slots of the 2(n + 1): so the transitions into
    a state share its shift and write distinct symbols, the reversibility
    criterion, by construction."""
    states = tuple(f"q{i}" for i in range(n_states)) + ("H",)
    shift = {q: rng.choice((LEFT, RIGHT)) for q in states}
    slots = rng.sample([(q, s) for q in states for s in (0, 1)], 2 * n_states)
    delta = {(q, a): (target, write, shift[target])
             for (q, a), (target, write) in zip(
                 ((q, a) for q in states[:-1] for a in (0, 1)), slots)}
    return Machine(states, "q0", frozenset({"H"}), delta,
                   name=f"random-{n_states}").validate()


def counter_ring(w):
    """A reversible w-bit binary counter that never halts, w >= 2: cells
    0..w-1 hold the count, least significant bit first, and the run
    starts in C0 on cell 0.  C_i carries right over ones, writing 0; on a
    0 it writes 1 and moves left into Z_(i-1).  Z_j walks left over the
    zeros the carry left, and Z_-1, on cell -1, steps right into C0 again.
    C_(w-1) moves left into Z_(w-2) on either symbol, writing the other
    one, so the count wraps at 2^w.  A Z_j never reads 1; those w
    transitions go, two by two, to ceil(w/2) halting states.  Into every
    state the transitions share one shift and write distinct symbols, so
    the machine is reversible by construction, with 2w + ceil(w/2) states.
    From the empty tape the head stays in -1..w-1, and the launch recurs
    after 4 (2^w - 1) steps."""
    if w < 2:
        raise ValueError(f"counter ring of {w} bits: at least 2 needed")
    carry = [f"C{i}" for i in range(w)]
    back = {j: f"Z{j}" for j in range(-1, w - 1)}
    halts = [f"H{i}" for i in range((w + 1) // 2)]
    delta = {}
    for i in range(w - 1):
        delta[carry[i], 1] = (carry[i + 1], 0, RIGHT)
        delta[carry[i], 0] = (back[i - 1], 1, LEFT)
    delta[carry[-1], 0] = (back[w - 2], 1, LEFT)
    delta[carry[-1], 1] = (back[w - 2], 0, LEFT)
    for j in range(w - 1):
        delta[back[j], 0] = (back[j - 1], 0, LEFT)
    delta[back[-1], 0] = (carry[0], 0, RIGHT)
    for j, q in back.items():
        delta[q, 1] = (halts[(j + 1) // 2], (j + 1) % 2, RIGHT)
    return Machine((*carry, *back.values(), *halts), carry[0], frozenset(halts), delta,
                   name=f"counter-ring-{w}").validate()
