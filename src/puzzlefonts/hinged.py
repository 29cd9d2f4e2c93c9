"""Hinged-dissection font: 32-cell half-square glyphs and the 128-piece chain.

A glyph is a polyabolo: edge-connected half-square right triangles on the
integer lattice, 32 of them for the shipped font (area 16, the same as the
4x4 square every glyph shares a dissection with).  Refining a glyph splits
each cell at its edge midpoints into 4 congruent sub-triangles with legs 1/2,
giving 128 slots.  The chain is an ordered list of 128 such pieces, hinged
corner-to-corner; folding places consecutive pieces into slots so that each
hinge's two designated corners land on the same point.  Feasibility is a
property of the shipped chain data and is verified empirically by search.

All cell corner coordinates are integers, below COORD_LIMIT in magnitude
(`check_cell`), and slot corners lie on the half-integer grid, so every
geometric comparison here is exact.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .errors import BudgetExceeded, FieldError, InvalidPolyabolo
from .scene import VectorScene

DIAGONALS = ("NE", "NW")
HALVES = ("first", "second")
CORNERS = ("R", "P", "Q")  # right angle, then the two acute (hypotenuse) corners

DEFAULT_BUDGET = 10_000_000
# Nodes per start in the fold walk's first round, fixed so the fold found
# does not depend on the budget: 1M // 256 starts; the winning starts of the
# walk alone on the square and FILNOTUZ need <= 3,292 (T).  The round stays
# because it pays: without it the walk needs 15.7M nodes for Z (see `_walk`).
FIRST_ROUND_CAP = 3_906
# Cell coordinates stay below this in magnitude, so every slot corner, a
# half-integer, is an exact float, and so is a corner's offset from its
# cell's square, which is how `_block_table` shares tables between glyphs.
COORD_LIMIT = 2 ** 51


class Cell(NamedTuple):
    sx: int
    sy: int
    diagonal: str  # NE: (sx,sy)->(sx+1,sy+1); NW: (sx+1,sy)->(sx,sy+1)
    half: str      # first = above the diagonal, second = below


class Slot(NamedTuple):
    right: tuple   # right-angle corner (x, y), half-integer grid
    acute1: tuple
    acute2: tuple


def _coordinate(field: str, value) -> int:
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value or not -COORD_LIMIT < n < COORD_LIMIT:
        raise FieldError(field, f"cell coordinates must be integers of magnitude below 2**51, "
                                f"got {value!r}")
    return n


def check_cell(cell) -> Cell:
    c = Cell(_coordinate("sx", cell[0]), _coordinate("sy", cell[1]), cell[2], cell[3])
    if c.diagonal not in DIAGONALS:
        raise FieldError("diagonal", f"diagonal must be NE or NW, got {c.diagonal!r}")
    if c.half not in HALVES:
        raise FieldError("half", f"half must be first or second, got {c.half!r}")
    return c


def cell_triangle(cell: Cell) -> tuple:
    """(right_angle_vertex, acute_vertex, acute_vertex), integer coords."""
    x, y = cell.sx, cell.sy
    if cell.diagonal == "NE":
        if cell.half == "first":   # above: right angle at NW corner
            return ((x, y + 1), (x, y), (x + 1, y + 1))
        return ((x + 1, y), (x, y), (x + 1, y + 1))
    if cell.half == "first":       # above: right angle at NE corner
        return ((x + 1, y + 1), (x + 1, y), (x, y + 1))
    return ((x, y), (x + 1, y), (x, y + 1))


def _cell_graph(cells) -> tuple:
    """Per cell of `cells` (all distinct), the bitmasks of the other cells
    that share an edge with it and that share at least a vertex with it."""
    tris = [cell_triangle(c) for c in cells]
    at = _corner_masks(tris)
    edges, meets = [], []
    for i, (r, a, b) in enumerate(tris):
        edges.append((at[r] & at[a] | at[r] & at[b] | at[a] & at[b]) & ~(1 << i))
        meets.append((at[r] | at[a] | at[b]) & ~(1 << i))
    return edges, meets


@dataclass(frozen=True)
class PolyaboloReport:
    cell_count: int
    expected_cells: int
    connected: bool
    no_overlap: bool
    area: float

    @property
    def ok(self) -> bool:
        return (self.cell_count == self.expected_cells and self.connected
                and self.no_overlap)


def validate_polyabolo(cells, expected_cells: int = 32) -> PolyaboloReport:
    """Cell count, edge-connectivity, pairwise disjointness, total area."""
    return _examine(cells, expected_cells)[0]


class RefinedGlyph(NamedTuple):
    """A checked glyph, as `refine` returns it."""
    cells: list   # the distinct cells, sorted
    slots: list   # their sub-triangles, sorted: the order of placement numbers
    edges: list   # per cell, the bitmask of the cells that share an edge with it
    meets: list   # per cell, the bitmask of the cells that share a vertex with it
    cell_slots: list  # per cell, its 4 slots in `_cell_slots` order


def _examine(cells, expected_cells: int | None) -> tuple:
    """Check each cell once: (the report, the sorted distinct cells, their `_cell_graph`)."""
    cs = [check_cell(c) for c in cells]
    unique = sorted(set(cs))
    no_overlap = len(unique) == len(cs)
    by_square: dict = {}
    for c in unique:
        by_square.setdefault((c.sx, c.sy), []).append(c)
    for square_cells in by_square.values():
        if len({c.diagonal for c in square_cells}) > 1:
            no_overlap = False  # halves of different diagonals overlap
    # connectivity over shared (leg or hypotenuse) edges
    edges, meets = _cell_graph(unique)
    full = (1 << len(unique)) - 1
    connected = bool(unique) and _flood(edges, full, 1, full) == full
    report = PolyaboloReport(len(cs), len(unique) if expected_cells is None else expected_cells,
                             connected, no_overlap, len(unique) * 0.5)
    return report, unique, edges, meets


def refine(cells, expected_cells: int | None = None) -> RefinedGlyph:
    """Check the glyph and split each cell into its 4 midpoint sub-triangles (legs 1/2).

    The slots are sorted lexicographically; this order is the search and
    canonicalization order everywhere else.
    """
    report, unique, edges, meets = _examine(cells, expected_cells)
    if not report.ok:
        raise InvalidPolyabolo(f"invalid polyabolo: {report}")
    cell_slots = [_cell_slots(cell) for cell in unique]
    slots = sorted(s for ss in cell_slots for s in ss)
    return RefinedGlyph(unique, slots, edges, meets, cell_slots)


def _cell_slots(cell: Cell) -> list[Slot]:
    """The cell's 4 midpoint sub-triangles: its three corners', then the center one."""
    r, a, b = cell_triangle(cell)
    m_ra = ((r[0] + a[0]) / 2.0, (r[1] + a[1]) / 2.0)
    m_rb = ((r[0] + b[0]) / 2.0, (r[1] + b[1]) / 2.0)
    m_ab = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
    rf = (float(r[0]), float(r[1]))
    af = (float(a[0]), float(a[1]))
    bf = (float(b[0]), float(b[1]))
    return [Slot(right, *sorted((ac1, ac2)))
            for right, ac1, ac2 in ((rf, m_ra, m_rb), (m_ra, af, m_ab),
                                    (m_rb, bf, m_ab), (m_ab, m_ra, m_rb))]


@dataclass(frozen=True)
class HingedChain:
    """Open chain of congruent pieces; hinges name a corner on each side."""
    n_pieces: int
    hinges: tuple  # (exit_corner_of_i, entry_corner_of_next) per link, in CORNERS

    def __post_init__(self):
        if self.n_pieces < 1:
            raise ValueError("chain needs at least one piece")
        if len(self.hinges) != self.n_pieces - 1:
            raise ValueError(f"chain of {self.n_pieces} pieces needs {self.n_pieces - 1} hinges")
        for ex, en in self.hinges:
            if ex not in CORNERS or en not in CORNERS:
                raise ValueError(f"hinge corners must be in {CORNERS}, got {(ex, en)}")

    @staticmethod
    def uniform(n_pieces: int, exit_corner: str = "Q", entry_corner: str = "P") -> "HingedChain":
        return HingedChain(n_pieces, tuple((exit_corner, entry_corner) for _ in range(n_pieces - 1)))

    @staticmethod
    def cyclic(n_pieces: int, pattern) -> "HingedChain":
        """Hinges repeat the given (exit, entry) pattern cyclically."""
        pats = tuple(tuple(p) for p in pattern)
        if not pats:
            raise ValueError("hinge pattern must not be empty")
        return HingedChain(n_pieces, tuple(pats[k % len(pats)] for k in range(n_pieces - 1)))


def _poses(slot: Slot) -> tuple:
    """Both congruence maps of a piece onto a slot (R is forced, acutes swap)."""
    return ((slot.right, slot.acute1, slot.acute2),
            (slot.right, slot.acute2, slot.acute1))


def _placed(slots, fold) -> list:
    """The (R, P, Q) corner points of each placement number ``2 * slot + pose`` of `fold`."""
    return [_poses(slots[q >> 1])[q & 1] for q in fold]


def _corner_masks(items) -> dict:
    """Each point -> the bitmask of the items, each a collection of points, that hold it."""
    touching: dict = {}
    for i, points in enumerate(items):
        for v in points:
            touching[v] = touching.get(v, 0) | 1 << i
    return touching


def contact_masks(slots) -> list:
    """Per slot, the bitmask of the other slots that share a corner point with it."""
    touching = _corner_masks(slots)
    return [(touching[s.right] | touching[s.acute1] | touching[s.acute2]) & ~(1 << i)
            for i, s in enumerate(slots)]


def _flood(adjacent, within: int, seed: int, goal: int) -> int:
    """The members of `within` that `seed` reaches through the `adjacent`
    masks (one per member), by bitmask; it may stop once it has all `goal`."""
    seen = frontier = seed
    while frontier and goal & ~seen:
        grow = 0
        while frontier:
            bit = frontier & -frontier
            grow |= adjacent[bit.bit_length() - 1]
            frontier ^= bit
        frontier = grow & within & ~seen
        seen |= frontier
    return seen


def stays_connected(near, free: int, removed: int) -> bool:
    """Whether the free slots form one component of the contact graph.

    `near` is `contact_masks` of the slots, and `free | removed` must be
    connected.  Then every component of `free` touches a removed slot, so
    `free` is connected iff the free neighbours of the removed slots lie in
    one component: the flood starts at one of them and stops once it has
    reached them all.
    """
    reach = 0
    while removed:
        bit = removed & -removed
        reach |= near[bit.bit_length() - 1]
        removed ^= bit
    reach &= free
    return not reach & ~_flood(near, free, reach & -reach, reach)


def _fillable(meets, partners, free: int, removed: int) -> bool:
    """Whether every component of the `free` cells under `partners` has an
    even number of cells and the cells are one component under `meets`.

    `free | removed` must pass and `removed` be two partners.  Then only
    their component changes: each of its pieces holds a free partner of
    theirs, and each flood stops once it has every one not yet reached; the
    last piece is even if the others are.  Under `meets` two pieces are
    disconnected; else `stays_connected` answers the second question.
    """
    low = removed & -removed
    reach = (partners[low.bit_length() - 1] | partners[(removed ^ low).bit_length() - 1]) & free
    while reach:
        piece = _flood(partners, free, reach & -reach, reach)
        reach &= ~piece
        if reach and (partners is meets or piece.bit_count() & 1):
            return False
    return partners is meets or stays_connected(meets, free, removed)


class _Stop(Exception):
    """Internal: abandon the current restart branch."""


def fold_chain(chain: HingedChain, cells, budget: int = DEFAULT_BUDGET,
               expected_cells: int | None = None) -> tuple | None:
    """Search for a fold of the chain into the glyph's slots, by blocks first.

    A chain whose length is a multiple of 8 is first folded block by block:
    pieces 8j .. 8j+7 fill the 8 slots of two cells, and each block's entry
    point is the previous block's exit point (`_fold_blocks`).  Level 1 pairs
    only cells that share an edge; level 2 also pairs cells that share only
    a point, edge pairs first.  A level cuts a pair that leaves free cells
    no blocks could fill: a component of odd size under the level's pairing
    (each block fills one pair), or parts that share no vertex (consecutive
    blocks meet at a vertex or at the midpoint of a shared edge).  The free
    cells before the pair passed, so the cut is decided from theirs, by
    floods around the pair alone.  When neither level folds, or the chain's
    length is not a multiple of 8, the walk that places one piece per node
    (`_walk`) searches the whole space.
    One budget counts the blocks placed and the walk's nodes.  Every stage
    is a fixed-order search whose outcome the budget does not steer, so
    every budget that reaches a fold returns the same one.  A fold is a
    tuple of placement numbers ``2 * slot + pose``, one per piece in chain
    order, its slots in `refine` order and its poses in `_poses` order.
    Returns None only when the walk has exhausted the space; raises
    BudgetExceeded (saying where) when the node budget runs out first.
    """
    glyph = refine(cells, expected_cells)
    if len(glyph.slots) != chain.n_pieces:
        raise ValueError(f"chain has {chain.n_pieces} pieces but the glyph refines to "
                         f"{len(glyph.slots)} slots")
    spent = 0
    if chain.n_pieces % 8 == 0:
        fold, spent = _fold_blocks(chain, glyph, budget)
        if fold is not None:
            return fold
    return _walk(chain, glyph.slots, budget, spent)


@functools.cache
def _block_table(pair: tuple, block: tuple, entry) -> tuple:
    """The folds of one block into the 8 slots of a cell pair, in the pair's own coordinates.

    `pair` is (cell a's diagonal and half, cell b's diagonal and half, b's
    square minus a's) and puts a's square at the origin.  `block` is the
    block's 7 inner hinges as (exit, entry) corner indices, then the corner
    indices of its first piece's entry and last piece's exit (None at the
    chain's ends).  Only folds whose first piece's entry corner lies at
    `entry`, a point relative to a's square, count.  The pair's 16
    placements are numbered a's then b's, each cell's slots in `_cell_slots`
    order and each slot's poses in `_poses` order, and tried depth first in
    that order.  Returns ((exit point, the 8 placements), ...), one fold per
    exit point: the first found.  The key holds shapes only, never a glyph's
    cells or points, so every pair of the same shape in any glyph shares the
    table; `_fold_blocks` maps it onto its own placements and points.  The
    cache grows with the block shapes of the chains folded, not with the
    glyphs: there are 48 pair shapes of cells that meet, with at most 11
    slot corners each, so one block shape has at most 556 keys.
    """
    da, ha, db, hb, dx, dy = pair
    inner, enter, leave = block
    at = [corners for cell in (Cell(0, 0, da, ha), Cell(dx, dy, db, hb))
          for s in _cell_slots(cell) for corners in _poses(s)]
    later = range(len(at) - 1, -1, -1)  # the stack pops what it got last, so push in reverse
    follow = {(ex, en): [[r for r in later if at[r][en] == corners[ex]] for corners in at]
              for ex, en in set(inner)}  # hinge -> placement -> the next ones
    steps = [follow[hinge] for hinge in inner]
    folds: dict = {}
    stack = [((q,), 0xFF ^ 1 << (q >> 1)) for q in later  # (path, slots free)
             if enter is None or at[q][enter] == entry]
    while stack:
        path, free = stack.pop()
        if len(path) == 8:
            folds.setdefault(None if leave is None else at[path[-1]][leave], path)
            continue
        stack += [(path + (r,), free ^ 1 << (r >> 1))
                  for r in steps[len(path) - 1][path[-1]] if free >> (r >> 1) & 1]
    return tuple(folds.items())


def _fold_blocks(chain: HingedChain, glyph: RefinedGlyph, budget: int) -> tuple:
    """The block levels of `fold_chain`: (their fold or None, the nodes spent).

    A block's shape is its 7 inner hinges with its entry and exit corners,
    taken from the chain.  The search runs in the glyph's own slot-corner
    points.  A block's folds into a cell pair come from `_block_table`, the
    only table cache, which builds each table once per process.  Its key
    holds shapes only: each cell's diagonal and half, the second cell's
    offset from the first, the block's shape and the entry point relative
    to the first cell's square.  So a pass over the square and FILNOTUZ
    builds 92 tables, and a glyph that repeats the pairs of the glyphs
    before it builds few or none.  Each node reads the table of a free pair
    that touches its entry point and moves the exit points by the pair's
    square, which is exact below COORD_LIMIT; the placed blocks are mapped
    onto the glyph's placement numbers only for the fold returned.  A
    level's pairing is the glyph's `edges` (level 1) or `meets` (level 2).
    A pair is skipped unless the cells it leaves free pass `_fillable`
    (once per set of cells used): later blocks fill them pair by pair, so
    no component under the level's pairing may be odd, and each block meets
    the next at a slot corner, a vertex or shared edge midpoint of both, so
    they must stay connected through shared vertices.  The cut is decided
    from the parent's free set, which passed (as does the whole glyph: it
    is edge-connected, with an even number of cells).  A (cells used, exit
    point) state fixes the rest of the search, so one whose subtree held no
    fold is remembered and skipped when met again; each level keeps its own.
    Each block placed is one node.
    """
    cells, slots, edges, meets, mine = glyph
    index = {s: i for i, s in enumerate(slots)}
    own = [[q for s in ss for q in (2 * index[s], 2 * index[s] + 1)] for ss in mine]  # cell -> placements
    cells_at = _corner_masks([v for s in ss for v in s] for ss in mine)  # slot corner -> cells there
    edge_pairs, point_pairs = [], []  # cell pairs that share an edge, or only a point, in cell order
    for a, b in itertools.combinations(range(len(cells)), 2):
        if meets[a] >> b & 1:
            (x, y, da, ha), (bx, by, db, hb) = cells[a], cells[b]
            pair = (1 << a | 1 << b, own[a] + own[b], (da, ha, db, hb, bx - x, by - y), x, y)
            (edge_pairs if edges[a] >> b & 1 else point_pairs).append(pair)
    full = (1 << len(cells)) - 1

    hinges = [(CORNERS.index(ex), CORNERS.index(en)) for ex, en in chain.hinges]
    m = chain.n_pieces // 8
    shapes = [(tuple(hinges[8 * j:8 * j + 7]), hinges[8 * j - 1][1] if j else None,
               hinges[8 * j + 7][0] if j + 1 < m else None) for j in range(m)]
    nodes = 0
    placed: list = []  # the placed blocks: (the pair's placements, the block's indices into them)

    def extend(j: int, used: int, entry) -> bool:
        """Place blocks j, j+1, ... from the entry point onward."""
        nonlocal nodes
        block_shape = shapes[j]
        pairs = level
        if entry is not None:
            pairs = touching.get(entry)
            if pairs is None:
                near = cells_at[entry]
                pairs = touching[entry] = [pair for pair in level if pair[0] & near]
        for mask, qs, shape, x, y in pairs:
            if used & mask:
                continue
            now = used | mask
            free = full ^ now
            ok = fillable.get(free)
            if ok is None:
                ok = fillable[free] = _fillable(meets, partners, free, mask)
            if not ok:
                continue
            start = None if entry is None else (entry[0] - x, entry[1] - y)
            for end, block in _block_table(shape, block_shape, start):
                nodes += 1
                if nodes > budget:
                    raise BudgetExceeded(f"fold search exceeded {budget} nodes at block level "
                                         f"{number}, placing block {j} (pieces {8 * j}-{8 * j + 7})")
                placed.append((qs, block))
                if j + 1 == m:
                    return True
                exit_point = end[0] + x, end[1] + y
                if (now, exit_point) not in dead:
                    if extend(j + 1, now, exit_point):
                        return True
                    dead.add((now, exit_point))
                placed.pop()
        return False

    try:
        for number, (level, partners) in enumerate(((edge_pairs, edges),
                                                    (edge_pairs + point_pairs, meets)), 1):
            touching: dict = {}  # entry point -> the level's pairs with a cell there
            dead: set = set()  # states whose subtree held no fold
            fillable: dict = {}  # cells left free -> whether `_fillable` passed them
            if extend(0, 0, None):
                return tuple(qs[i] for qs, block in placed for i in block), nodes
        return None, nodes
    finally:
        extend = None  # noqa: F841 -- the closure refers to itself; free its state now


def _walk(chain: HingedChain, slots, budget: int, spent: int = 0) -> tuple | None:
    """The piece-by-piece walk: a backtracking search that places one piece per node.

    `fold_chain` runs it when the block levels find no fold, with `spent`
    nodes of the budget already used; it counts on from there.

    A placement is a (slot, pose) pair, numbered ``2 * slot + pose``.  One
    successor table per hinge shape (piece k's exit corner, piece k+1's
    entry corner, piece k+1's exit corner) maps each placement of piece k to
    the placements of piece k+1 whose entry corner meets its exit corner,
    each with its slot bit and the mask of the other slots that touch its
    exit corner.  Placements are tried most-constrained-first (fewest free
    slots touching the exit corner) with slot order breaking ties, so runs
    are reproducible.  Every 8th placement the search prunes when the free
    slots fall apart into disconnected contact components.  The free set at
    the previous check was connected (at the first check it is the whole
    glyph), so `stays_connected` only floods from the free neighbours of the
    8 slots placed since then.  Past a check, the rest of the search depends
    only on the free set and the last placement (the depth is the count of
    placed slots), so a set that lives for one call and is shared by all
    starts and rounds remembers each such state whose subtree was walked to
    the end without a fold.  As in the block levels, a state met again is
    skipped and costs only the node that reached it.  The set is what makes
    exhaustion affordable: uniform R:P hinges on a 2x2 square (32 pieces)
    take 12.3M nodes, 38 s CPU, to prove foldless with it and 75.7M nodes,
    168 s, without.  It grows with the nodes visited: 35.3k states (3.6 MB)
    in Z's 767k-node search.  The search
    rotates through the possible first placements, each capped at
    FIRST_ROUND_CAP nodes, before burning the whole budget depth-first: one
    depth-first pass over the starts needs 15.7M nodes for Z and finds no F
    fold in 40M.  The budget only bounds the search: every budget that
    reaches a fold returns the same one.  Returns None only when the space is
    provably exhausted; raises BudgetExceeded when the node budget runs out
    first.
    """
    n = len(slots)
    poses = [corners for s in slots for corners in _poses(s)]  # placement -> corners
    bits = [1 << (q >> 1) for q in range(len(poses))]
    touching = _corner_masks(slots)
    near = contact_masks(slots)
    at: tuple = ({}, {}, {})  # corner index -> point -> placements with that corner there
    for q, corners in enumerate(poses):
        for c, pos in enumerate(corners):
            at[c].setdefault(pos, []).append(q)
    # corner indices of piece k's exit and of piece k+1's entry; the last
    # piece's exit is a placeholder, no free slot is left to touch it
    exits = [CORNERS.index(ex) for ex, _ in chain.hinges] + [0]
    entries = [CORNERS.index(en) for _, en in chain.hinges]
    # per hinge shape, placement -> (next placement, its slot bit, the other
    # slots touching its exit corner) for each next placement, in slot order
    shapes = list(zip(exits, entries, exits[1:]))
    tables = {(ex, en, nx): [tuple((r, bits[r], touching[poses[r][nx]] & ~bits[r])
                                   for r in at[en].get(corners[ex], ()))
                             for corners in poses]
              for ex, en, nx in set(shapes)}
    succ = [tables[shape] for shape in shapes]  # piece k -> the table after it
    shift = len(poses).bit_length()  # an option is its rank << shift | its placement
    low = (1 << shift) - 1

    nodes, node_cap = spent, 0
    placed: list = []
    dead: set = set()  # (free set << shift | last placement) at a check, walked without a fold

    def extend(k: int, free: int, checked: int, ranked) -> bool:
        """Try each option of ranked for piece k, then the rest of the chain.

        `checked` is the free set at the last connectivity check.
        """
        nonlocal nodes
        check = k % 8 == 7
        table = succ[k] if k + 1 < n else None
        for option in ranked:
            nodes += 1
            if nodes > node_cap:  # node_cap <= budget
                if nodes > budget:
                    raise BudgetExceeded(f"fold search exceeded {budget} nodes in the piece-by-piece "
                                         f"walk, {spent} of them spent on block levels")
                raise _Stop
            q = option & low
            now_free = free ^ bits[q]
            if check:
                if not stays_connected(near, now_free, checked ^ now_free):
                    continue
                key = now_free << shift | q
                if key in dead:
                    continue
            placed.append(q)
            if table is None:
                return True
            options = sorted([(mask & now_free).bit_count() << shift | r
                              for r, bit, mask in table[q] if now_free & bit])
            if options and extend(k + 1, now_free, now_free if check else checked, options):
                return True
            if check:
                dead.add(key)
            placed.pop()
        return False

    full = (1 << n) - 1
    try:
        # the second round caps each start at the whole budget, so it cannot
        # stop early: it ends in a fold, in None, or in BudgetExceeded
        for round_cap in (FIRST_ROUND_CAP, budget):
            exhausted_everywhere = True
            for start in range(len(poses)):
                node_cap = min(budget, nodes + round_cap)
                placed.clear()
                try:
                    if extend(0, full, full, (start,)):
                        return tuple(placed)
                except _Stop:
                    exhausted_everywhere = False
            if exhausted_everywhere:
                return None  # every start ran to exhaustion within its cap
    finally:
        extend = None  # noqa: F841 -- the closure refers to itself; free its tables now


def verify_fold(chain: HingedChain, cells, fold, expected_cells: int | None = None) -> bool:
    """Structural check of a fold as `fold_chain` returns it.

    Each piece's placement number must be an int in ``range(2 * slots)``,
    each slot must be used once, and each hinge's two corners must meet.
    A placement puts the piece on its slot by one of `_poses`, so it is
    congruent by construction.
    """
    slots = refine(cells, expected_cells).slots
    n = len(slots)
    if chain.n_pieces != n or len(fold) != n:
        return False
    if not all(type(q) is int and 0 <= q < 2 * n for q in fold) or len({q >> 1 for q in fold}) != n:
        return False
    placed = _placed(slots, fold)
    return all(placed[k][CORNERS.index(ex)] == placed[k + 1][CORNERS.index(en)]
               for k, (ex, en) in enumerate(chain.hinges))


# -- rendering ----------------------------------------------------------------

def render_polyabolo(cells) -> VectorScene:
    """Filled cells plus their outlines."""
    return _draw_cells(sorted(set(check_cell(x) for x in cells)))


def _draw_cells(cells) -> VectorScene:
    """`render_polyabolo` of cells already checked, sorted and distinct."""
    scene = VectorScene()
    for c in cells:
        scene.add_polygon([tuple(map(float, v)) for v in cell_triangle(c)], "piece")
    return scene


def render_chain_strip(chain: HingedChain) -> VectorScene:
    """The unfolded chain as a zigzag strip (the universal, letter-free view)."""
    import math
    h = math.sqrt(2.0) / 2.0
    scene = VectorScene()
    for k in range(chain.n_pieces):
        x0, x1 = k * h, (k + 1) * h
        apex_y = h / 2.0 if k % 2 == 0 else -h / 2.0
        tri = [(x0, 0.0), (x1, 0.0), ((x0 + x1) / 2.0, apex_y)]
        scene.add_polygon(tri, "piece")
    for k in range(chain.n_pieces - 1):
        x = (k + 1) * h
        scene.add_circle((x, 0.0), 0.035, "hinge", filled=True)
    return scene


def render_fold(chain: HingedChain, cells, fold) -> VectorScene:
    """Folded chain diagram: placed pieces with hinge dots."""
    glyph = refine(cells)
    scene = _draw_cells(glyph.cells)
    placed = _placed(glyph.slots, fold)
    for r, p, q in placed:
        scene.add_polyline([p, r, q], "chain")
    for corners, (exit_label, _entry) in zip(placed, chain.hinges):
        scene.add_circle(corners[CORNERS.index(exit_label)], 0.04, "hinge", filled=True)
    return scene
