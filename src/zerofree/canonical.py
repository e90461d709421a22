"""Signed-permutation double action and exact canonical representatives.

Two n x n matrices are equivalent when one maps to the other by permuting
rows, permuting columns, and flipping signs of whole rows and columns.  Each
orbit is labeled by the member whose row-major flattening is minimal in the
structural integer ordering

    1 < 2 < 3 < ... < -1 < -2 < -3 < ...

canonical_form computes that member exactly with a level-by-level tie-set
search; canonical_form_oracle recomputes it by brute force over the whole
group and exists so the two routes can check each other.

After each level the tie-set search keeps one state of each class of
interchangeable states.  Two states are interchangeable when a pairing of
their unused rows, with a sign for each, and a column bijection that keeps
the profiles carry the unused entries of one onto the other's.  Every later
placement in one is then matched by a placement in the other with the same
image row, so the merge changes no level's minimum, and so not the result.
This spares symmetric inputs a search over their automorphisms; McKay and
Piperno ("Practical graph isomorphism, II", 2014) prune equivalent search
nodes the same way.  Tie records are exempt: a child's new row is not among
the block's rows, so states that agree on the block's unused rows may still
differ on it.

The order is encoded once, by entry_key: 0 -> 0, x > 0 -> x and x < 0 ->
big - x, monotone whenever big > max |x|.  Putting zero first extends it to
0 < 1 < 2 < ... < -1 < -2 < ..., the order in which the search engine lists
candidate rows.  With big = key_big(max |x|), the least power of two above
max |x|, a key takes one bit more than max |x| does, so each user takes the
width from its entries: minimize_rows from its block, the engine from its
entry bound.  structural_key, flatten_key and structural_cmp compare keys
across matrices, so they keep the fixed big = 2**32, which covers every
entry up to MAX_ENTRY = 2**31.  The oracles keep their own encodings so that
they stay independent checks.

The engine tests the children of one canonical prefix together and carries
the test's search state from each prefix to its children (canonical
augmentation, after McKay, "Isomorph-free exhaustive generation", 1998).  A
prefix's tie record (Ties) holds its test-mode tie states per level,
unmerged, and a table, built from them, with one row per placement of a new
row after one of them.  children_verdicts reads the table once for every
candidate row: a child fails when an image beats its target, and passes
when none does and no image ties with a prefix row below its own level.  An
image equal to a prefix row keeps a state that uses the new row, so
canonical_children decides such a child by extend_ties, which continues the
level search from the prefix's levels.  The same call derives every
child's record from its parent's.  prefix_ties searches a record from
scratch; the engine does so only for the empty prefix.  Records are for
prefixes, which have many children each: a finished matrix takes
minimize_rows in test mode instead.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .matrix import ClassStats, IntMatrix, adjugate_inverse, classify

# big of the public keys: above every entry magnitude up to 2**31
_BIG = 1 << 32

_ORACLE_MAX_DIM = 5

# image entries children_verdicts builds at once
_CHUNK = 1 << 20


class ZeroEntryError(ValueError):
    """Zero entry where the structural ordering demands a nonzero value."""


def key_big(amax: int) -> int:
    """The narrowest big for entries with |x| <= amax: keys fit in one bit more."""
    return 1 << amax.bit_length()


def entry_key(x, big: int = _BIG):
    """The structural key: 0 -> 0, x > 0 -> x, x < 0 -> big - x.

    Monotone in the zero-first order 0 < 1 < 2 < ... < -1 < -2 < ... while
    |x| < big; works on an int, or elementwise on an integer numpy array.
    """
    return abs(x) + big * (x < 0)


def structural_key(x: int) -> int:
    """Monotone integer key for the structural ordering on nonzero ints."""
    if x == 0:
        raise ZeroEntryError("structural ordering is undefined on zero")
    return entry_key(x)


def structural_cmp(a: int, b: int) -> int:
    """-1, 0 or +1 as a precedes, equals or follows b structurally."""
    ka, kb = structural_key(a), structural_key(b)
    return (ka > kb) - (ka < kb)


def flatten_key(m: IntMatrix) -> tuple[int, ...]:
    """Row-major flattening of m mapped through the structural key."""
    return tuple(structural_key(e) for e in m.entries)


@dataclass(frozen=True)
class GroupElement:
    """One signed row permutation paired with one signed column permutation.

    Acting on m gives out[i][j] = row_signs[i] * col_signs[j]
    * m[row_perm[i]][col_perm[j]]; permutations are 0-based.
    """

    row_perm: tuple[int, ...]
    row_signs: tuple[int, ...]
    col_perm: tuple[int, ...]
    col_signs: tuple[int, ...]

    def __post_init__(self):
        n = len(self.row_perm)
        if not (
            len(self.row_signs) == len(self.col_perm) == len(self.col_signs) == n
        ):
            raise ValueError("component lengths disagree")
        if sorted(self.row_perm) != list(range(n)) or sorted(self.col_perm) != list(range(n)):
            raise ValueError("row_perm/col_perm must be permutations of 0..n-1")
        if any(s not in (1, -1) for s in self.row_signs + self.col_signs):
            raise ValueError("signs must be +1 or -1")

    @property
    def n(self) -> int:
        return len(self.row_perm)

    @classmethod
    def identity(cls, n: int) -> "GroupElement":
        ident = tuple(range(n))
        ones = (1,) * n
        return cls(ident, ones, ident, ones)

    @classmethod
    def random(cls, n: int, rng: random.Random) -> "GroupElement":
        rp = list(range(n))
        cp = list(range(n))
        rng.shuffle(rp)
        rng.shuffle(cp)
        rs = tuple(rng.choice((1, -1)) for _ in range(n))
        cs = tuple(rng.choice((1, -1)) for _ in range(n))
        return cls(tuple(rp), rs, tuple(cp), cs)

    def compose(self, other: "GroupElement") -> "GroupElement":
        """Element acting as: first apply `other`, then self."""
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        rp = tuple(other.row_perm[p] for p in self.row_perm)
        rs = tuple(s * other.row_signs[p] for s, p in zip(self.row_signs, self.row_perm))
        cp = tuple(other.col_perm[p] for p in self.col_perm)
        cs = tuple(s * other.col_signs[p] for s, p in zip(self.col_signs, self.col_perm))
        return GroupElement(rp, rs, cp, cs)

    def inverse(self) -> "GroupElement":
        n = self.n
        rp = [0] * n
        rs = [0] * n
        cp = [0] * n
        cs = [0] * n
        for i in range(n):
            rp[self.row_perm[i]] = i
            rs[self.row_perm[i]] = self.row_signs[i]
            cp[self.col_perm[i]] = i
            cs[self.col_perm[i]] = self.col_signs[i]
        return GroupElement(tuple(rp), tuple(rs), tuple(cp), tuple(cs))


def apply(g: GroupElement, m: IntMatrix) -> IntMatrix:
    """Image of m under g: pure entry rearrangement plus sign flips."""
    n = m.n
    if g.n != n:
        raise ValueError(f"group element on {g.n} indices applied to {n} x {n} matrix")
    e = m.entries
    out = []
    for i in range(n):
        base = g.row_perm[i] * n
        rs = g.row_signs[i]
        for j in range(n):
            out.append(rs * g.col_signs[j] * e[base + g.col_perm[j]])
    return IntMatrix(n, tuple(out))


def minimize_rows(rows, ncols, test=False):
    """Minimal flattening of a k x ncols block under the double action.

    Returns the minimal block as a list of entry rows.  The search walks the
    rows in order; at each level every state that still attains the minimal
    prefix is kept, up to interchangeable ones, so the result is exact.
    Column permutations never appear explicitly: for a fixed choice of
    source rows and row signs, the best column arrangement is the structural
    sort of the sign-normalized columns, tracked here as packed per-column
    profiles.  Keys are as narrow as the block's largest entry allows.

    With test=True the call returns None at the first level whose minimum
    beats the block's own row, and the block when none does: the
    canonicality test used by the enumeration engine.  Entries may be
    zero only in engine-internal use; zero keys sort first.
    """
    big = key_big(max(map(abs, itertools.chain.from_iterable(rows))))
    return _level_search(rows, ncols, test, big)


def _level_search(rows, ncols, test, big, levels=None):
    """minimize_rows at key width `big`; `levels`, when given, receives
    the state list in force before each level and the final one.  Test
    mode gives each level the block's own row as its target (_level), as
    extend_ties does: the level returns at the first image below the row,
    and keeps only the states whose image equals it.

    After each level, interchangeable states are merged (_merge_ties), so
    2I+J and J keep one state after each level instead of n!/(n-d)!.  The
    minima, and so the result, are the same as without the merge.  With
    `levels` nothing is merged: prefix_ties places rows that are not in
    the block after every state, and those placements can tell apart
    states that the block's own rows cannot."""
    k = len(rows)
    kpos = [tuple([entry_key(x, big) for x in r]) for r in rows]
    kneg = [tuple([entry_key(-x, big) for x in r]) for r in rows]
    # state: (used-row bitmask, packed column profiles, resolved column signs)
    states = [(0, (0,) * ncols, (0,) * ncols)]
    out = []
    for depth in range(k):
        if levels is not None:
            levels.append(states)
        target = kpos[depth] if test else None
        best, kept = _level([(states, range(k))], kpos, kneg, big, depth > 0, target)
        if kept is None:  # an image below the block's own row
            return None
        if not kept:
            raise AssertionError("canonical search lost the identity arrangement")
        out.append(best)
        states = list(kept)
        if levels is None and len(states) > 1:
            states = _merge_ties(states, rows)
    if levels is not None:
        levels.append(states)
    return [tuple([key if key < big else big - key for key in row]) for row in out]


def _level(groups, kpos, kneg, big, signed, target=None):
    """One level of the tie-set search: for each (states, rows) of
    `groups`, every row of `rows` that a state has not used is placed after
    it, with row sign +1, and -1 too when `signed`.

    Returns the least image row (its keys) and the states that attain it,
    as a dict in first-seen order.  With a `target`, images above it are
    dropped, and the first image below it is returned at once, with None
    for the states.
    """
    shift = big.bit_length()
    mask = (1 << shift) - 1
    signs_choices = (1, -1) if signed else (1,)
    ncols = len(kpos[0])
    cols = range(ncols)
    best = target
    kept = {}
    for states, rows in groups:
        for used, profs, signs in states:
            for i in rows:
                bit = 1 << i
                if used & bit:
                    continue
                kp = kpos[i]
                kn = kneg[i]
                for s in signs_choices:
                    new_profs = [0] * ncols
                    resolved = None
                    for c in cols:
                        u = signs[c]
                        if u:
                            key = kp[c] if u == s else kn[c]
                        else:
                            a = kp[c]
                            b = kn[c]
                            if a < b:
                                key = a
                                if resolved is None:
                                    resolved = list(signs)
                                resolved[c] = s
                            elif a > b:
                                key = b
                                if resolved is None:
                                    resolved = list(signs)
                                resolved[c] = -s
                            else:
                                key = 0
                        new_profs[c] = (profs[c] << shift) | key
                    digits = tuple([p & mask for p in sorted(new_profs)])
                    if best is None or digits < best:
                        if target is not None:
                            return digits, None
                        best = digits
                        kept = {}
                    elif digits != best:
                        continue
                    new_signs = signs if resolved is None else tuple(resolved)
                    kept[(used | bit, tuple(new_profs), new_signs)] = None
    return best, kept


def _merge_ties(states, rows):
    """One state of each class of interchangeable states; the first seen stays.

    Two states are interchangeable when a pairing of their unused rows, with
    a sign for each, and a column bijection that keeps the profiles carry
    the unused entries of one onto the other's, each entry taken with its
    column's resolved sign (u*x, or x where u = 0).  Placing row i with sign
    s in one state then gives the same image row as placing its partner
    with s times the pair's sign in the other, and the two new states are
    again interchangeable.  The key flips each unused row to a nonnegative
    sum, orders the rows by (profile, entry) multisets, which no column move
    changes (ties keep index order), and sorts the columns as (profile,
    entries); equal keys give both bijections, so the key can miss merges
    but never makes a wrong one.  A profile is zero exactly while its column
    is unresolved.
    """
    kept = {}
    for state in states:
        used, profs, signs = state
        free = []
        for i, row in enumerate(rows):
            if not used >> i & 1:
                e = [u * x if u else x for u, x in zip(signs, row)]
                free.append(e if sum(e) >= 0 else [-x for x in e])
        free.sort(key=lambda e: sorted(zip(profs, e)))
        kept.setdefault(tuple(sorted(zip(profs, *free))), state)
    return list(kept.values())


def pack_keys(keys: np.ndarray, big: int) -> np.ndarray:
    """Each row of entry keys at width `big` (last axis) read as one number,
    most significant column first: the row's structural rank."""
    return keys @ (2 * big) ** np.arange(keys.shape[-1] - 1, -1, -1, dtype=np.int64)


class Ties:
    """The tie record of a canonical block: what children_verdicts reads,
    and what extend_ties carries from the block to a child.

    `rows` is the block, `big` the key width, and `kpos`/`kneg` the keys of
    each row and of its negation.  `levels` lists the block's test-mode
    tie states, unmerged, in force before each level and after the last.
    The placement table, one row per placement of a new row after a state
    of some level (_placements), src then lift then level, as one int64
    array, is built from `levels` on first use: a verdict that only asks
    whether a child is canonical never builds it.
    """

    __slots__ = ("rows", "big", "kpos", "kneg", "levels", "_table")

    def __init__(self, rows, big, kpos, kneg, levels):
        self.rows, self.big, self.kpos, self.kneg, self.levels = rows, big, kpos, kneg, levels
        self._table = None

    @property
    def table(self) -> np.ndarray:
        if self._table is None:
            rows = []
            for d, states in enumerate(self.levels):
                rows += _placements(states, d, 2 * self.big)
            self._table = np.array(rows, dtype=np.int64)
        return self._table


def _placements(states, level, radix) -> list:
    """The placements of a new row at `level`, after each of `states`, as
    table rows src + lift + (level,).

    A column's key follows its resolved sign u times the row sign: key(x)
    for +1, key(-x) for -1, |x| for 0.  The columns are ordered by the
    state's profiles, and each group of equal profiles is sorted: `src`
    indexes each image position into the per-column keys [key(-x) | |x| |
    key(x)], and `lift` puts each group above the one before it, so one
    sort of the lifted row sorts inside every group.  Level 0 places with
    +1 alone.  Rows are not deduplicated: a repeated row only repeats a
    comparison, so no verdict depends on it.  The states of a level share
    their sorted profiles, so a repeat needs two states with equal profiles
    whose signs agree up to the row sign; on the engine's prefixes, whose
    rows pass the gcd test and so are independent, none was found (a
    tier-1 test checks whole searches).
    """
    out = []
    for _, profs, signs in states:
        ncols = len(profs)
        order = sorted(range(ncols), key=profs.__getitem__)
        lift = [0] * ncols
        for j in range(1, ncols):
            lift[j] = lift[j - 1] + radix * (profs[order[j]] != profs[order[j - 1]])
        for s in (1,) if level == 0 else (1, -1):
            out.append([(signs[c] * s + 1) * ncols + c for c in order] + lift + [level])
    return out


def prefix_ties(rows, ncols, big) -> Ties:
    """The tie record of the canonical block `rows`, searched from scratch.

    A child rows + [r] fails the test-mode search exactly when some
    placement of r gives an image below its target.  One placement puts r
    at a level d <= k = len(rows), after a state that survives levels
    0..d-1 of the block's own search, with row sign +-1 (+1 alone at d = 0);
    its target is the block's row d, or r itself at d = k.  The table holds
    one row per placement (_placements).  `big` must exceed every entry
    magnitude of the children too.
    """
    levels = []
    if _level_search(rows, ncols, True, big, levels) is None:
        raise ValueError("prefix is not canonical")
    kpos = tuple([tuple([entry_key(x, big) for x in r]) for r in rows])
    kneg = tuple([tuple([entry_key(-x, big) for x in r]) for r in rows])
    return Ties(tuple(rows), big, kpos, kneg, levels)


def extend_ties(ties: Ties, row) -> Ties | None:
    """The tie record of ties.rows + [row], derived from the block's, for a
    row that children_verdicts did not find beaten; None if the child is not
    canonical after all.

    The child's states at each level are the block's, which never re-place
    a block row, plus the states that use `row`.  The call continues the
    test-mode level search of rows + [row] from the block's levels: at each
    level `row` is placed after the block's states, and the block's unused
    rows after the states that already use `row`; the search stops at the
    first image below its target.  A child that no image ties below its own
    level k gains no state there, so its new states are its final level
    alone.
    """
    k, big = len(ties.rows), ties.big
    kpos = ties.kpos + (tuple([entry_key(x, big) for x in row]),)
    kneg = ties.kneg + (tuple([entry_key(-x, big) for x in row]),)
    levels = ties.levels[:1]
    states = []
    for d in range(k + 1):
        groups = [(ties.levels[d], (k,)), (states, range(k))]
        _, kept = _level(groups, kpos, kneg, big, d > 0, kpos[d])
        if kept is None:
            return None
        states = list(kept)
        levels.append(ties.levels[d + 1] + states if d < k else states)
    return Ties(ties.rows + (tuple(row),), big, kpos, kneg, levels)


def children_verdicts(ties: Ties, cand: np.ndarray):
    """Prefix-canonicality of rows + [r] for every row r of `cand` at once.

    `ties` is the tie record of rows (prefix_ties or extend_ties).  In the
    child's search the states that use only rows of the block at level d
    are exactly the block's own states after level d, so the child fails
    if one of the placements beats its target.  An image equal to row d
    for d < k keeps a state that uses r, which only the continued search,
    extend_ties, can follow.

    Returns boolean arrays (beaten, open): beaten children fail; open ones
    are not beaten here but tie below level k, and need extend_ties.
    Every other child passes.
    """
    m, ncols = cand.shape
    k, big = len(ties.rows), ties.big
    src, lift, level = ties.table[:, :ncols], ties.table[:, ncols:-1], ties.table[:, -1]
    # the packed rows; level k compares with r instead
    packed_rows = pack_keys(np.array(ties.kpos, dtype=np.int64).reshape(k, ncols), big)
    target, last = np.append(packed_rows, 0)[level], level == k
    beaten = np.zeros(m, dtype=bool)
    tied = np.zeros(m, dtype=bool)
    # chunks of candidates keep the (chunk, placements, ncols) images small
    step = max(1, _CHUNK // lift.size)
    for lo in range(0, m, step):
        part = cand[lo : lo + step]
        table = np.concatenate([entry_key(-part, big), np.abs(part), entry_key(part, big)], axis=1)
        images = table[:, src] + lift
        images.sort(axis=2)
        images -= lift
        packed = pack_keys(images, big)
        own = pack_keys(table[:, 2 * ncols :], big)
        beaten[lo : lo + step] = (packed < np.where(last, own[:, None], target)).any(axis=1)
        tied[lo : lo + step] = (packed[:, ~last] == target[~last]).any(axis=1)
    return beaten, tied & ~beaten


def canonical_children(ties: Ties, cand: np.ndarray) -> np.ndarray:
    """Which children ties.rows + [r], r a row of `cand`, are
    prefix-canonical: one batch verdict (children_verdicts), and the
    continued level search (extend_ties) for each open child."""
    beaten, open_ = children_verdicts(ties, cand)
    ok = ~beaten
    for pos in np.flatnonzero(open_):
        ok[pos] = extend_ties(ties, cand[pos].tolist()) is not None
    return ok


def canonical_form(m: IntMatrix) -> IntMatrix:
    """The orbit member of m with structurally minimal row-major flattening.

    m must have no zero entries (its inverse is not consulted, so singular
    zero-free matrices are fine).
    """
    if m.has_zero():
        raise ZeroEntryError("canonical form requires a matrix without zero entries")
    return IntMatrix(m.n, tuple(itertools.chain.from_iterable(minimize_rows(m.rows(), m.n))))


@lru_cache(maxsize=16)
def _side_tables(n: int, leading_positive: bool = False):
    """(index, sign) arrays for the n! * 2^n signed permutations of one side.

    leading_positive keeps only sign vectors starting with +1: flipping every
    row sign and every column sign together fixes P·M·Q, so restricting one
    side this way still realizes every image of the double action.
    """
    perms = list(itertools.permutations(range(n)))
    signs = [
        s
        for s in itertools.product((1, -1), repeat=n)
        if not (leading_positive and s[0] < 0)
    ]
    g = len(perms) * len(signs)
    idx = np.empty((g, n), dtype=np.int64)
    sgn = np.empty((g, n), dtype=np.int64)
    pos = 0
    for p in perms:
        for s in signs:
            idx[pos] = p
            sgn[pos] = s
            pos += 1
    return idx, sgn


@lru_cache(maxsize=4)
def _full_tables(n: int):
    """Flat index/sign action of every (P, Q) pair, for small n."""
    ridx, rsgn = _side_tables(n, True)
    cidx, csgn = _side_tables(n)
    gr, gc = len(ridx), len(cidx)
    src = (ridx[:, None, :, None] * n + cidx[None, :, None, :]).reshape(gr * gc, n * n)
    sgn = (rsgn[:, None, :, None] * csgn[None, :, None, :]).reshape(gr * gc, n * n)
    return src.astype(np.int32), sgn.astype(np.int8)


def _lex_argmin(keys: np.ndarray) -> int:
    """Index of the lexicographically smallest row of a 2-D integer array."""
    live = None
    for col in range(keys.shape[1]):
        colv = keys[:, col] if live is None else keys[live, col]
        mn = colv.min()
        hit = colv == mn
        live = np.flatnonzero(hit) if live is None else live[hit]
        if len(live) == 1:
            break
    return int(live[0])


def _pack_words(keys: np.ndarray) -> np.ndarray:
    """View uint8 key rows as big-endian uint64 words (lex-order preserving)."""
    m, w = keys.shape
    pad = (-w) % 8
    if pad:
        keys = np.concatenate([keys, np.zeros((m, pad), dtype=np.uint8)], axis=1)
    return np.ascontiguousarray(keys).view(">u8")


def canonical_form_oracle(m: IntMatrix) -> IntMatrix:
    """canonical_form recomputed by exhausting all (2^n n!)^2 group elements.

    Reference implementation for tests; n <= 5 only.
    """
    n = m.n
    if n > _ORACLE_MAX_DIM:
        raise ValueError(f"full-orbit oracle supports n <= {_ORACLE_MAX_DIM}")
    if m.has_zero():
        raise ZeroEntryError("canonical form requires a matrix without zero entries")
    amax = m.max_abs()
    if n <= 4 and amax <= 126:
        src, sgn = _full_tables(n)
        flat = np.array(m.entries, dtype=np.int16)
        vals = flat[src]
        np.multiply(vals, sgn, out=vals)
        keys = (np.abs(vals) + 128 * (vals < 0)).astype(np.uint8)
        words = _pack_words(keys)
        best = _lex_argmin(words)
        best_keys = keys[best]
        entries = [int(k) if k < 128 else 128 - int(k) for k in best_keys]
        return IntMatrix(n, tuple(entries))
    # chunked path: one signed row permutation at a time, columns vectorized
    flat = np.array(m.entries, dtype=np.int64)
    ridx, rsgn = _side_tables(n, True)
    cidx, csgn = _side_tables(n)
    big = _BIG
    best_keys = None
    for p in range(len(ridx)):
        src = (ridx[p][:, None] * n + cidx[:, None, :]).reshape(len(cidx), n * n)
        sgn = (rsgn[p][:, None] * csgn[:, None, :]).reshape(len(cidx), n * n)
        vals = flat[src] * sgn
        keys = np.where(vals > 0, vals, big - vals)
        cand = keys[_lex_argmin(keys)]
        if best_keys is None or tuple(cand) < tuple(best_keys):
            best_keys = cand
    entries = [int(k) if k < big else big - int(k) for k in best_keys]
    return IntMatrix(n, tuple(entries))


def orbit_equivalent(a: IntMatrix, b: IntMatrix) -> bool:
    """True iff a and b lie in the same orbit (single canonical comparison)."""
    if a.n != b.n:
        raise ValueError("matrices of different dimension are never equivalent")
    return canonical_form(a).entries == canonical_form(b).entries


@dataclass(frozen=True, slots=True)
class CanonicalClass:
    """A canonical representative together with its cached stats."""

    rep: IntMatrix
    stats: ClassStats

    @classmethod
    def from_matrix(cls, m: IntMatrix) -> "CanonicalClass":
        rep = canonical_form(m)
        stats = classify(rep)
        if stats is None:
            raise ValueError("matrix is not unimodular zerofree")
        return cls(rep, stats)


def inverse_class(c: CanonicalClass) -> CanonicalClass:
    """Canonical class of the inverse; swaps alpha with beta, involution."""
    return CanonicalClass.from_matrix(adjugate_inverse(c.rep))


def random_zerofree_matrix(n: int, rng: random.Random, max_abs: int = 5) -> IntMatrix:
    """Uniform random matrix with entries in +-{1..max_abs} (no zero entries)."""
    entries = tuple(
        rng.choice((1, -1)) * rng.randint(1, max_abs) for _ in range(n * n)
    )
    return IntMatrix(n, entries)
