"""Exhaustive search engine for unimodular zerofree equivalence classes.

The generator is orderly: matrices are built one row at a time, a partial
matrix survives only while

  * no signed row/column rearrangement of the filled rows gives a
    structurally smaller flattening (prefix canonicality),
  * the gcd of the determinants of its maximal square minors is 1
    (necessary for completion to a unimodular matrix), and
  * when the target inverse-entry bound is finite, every k x k minor
    respects the complementary-minor bound |minor| <= (n-k)! * cap^(n-k)
    that a bounded inverse forces on a unimodular matrix.

The children of one prefix are tested for canonicality together: the
prefix's tie states are computed once, one vectorized verdict covers every
candidate next row, and only the children whose image ties with a prefix row
take the scalar test (canonical.children_verdicts).

A finished matrix is accepted only if it equals its own canonical form, so
every class is emitted exactly once, as its representative, with no global
duplicate set.  Candidate rows are scanned in structural order, which makes
the output stream sorted by flattening and bit-identical across thread
budgets and checkpoint splits.

At the final depth the cheapest rejecting test runs first: the
determinant of every completion is computed straight off the sorted slice of
candidate rows, then inverse column n-2 filters the unimodular completions,
and only its survivors get the full inverse.

Value-only searches (the largest inverse entry) test canonicality on
prefixes only: duplicates cannot change a maximum, so each final-depth batch
is reduced to its largest beta and the leaves attaining it, and only the
winning leaf is tested at the end.

The structural order of candidate rows is the zero-first order of
canonical.entry_key, at the width the entry bound alpha needs; see the
canonical module docstring.

Every search is the same descent from the empty prefix, run in two stages.
Stage 1 descends to the accepted prefixes of min(2, n-1) rows, which are
the work units; stage 2 finishes the descent below each unit.  The first
row is chosen by the same filters as every later row, so at n = 1 the
empty prefix is the one work unit.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from math import comb, factorial

import numpy as np

from .canonical import (
    CanonicalClass,
    children_verdicts,
    entry_key,
    key_big,
    minimize_rows,
    pack_keys,
    prefix_ties,
)
from .matrix import ClassStats, IntMatrix, RegimeError

# A candidate row packs its n keys into one int64: at most 8 bits a key for
# alpha <= 64, so 7 keys (56 bits) fit and 8 would not.
MAX_SEARCH_DIM = 7
MAX_SEARCH_ALPHA = 64
_MAX_SPACE = 5_000_000  # candidate rows per level; positions beyond this are hopeless anyway

CHECKPOINT_VERSION = 2

_ENV_THREADS = "ZEROFREE_THREADS"


class TierGateError(ValueError):
    """Long-running query issued without the long-run flag or a node limit."""


class IncompleteSearchError(RuntimeError):
    """A search that must be exhaustive stopped before exploring everything."""


class CheckpointError(ValueError):
    """Checkpoint file is malformed or belongs to a different query."""


def default_thread_budget() -> int:
    try:
        return max(1, int(os.environ.get(_ENV_THREADS, "1")))
    except ValueError:
        return 1


def _check_search_regime(
    n: int, alpha: int, thread_budget: int | None, node_limit: int | None
) -> None:
    """Limits every search shares: dimension, entry bound, workers, node limit."""
    if not 1 <= n <= MAX_SEARCH_DIM:
        raise RegimeError(f"search supports 1 <= n <= {MAX_SEARCH_DIM}")
    if not 1 <= alpha <= MAX_SEARCH_ALPHA:
        raise RegimeError(f"alpha must be within 1..{MAX_SEARCH_ALPHA}")
    if thread_budget is not None and thread_budget < 1:
        raise ValueError("thread_budget must be positive")
    if node_limit is not None and node_limit < 1:
        raise ValueError("node_limit must be positive")


def theoretical_beta_bound(n: int) -> int:
    """Worst-case inverse entry bound (n-1)! * 2^(n-1) for max |entry| = 2."""
    if n < 2:
        raise ValueError("bound is defined for n >= 2")
    if n > 20:
        raise RegimeError("bound overflows the supported integer regime beyond n = 20")
    return factorial(n - 1) * 2 ** (n - 1)


@dataclass(frozen=True)
class ClassQuery:
    """One enumeration request.

    `beta` is either an exact value or an inclusive (low, high) range; ranges
    are how sequence scans ask for every bucket in one pass.

    `node_limit` truncates the search to the longest prefix of its work
    units, in unit order, whose nodes fit the limit; the truncated result
    is the same for every `thread_budget`.
    """

    n: int
    alpha: int
    beta: int | tuple[int, int]
    positive_only: bool = False
    count_only: bool = False
    thread_budget: int | None = None
    node_limit: int | None = None
    long_run: bool = False

    def __post_init__(self):
        _check_search_regime(self.n, self.alpha, self.thread_budget, self.node_limit)
        lo, hi = self.beta_range
        if lo > hi:
            raise ValueError("empty beta range")
        if self.n > 1 and (self.alpha < 2 or lo < 2):
            raise ValueError("alpha and beta below 2 are vacuous for n > 1")

    @property
    def beta_range(self) -> tuple[int, int]:
        if isinstance(self.beta, tuple):
            return self.beta
        return (self.beta, self.beta)

    @property
    def tier(self) -> int:
        lo, hi = self.beta_range
        if self.n <= 3:
            return 1
        if self.n == 4:
            if self.alpha <= 2:
                return 2
            if self.alpha == 3 and (lo, hi) == (3, 3):
                return 2
        return 3


@dataclass(frozen=True)
class EnumerationResult:
    query: ClassQuery
    classes: tuple[CanonicalClass, ...]
    total_count: int
    positive_count: int
    nodes_explored: int
    wall_time: float
    complete: bool


@dataclass
class SearchCheckpoint:
    """Resumable frontier of a search: which work units are already done.

    A work unit is one accepted two-row prefix (one-row for n = 2, the
    empty prefix for n = 1); its subtree result is stored verbatim, so
    resuming replays nothing and the merged outcome is bit-identical to an
    uninterrupted run.

    The text form is an append-only JSON-lines journal.  The first line is
    a header with format_version, query and total_units; each further line
    records one finished unit: its index, its payload and a sha256 digest of
    both.  A search appends one line per finished unit.  A torn write
    leaves one torn last line: text after the last newline, or else a last
    line that is not JSON.  from_json drops it and counts its characters in
    `torn_tail`.  Any other
    malformed line, a digest mismatch, a repeated unit or a unit index out
    of range is an error.
    """

    format_version: int
    query: dict
    total_units: int
    completed: dict[int, dict]
    torn_tail: int = field(default=0, compare=False)

    def to_json(self) -> str:
        header = {
            "format_version": self.format_version,
            "query": self.query,
            "total_units": self.total_units,
        }
        return json.dumps(header, sort_keys=True) + "\n" + "".join(
            _unit_line(i, self.completed[i]) for i in sorted(self.completed)
        )

    @classmethod
    def from_json(cls, text: str) -> "SearchCheckpoint":
        head, newline, body = text.partition("\n")
        try:
            header = json.loads(head)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"invalid checkpoint header: {exc}") from exc
        if not isinstance(header, dict):
            raise CheckpointError("checkpoint header is not a JSON object")
        if header.get("format_version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {header.get('format_version')!r}"
            )
        if (
            not newline
            or set(header) != {"format_version", "query", "total_units"}
            or not isinstance(header["query"], dict)
            or not isinstance(header["total_units"], int)
        ):
            raise CheckpointError("malformed checkpoint header")
        *lines, tail = body.split("\n")
        cp = cls(CHECKPOINT_VERSION, header["query"], header["total_units"], {}, len(tail))
        for lineno, line in enumerate(lines, 2):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if lineno == len(lines) + 1 and not tail:
                    cp.torn_tail = len(line) + 1
                    break
                raise CheckpointError(f"invalid checkpoint line {lineno}: {exc}") from exc
            try:
                index, payload = record["index"], record["payload"]
                intact = record["digest"] == _record_digest(index, payload)
            except (KeyError, TypeError) as exc:
                raise CheckpointError(f"malformed checkpoint line {lineno}") from exc
            if not intact:
                raise CheckpointError(
                    f"checkpoint digest mismatch on line {lineno} (file corrupted?)"
                )
            if not isinstance(index, int) or not 0 <= index < cp.total_units:
                raise CheckpointError(f"checkpoint unit {index!r} out of range on line {lineno}")
            if index in cp.completed:
                raise CheckpointError(f"checkpoint unit {index} repeated on line {lineno}")
            cp.completed[index] = payload
        return cp


def _record_digest(index: int, payload: dict) -> str:
    blob = json.dumps({"index": index, "payload": payload}, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _unit_line(index: int, payload: dict) -> str:
    record = {"digest": _record_digest(index, payload), "index": index, "payload": payload}
    return json.dumps(record, sort_keys=True) + "\n"


def save_checkpoint(path: str, cp: SearchCheckpoint, index: int | None = None) -> None:
    """Append the record of finished unit `index` to the journal at `path`.

    Without `index`, replace the file with the whole journal of `cp`
    atomically: temp file in the same directory, then rename.
    """
    if index is not None:
        with open(path, "a") as fh:
            fh.write(_unit_line(index, cp.completed[index]))
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(prefix=".ckpt-", dir=directory)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(cp.to_json())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path: str) -> SearchCheckpoint:
    # latin-1 maps each byte to one character, so torn_tail counts bytes
    with open(path, "rb") as fh:
        return SearchCheckpoint.from_json(fh.read().decode("latin-1"))


# --------------------------------------------------------------------------
# candidate-row spaces and minor bookkeeping


@lru_cache(maxsize=32)
def _space(n: int, alpha: int, zeros_allowed: bool, positive_only: bool):
    """All candidate rows for one search, sorted in structural order.

    Returns (rows, keys, packed, rowmin): the rows, their entry keys at the
    width alpha needs, each row's keys read as one number (its structural
    rank), and rowmin[i], which packs the sorted magnitudes of row i, the
    least image of that row under column moves.  A canonical matrix's first
    row packs to at most the rowmin of each of its rows.
    """
    values = list(range(1, alpha + 1))
    if zeros_allowed:
        values = [0] + values
    if not positive_only:
        values += [-v for v in range(1, alpha + 1)]
    if len(values) ** n > _MAX_SPACE:
        raise RegimeError(
            f"candidate space {len(values)}^{n} is too large to enumerate"
        )
    if factorial(n) * alpha**n > 2**62:
        raise RegimeError("determinant bound would overflow 64-bit arithmetic")
    # every row over `values`, column 0 varying slowest: `values` is listed
    # in ascending key order, so the rows come out in structural order
    k = len(values)
    rows = np.empty((k**n, n), dtype=np.int64)
    for c in range(n):
        rows[:, c] = np.tile(np.repeat(values, k ** (n - 1 - c)), k**c)
    # a magnitude is its own key; one sorted copy is the only n-wide temporary
    big = key_big(alpha)
    mags = np.abs(rows)
    mags.sort(axis=1)
    rowmin = pack_keys(mags, big)
    del mags
    # the keys are built one column at a time, so the only temporaries are columns
    keys = np.empty_like(rows)
    for c in range(n):
        keys[:, c] = entry_key(rows[:, c], big)
    return rows, keys, pack_keys(keys, big), rowmin


@lru_cache(maxsize=64)
def _ext_table(n: int, k: int, first_row: bool = False):
    """Laplace data to grow k-column minors into (k+1)-column minors.

    One entry per term: the new row's column, the (k+1)-subset, the parent
    k-subset and the sign.  first_row expands along a prepended row (sign
    (-1)^j), otherwise along an appended row (sign (-1)^(k+j)).
    """
    parents = {T: i for i, T in enumerate(itertools.combinations(range(n), k))}
    cols, tpos, pidx, sgn = [], [], [], []
    t = -1
    for t, T in enumerate(itertools.combinations(range(n), k + 1)):
        for j, c in enumerate(T):
            cols.append(c)
            tpos.append(t)
            pidx.append(parents[T[:j] + T[j + 1 :]])
            sgn.append(-1 if (j if first_row else k + j) % 2 else 1)
    return (
        np.array(cols),
        np.array(tpos),
        np.array(pidx),
        np.array(sgn, dtype=np.int64),
        t + 1,
    )


def _grow_minors(n: int, k: int, minors: np.ndarray, rows_arr: np.ndarray) -> np.ndarray:
    """Minors of all (k+1)-column subsets for every candidate next row.

    Laplace expansion along the appended row: each (k+1)-column minor is a
    signed combination of the parent k-column minors.
    """
    cols, tpos, pidx, sgn, s_next = _ext_table(n, k)
    w = np.zeros((n, s_next), dtype=np.int64)
    w[cols, tpos] = sgn * minors[pidx]
    return rows_arr @ w


def _jacobi_cap(n: int, depth: int, alpha: int, beta_cap: int | None) -> int | None:
    """Bound on depth x depth minors implied by a capped inverse, if useful."""
    if beta_cap is None or depth >= n:
        return None
    bound = factorial(n - depth) * beta_cap ** (n - depth)
    natural = factorial(depth) * alpha**depth
    return bound if bound < natural else None


@lru_cache(maxsize=16)
def _cofactor_tables(n: int):
    """Index arrays assembling the cofactors of row i from block minors.

    Deleting row i and column j splits the remaining rows into the block
    above row i and the block below it; a generalized Laplace expansion by
    the top block expresses the cofactor through i-column minors of the top
    and (n-1-i)-column minors of the bottom.  Entry i is the arrays
    (bottom, j, top, sign), one element per term; no (bottom, j) pair
    repeats, so each cofactor matrix is one fancy-index assignment.
    """
    comb_index = {
        size: {T: t for t, T in enumerate(itertools.combinations(range(n), size))}
        for size in range(n)
    }
    tables = []
    for i in range(n):
        terms = []
        for j in range(n):
            cols = [c for c in range(n) if c != j]
            pos = {c: p for p, c in enumerate(cols)}
            for s_cols in itertools.combinations(cols, i):
                s_set = set(s_cols)
                comp = tuple(c for c in cols if c not in s_set)
                sigma = sum(pos[c] for c in s_cols) + i * (i - 1) // 2 + i + j
                terms.append(
                    (
                        comb_index[n - 1 - i][comp],
                        j,
                        comb_index[i][s_cols],
                        -1 if sigma % 2 else 1,
                    )
                )
        tables.append(tuple(np.array(col, dtype=np.int64) for col in zip(*terms)))
    return tables


def _cofactor_matrix(n: int, i: int, top_minors: np.ndarray) -> np.ndarray:
    """Maps the (n-1-i)-column minors of the rows below row i to the
    cofactors of row i, given the i-column minors of the rows above it."""
    bottom, j, top, sign = _cofactor_tables(n)[i]
    out = np.zeros((comb(n, n - 1 - i), n), dtype=np.int64)
    out[bottom, j] = sign * top_minors[top]
    return out


# --------------------------------------------------------------------------
# the depth-first generator


@dataclass
class _SearchParams:
    n: int
    alpha: int
    beta_cap: int | None
    zeros_allowed: bool
    positive_only: bool
    require_zerofree: bool

    def space_key(self):
        return (self.n, self.alpha, self.zeros_allowed, self.positive_only)


class _NodeBudget(Exception):
    pass


def _is_canonical(entries, n: int) -> bool:
    """The engine's zero-tolerant canonicality test on a row-major matrix."""
    rows = [tuple(entries[i * n : (i + 1) * n]) for i in range(n)]
    return minimize_rows(rows, n, True) is not None


class _Generator:
    """Depth-first orderly search.

    An enumeration collects canonical leaves into `found`, bucketed by their
    attained (alpha, beta).  A value-only search instead keeps `best_beta`,
    the largest beta over leaves attaining alpha (0 while there is none),
    and `tied`, every leaf attaining it in search order.
    """

    def __init__(self, params: _SearchParams, value_only: bool = False):
        self.p = params
        self.value_only = value_only
        self.n = params.n
        self.rows_arr, self.keys_arr, self.packed, self.rowmin = _space(*params.space_key())
        self.big = key_big(params.alpha)
        self.nodes = 0
        self.budget: int | None = None
        self.found: dict[tuple[int, int], list] = {}
        self.best_beta = 0
        self.tied: list[list[int]] = []

    def _canonical_children(self, rows, cand: np.ndarray) -> np.ndarray:
        """Which children rows + [r], r a row of `cand`, are prefix-canonical.

        One batch verdict over the whole batch, from the tie states of
        `rows` computed once; a child whose verdict is open takes the scalar
        test.
        """
        if not len(cand):
            return np.zeros(0, dtype=bool)
        beaten, open_ = children_verdicts(prefix_ties(rows, self.n, self.big), cand, self.big)
        ok = ~(beaten | open_)
        for pos in np.flatnonzero(open_):
            ok[pos] = minimize_rows(rows + [tuple(cand[pos].tolist())], self.n, True) is not None
        return ok

    def _spend(self, count: int = 1):
        if self.budget is not None and self.nodes + count > self.budget:
            raise _NodeBudget
        self.nodes += count

    def _candidates(self, rows, minors: np.ndarray, base_mask, start: int):
        """Vectorized filters; returns (indices, minors per candidate).

        Rows of a canonical matrix are structurally nondecreasing (swapping
        two adjacent rows is a group move), so the scan starts at the
        previous row, index `start` of the sorted space.  Columns that agree
        on every filled row must stay in structural order.

        At the final depth the one grown minor is the determinant.  It is
        computed for the whole contiguous slice of the sorted space, which is
        cheaper than gathering the rows that pass the mask first, and
        |det| = 1 joins the mask.  Interior depths gather first: their gcd
        and cap tests run on many columns and would be wasted on masked-out
        rows.
        """
        n = self.n
        depth = len(rows)
        mask = base_mask[start:].copy()
        cols = list(zip(*rows))
        for c in range(len(cols) - 1):
            if cols[c] == cols[c + 1]:
                mask &= self.keys_arr[start:, c] <= self.keys_arr[start:, c + 1]
        if depth + 1 == n:
            dets = _grow_minors(n, depth, minors, self.rows_arr[start:])
            mask &= np.abs(dets[:, 0]) == 1
            idx = np.flatnonzero(mask)
            return idx + start, dets[idx]
        idx = np.flatnonzero(mask)
        if len(idx) == 0:
            return idx, None
        idx += start
        grown = _grow_minors(n, depth, minors, self.rows_arr[idx])
        absg = np.abs(grown)
        keep = np.gcd.reduce(absg, axis=1) == 1
        cap = _jacobi_cap(n, depth + 1, self.p.alpha, self.p.beta_cap)
        if cap is not None:
            keep &= absg.max(axis=1) <= cap
        if depth + 1 == n - 1 and self.p.require_zerofree:
            # these minors are the last inverse column, up to signs
            keep &= absg.min(axis=1) > 0
        return idx[keep], grown[keep]

    def _leaf_keep(self, absinv: np.ndarray) -> np.ndarray:
        """Which rows of inverse magnitudes pass the zero and beta-cap tests."""
        keep = np.ones(len(absinv), dtype=bool)
        if self.p.require_zerofree:
            keep &= absinv.min(axis=1) > 0
        if self.p.beta_cap is not None:
            keep &= absinv.max(axis=1) <= self.p.beta_cap
        return keep

    def _accept_batch(self, rows, ladder, idx, dets):
        """Final-depth acceptance for a whole candidate batch.

        `idx` indexes the batch's rows in the space and `dets` holds their
        determinants, all +-1.  The cheapest rejecting work runs first.
        Inverse column n-1 is the prefix's own minors, which _candidates has
        already checked.  Column n-2 is one product of the candidates with
        an n x n matrix built from the prefix.  When the search filters
        leaves (zerofree or a beta cap), that column is tested first and
        the batch is compacted to its survivors; the full inverse is then
        assembled for those only.
        """
        n = self.n
        cand = self.rows_arr[idx]
        if n > 1 and (self.p.require_zerofree or self.p.beta_cap is not None):
            keep = self._leaf_keep(np.abs(cand @ _cofactor_matrix(n, n - 2, ladder[n - 2])))
            if not keep.any():
                return
            cand, dets = cand[keep], dets[keep]
        self._accept_leaves(rows, ladder, cand, dets)

    def _accept_leaves(self, rows, ladder, cand, dets):
        """Assemble the inverse of every completion of `rows` by a row of
        `cand`, filter the leaves and record the kept ones.

        Every candidate shares the same first n-1 rows, so the inverses are
        assembled for all of them at once: bottom-block minor ladders are
        matmuls against the batch, and the top-block ladder is the shared
        prefix's, ladder[i] holding the i-column minors of rows[0..i-1].
        The determinants are +-1, so the inverse is kept up to their sign:
        every test and every stored beta reads its magnitudes.
        """
        n = self.n
        m = len(cand)
        # bots[i]: (n-1-i)-column minors of rows[i+1..n-1] per candidate, built
        # upwards from the empty block below the last row
        bots = [np.ones((m, 1), dtype=np.int64)]
        if n > 1:
            bots.append(cand)
        for i in range(n - 3, -1, -1):
            cols, tpos, pidx, sgn, s_next = _ext_table(n, n - 2 - i, True)
            v = np.zeros((bots[-1].shape[1], s_next), dtype=np.int64)
            v[pidx, tpos] = sgn * np.array(rows[i + 1], dtype=np.int64)[cols]
            bots.append(bots[-1] @ v)
        bots.reverse()
        inv = np.empty((m, n * n), dtype=np.int64)
        for i in range(n):
            inv[:, i::n] = bots[i] @ _cofactor_matrix(n, i, ladder[i])
        absinv = np.abs(inv)
        keep = self._leaf_keep(absinv)
        betas = absinv.max(axis=1)
        prefix = [x for row in rows for x in row]
        attained = np.maximum(np.abs(cand).max(axis=1), max(map(abs, prefix), default=0))
        if self.value_only:
            keep &= attained == self.p.alpha
            if not keep.any():
                return
            beta = int(betas[keep].max())
            if beta < self.best_beta:
                return
            if beta > self.best_beta:
                self.best_beta, self.tied = beta, []
            self.tied.extend(prefix + leaf for leaf in cand[keep & (betas == beta)].tolist())
            return
        kept = np.flatnonzero(keep)
        for pos in kept[self._canonical_children(rows, cand[kept])]:
            entries = tuple(prefix + cand[pos].tolist())
            self.found.setdefault((int(attained[pos]), int(betas[pos])), []).append(
                (entries, min(entries) > 0, int(dets[pos]))
            )

    def _base_mask(self, first: int | None) -> np.ndarray:
        """Rows the scan may take below a prefix with first row `first`.

        Each row of a canonical matrix has a column-move image, its rowmin,
        that may not come before the first row.  With no first row yet, the
        rows that may be first are those equal to their own rowmin.
        """
        if first is None:
            return self.packed == self.rowmin
        return self.rowmin >= self.packed[first]

    def _descend(
        self, rows, ladder, first: int | None, last: int, base_mask, stop_depth: int, sink
    ):
        """Search below `rows`, whose minor ladder is `ladder`.

        `first` and `last` index the first and last rows of `rows` in the
        space (None and 0 for the empty prefix), and `base_mask` is
        _base_mask(first).  A prefix of `stop_depth` rows goes to `sink` as
        (rows, ladder, first, last) instead of being searched.
        """
        if len(rows) == stop_depth:
            sink((rows, ladder, first, last))
            return
        idx, grown = self._candidates(rows, ladder[-1], base_mask, last)
        n = self.n
        if len(rows) + 1 == n:
            if len(idx):
                self._spend(len(idx))
                self._accept_batch(rows, ladder, idx, grown[:, 0])
            return
        cand = self.rows_arr[idx]
        canonical = self._canonical_children(rows, cand)
        for pos, row in enumerate(cand.tolist()):
            self._spend()
            if not canonical[pos]:
                continue
            i = int(idx[pos])
            if not rows:  # row i becomes the first row
                first, base_mask = i, self._base_mask(i)
            self._descend(
                rows + [tuple(row)], ladder + [grown[pos]], first, i, base_mask, stop_depth, sink
            )

    def run_prefixes(self, stop_depth: int):
        """Stage 1: every accepted prefix of `stop_depth` rows, in order.

        A prefix is (rows, minor ladder, index of the first row, index of the
        last row); run_subtree searches below it.
        """
        out = []
        empty = [np.ones(1, dtype=np.int64)]  # ladder of no rows: one empty minor
        self._descend([], empty, None, 0, self._base_mask(None), stop_depth, out.append)
        return out

    def run_subtree(self, rows, ladder, first, last):
        """Finish the search below one stored prefix."""
        self._descend(rows, ladder, first, last, self._base_mask(first), self.n + 1, None)

    def payload(self) -> dict:
        """This search's result as a JSON-ready work-unit record."""
        if self.value_only:
            return {"nodes": self.nodes, "beta": self.best_beta, "tied": self.tied}
        return {
            "nodes": self.nodes,
            "found": {
                f"{a},{b}": [[list(e), pos, det] for e, pos, det in hits]
                for (a, b), hits in self.found.items()
            },
        }


# --------------------------------------------------------------------------
# work units, checkpoints, merging


def _run_unit(params: _SearchParams, value_only: bool, prefix, budget) -> dict | None:
    """Search below one stored prefix and return the unit's payload.

    The single unit function of serial and pool runs; returns None once
    more than `budget` nodes are spent.
    """
    gen = _Generator(params, value_only)
    gen.budget = budget
    try:
        gen.run_subtree(*prefix)
    except _NodeBudget:
        return None
    return gen.payload()


@dataclass
class _RawResult:
    units: list[dict]  # payloads of the finished work units, in unit order
    nodes: int
    complete: bool


def _merge_units(unit_payloads) -> dict[tuple[int, int], list]:
    buckets: dict[tuple[int, int], list] = {}
    for payload in unit_payloads:
        for key, hits in payload["found"].items():
            a, b = (int(x) for x in key.split(","))
            dest = buckets.setdefault((a, b), [])
            for entries, positive, det in hits:
                dest.append((tuple(entries), bool(positive), int(det)))
    return buckets


def _merge_best(unit_payloads) -> tuple[int, list]:
    """Largest beta over value-only payloads, with its tied leaves in unit order."""
    best, tied = 0, []
    for payload in unit_payloads:
        if payload["beta"] > best:
            best, tied = payload["beta"], []
        if payload["beta"] == best:
            tied.extend(payload["tied"])
    return best, tied


def _run_search(
    params: _SearchParams,
    *,
    value_only: bool = False,
    thread_budget: int = 1,
    node_limit: int | None = None,
    checkpoint_path: str | None = None,
    resume: bool = False,
    stop_after_units: int | None = None,
) -> _RawResult:
    """Stage 1 lists the work units; stage 2 runs each one, serially or in a pool.

    A truncated search keeps the longest prefix of units, in unit order,
    whose nodes fit `node_limit`, so its result is the same for every
    worker count.  `value_only` selects the payload kind and is never part
    of a checkpoint query; only enumerations pass a checkpoint path.
    """
    gen = _Generator(params, value_only)
    gen.budget = node_limit
    try:
        prefixes = gen.run_prefixes(min(2, params.n - 1))
    except _NodeBudget:
        return _RawResult([], gen.nodes, False)

    cp = SearchCheckpoint(CHECKPOINT_VERSION, asdict(params), len(prefixes), {})
    if resume:
        if checkpoint_path is None:
            raise CheckpointError("resume requested without a checkpoint file")
        cp = load_checkpoint(checkpoint_path)
        if cp.query != asdict(params):
            raise CheckpointError("checkpoint belongs to a different query")
        if cp.total_units != len(prefixes):
            raise CheckpointError("checkpoint unit count disagrees with this search")
        if cp.torn_tail:
            # cut the torn last write, so the next record starts its own line
            os.truncate(checkpoint_path, os.path.getsize(checkpoint_path) - cp.torn_tail)
    elif checkpoint_path is not None:
        save_checkpoint(checkpoint_path, cp)
    completed = cp.completed

    todo = [i for i in range(len(prefixes)) if i not in completed][:stop_after_units]
    nodes = gen.nodes + sum(p["nodes"] for p in completed.values())

    def budget_left() -> int | None:
        return None if node_limit is None else node_limit - nodes

    # One ordered stream of payloads: a serial run computes each unit when
    # the loop asks for it, with the nodes left at that point; a pool gets
    # every unit at once, with the nodes left at submission.
    pool = ProcessPoolExecutor(max_workers=thread_budget) if thread_budget > 1 else None
    try:
        if pool is None:
            payloads = (
                _run_unit(params, value_only, prefixes[i], budget_left()) for i in todo
            )
        else:
            futures = [
                pool.submit(_run_unit, params, value_only, prefixes[i], budget_left())
                for i in todo
            ]
            payloads = (fut.result() for fut in futures)
        for index, payload in zip(todo, payloads):
            left = budget_left()
            if payload is None or (left is not None and payload["nodes"] > left):
                break
            completed[index] = payload
            nodes += payload["nodes"]
            if checkpoint_path is not None:
                save_checkpoint(checkpoint_path, cp, index)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    complete = len(completed) == len(prefixes)
    return _RawResult([completed[i] for i in sorted(completed)], nodes, complete)


# --------------------------------------------------------------------------
# public operations


def _gate(query: ClassQuery) -> None:
    if query.tier >= 3 and not query.long_run and query.node_limit is None:
        raise TierGateError(
            f"query {query.n=} {query.alpha=} {query.beta=} is long-running; "
            "set long_run=True (--long-run) or provide a node_limit"
        )


def _classes_from_bucket(n: int, hits) -> list[CanonicalClass]:
    out = []
    for (a, b), entries, positive, det in hits:
        rep = IntMatrix(n, entries)
        out.append(CanonicalClass(rep, ClassStats(a, b, det, positive)))
    return out


def _select(buckets, alpha: int, beta_lo: int, beta_hi: int):
    hits = []
    for (a, b), items in buckets.items():
        if a == alpha and beta_lo <= b <= beta_hi:
            for entries, positive, det in items:
                hits.append(((a, b), entries, positive, det))
    hits.sort(key=lambda h: [entry_key(x) for x in h[1]])
    return hits


def _search_classes(q: ClassQuery, **run):
    """The one enumeration search: gate, run and bucket `q`.

    Returns the hits attaining (q.alpha, beta in q's range) in ascending
    structural order, with the raw search result.  `run` passes checkpoint
    and stop arguments through to _run_search.
    """
    _gate(q)
    lo, hi = q.beta_range
    params = _SearchParams(
        n=q.n,
        alpha=q.alpha,
        beta_cap=hi,
        zeros_allowed=False,
        positive_only=q.positive_only,
        require_zerofree=True,
    )
    raw = _run_search(
        params,
        thread_budget=q.thread_budget or default_thread_budget(),
        node_limit=q.node_limit,
        **run,
    )
    return _select(_merge_units(raw.units), q.alpha, lo, hi), raw


def _count_by_beta(hits, lo: int, hi: int) -> dict[int, list[int]]:
    """[class count, positive count] for every beta in lo..hi."""
    counts = {beta: [0, 0] for beta in range(lo, hi + 1)}
    for (_, beta), _, positive, _ in hits:
        counts[beta][0] += 1
        counts[beta][1] += positive
    return counts


def enumerate_classes(
    q: ClassQuery,
    *,
    checkpoint_path: str | None = None,
    resume: bool = False,
    _stop_after_units: int | None = None,
) -> EnumerationResult:
    """All equivalence classes whose attained (alpha, beta) match the query.

    The engine enumerates with entries bounded by q.alpha and buckets by the
    attained maxima afterwards, so a range query costs one search.  Matrices
    are returned as canonical representatives in ascending structural order
    of their flattenings.

    A search stopped by q.node_limit keeps the longest prefix of its work
    units, in unit order, whose nodes fit the limit, and reports
    complete=False; its classes and nodes_explored are the same for every
    thread budget.
    """
    start = time.perf_counter()
    hits, raw = _search_classes(
        q, checkpoint_path=checkpoint_path, resume=resume, stop_after_units=_stop_after_units
    )
    positive_count = sum(1 for h in hits if h[2])
    classes = () if q.count_only else tuple(_classes_from_bucket(q.n, hits))
    return EnumerationResult(
        query=q,
        classes=classes,
        total_count=len(hits),
        positive_count=positive_count,
        nodes_explored=raw.nodes,
        wall_time=time.perf_counter() - start,
        complete=raw.complete,
    )


def sequence_scan(
    n: int,
    alpha: int,
    beta_range: tuple[int, int],
    *,
    positive_only: bool = False,
    thread_budget: int | None = None,
    node_limit: int | None = None,
    long_run: bool = False,
) -> list[tuple[int, int, int]]:
    """(beta, class count, positive count) for every beta in the range.

    Zero counts are reported as rows too; the whole scan is one enumeration.
    """
    lo, hi = beta_range
    q = ClassQuery(
        n=n,
        alpha=alpha,
        beta=(lo, hi),
        positive_only=positive_only,
        thread_budget=thread_budget,
        node_limit=node_limit,
        long_run=long_run,
    )
    hits, raw = _search_classes(q)
    if not raw.complete:
        raise IncompleteSearchError("scan hit its node limit; counts would be wrong")
    return [(beta, count, pos) for beta, (count, pos) in _count_by_beta(hits, lo, hi).items()]


@dataclass(frozen=True)
class MaxBetaResult:
    n: int
    alpha: int
    mode: str
    beta_max: int
    witness: IntMatrix
    certified: bool
    nodes_explored: int


def max_beta_search(
    n: int,
    alpha: int,
    mode: str = "zerofree",
    *,
    best_effort: bool = False,
    node_limit: int | None = None,
    thread_budget: int | None = None,
) -> MaxBetaResult:
    """Largest inverse-entry magnitude over matrices with max |entry| = alpha.

    zerofree mode ranges over unimodular zerofree matrices; unrestricted mode
    ranges over all unimodular matrices (zero entries permitted in both the
    matrix and its inverse).  For n <= 5 the search is exhaustive and the
    result certified; larger n requires best_effort=True plus a node limit,
    and the answer is then only a lower bound.

    The witness is the structurally smallest canonical maximiser in the
    engine's zero-first order 0 < 1 < 2 < ... < -1 < -2 < ..., which is the
    first canonical maximiser in search order.  The search tests
    canonicality only on prefixes, then once more on the winning leaves.
    """
    if mode not in ("zerofree", "unrestricted"):
        raise ValueError("mode must be 'zerofree' or 'unrestricted'")
    _check_search_regime(n, alpha, thread_budget, node_limit)
    if n > 5:
        if not best_effort:
            raise TierGateError(
                "exhaustive certification is limited to n <= 5; "
                "pass best_effort=True for a lower-bound search"
            )
        if node_limit is None:
            raise TierGateError("best-effort search requires a node_limit")
    params = _SearchParams(
        n=n,
        alpha=alpha,
        beta_cap=None,
        zeros_allowed=(mode == "unrestricted"),
        positive_only=False,
        require_zerofree=(mode == "zerofree"),
    )
    raw = _run_search(
        params,
        value_only=True,
        thread_budget=thread_budget or default_thread_budget(),
        node_limit=node_limit,
    )
    beta_max, tied = _merge_best(raw.units)
    if not raw.complete and (not beta_max or not best_effort):
        raise IncompleteSearchError("search stopped early; rerun with a larger budget")
    if not beta_max:
        raise ValueError(f"no unimodular matrix attains max |entry| = {alpha} for n = {n}")
    # A leaf's canonical form is a leaf of the same or an earlier unit, and the
    # finished units are a prefix of the unit order, so the smallest tied leaf
    # is canonical: the first test passes.
    for leaf in tied:
        if _is_canonical(leaf, n):
            break
    else:
        raise RuntimeError("no tied leaf passed the canonicality test")
    return MaxBetaResult(
        n=n,
        alpha=alpha,
        mode=mode,
        beta_max=beta_max,
        witness=IntMatrix(n, tuple(leaf)),
        certified=raw.complete and n <= 5,
        nodes_explored=raw.nodes,
    )


_CONJECTURES = {
    1: (3, 2, (2, 4)),
    2: (4, 2, (3, 3)),
    3: (5, 2, (2, 2)),
}


@dataclass(frozen=True)
class ConjectureReport:
    conjecture_id: int
    cases: tuple[tuple[int, int, int, int], ...]  # (n, alpha, beta, count)
    nodes_explored: int
    complete: bool
    confirmed: bool


def verify_conjecture(conjecture_id: int, *, thread_budget: int | None = None) -> ConjectureReport:
    """Exhaustively confirm one of the three emptiness statements.

    1: no 3x3 classes with alpha = 2 and beta in 2..4
    2: no 4x4 classes with alpha = 2 and beta = 3
    3: no 5x5 classes with alpha = beta = 2

    Raises IncompleteSearchError rather than ever reporting a truncated
    search as confirmed.
    """
    if conjecture_id not in _CONJECTURES:
        raise ValueError(
            "conjecture id must be 1, 2 or 3 (the 6x6 alpha=beta=3 statement "
            "is reachable through a long-run enumeration instead)"
        )
    n, alpha, (lo, hi) = _CONJECTURES[conjecture_id]
    q = ClassQuery(n, alpha, (lo, hi), thread_budget=thread_budget, long_run=True)
    hits, raw = _search_classes(q)
    if not raw.complete:
        raise IncompleteSearchError("conjecture search did not run to completion")
    cases = [
        (n, alpha, beta, count) for beta, (count, _) in _count_by_beta(hits, lo, hi).items()
    ]
    confirmed = all(c[3] == 0 for c in cases)
    return ConjectureReport(
        conjecture_id=conjecture_id,
        cases=tuple(cases),
        nodes_explored=raw.nodes,
        complete=True,
        confirmed=confirmed,
    )
