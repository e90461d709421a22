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

The children of every prefix that pass the minor filters (_candidates),
at every depth and in both stages, pass one child filter
(_Generator._survivors): the bound of a value-only search where the
children hold n-1 rows, then the canonicality test
(canonical.canonical_children), one vectorized verdict that reads the
prefix's tie record for every candidate next row; only the children whose
image ties with a prefix row continue the prefix's level search.  Tie
records travel down the descent: a prefix carries its parent's record, and
its own is derived from it (_Generator._ties, by canonical.extend_ties)
only when some child is left to test.  The empty prefix's record is a
search's one prefix level search from scratch.

A finished matrix is accepted only if it equals its own canonical form,
so every class is emitted exactly once, as its representative, with no
global duplicate set.  minimize_rows tests the whole matrix
(_Generator._record), as it tests max-beta's witness: a prefix of n-1 rows
has too few leaves to pay for a tie record.  Candidate rows are scanned in
structural order, which makes the output stream sorted by flattening and
bit-identical across thread budgets and checkpoint splits.

The last two rows of each prefix of n-2 rows are finished in one batch
(_Generator._accept_batch), which gets only the children the filter kept,
by expanding det(prefix; y; x) along y's row:
det = y . z(x), with z(x) the cofactors of that row, minors of the prefix
and x alone.  z is linear in x, and its kernel is the span of the prefix,
so many candidate last rows share one z.  By Jacobi's complementary-minor
identity z is inverse column n-2 times det, so it lies in the plane
orthogonal to the prefix rows, where its entries (z_i, z_j) at the two
columns outside a nonzero (n-2)-minor of the prefix already determine it.
The column order rides in the same key: when some child y repeats a pair
of columns on which the prefix agrees, each row's in-order bits on those
pairs follow (z_i, z_j), so every group is uniform in them.  One sort of
(z_i, z_j, bits, row) words groups the rows, one float64 product of the
children with the groups' z gives every determinant, and a child's nodes
are summed over the groups it hits: determinant +-1 and the bits it needs.
Inverse column n-2 is tested once per group.  Only the completions in
groups that pass it are expanded, and they get the rest of the inverse.
Every product and every expansion is cut into chunks of at most _CELLS
cells.  A work unit that already holds n-1 rows (n <= 3) is finished as
the one kept child of its prefix.  Every product sums integers far below
2^53 (see _space), so float64 arithmetic is exact, and numpy's float64
products run in BLAS, which its int64 products do not.

A prefix carries its minor ladder: ladder[i] holds the i-column minors of
its first i rows, one per column subset in itertools.combinations order.
Every minor, determinant and cofactor the engine computes is a generalized
Laplace expansion of a stacked block, and every expansion's terms and signs
come from one table, _laplace.  A stored work unit keeps its rows, the
space indices of its first and last rows and its parent's tie record
(None only for the empty prefix, n = 1's one unit); its ladder is rebuilt
when the unit is searched (_ladder), and its record is derived there when
it has children to test.

A search with no beta cap is value-only (the largest inverse entry).  It
tests canonicality on prefixes only: duplicates cannot change a maximum, so
the leaves of each child of a final-depth batch are reduced to their
largest beta and the leaves attaining it, bucketed like enumeration leaves,
and only the running best's bucket is kept; the winning leaf is tested at
the end.  Value-only searches also branch and bound, below prefixes of n-2
rows only.  There every inverse entry of a completion is linear in the last
row x once the next row is fixed, so its largest magnitude over the box
[-alpha, alpha]^n is alpha times the 1-norm of its coefficients
(_beta_reach, from the prefix forms built once, which the batch reuses).
The child filter drops every child strictly below the running best, which
starts at the search's floor (_SearchParams.floor), and tests canonicality
on the children left only.  Both tests are per child against the best at
the start, so their order changes no survivor, and ties survive, so the
answer and its witness do not change.

The structural order of candidate rows is the zero-first order of
canonical.entry_key, at the width the entry bound alpha needs; see the
canonical module docstring.

Every search is the same descent from the empty prefix, run in two stages.
Stage 1 descends to the accepted prefixes of min(2, n-1) rows, which are
the work units; stage 2 finishes the descent below each unit.  The first
row is chosen by the same filters as every later row, so at n = 1 the
empty prefix is the one work unit.  At n = 2 and 3 a unit holds n-1 rows,
and stage 1 keeps it by the same child filter, so a value-only search
never stores a unit whose bound is below the floor.
"""

from __future__ import annotations

import itertools
import json
import operator
import os
import re
import tempfile
import time
from contextlib import closing, nullcontext
from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import comb, factorial

import numpy as np

from .canonical import (
    CanonicalClass,
    canonical_children,
    entry_key,
    extend_ties,
    key_big,
    minimize_rows,
    pack_keys,
    prefix_ties,
)
from .matrix import ClassStats, IntMatrix, RegimeError, det

# A candidate row packs its n keys into one int64: at most 8 bits a key for
# alpha <= 64, so 7 keys (56 bits) fit and 8 would not.
MAX_SEARCH_DIM = 7
MAX_SEARCH_ALPHA = 64
_MAX_SPACE = 5_000_000  # candidate rows per level; positions beyond this are hopeless anyway
_CELLS = 1 << 15  # cells per final-depth product or expansion chunk

CHECKPOINT_VERSION = 2

_ENV_THREADS = "ZEROFREE_THREADS"


class TierGateError(ValueError):
    """Long-running query issued without the long-run flag or a node limit."""


class IncompleteSearchError(RuntimeError):
    """A search that must be exhaustive stopped before exploring everything."""


class CheckpointError(ValueError):
    """Checkpoint file is malformed or belongs to a different query."""


def default_thread_budget() -> int:
    """The worker count ZEROFREE_THREADS sets: 1 when it is unset or empty."""
    value = os.environ.get(_ENV_THREADS, "").strip()
    if not value:
        return 1
    if not value.isdecimal() or int(value) < 1:
        raise ValueError(f"{_ENV_THREADS} must be a positive integer, not {value!r}")
    return int(value)


def _check_search_regime(
    n: int, alpha: int, thread_budget: int | None, node_limit: int | None
) -> tuple[int, int, int | None, int | None]:
    """Limits every search shares: dimension, entry bound, workers, node limit.

    Returns the four as ints (operator.index): numpy integers are converted
    and floats raise TypeError.
    """
    n, alpha = operator.index(n), operator.index(alpha)
    thread_budget, node_limit = (
        None if v is None else operator.index(v) for v in (thread_budget, node_limit)
    )
    if not 1 <= n <= MAX_SEARCH_DIM:
        raise RegimeError(f"search supports 1 <= n <= {MAX_SEARCH_DIM}")
    if not 1 <= alpha <= MAX_SEARCH_ALPHA:
        raise RegimeError(f"alpha must be within 1..{MAX_SEARCH_ALPHA}")
    if thread_budget is not None and thread_budget < 1:
        raise ValueError("thread_budget must be positive")
    if node_limit is not None and node_limit < 1:
        raise ValueError("node_limit must be positive")
    return n, alpha, thread_budget, node_limit


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
    is the same for every `thread_budget`, in a fresh or a resumed run.

    Every number is stored as an int (operator.index): numpy integers are
    converted and floats raise TypeError.
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
        checked = _check_search_regime(self.n, self.alpha, self.thread_budget, self.node_limit)
        if isinstance(self.beta, tuple):
            beta = tuple(map(operator.index, self.beta))
        else:
            beta = operator.index(self.beta)
        names = ("n", "alpha", "thread_budget", "node_limit", "beta")
        for name, value in zip(names, (*checked, beta)):
            object.__setattr__(self, name, value)
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
    records one finished unit as an object of exactly three keys: its
    index, its payload and a sha256 digest of both.  A search writes the
    header, then keeps the journal open and appends and flushes one line
    per finished unit, in unit order, so a journal is a prefix of the unit
    order: record k must be unit k, below total_units, and `completed`
    maps units 0..k-1 to their payloads in that order.  A torn write leaves
    one torn last line: text after the last newline, or else a last line
    that is not JSON.  from_json drops it and counts its characters in
    `torn_tail`.  Any other malformed line, a digest mismatch or a unit out
    of order is an error, and so is a leaf that cannot be a leaf of the
    header's query, its recorded determinant included; a resume then
    requires that query to be its own.
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
            or not _is_query(header["query"])
            or type(header["total_units"]) is not int
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
            if not isinstance(record, dict) or set(record) != {"digest", "index", "payload"}:
                raise CheckpointError(f"malformed checkpoint line {lineno}")
            index, payload = record["index"], record["payload"]
            if record["digest"] != _record_text(index, payload)[0]:
                raise CheckpointError(
                    f"checkpoint digest mismatch on line {lineno} (file corrupted?)"
                )
            if type(index) is not int or not _is_payload(payload):
                raise CheckpointError(f"malformed work unit on checkpoint line {lineno}")
            if index != len(cp.completed) or index >= cp.total_units:
                raise CheckpointError(f"checkpoint unit {index} out of unit order on line {lineno}")
            if not all(_are_leaves(cp.query, key, hits) for key, hits in payload["found"].items()):
                raise CheckpointError(
                    f"checkpoint unit {index} on line {lineno} holds a leaf its query cannot have"
                )
            cp.completed[index] = payload
        return cp


def _is_query(query) -> bool:
    """Whether a header's query has the keys and value types that
    _SearchParams.query writes."""
    ints, flags = ("n", "alpha"), ("positive_only", "zeros_allowed", "require_zerofree")
    return (
        isinstance(query, dict)
        and set(query) == {*ints, "beta_cap", *flags}
        and all(type(query[k]) is int for k in ints)
        and type(query["beta_cap"]) in (int, type(None))
        and all(type(query[k]) is bool for k in flags)
    )


def _is_payload(payload) -> bool:
    """Whether a journaled payload has a work unit's form: {"nodes": a
    count, "found": {"alpha,beta": [[entries, positive, det], ...]}}, with
    int entries and det +-1.  The digest is plain sha256, which any writer
    can match, so only this check keeps a malformed record out."""
    if not isinstance(payload, dict) or set(payload) != {"nodes", "found"}:
        return False
    nodes, found = payload["nodes"], payload["found"]
    if type(nodes) is not int or nodes < 0 or not isinstance(found, dict):
        return False
    return all(
        re.fullmatch(r"[0-9]+,[0-9]+", key) and isinstance(hits, list) and all(map(_is_hit, hits))
        for key, hits in found.items()
    )


def _is_hit(hit) -> bool:
    """Whether `hit` is [list of ints, bool, +-1]."""
    if not isinstance(hit, list) or len(hit) != 3:
        return False
    entries, positive, sign = hit
    return (
        isinstance(entries, list)
        and all(type(x) is int for x in entries)
        and type(positive) is bool
        and type(sign) is int
        and sign in (1, -1)
    )


def _are_leaves(query: dict, key: str, hits: list) -> bool:
    """Whether bucket `key` ("alpha,beta") of a work unit's form can hold
    `hits` as leaves of `query`: the bucket's beta within 1..beta_cap, and
    each hit n*n entries within alpha, nonzero unless zeros are allowed and
    none negative under positive_only, with the bucket's alpha their largest
    magnitude, `positive` telling whether every entry is positive, and its
    recorded det the matrix's determinant (matrix.det).  No inverse is
    taken, so a resume stays cheap."""
    a, b = map(int, key.split(","))
    n, alpha, cap = query["n"], query["alpha"], query["beta_cap"]
    low = 0 if query["positive_only"] else -alpha
    return (1 <= b and (cap is None or b <= cap)) and all(
        0 < len(entries) == n * n
        and all((x or query["zeros_allowed"]) and low <= x <= alpha for x in entries)
        and max(map(abs, entries)) == a
        and positive == (min(entries) > 0)
        and det(IntMatrix(n, tuple(entries))) == d
        for entries, positive, d in hits
    )


def _record_text(index, payload) -> tuple[str, str]:
    """(digest, body) of one unit's record: body is the text of its index
    and payload, serialized once, as json.dumps(..., sort_keys=True) writes
    them inside an object, and the digest is the sha256 of {body}."""
    # imported here: hashlib loads OpenSSL (about 3.5 MB resident), which
    # only searches that read or write a checkpoint need
    import hashlib

    body = f'"index": {json.dumps(index)}, "payload": {json.dumps(payload, sort_keys=True)}'
    return hashlib.sha256(f"{{{body}}}".encode()).hexdigest(), body


def _unit_line(index: int, payload: dict) -> str:
    digest, body = _record_text(index, payload)
    return f'{{"digest": "{digest}", {body}}}\n'


def save_checkpoint(path: str, cp: SearchCheckpoint) -> None:
    """Replace the file at `path` with the whole journal of `cp`, atomically:
    temp file in the same directory, then rename.  A search writes this once,
    the header of a fresh journal, and appends each finished unit's record
    through its own open handle (_run_search).
    """
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

    Returns (cols, keys, packed, rowmin): the rows as the columns of a
    float64 array, the operand of every minor product, their entry keys at
    the width alpha needs, each row's keys read as one number (its
    structural rank), and rowmin[i], which packs the sorted magnitudes of
    row i, the least image of that row under column moves.  A canonical
    matrix's first row packs to at most the rowmin of each of its rows.
    Every product of the search is a Laplace expansion of a minor of at
    most n rows of entries within alpha, so its terms sum to at most
    n! * alpha^n in magnitude, below 2^53 for every admitted space: float64
    arithmetic is exact.
    """
    admitted = range(0 if positive_only else -alpha, alpha + 1)
    values = sorted((v for v in admitted if v or zeros_allowed), key=entry_key)
    if len(values) ** n > _MAX_SPACE:
        raise RegimeError(
            f"candidate space {len(values)}^{n} is too large to enumerate"
        )
    # every row over `values`, column 0 varying slowest: `values` ascends in
    # the structural order of entry_key, so the rows come out in that order
    k = len(values)
    cols = np.empty((n, k**n))
    for c in range(n):
        cols[c] = np.tile(np.repeat(values, k ** (n - 1 - c)), k**c)
    # a magnitude is its own key; one sorted copy is the only n-wide temporary
    big = key_big(alpha)
    mags = cols.T.astype(np.int64, order="C")
    np.abs(mags, out=mags)
    mags.sort(axis=1)
    rowmin = pack_keys(mags, big)
    del mags
    # the keys are built one column at a time; a key is below 2 * big <= 256
    keys = np.empty((k**n, n), dtype=np.int16)
    for c in range(n):
        keys[:, c] = entry_key(cols[c], big)
    return cols, keys, pack_keys(keys, big), rowmin


@lru_cache(maxsize=128)
def _laplace(n: int, a: int, b: int):
    """The generalized Laplace expansion of an a-row block stacked on a
    b-row block, over the column subsets of range(n).

    Returns arrays (top, bottom, full, sign), one element per term: each
    (a+b)-column minor of the stacked block, index `full`, is the sum of
    sign * (a-column minor `top` of the top block) * (b-column minor
    `bottom` of the bottom block) over its terms.  A subset's index is its
    place in itertools.combinations order.  The sign is the shuffle sign
    (-1)^(sum of the positions of the top's columns in the full subset
    - a(a-1)/2).  No (full, top) or (full, bottom) pair repeats.
    """
    index = {
        size: {T: t for t, T in enumerate(itertools.combinations(range(n), size))}
        for size in (a, b)
    }
    terms = []
    for full, cols in enumerate(itertools.combinations(range(n), a + b)):
        for pos in itertools.combinations(range(a + b), a):
            top = tuple(cols[p] for p in pos)
            bottom = tuple(c for c in cols if c not in top)
            shuffle = sum(pos) - a * (a - 1) // 2
            terms.append((index[a][top], index[b][bottom], full, -1 if shuffle % 2 else 1))
    return tuple(np.array(column, dtype=np.int64) for column in zip(*terms))


def _grow_minors(n: int, k: int, minors: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Minors of all (k+1)-column subsets for every candidate next row, one
    row of the result per subset; `cols` holds the rows as columns, a
    gathered set of candidates or a contiguous slice of the space.

    Each (k+1)-column minor is a signed combination of the parent k-column
    minors, one term per column of the appended row.
    """
    top, bottom, full, sign = _laplace(n, k, 1)
    w = np.zeros((comb(n, k + 1), n), dtype=np.int64)
    w[full, bottom] = sign * minors[top]
    return w @ cols


def _ladder(n: int, rows) -> list[np.ndarray]:
    """The minor ladder of `rows`, grown one row at a time from the one
    empty minor of no rows."""
    ladder = [np.ones(1, dtype=np.int64)]
    for k, row in enumerate(rows):
        ladder.append(_grow_minors(n, k, ladder[-1], np.array(row, dtype=np.int64)))
    return ladder


def _jacobi_cap(n: int, depth: int, alpha: int, beta_cap: int | None) -> int | None:
    """Bound on depth x depth minors implied by a capped inverse, if useful."""
    if beta_cap is None or depth >= n:
        return None
    bound = factorial(n - depth) * beta_cap ** (n - depth)
    natural = factorial(depth) * alpha**depth
    return bound if bound < natural else None


@lru_cache(maxsize=64)
def _cofactor_terms(n: int, i: int):
    """_laplace terms for the cofactors of row i, as (top, bottom, j, sign).

    Deleting row i and column j leaves the i rows above row i stacked on
    the n-1-i rows below it, over the columns other than j: the (n-1)-subset
    with index n-1-j.  Its expansion, times (-1)^(i+j), is cofactor (i, j).
    """
    top, bottom, full, sign = _laplace(n, i, n - 1 - i)
    j = n - 1 - full
    return top, bottom, j, np.where((i + j) % 2, -sign, sign)


def _cofactor_matrix(n: int, i: int, top_minors: np.ndarray) -> np.ndarray:
    """Maps the (n-1-i)-column minors of the rows below row i to the
    cofactors of row i, given the i-column minors of the rows above it."""
    top, bottom, j, sign = _cofactor_terms(n, i)
    out = np.zeros((comb(n, n - 1 - i), n), dtype=np.int64)
    out[bottom, j] = sign * top_minors[top]
    return out


def _prepend_row(n: int, k: int, row) -> np.ndarray:
    """Maps the k-column minors of a block to the (k+1)-column minors of the
    block with `row` prepended."""
    top, bottom, full, sign = _laplace(n, 1, k)
    v = np.zeros((comb(n, k), comb(n, k + 1)), dtype=np.int64)
    v[bottom, full] = sign * np.asarray(row, dtype=np.int64)[top]
    return v


@lru_cache(maxsize=16)
def _pair_minors(n: int) -> np.ndarray:
    """The 2-column minors of two rows (y, x) as a bilinear form: row
    a*n + b holds the coefficient of y[a]*x[b] in each minor."""
    top, bottom, full, sign = _laplace(n, 1, 1)
    out = np.zeros((n * n, comb(n, 2)), dtype=np.int64)
    out[top * n + bottom, full] = sign
    return out


@lru_cache(maxsize=64)
def _key_columns(n: int, subset: int) -> tuple[int, int]:
    """The two columns outside the (n-2)-column subset with index `subset`.

    When that subset's minor of n-2 rows P is nonzero, (z_i, z_j) at these
    columns determines every z orthogonal to P's rows: z_i = z_j = 0 leaves
    P's nonsingular block times the rest of z equal to zero.  The cofactors
    of row n-2 of P + [y] + [x] are such a z (Jacobi's complementary-minor
    identity makes them inverse column n-2 times det).
    """
    inside = next(itertools.islice(itertools.combinations(range(n), n - 2), subset, None))
    return tuple(c for c in range(n) if c not in inside)


def _zmap(n: int, ladder) -> np.ndarray:
    """Maps a last row x to z(x), the cofactors of row n-2 of prefix + [y] +
    [x] for any y, from ladder[n-2], the minors of the prefix's n-2 rows:
    inverse column n-2 times det."""
    return _cofactor_matrix(n, n - 2, ladder[n - 2]).T


def _pair_forms(n: int, rows, ladder) -> np.ndarray:
    """Bilinear forms of the cofactors of rows 0..n-3 of rows + [y] + [x].

    `rows` holds n-2 rows with minor ladder `ladder`.  Row a*n + b of the
    result holds the coefficients of y[a]*x[b].  The 2-column minors of
    (y, x), pushed up one prefix row at a time, give the minors of the rows
    below each row i, which _cofactor_matrix turns into the cofactors of
    row i.  Column i*n + j is cofactor j of row i, which is inverse entry
    (j, i) times det.
    """
    block = _pair_minors(n)
    forms = np.empty((n * n, n * (n - 2)), dtype=np.int64)
    for i in range(n - 3, -1, -1):
        if i < n - 3:
            block = block @ _prepend_row(n, n - 2 - i, rows[i + 1])
        forms[:, i * n : (i + 1) * n] = block @ _cofactor_matrix(n, i, ladder[i])
    return forms


def _beta_reach(alpha: int, zmap, forms, cand: np.ndarray, grown: np.ndarray) -> np.ndarray:
    """Upper bound on beta over every completion of prefix + [y] + [x], for
    each child y, a row of `cand`, and any last row x in [-alpha, alpha]^n.

    `zmap` and `forms` are the prefix's forms from _Generator._survivors,
    the bound's one caller.  Inverse column n-2 times det is zmap @ x, shared
    by every child; columns 0..n-3 are bilinear in (y, x) (`forms`, row
    i*n + j for entry (j, i)); column n-1 is `grown`, each child's
    (n-1)-column minors, up to sign.  One float64 product of `cand` gives
    every child's coefficients of x.  The largest |c . x| over the box is
    alpha * ||c||_1.

    float64 is exact: a coefficient c is a minor of n-2 rows (n-3 prefix
    rows and y), each partial sum of the product is at most n (n-3)!
    alpha^(n-2) in magnitude, ||c||_1 at most n (n-2)! alpha^(n-2), and
    alpha * ||c||_1 at most n (n-2)! alpha^(n-1): all integers below the
    n! alpha^n that every admitted space keeps below 2^53 (see _space).
    """
    m, n = cand.shape
    shared = alpha * np.abs(zmap).sum(axis=1).max()
    coef = forms.reshape(-1, n, n).transpose(1, 0, 2).reshape(n, -1).astype(float)
    coef = np.abs(cand.astype(float) @ coef)
    bilinear = alpha * coef.reshape(m, -1, n).sum(axis=2).max(axis=1, initial=0)
    return np.maximum(np.abs(grown).max(axis=1), np.maximum(bilinear, shared))


# --------------------------------------------------------------------------
# the depth-first generator


@dataclass
class _SearchParams:
    """One search, all a work unit's payload depends on: a zerofree search
    admits no zero entry in the matrix or its inverse, and a value-only
    search (no beta cap) starts its running best at `floor`."""

    n: int
    alpha: int
    beta_cap: int | None
    zerofree: bool
    positive_only: bool = False
    floor: int = 0

    def space_key(self):
        return (self.n, self.alpha, not self.zerofree, self.positive_only)

    def query(self) -> dict:
        """The journal header's query, in the keys of format version 2.

        `floor` is left out: only enumerations keep a journal, and their
        floor is 0.
        """
        return {
            "n": self.n,
            "alpha": self.alpha,
            "beta_cap": self.beta_cap,
            "positive_only": self.positive_only,
            "zeros_allowed": not self.zerofree,
            "require_zerofree": self.zerofree,
        }


class _NodeBudget(Exception):
    pass


def _agreeing(rows, n: int) -> list[int]:
    """The columns c < n-1 that agree with column c+1 on every row of
    `rows`: a canonical matrix keeps each such pair in structural order."""
    cols = list(zip(*rows)) or [()] * n  # no rows: every pair agrees
    return [c for c in range(n - 1) if cols[c] == cols[c + 1]]


class _Generator:
    """Depth-first orderly search.

    Kept leaves go into `found`, bucketed under "alpha,beta" by their
    attained maxima, as [entries, positive, det] in search order: the form
    of a work unit's payload.  An enumeration keeps its canonical leaves.
    A value-only search (no beta cap) keeps the leaves that attain alpha
    and `best_beta`, the largest beta met so far: its bucket is the only
    one.  `best_beta` starts at the search's `floor`, a beta some leaf of
    the search is known to reach, and children whose bound is below it are
    skipped.  More than `budget` nodes raise _NodeBudget.
    """

    def __init__(self, params: _SearchParams, budget: int | None = None):
        self.p = params
        self.n = params.n
        self.cols, self.keys_arr, self.packed, self.rowmin = _space(*params.space_key())
        self.big = key_big(params.alpha)
        self.nodes = 0
        self.budget = budget
        self.found: dict[str, list] = {}
        self.best_beta = params.floor

    def _ties(self, rows, parent):
        """The tie record of `rows`, derived from `parent`, its parent's
        record.  A parent of None means a search from scratch, which the
        engine runs for the empty prefix alone."""
        if parent is None:
            return prefix_ties(rows, self.n, self.big)
        return extend_ties(parent, rows[-1])

    def _survivors(self, rows, ladder, cand, grown, parent):
        """The one child filter: which children rows + [y] of a prefix the
        search keeps, y a row of `cand` with minors `grown`; `ladder` is the
        prefix's minor ladder and `parent` its parent's tie record.

        First, where the children hold n-1 rows, a value-only search bounds
        them: _beta_reach, from the prefix's forms built here, drops every
        child strictly below the running best.  Then, only if some child is
        left, the prefix's tie record is derived (_ties) and canonicality is
        tested on the children left (canonical_children).  Both are per-child
        tests against the best at the start, so their order changes no
        survivor.

        Returns (keep, ties, bound): `ties` is the prefix's record, None when
        no child is left, and `bound` is None unless the bound ran, and then
        (reach, zmap, forms): the kept children's bounds and the prefix's
        _zmap and _pair_forms, which _accept_batch reuses.
        """
        n, keep, ties, reach = self.n, np.ones(len(cand), dtype=bool), None, None
        if len(rows) + 2 == n and self.p.beta_cap is None:
            zmap, forms = _zmap(n, ladder), _pair_forms(n, rows, ladder).T
            reach = _beta_reach(self.p.alpha, zmap, forms, cand, grown)
            keep = reach >= self.best_beta
        if keep.any():
            ties = self._ties(rows, parent)
            keep[keep] = canonical_children(ties, cand[keep])
        return keep, ties, None if reach is None else (reach[keep], zmap, forms)

    def _rows(self, idx) -> np.ndarray:
        """Rows idx of the space, as integers."""
        return np.take(self.cols, idx, axis=1).T.astype(np.int64)

    def _in_order(self, at, c: int) -> np.ndarray:
        """Whether rows `at` of the space keep columns c, c+1 in structural
        order."""
        return self.keys_arr[at, c] <= self.keys_arr[at, c + 1]

    def _spend(self, count: int = 1):
        if self.budget is not None and self.nodes + count > self.budget:
            raise _NodeBudget
        self.nodes += count

    def _candidates(self, rows, minors: np.ndarray, base_mask, start: int):
        """Vectorized filters below an interior prefix; returns (indices,
        minors per candidate).

        Rows of a canonical matrix are structurally nondecreasing (swapping
        two adjacent rows is a group move), so the scan starts at the
        previous row, index `start` of the sorted space.  Columns that agree
        on every filled row must stay in structural order (_in_order, one
        mask per pair).  The minors come from one (subsets x rows) float64
        product, so each test folds across whole contiguous rows of it.

        The cheapest test runs before any gather.  At a depth with a Jacobi
        cap or the zero test, which keep few rows, the product runs on the
        whole contiguous slice, the cap and zero tests join the masks, and
        only the minors of the rows that pass all of them are gathered; the
        slice's rows are rows of the space, so the product stays exact (see
        _space).  At any other depth nothing tests the minors before the
        gcd, so the masked rows are gathered first and the product runs on
        them alone: a product over the slice would cost time and memory for
        rows the masks drop.  The gcd is taken last, on the rows left.
        """
        n = self.n
        depth = len(rows)
        mask = base_mask[start:].copy()
        for c in _agreeing(rows, n):
            mask &= self._in_order(slice(start, None), c)
        cap = _jacobi_cap(n, depth + 1, self.p.alpha, self.p.beta_cap)
        zero = depth + 1 == n - 1 and self.p.zerofree
        if cap is not None or zero:
            grown = _grow_minors(n, depth, minors, self.cols[:, start:])
            if cap is not None:
                mask &= grown.max(axis=0) <= cap
                mask &= grown.min(axis=0) >= -cap
            if zero:
                # these minors are the last inverse column, up to signs
                mask &= (grown != 0).all(axis=0)
            keep = np.flatnonzero(mask)
            idx, grown = keep + start, np.take(grown, keep, axis=1)
        else:
            idx = np.flatnonzero(mask) + start
            grown = _grow_minors(n, depth, minors, np.take(self.cols, idx, axis=1))
        grown = grown.astype(np.int64)
        keep = np.gcd.reduce(np.abs(grown), axis=0) == 1
        return idx[keep], grown[:, keep].T

    def _leaf_keep(self, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        """Which leaves, with smallest and largest inverse magnitudes `low`
        and `high`, pass the zero and beta-cap tests."""
        cap = self.p.beta_cap
        keep = high <= cap if cap is not None else np.ones(len(high), dtype=bool)
        if self.p.zerofree:
            keep &= low > 0
        return keep

    def _groups(self, rows, zmap, pick, idx, ys, base_mask):
        """The rows x of the space from idx[0] on that pass `base_mask`,
        grouped by z(x) = zmap @ x, the cofactors of row n-2 of rows + [y] +
        [x] for any y: det(rows; y; x) = y . z(x).  z is linear in x, its
        kernel is the span of `rows`, and its entries at the columns `pick`
        (_key_columns) name its group.

        A child y, row c of `ys` at index idx[c] of the space, that repeats
        a pair of columns on which `rows` agree needs x to keep that pair
        in structural order.  When some child does, each row's in-order bits
        on those pairs join its key, so every group is uniform in them.

        Returns (z, packed, heads, ends, xs, first, order):
          z       one column per group, the z of its rows;
          packed  (group key << width) | place, one word per row, sorted:
                  the groups are contiguous, in key order, and each lists
                  its rows in scan order;
          heads   each group's key << width, and ends, where it ends in
                  `packed`;
          xs      the rows' indices in the space, in `packed` order;
          first   each child's place: child c's rows in group g start at
                  searchsorted(packed, heads[g] | first[c]);
          order   None if no child needs an order, else (bits, need): each
                  group's in-order bits and the bits each child needs.
        """
        n = self.n
        start = int(idx[0])
        xs = np.flatnonzero(base_mask[start:]) + start
        first = np.searchsorted(xs, idx)
        # each of z_i, z_j spans fewer than 2 (n-1)! alpha^(n-1) + 1 values,
        # so the pair fits an int64
        key = (zmap[list(pick)] @ np.take(self.cols, xs, axis=1)).astype(np.int64)
        key -= key.min(axis=1, keepdims=True)
        key = key[0] * (key[1].max() + 1) + key[1]
        pairs = [c for c in _agreeing(rows, n) if (ys[:, c] == ys[:, c + 1]).any()]
        width = len(xs).bit_length()
        if key.max() >> (62 - width - len(pairs)):  # too wide to pack: rank it
            key = np.unique(key, return_inverse=True)[1]
        need = np.zeros(len(ys), dtype=np.int64)
        for c in pairs:
            key = key << 1 | self._in_order(xs, c)
            need = need << 1 | (ys[:, c] == ys[:, c + 1])
        packed = np.sort(key << width | np.arange(len(xs)))
        key = packed >> width
        cuts = np.flatnonzero(key[1:] != key[:-1]) + 1
        firsts, ends = np.concatenate(([0], cuts)), np.concatenate((cuts, [len(xs)]))
        xs = xs[packed & ((1 << width) - 1)]
        z = zmap @ np.take(self.cols, xs[firsts], axis=1)
        order = (key[firsts] & ((1 << len(pairs)) - 1), need) if pairs else None
        return z, packed, key[firsts] << width, ends, xs, first, order

    def _completions(self, rows, zmap, pick, idx, ys, base_mask):
        """The last rows x that complete rows + [y] to a unimodular matrix in
        scan order, for each child y: row c of `ys`, at index idx[c] of the
        space.  As in _candidates, x comes at or after y, passes
        `base_mask`, and keeps the columns that agree on rows + [y] in
        structural order.

        Yields, for each chunk of children from c0 on, (c0, nodes, pieces):
        nodes[c] counts the completions of child c0 + c, and `pieces` yields
        (child, xs, dets, mid) for the completions whose inverse column n-2
        passes the leaf filters: their children, last rows, determinants and
        the column's largest magnitude, in child order, about _CELLS / n^2
        at a time.

        The rows of one group (_groups) share z, so one product of the
        children with the groups' z gives every determinant, in chunks of
        at most _CELLS (child, group) cells.  A child hits a group when the
        determinant is +-1 and the group has the in-order bits the child
        needs; it counts the group's rows from its own place on.  Inverse
        column n-2 is z over det, so it is tested once per group.
        """
        n = self.n
        z, packed, heads, ends, xs, first, order = self._groups(
            rows, zmap, pick, idx, ys, base_mask
        )
        absz = np.abs(z)
        mid = absz.max(axis=0)
        mid_keep = self._leaf_keep(absz.min(axis=0), mid)
        step = max(1, _CELLS // z.shape[1])
        for c0 in range(0, len(idx), step):
            dets = ys[c0 : c0 + step] @ z
            child, group = np.nonzero(np.abs(dets) == 1)
            dets = dets[child, group]
            child += c0
            if order is not None:
                bits, need = order
                fits = (bits[group] & need[child]) == need[child]
                child, group, dets = child[fits], group[fits], dets[fits]
            lo, hi = np.searchsorted(packed, heads[group] | first[child]), ends[group]
            nodes = np.bincount(child - c0, hi - lo, min(step, len(idx) - c0)).astype(np.int64)
            hits = child, dets, mid[group], lo, (hi - lo) * mid_keep[group]
            yield c0, nodes, self._expand(hits, xs, _CELLS // (n * n))

    @staticmethod
    def _expand(hits, xs, piece: int):
        """The rows of each hit (child, det, mid, lo, length): xs[lo] ..
        xs[lo + length - 1].  Yields (child, xs, dets, mid), about `piece`
        rows at a time (a hit is not split)."""
        child, dets, mid, lo, length = hits
        end = np.cumsum(length)
        cuts = [0, len(end)]
        if len(end) and end[-1] > piece:
            cuts[1:1] = (np.flatnonzero(np.diff((end - 1) // max(1, piece))) + 1).tolist()
        shift = lo - end + length
        for a, b in itertools.pairwise(cuts) if len(end) else ():
            hit = np.repeat(np.arange(a, b), length[a:b])
            pos = np.arange(end[a] - length[a], end[b - 1]) + shift[hit]
            yield child[hit], xs[pos], dets[hit], mid[hit]

    def _accept_batch(self, rows, ladder, idx, grown, base_mask, bound=None):
        """Finish the search below the kept children of one prefix.

        `rows` holds n-2 rows with minor ladder `ladder` (none for n = 1);
        child c is row idx[c] of the space, with (n-1)-column minors
        grown[c], and _survivors has kept it.  `bound` is the filter's
        (reach, zmap, forms) when it bounded the children, else None.  A work
        unit of n-1 rows (n <= 3) is the one kept child of its prefix.

        zmap (_zmap) maps x to z(x), inverse column n-2 times det, keyed at
        the columns `pick`, and _pair_forms gives the bilinear columns
        0..n-3 (n = 1 has no row n-2: z(x) = x, det = 1 . x).  Each is built
        at most once: by the bound, or else here, the forms for the first
        completion that passes column n-2.  A child the bound kept is
        checked again against the running best when its nodes are spent.

        Nodes are spent child by child in search order.  Inverse column n-1
        is grown[c] up to order and sign, which _candidates has tested;
        _completions tests column n-2, and the bilinear columns are
        assembled for its survivors only.  The determinants are +-1, so
        every test and every stored beta reads inverse magnitudes.  Each
        child's kept completions take one _record call, under rows + [y].
        """
        n = self.n
        if n > 1:
            ys = self._rows(idx)
            reach, zmap, forms = bound or (None, _zmap(n, ladder), None)
            pick = _key_columns(n, int(np.flatnonzero(ladder[n - 2])[0]))
        else:
            ys = zmap = np.ones((1, 1), dtype=np.int64)
            pick, reach, forms = (0, 0), None, np.zeros((0, 1), dtype=np.int64)
        last = np.abs(grown).max(axis=1)  # inverse column n-1
        for c0, nodes, pieces in self._completions(rows, zmap, pick, idx, ys, base_mask):
            kept = []
            for child, xs, dets, mid in pieces:
                if not len(xs):
                    continue
                if forms is None:
                    forms = _pair_forms(n, rows, ladder).T
                y, x = np.take(self.cols, idx[child], axis=1), np.take(self.cols, xs, axis=1)
                pairs = (y[:, None] * x[None]).reshape(n * n, -1)
                inv = np.abs(forms @ pairs)  # columns 0..n-3
                betas = np.maximum(inv.max(axis=0, initial=0), np.maximum(mid, last[child]))
                keep = self._leaf_keep(inv.min(axis=0, initial=np.inf), betas)
                # the running best only grows, so lower leaves are never kept
                keep &= betas >= self.best_beta
                if keep.any():
                    kept.append((child[keep], xs[keep], dets[keep], betas[keep].astype(np.int64)))
            bounds = np.zeros(len(nodes) + 1, dtype=np.int64)
            if kept:
                child, xs, dets, betas = map(np.concatenate, zip(*kept))
                by = np.lexsort((xs, child))
                child, xs, dets, betas = child[by], xs[by], dets[by], betas[by]
                bounds = np.searchsorted(child, np.arange(c0, c0 + len(nodes) + 1))
            for k in range(c0, c0 + len(nodes)):
                if reach is None or reach[k] >= self.best_beta:
                    self._spend(int(nodes[k - c0]))
                    a, b = bounds[k - c0], bounds[k - c0 + 1]
                    if b > a:
                        head = rows + [tuple(ys[k].tolist())] if n > 1 else rows
                        self._record(head, xs[a:b], dets[a:b], betas[a:b])

    def _record(self, rows, xs: np.ndarray, dets, betas: np.ndarray):
        """Record the kept completions of the n-1 rows `rows` by the rows xs
        of the space, which passed the leaf filters with determinants `dets`
        and largest inverse magnitudes `betas`.

        An enumeration keeps the leaves that equal their own canonical
        form: minimize_rows on the finished matrix, the test max-beta's
        witness takes too.  A value-only search keeps the leaves that attain
        alpha and their largest beta, unless it is below the running best.
        """
        cand = self._rows(xs)
        prefix = [x for row in rows for x in row]
        attained = np.maximum(np.abs(cand).max(axis=1), max(map(abs, prefix), default=0))
        if self.p.beta_cap is None:
            keep = attained == self.p.alpha
            if not keep.any():
                return
            beta = int(betas[keep].max())
            if beta < self.best_beta:
                return
            if beta > self.best_beta:
                self.best_beta, self.found = beta, {}
            kept = np.flatnonzero(keep & (betas == beta))
        else:
            kept = [
                pos
                for pos, x in enumerate(cand.tolist())
                if minimize_rows(rows + [x], self.n, True) is not None
            ]
        for pos in kept:
            entries = prefix + cand[pos].tolist()
            self.found.setdefault(f"{attained[pos]},{betas[pos]}", []).append(
                [entries, min(entries) > 0, int(dets[pos])]
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
        self,
        rows,
        ladder,
        first: int | None,
        last: int,
        base_mask,
        stop_depth: int,
        sink,
        parent,
    ):
        """Search below `rows`, whose minor ladder is `ladder`.

        `first` and `last` index the first and last rows of `rows` in the
        space (None and 0 for the empty prefix), and `base_mask` is
        _base_mask(first).  `parent` is the tie record of rows' parent (None
        for the empty prefix).  A prefix of `stop_depth` rows goes to `sink`
        as (rows, first, last, parent) instead of being searched.

        Every prefix's children pass the one child filter, _survivors, which
        derives the prefix's record from `parent` for its children.  The
        children of a prefix of n-2 rows are finished in one batch
        (_accept_batch) in stage 2; in stage 1 (n <= 3) they are the units.
        A unit of n-1 rows is finished as the one kept child of its prefix.
        """
        if len(rows) == stop_depth:
            sink((rows, first, last, parent))
            return
        n = self.n
        if len(rows) + 1 == n:  # a unit of n-1 rows: the one kept child of its prefix
            only = np.array([last])
            self._accept_batch(rows[:-1], ladder[:-1], only, ladder[-1][None], base_mask)
            return
        idx, grown = self._candidates(rows, ladder[-1], base_mask, last)
        if not len(idx):
            return
        cand = self._rows(idx)
        keep, ties, bound = self._survivors(rows, ladder, cand, grown, parent)
        if len(rows) + 2 == n < stop_depth:  # stage 2 finishes both last rows at once
            self._spend(len(idx))
            if keep.any():
                self._accept_batch(rows, ladder, idx[keep], grown[keep], base_mask, bound)
            return
        for pos, row in enumerate(cand.tolist()):
            self._spend()
            if not keep[pos]:
                continue
            i, row = int(idx[pos]), tuple(row)
            if not rows:  # row i becomes the first row
                first, base_mask = i, self._base_mask(i)
            self._descend(
                rows + [row], ladder + [grown[pos]], first, i, base_mask, stop_depth, sink, ties
            )

    def run_prefixes(self, stop_depth: int):
        """Stage 1: every accepted prefix of `stop_depth` rows, in order.

        A prefix is (rows, index of the first row, index of the last row,
        parent), with `parent` as in _descend; run_subtree searches below
        it.  Its minor ladder is rebuilt there: kept here, the ladders would
        hold every stage-1 minor array.  The empty prefix's tie record is
        the search's one from-scratch prefix search (prefix_ties); every
        other record is derived from its parent's.
        """
        out = []
        root = _ladder(self.n, [])
        self._descend([], root, None, 0, self._base_mask(None), stop_depth, out.append, None)
        return out

    def run_subtree(self, rows, first, last, parent):
        """Finish the search below one stored prefix."""
        ladder = _ladder(self.n, rows)
        base_mask = self._base_mask(first)
        self._descend(rows, ladder, first, last, base_mask, self.n + 1, None, parent)

    def payload(self) -> dict:
        """This search's result as a JSON-ready work-unit record."""
        return {"nodes": self.nodes, "found": self.found}


# --------------------------------------------------------------------------
# work units, checkpoints, merging


def _run_unit(params: _SearchParams, prefix, budget) -> dict | None:
    """Search below one stored prefix and return the unit's payload.

    The single unit function of serial and pool runs; a value-only unit
    starts from params.floor.  Returns None once more than `budget` nodes
    are spent.
    """
    gen = _Generator(params, budget)
    try:
        gen.run_subtree(*prefix)
    except _NodeBudget:
        return None
    return gen.payload()


@dataclass
class _RawResult:
    buckets: dict[tuple[int, int], list]  # the finished units' leaves, merged in unit order
    nodes: int
    complete: bool


def _merge_units(unit_payloads) -> dict[tuple[int, int], list]:
    buckets: dict[tuple[int, int], list] = {}
    for payload in unit_payloads:
        for key, hits in payload["found"].items():
            a, b = map(int, key.split(","))
            buckets.setdefault((a, b), []).extend(hits)
    return buckets


def _run_search(
    params: _SearchParams,
    *,
    thread_budget: int | None = None,
    node_limit: int | None = None,
    checkpoint_path: str | None = None,
    resume: bool = False,
    stop_after_units: int | None = None,
) -> _RawResult:
    """Stage 1 lists the work units; stage 2 reads one ordered stream of
    payloads, one per unit in unit order: the journal's, which hold units
    0..k-1, then those of units k on, run by `map` or a pool's `map`, which
    start once the journal is walked.

    Every payload takes the one fit check, so a truncated search keeps the
    longest prefix of units, in unit order, whose nodes fit `node_limit`,
    the same fresh or resumed and for every worker count.  `map` reads a
    unit's budget when the loop asks for it; Executor.map reads every budget
    at submission.  A pool starts for two units or more, with at most one
    worker per CPU the process may run on; `thread_budget` None reads
    ZEROFREE_THREADS (default_thread_budget) before anything runs.  Kept
    units are merged in stream order into (alpha, beta) buckets.  With
    `checkpoint_path`, one append handle on the journal serves the search,
    and each kept unit from position k on is written and flushed as it is
    kept.  A value-only search's running best starts at params.floor, which
    the journal's query leaves out: only enumerations pass a checkpoint.
    """
    thread_budget = thread_budget or default_thread_budget()
    if resume:
        # before stage 1, which may stop on the node limit first
        if checkpoint_path is None:
            raise CheckpointError("resume requested without a checkpoint file")
        cp = load_checkpoint(checkpoint_path)
        if cp.query != params.query():
            raise CheckpointError("checkpoint belongs to a different query")
    gen = _Generator(params, node_limit)
    try:
        prefixes = gen.run_prefixes(min(2, params.n - 1))
    except _NodeBudget:
        return _RawResult({}, gen.nodes, False)

    if resume:
        if cp.total_units != len(prefixes):
            raise CheckpointError("checkpoint unit count disagrees with this search")
        if cp.torn_tail:
            # cut the torn last write, so the next record starts its own line
            os.truncate(checkpoint_path, os.path.getsize(checkpoint_path) - cp.torn_tail)
    else:
        cp = SearchCheckpoint(CHECKPOINT_VERSION, params.query(), len(prefixes), {})
        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, cp)
    journaled = len(cp.completed)

    todo = range(journaled, len(prefixes))[:stop_after_units]
    nodes = gen.nodes
    kept: list[dict] = []

    def budget_left() -> int | None:
        return None if node_limit is None else node_limit - nodes

    def computed():
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count() or 1
        workers = min(thread_budget, len(todo), cpus)
        pool = None
        if workers > 1:
            # imported here: it loads multiprocessing, which a serial run never needs
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(max_workers=workers)
        try:
            units, budgets = (prefixes[i] for i in todo), (budget_left() for _ in todo)
            args = itertools.repeat(params), units, budgets
            yield from (pool.map if pool else map)(_run_unit, *args)
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)

    # one append handle for the search: each computed unit's record is
    # written and flushed as soon as it is kept
    appending = open(checkpoint_path, "a") if checkpoint_path is not None else nullcontext()
    with closing(computed()) as rest, appending as out:
        for index, payload in enumerate(itertools.chain(cp.completed.values(), rest)):
            left = budget_left()
            if payload is None or (left is not None and payload["nodes"] > left):
                break
            kept.append(payload)
            nodes += payload["nodes"]
            if out is not None and index >= journaled:
                out.write(_unit_line(index, payload))
                out.flush()

    return _RawResult(_merge_units(kept), nodes, len(kept) == len(prefixes))


# --------------------------------------------------------------------------
# public operations


def _gate(query: ClassQuery) -> None:
    """Refuse a long-running query without long_run or a node limit: quick
    queries are n <= 3, and n = 4 with alpha <= 2 or (alpha, beta) = (3, 3)."""
    n, alpha = query.n, query.alpha
    quick = n <= 3 or (n == 4 and (alpha <= 2 or (alpha, query.beta_range) == (3, (3, 3))))
    if not quick and not query.long_run and query.node_limit is None:
        raise TierGateError(
            f"query {query.n=} {query.alpha=} {query.beta=} is long-running; "
            "set long_run=True (--long-run) or provide a node_limit"
        )


def _classes(n: int, buckets, alpha: int, beta_lo: int, beta_hi: int) -> list[CanonicalClass]:
    """The merged leaves that attain alpha and a beta in beta_lo..beta_hi,
    as classes in ascending structural order: the one class list every
    public search reads."""
    classes = [
        CanonicalClass(IntMatrix(n, entries), ClassStats(a, b, det, positive))
        for (a, b), hits in buckets.items()
        if a == alpha and beta_lo <= b <= beta_hi
        for entries, positive, det in hits
    ]
    classes.sort(key=lambda c: [entry_key(x) for x in c.rep.entries])
    return classes


def _search_classes(q: ClassQuery, **run):
    """The one enumeration search: gate, run and bucket `q`.

    Returns the classes attaining (q.alpha, beta in q's range) in ascending
    structural order, with the raw search result.  `run` passes checkpoint
    and stop arguments through to _run_search.
    """
    _gate(q)
    lo, hi = q.beta_range
    params = _SearchParams(q.n, q.alpha, hi, zerofree=True, positive_only=q.positive_only)
    raw = _run_search(params, thread_budget=q.thread_budget, node_limit=q.node_limit, **run)
    return _classes(q.n, raw.buckets, q.alpha, lo, hi), raw


def _count_by_beta(classes, lo: int, hi: int) -> dict[int, list[int]]:
    """[class count, positive count] for every beta in lo..hi."""
    counts = {beta: [0, 0] for beta in range(lo, hi + 1)}
    for c in classes:
        counts[c.stats.beta][0] += 1
        counts[c.stats.beta][1] += c.stats.positive
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
    classes, raw = _search_classes(
        q, checkpoint_path=checkpoint_path, resume=resume, stop_after_units=_stop_after_units
    )
    return EnumerationResult(
        query=q,
        classes=() if q.count_only else tuple(classes),
        total_count=len(classes),
        positive_count=sum(c.stats.positive for c in classes),
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
    classes, raw = _search_classes(q)
    if not raw.complete:
        raise IncompleteSearchError("scan hit its node limit; counts would be wrong")
    return [(beta, count, pos) for beta, (count, pos) in _count_by_beta(classes, lo, hi).items()]


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
    first canonical maximiser in search order.  The search is the engine's
    one search with no beta cap: each unit keeps only the bucket of its
    best beta, so the largest merged bucket is beta_max and holds every
    leaf that attains it, the smallest of which is the witness.

    Without a node limit, unrestricted mode first runs the zerofree search
    for the same (n, alpha): a zerofree maximiser is an unrestricted matrix
    too, so its beta is a floor where the unrestricted search's running best
    starts.  nodes_explored then counts the nodes of both searches.
    """
    if mode not in ("zerofree", "unrestricted"):
        raise ValueError("mode must be 'zerofree' or 'unrestricted'")
    n, alpha, thread_budget, node_limit = _check_search_regime(
        n, alpha, thread_budget, node_limit
    )
    if n > 5:
        if not best_effort:
            raise TierGateError(
                "exhaustive certification is limited to n <= 5; "
                "pass best_effort=True for a lower-bound search"
            )
        if node_limit is None:
            raise TierGateError("best-effort search requires a node_limit")
    params = _SearchParams(n, alpha, None, zerofree=(mode == "zerofree"))
    floor_nodes = 0
    if mode == "unrestricted" and node_limit is None:
        floor_run = _run_search(replace(params, zerofree=True), thread_budget=thread_budget)
        params = replace(params, floor=max((b for _, b in floor_run.buckets), default=0))
        floor_nodes = floor_run.nodes
    raw = _run_search(params, thread_budget=thread_budget, node_limit=node_limit)
    beta_max = max((b for _, b in raw.buckets), default=0)
    if not raw.complete and (not beta_max or not best_effort):
        raise IncompleteSearchError("search stopped early; rerun with a larger budget")
    if not beta_max:
        raise ValueError(f"no unimodular matrix attains max |entry| = {alpha} for n = {n}")
    # A leaf's canonical form is a leaf of the same or an earlier unit, and the
    # finished units are a prefix of the unit order, so the smallest leaf at
    # beta_max is canonical.
    witness = _classes(n, raw.buckets, alpha, beta_max, beta_max)[0].rep
    if minimize_rows(witness.rows(), n, True) is None:
        raise RuntimeError("the smallest leaf at beta_max is not canonical")
    return MaxBetaResult(
        n=n,
        alpha=alpha,
        mode=mode,
        beta_max=beta_max,
        witness=witness,
        certified=raw.complete and n <= 5,
        nodes_explored=floor_nodes + raw.nodes,
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
    classes, raw = _search_classes(q)
    if not raw.complete:
        raise IncompleteSearchError("conjecture search did not run to completion")
    cases = [
        (n, alpha, beta, count) for beta, (count, _) in _count_by_beta(classes, lo, hi).items()
    ]
    confirmed = all(c[3] == 0 for c in cases)
    return ConjectureReport(
        conjecture_id=conjecture_id,
        cases=tuple(cases),
        nodes_explored=raw.nodes,
        complete=True,
        confirmed=confirmed,
    )
