"""Graded nilpotent Lie groups from structure constants.

A group is described by its layer dimensions ``h_1..h_iota`` and a sparse
bracket table ``[e_i, e_j] = sum_k c_{ij}^k e_k`` on a graded basis.  The
group operation is evaluated through the truncated Baker-Campbell-Hausdorff
series (Dynkin form, exact rational coefficients); nilpotency makes the
truncation exact.

Points live in graded exponential coordinates and are plain numpy arrays of
length ``q``; all operations broadcast over leading axes, so ``(N, q)``
batches are first-class.

The group law is compiled once per group and term list, and ``bracket``,
``product``, ``product_derivative_y`` and ``frame`` all run on it: a sparse
bracket kernel over the nonzero structure constants, a schedule that builds
each distinct right-nested Dynkin suffix once per call and drops it after its
last use, and evaluation in blocks of ``BLOCK_ROWS`` rows laid out
coordinate-first ``(q, rows)``; ``HomogeneousDistance.distance`` reduces
each product block to its norms on the same loop.  It does the
multiplications and additions of the word-by-word evaluator ``nested`` in
``tests/oracles/algebra.py`` (the test oracle) in the same order, so results
are bit-identical to it; no matmul, einsum or expanded polynomial may enter
this path, since each would reorder the sums.

Each term list compiles to a full plan and a graded plan.  A letter may be
nonzero anywhere; ``[a, s]`` only on the targets of table pairs with an index
in the support of ``s`` (in a stratified group, the layers >= its length).
The graded plan keeps a pair's half ``u_i v_j`` only if j is in that support
and ``u_j v_i`` only if i is, and adds each term after the first only on the
hull of its support.  For finite letters this gives the full plan's bits: a
dropped half is ``u * (+0.0) = ±0``, added to an output that starts at +0.0
and so is never -0.0; a dropped row would only have received ``coeff *
(+0.0)``, which turns -0.0 into +0.0 when ``coeff > 0``, and that commutes
with the later additions, so one ``+= 0.0`` on those rows at the end does it.
``inf * 0`` is nan, so a block with a non-finite letter runs the full plan,
as does, unchecked, every block where the graded plan drops no pair half
(every step-2 group).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import combinations
from math import factorial
from typing import NamedTuple

import numpy as np

from .errors import BadDimensions, GradingViolation, JacobiViolation, NonPositiveScale
from .policy import DEFAULT_POLICY

MAX_STEP = 6

# ---------------------------------------------------------------------------
# Dynkin plan: shared across groups of the same step.
# ---------------------------------------------------------------------------

X, Y = 0, 1


def _compositions(total: int, parts: int):
    """All tuples of `parts` positive integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def bch_plan(step: int) -> tuple[tuple[float, tuple[int, ...]], ...]:
    """Dynkin series terms of word length 2..step.

    Returns ``(coefficient, word)`` pairs where ``word`` is a tuple over
    {X, Y} and the bracket is right-nested: ``[w0, [w1, [... wk]]]``.
    Degree-1 terms (x + y) are handled separately by the evaluator.
    """
    if not 1 <= step <= MAX_STEP:
        raise BadDimensions(f"step must be in 1..{MAX_STEP}, got {step}")
    acc: dict[tuple[int, ...], Fraction] = {}
    for w in range(2, step + 1):
        for k in range(1, w + 1):
            for block_weights in _compositions(w, k):
                # each block is x^r y^s with r + s = t; enumerate all splits
                for splits in _iter_splits(block_weights):
                    word = []
                    denom = 1
                    for r, s in splits:
                        word.extend([X] * r + [Y] * s)
                        denom *= factorial(r) * factorial(s)
                    word_t = tuple(word)
                    if word_t[-1] == word_t[-2]:
                        continue  # innermost bracket [a, a] vanishes
                    coeff = Fraction((-1) ** (k - 1), k * w * denom)
                    acc[word_t] = acc.get(word_t, Fraction(0)) + coeff
    return tuple((float(c), w) for w, c in sorted(acc.items()) if c != 0)


def _iter_splits(block_weights: tuple[int, ...]):
    if not block_weights:
        yield ()
        return
    t = block_weights[0]
    for rest in _iter_splits(block_weights[1:]):
        for r in range(t + 1):
            yield ((r, t - r),) + rest


V = 2  # the direction letter of product_derivative_y
BLOCK_ROWS = 2048  # rows per block of the compiled evaluator


def _derivative_terms(step: int, y_is_zero: bool) -> tuple[tuple[float, tuple[int, ...]], ...]:
    """Terms of d/dt (x . (y + t v)): each word of ``bch_plan(step)`` with
    one Y replaced by V, per position.  At y = 0 only words with one Y remain."""
    terms = []
    for coeff, word in bch_plan(step):
        ny = word.count(Y)
        if ny == 0 or (y_is_zero and ny > 1):
            continue
        terms.extend((coeff, word[:pos] + (V,) + word[pos + 1 :]) for pos, s in enumerate(word) if s == Y)
    return tuple(terms)


def _schedule(terms: tuple) -> tuple:
    """Evaluation steps for ``sum coeff * [w0, [w1, ... wk]]`` over ``terms``.

    One step per term, in order: ``(coeff, word, builds, drops)``.  ``builds``
    lists the right-nested suffixes first needed by this term, shortest first,
    so each distinct suffix is bracketed once; ``drops`` lists those that no
    later step reads.
    """
    seen: set = set()
    last_use: dict = {}
    steps = []
    for t, (coeff, word) in enumerate(terms):
        builds = []
        for k in range(len(word) - 2, -1, -1):
            s = word[k:]
            if s not in seen:
                seen.add(s)
                builds.append(s)
                if len(s) > 2:
                    last_use[s[1:]] = t
        last_use[word] = t
        steps.append((coeff, word, tuple(builds)))
    drops = [[] for _ in steps]
    for s, t in last_use.items():
        drops[t].append(s)
    return tuple((c, w, b, tuple(d)) for (c, w, b), d in zip(steps, drops))


class _Plan(NamedTuple):
    """Steps ``(coeff, word, builds, drops, rows)``: ``builds`` are the
    ``(suffix, pairs)`` first bracketed there, ``rows`` the coordinate rows
    the term is added on in place (``None``: the first term makes a new sum,
    as ``acc`` may be a letter).  ``graded`` is None if it drops no pair half;
    ``zero_rows`` get ``+= 0.0`` after it; ``reads`` are the words' letters."""

    full: tuple
    graded: tuple | None
    zero_rows: list
    reads: frozenset


def _bracket_rows(pairs: tuple, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Bracket of coordinate-first blocks ``(q, rows)`` over ``pairs``.

    Each pair ``(a, b, both, entries)`` does the arithmetic of the dense
    table loop: ``w = u_a v_b``, less ``u_b v_a`` when ``both``, then ``out_k
    += w c`` from ``out = +0.0``; the zero entries it skips only ever added a
    signed zero to a sum that cannot be -0.0.  ``w * 1.0`` is ``w`` and ``out +
    w * -1.0`` is ``out - w`` exactly, so those multiplications are left out.
    A graded plan's pair with one live half is ``both=False``: ``u_i v_j``
    as ``(i, j)``, or ``u_j v_i`` as ``(j, i)`` with every ``c`` negated,
    which is ``out - (u_j v_i) c`` exactly.
    """
    out = np.zeros(v.shape)
    for a, b, both, entries in pairs:
        w = u[a] * v[b]
        if both:
            w -= u[b] * v[a]
        for k, c in entries:
            if c == 1.0:
                out[k] += w
            elif c == -1.0:
                out[k] -= w
            else:
                out[k] += w * c
    return out


def _blocked(kernel, letters: tuple, reduce: bool = False) -> np.ndarray:
    """Evaluate ``kernel`` block by block over the broadcast shape ``(..., q)``
    of ``letters``.

    Blocks of about ``BLOCK_ROWS`` rows run along the first axis (a single
    point is one row).  ``kernel`` gets each letter's block coordinate-first,
    as a contiguous ``(q, rows, ...)`` array (``None`` for a letter ``None``),
    and returns the block's values: ``(q, rows, ...)``, or ``(rows, ...)``
    when ``reduce`` drops the coordinate axis.  Letters broadcast as views,
    so only a block of each is ever copied.
    """
    shape = np.broadcast_shapes(*(a.shape for a in letters if a is not None))
    rows_shape = (shape[:-1] or (1,)) + shape[-1:]
    out = np.empty(rows_shape[:-1] if reduce else rows_shape)
    if out.size:
        step = max(1, BLOCK_ROWS // max(1, int(np.prod(rows_shape[1:-1]))))
        full = [None if a is None else np.broadcast_to(a, rows_shape) for a in letters]
        for start in range(0, rows_shape[0], step):
            rows = slice(start, start + step)
            target = out[rows] if reduce else _coordinate_view(out[rows])
            target[...] = kernel(*(None if a is None else _coordinate_first(a[rows]) for a in full))
    return out.reshape(shape[:-1])[()] if reduce else out.reshape(shape)


def _coordinate_view(a: np.ndarray) -> np.ndarray:
    """An ``(..., q)`` array viewed coordinate-first, ``(q, ...)``."""
    return a.transpose(-1, *range(a.ndim - 1))


def _coordinate_first(a: np.ndarray) -> np.ndarray:
    """An ``(..., q)`` block as a contiguous ``(q, ...)`` array (a copy
    unless the block already has that layout)."""
    return np.ascontiguousarray(_coordinate_view(a))


# ---------------------------------------------------------------------------
# GradedGroup
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GradedGroup:
    """Immutable graded nilpotent group in exponential coordinates."""

    name: str
    layers: tuple[int, ...]
    # canonical sparse table: (i, j) with i < j -> dense bracket vector
    _table: dict = field(repr=False)

    @property
    def q(self) -> int:
        return sum(self.layers)

    @property
    def step(self) -> int:
        return len(self.layers)

    @property
    def degrees(self) -> np.ndarray:
        return _degrees(self.layers)

    @property
    def hom_dimension(self) -> int:
        """Homogeneous (Hausdorff) dimension Q = sum of coordinate degrees."""
        return int(self.degrees.sum())

    @cached_property
    def layer_slices(self) -> tuple[slice, ...]:
        """Coordinate slices of the layers, in order."""
        ends = np.cumsum(self.layers).tolist()
        return tuple(slice(end - h, end) for h, end in zip(self.layers, ends))

    # -- bracket and BCH -----------------------------------------------------

    @cached_property
    def _bracket_kernel(self) -> tuple:
        """``(i, j, True, ((k, c), ...))`` per table pair, in table order: the
        full plan's pairs."""
        return tuple(
            (i, j, True, tuple((int(k), float(vec[k])) for k in np.nonzero(vec)[0]))
            for (i, j), vec in self._table.items()
        )

    def _live_pairs(self, inner: set) -> tuple:
        """The pairs of ``[a, s]`` whose halves can be nonzero when ``s`` is
        zero off the coordinates ``inner``, in table order."""
        pairs = []
        for i, j, _, entries in self._bracket_kernel:
            if i in inner and j in inner:
                pairs.append((i, j, True, entries))
            elif j in inner:
                pairs.append((i, j, False, entries))
            elif i in inner:
                pairs.append((j, i, False, tuple((k, -c) for k, c in entries)))
        return tuple(pairs)

    def _compile(self, terms: tuple) -> _Plan:
        """The full and graded plans of ``sum coeff * [w0, [w1, ... wk]]``."""
        everything = set(range(self.q))
        support, full, graded, zero_rows, prunes = {}, [], [], set(), False
        for coeff, word, builds, drops in _schedule(terms):
            graded_builds = []
            for s in builds:
                pairs = self._live_pairs(support[s[1:]] if len(s) > 2 else everything)
                support[s] = {k for _, _, _, entries in pairs for k, _ in entries}
                graded_builds.append((s, pairs))
                prunes |= pairs != self._bracket_kernel
            rows = hull = None
            if full:
                rows, live = slice(None), support[word]
                hull = slice(min(live), max(live) + 1) if live else slice(0)
                if coeff > 0:
                    zero_rows |= everything - set(range(self.q)[hull])
            full.append((coeff, word, tuple((s, self._bracket_kernel) for s in builds), drops, rows))
            graded.append((coeff, word, tuple(graded_builds), drops, hull))
        reads = frozenset(s for _, word in terms for s in word)
        return _Plan(tuple(full), tuple(graded) if prunes else None, sorted(zero_rows), reads)

    def _sum_terms(self, plan: _Plan, acc: np.ndarray, letters: tuple) -> np.ndarray:
        """``acc + coeff * [w0, [w1, ... wk]]`` term by term, blocks ``(q, rows)``.

        Runs the graded plan when there is one and every letter the words
        read is finite on this block, and the full plan otherwise; both give
        the full plan's bits (module docstring).
        """
        steps = plan.full
        if plan.graded is not None and all(np.isfinite(letters[s]).all() for s in plan.reads):
            steps = plan.graded
        values = {}
        for coeff, word, builds, drops, rows in steps:
            for s, pairs in builds:
                inner = values[s[1:]] if len(s) > 2 else letters[s[1]]
                values[s] = _bracket_rows(pairs, letters[s[0]], inner)
            if rows is None:
                acc = acc + coeff * values[word]
            else:
                acc[rows] += coeff * values[word][rows]
            for s in drops:
                del values[s]
        if steps is plan.graded and plan.zero_rows:
            acc[plan.zero_rows] += 0.0
        return acc

    def bracket(self, u, v) -> np.ndarray:
        """Lie bracket of coordinate vectors; broadcasts over leading axes."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return _blocked(partial(_bracket_rows, self._bracket_kernel), (u, v))

    def product(self, x, y) -> np.ndarray:
        """Group product x . y by the truncated BCH series."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        self._check_dim(x)
        self._check_dim(y)
        return _blocked(self._product_rows, (x, y))

    @cached_property
    def _product_plan(self) -> _Plan:
        return self._compile(bch_plan(self.step))

    def _product_rows(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Group product of coordinate-first blocks ``(q, rows)``."""
        return self._sum_terms(self._product_plan, x + y, (x, y))

    def inverse(self, x) -> np.ndarray:
        """Group inverse; equals -x in exponential coordinates."""
        return -np.asarray(x, dtype=float)

    def dilate(self, r: float, x) -> np.ndarray:
        """Intrinsic dilation delta_r, scaling layer j by r**j."""
        if r <= 0:
            raise NonPositiveScale(f"dilation scale must be positive, got {r}")
        x = np.asarray(x, dtype=float)
        return x * (float(r) ** self.degrees)

    def product_derivative_y(self, x, y, v) -> np.ndarray:
        """Exact directional derivative d/dt (x . (y + t v)) at t = 0.

        Each BCH word is multilinear in its letters, so the derivative is the
        sum over y-positions of the word with that letter replaced by v.
        Broadcasts over leading axes of v.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        v = np.asarray(v, dtype=float)
        plan = self._derivative_plans[not np.any(y)]
        letters = (x, y if Y in plan.reads else None, v)
        return _blocked(lambda *xyv: self._sum_terms(plan, xyv[-1], xyv), letters)

    @cached_property
    def _derivative_plans(self) -> tuple[_Plan, _Plan]:
        """The plans of ``product_derivative_y`` at y != 0 and at y = 0."""
        return tuple(self._compile(_derivative_terms(self.step, y_is_zero)) for y_is_zero in (False, True))

    # -- left-invariant frame --------------------------------------------------

    def frame(self, x) -> np.ndarray:
        """Matrices A(x), shape (..., q, q), whose column i is
        X_i(x) = d/dt (x . t e_i) at t = 0.

        A(0) = Id and A(x) - Id is strictly lower triangular in degree order.
        """
        x = np.asarray(x, dtype=float)
        self._check_dim(x)
        columns = self.product_derivative_y(x[..., None, :], 0.0, np.eye(self.q))
        return np.ascontiguousarray(np.swapaxes(columns, -1, -2))

    def frame_coefficients(self, x, v) -> np.ndarray:
        """Solve A(x) c = v by forward substitution on the unipotent structure.

        ``v`` holds one vector (..., q) or n columns (..., q, n) per point of
        ``x``; ``c`` has the shape of ``v``.
        """
        x = np.asarray(x, dtype=float)
        a = self.frame(x)
        c = np.array(v, dtype=float, copy=True)
        vector = c.ndim == x.ndim
        if vector:
            c = c[..., None]
        for l in range(1, self.q):
            c[..., l, :] -= np.einsum("...i,...in->...n", a[..., l, :l], c[..., :l, :])
        return c[..., 0] if vector else c

    # -- helpers ----------------------------------------------------------------

    def _check_dim(self, x: np.ndarray) -> None:
        if x.shape[-1] != self.q:
            raise BadDimensions(f"expected point of length {self.q}, got shape {x.shape}")

    def bracket_table(self) -> dict:
        """Canonical sparse table {(i, j): dense vector} with i < j (0-based)."""
        return {k: v.copy() for k, v in self._table.items()}

    @cached_property
    def _content_key(self) -> tuple:
        """Layers plus the sorted sparse table: equal for equal structures."""
        entries = sorted(
            (i, j, int(k), float(vec[k]))
            for (i, j), vec in self._table.items()
            for k in np.nonzero(vec)[0]
        )
        return self.layers, tuple(entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedGroup):
            return NotImplemented
        return self._content_key == other._content_key

    def __hash__(self):
        return hash(self._content_key)


def _degrees(layers: tuple[int, ...]) -> np.ndarray:
    return np.repeat(np.arange(1, len(layers) + 1), layers)


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------

def load_group(spec: dict) -> GradedGroup:
    """Build a validated GradedGroup from a definition document.

    ``spec`` is JSON-compatible: ``{"name": str, "layers": [h_1, ...],
    "brackets": [[i, j, k, c], ...]}`` with 1-based basis indices.  A
    malformed definition raises ``BadDimensions``.
    """
    name = str(spec.get("name", "anonymous"))
    raw_layers = spec.get("layers", ())
    try:
        layers = tuple(_count(h) for h in raw_layers) if isinstance(raw_layers, (list, tuple)) else ()
    except (TypeError, ValueError):
        layers = ()
    if not layers or any(h < 1 for h in layers):
        raise BadDimensions(f"layers must be positive integers, got {raw_layers!r}")
    if len(layers) > MAX_STEP:
        raise BadDimensions(f"step {len(layers)} exceeds supported maximum {MAX_STEP}")
    q = sum(layers)
    deg = _degrees(layers)

    brackets = spec.get("brackets", ())
    if not isinstance(brackets, (list, tuple)):
        raise BadDimensions(f"brackets must be a list of [i, j, k, c] entries, got {brackets!r}")
    table: dict[tuple[int, int], np.ndarray] = {}
    for entry in brackets:
        try:
            i, j, k, c = entry
            i, j, k, c = _count(i) - 1, _count(j) - 1, _count(k) - 1, float(c)
        except (TypeError, ValueError):
            raise BadDimensions(f"bracket entry {entry!r} must be [i, j, k, c] with integer i, j, k") from None
        if not (0 <= i < q and 0 <= j < q and 0 <= k < q):
            raise BadDimensions(f"bracket entry {entry!r} out of range for q={q}")
        if i == j:
            if c != 0:
                raise GradingViolation(f"[e_{i+1}, e_{i+1}] must vanish")
            continue
        sign = 1.0
        if i > j:
            i, j, sign = j, i, -1.0
        vec = table.setdefault((i, j), np.zeros(q))
        vec[k] += sign * c

    for (i, j), vec in table.items():
        target = deg[i] + deg[j]
        bad = [k for k in np.nonzero(vec)[0] if deg[k] != target]
        if bad:
            raise GradingViolation(
                f"[e_{i+1}, e_{j+1}] has degree-{deg[i]}+{deg[j]} source but hits "
                f"coordinates of degree {[int(deg[k]) for k in bad]}"
            )
    table = {k: v for k, v in table.items() if np.any(v)}

    group = GradedGroup(name=name, layers=layers, _table=table)
    _check_jacobi(group)
    bch_plan(group.step)  # build and cache the evaluation plan now
    return group


def _count(value) -> int:
    """A layer size or basis index as an int: an integer, or a float with an
    integral value.  A bool, a fraction, text or a non-finite number raises
    ValueError, so a typo in a count is refused, not truncated."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ValueError(f"{value!r} is not an integer")


def _check_jacobi(group: GradedGroup) -> None:
    triples = np.array(list(combinations(range(group.q), 3)), dtype=int).reshape(-1, 3)
    basis = np.eye(group.q)
    a, b, c = basis[triples[:, 0]], basis[triples[:, 1]], basis[triples[:, 2]]
    br = group.bracket
    res = br(a, br(b, c)) + br(b, br(c, a)) + br(c, br(a, b))
    scale = max((float(np.max(np.abs(v))) for v in group._table.values()), default=1.0)
    bad = np.nonzero(np.max(np.abs(res), axis=-1, initial=0.0) > 1e-12 * max(scale * scale, 1.0))[0]
    if bad.size:
        i, j, k = triples[bad[0]] + 1
        raise JacobiViolation(f"Jacobi identity fails on basis triple ({i},{j},{k})")


# ---------------------------------------------------------------------------
# Subspaces
# ---------------------------------------------------------------------------

def _orthonormal(bases: np.ndarray) -> np.ndarray:
    """Orthonormal bases of the column spans of a ``(..., q, n)`` stack of
    independent columns, one SVD over the stack."""
    return np.linalg.svd(bases, full_matrices=False)[0]


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of the group, spanned by the columns of ``basis``."""

    group: GradedGroup
    basis: np.ndarray

    def __post_init__(self):
        b = np.atleast_2d(np.asarray(self.basis, dtype=float))
        if b.shape[0] != self.group.q:
            b = b.T
        if b.shape[0] != self.group.q:
            raise BadDimensions("subspace basis rows must match group dimension")
        object.__setattr__(self, "basis", b)
        norms = np.linalg.norm(b, axis=0)
        if np.any(norms == 0):
            raise BadDimensions("zero column in subspace basis")
        s = np.linalg.svd(b / norms, compute_uv=False)
        if s[-1] <= 1e-10:
            raise BadDimensions("subspace basis columns are numerically dependent")

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def orthonormal_basis(self) -> np.ndarray:
        return _orthonormal(self.basis)


@dataclass(frozen=True)
class SubspaceClassification:
    homogeneous: bool
    subalgebra: bool
    horizontal: bool
    vertical: bool
    layer_dims: tuple[int, ...]


def classify_subspace(
    group: GradedGroup, space: Subspace, tol: float = DEFAULT_POLICY.rtol
) -> SubspaceClassification:
    """Classify a subspace: homogeneous / subalgebra / horizontal / vertical."""
    return classify_subspaces(group, space.basis[None], tol)[0]


def classify_subspaces(
    group: GradedGroup, bases: np.ndarray, tol: float = DEFAULT_POLICY.rtol
) -> list[SubspaceClassification]:
    """``classify_subspace`` of each basis of a ``(B, q, n)`` stack of
    independent columns, in one batched pass.

    Each step is one numpy call over the whole stack: an SVD for the
    orthonormal bases, an SVD per distinct layer width for the ranks of the
    bases beside each layer, one run of the bracket kernel over every basis
    pair and two matmuls for the subalgebra residuals.  numpy hands each
    stacked matrix to the same LAPACK or BLAS routine as a single one, so
    every subspace classifies exactly as it would alone.
    """
    b = _orthonormal(bases)
    n = b.shape[-1]

    # dim(S ∩ H^j) = n + h_j - rank [b, e_{H^j}], counting the singular
    # values above tol times the largest
    dims = np.empty((group.step, len(b)), dtype=int)
    for h in set(group.layers):
        js = [j for j, hj in enumerate(group.layers) if hj == h]
        stacked = np.zeros((len(js),) + b.shape[:-1] + (n + h,))
        stacked[..., :n] = b
        eye = np.eye(h)
        for a, j in enumerate(js):
            stacked[a, :, group.layer_slices[j], n:] = eye
        s = np.linalg.svd(stacked, compute_uv=False)
        dims[js] = n + h - (s > tol * s[..., :1]).sum(axis=-1)

    # subalgebra: the brackets of all basis pairs stay in the span up to a
    # projection residual relative to each bracket's largest entry.  The
    # kernel runs on the letters coordinate-first, (q, B, pairs), as
    # ``bracket`` would run it, without its per-call blocking.
    i, j = np.array(list(combinations(range(n), 2)), dtype=int).reshape(-1, 2).T
    cols = b.transpose(1, 0, 2)
    w = _bracket_rows(group._bracket_kernel, cols[..., i], cols[..., j])
    w = np.ascontiguousarray(w.transpose(1, 2, 0))
    residual = np.abs(w - (w @ b) @ np.swapaxes(b, -1, -2)).max(axis=-1, initial=0.0)
    subalgebra = (residual <= tol * np.abs(w).max(axis=-1, initial=0.0)).all(axis=-1)

    horizontal = np.abs(b[:, group.layers[0] :]).max(axis=(1, 2), initial=0.0) <= tol

    out = []
    for layer_dims, sub, hor in zip(dims.T.tolist(), subalgebra.tolist(), horizontal.tolist()):
        homogeneous = sum(layer_dims) == n
        # vertical: homogeneous, and holding every layer above its lowest one
        low = next((k for k, d in enumerate(layer_dims) if d), group.step)
        vertical = (
            homogeneous and low < group.step and layer_dims[low + 1 :] == list(group.layers[low + 1 :])
        )
        out.append(SubspaceClassification(homogeneous, sub, hor, vertical, tuple(layer_dims)))
    return out


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

def abelian(n: int) -> GradedGroup:
    return load_group({"name": f"abelian({n})", "layers": [n], "brackets": []})


def heisenberg(n: int) -> GradedGroup:
    """Heisenberg group H^n in the coordinates where the vertical increment of
    x . y is sum_i (x_i y_{n+i} - x_{n+i} y_i), i.e. [e_i, e_{n+i}] = 2 e_{2n+1}."""
    br = [[i, n + i, 2 * n + 1, 2.0] for i in range(1, n + 1)]
    return load_group({"name": f"heisenberg({n})", "layers": [2 * n, 1], "brackets": br})


_QUAT = {  # (a, b) -> (sign, index) for unit quaternion products e_a e_b
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def h_type() -> GradedGroup:
    """Quaternionic H-type group: layers (4, 3), bracket from the composition
    algebra via <J_z u, v> = <z, [u, v]> with J_z u = z u (quaternion product).

    The normalization J_z^2 = -|z|^2 Id makes the Cygan-Koranyi norm
    (|x_1|^4 + 16 |x_2|^2)^(1/4) a homogeneous distance.
    """
    brackets = []
    for a in range(1, 4):  # imaginary units i, j, k -> layer-2 basis
        jmat = np.zeros((4, 4))
        for b in range(4):
            sign, idx = _QUAT[(a, b)]
            jmat[idx, b] = sign  # column b of J_{z_a} is z_a * e_b
        for u in range(4):
            for v in range(u + 1, 4):
                c = jmat[v, u]  # <J_{z_a} e_u, e_v>
                if c != 0:
                    brackets.append([u + 1, v + 1, 4 + a, float(c)])
    return load_group({"name": "h_type", "layers": [4, 3], "brackets": brackets})


def engel() -> GradedGroup:
    return load_group(
        {
            "name": "engel",
            "layers": [2, 1, 1],
            "brackets": [[1, 2, 3, 1.0], [1, 3, 4, 1.0]],
        }
    )


def free2(m: int) -> GradedGroup:
    """Free nilpotent group of step 2 on m generators."""
    br = []
    k = m
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            k += 1
            br.append([i, j, k, 1.0])
    return load_group({"name": f"free2({m})", "layers": [m, m * (m - 1) // 2], "brackets": br})


CATALOG = {
    "abelian": abelian,
    "heisenberg": heisenberg,
    "h_type": h_type,
    "engel": engel,
    "free2": free2,
}


def catalog_group(name: str) -> GradedGroup:
    """Resolve names like ``heisenberg(2)``, ``engel`` or ``abelian(3)``."""
    name = name.strip()
    if "(" in name:
        base, _, rest = name.partition("(")
        arg = rest.rstrip(")").strip()
        if base not in CATALOG or not arg.isdigit():
            raise BadDimensions(f"unknown catalog group {name!r}")
        return CATALOG[base](int(arg))
    if name not in CATALOG:
        raise BadDimensions(f"unknown catalog group {name!r}")
    return CATALOG[name]()
