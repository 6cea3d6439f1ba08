"""The compiled group law against word-by-word references, and group-law
identities on random graded groups.

``product``, ``product_derivative_y``, ``frame`` and ``bracket`` must equal
the references bit for bit, sign of zero included: the compiled evaluator
does the same multiplications and additions in the same order, only once per
distinct suffix and block by block.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilgeom.algebra import BLOCK_ROWS, V, Y, bch_plan, catalog_group, load_group
from oracles.algebra import nested


def filiform(step: int) -> dict:
    """Filiform group of the given step: [e1, e_k] = e_{k+1}."""
    return {
        "name": f"filiform{step}",
        "layers": [2] + [1] * (step - 1),
        "brackets": [[1, k, k + 1, 1.0] for k in range(2, step + 1)],
    }


CATALOG = ["abelian(3)", "heisenberg(1)", "heisenberg(2)", "h_type", "engel", "free2(3)", "free2(4)"]
GROUPS = {name: catalog_group(name) for name in CATALOG} | {"filiform6": load_group(filiform(6))}


# ---------------------------------------------------------------------------
# word-by-word references
# ---------------------------------------------------------------------------

def dense_bracket(g, u, v):
    """The dense table loop: every coordinate of every pair, from +0.0."""
    u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
    out = np.zeros(u.shape)
    for (i, j), ck in g.bracket_table().items():
        w = u[..., i] * v[..., j] - u[..., j] * v[..., i]
        out += w[..., None] * ck
    return out


def word_product(g, x, y):
    x, y = np.broadcast_arrays(x, y)
    out = x + y
    for coeff, word in bch_plan(g.step):
        out = out + coeff * nested(g, word, x, y)
    return out


def word_derivative(g, x, y, v):
    out = np.broadcast_to(v, np.broadcast_shapes(v.shape, x.shape)).copy()
    y_is_zero = not np.any(y)
    for coeff, word in bch_plan(g.step):
        ny = word.count(Y)
        if ny == 0 or (y_is_zero and ny > 1):
            continue
        for pos in [p for p, s in enumerate(word) if s == Y]:
            out = out + coeff * nested(g, word[:pos] + (V,) + word[pos + 1 :], x, y, v)
    return out


def word_frame(g, x):
    basis = np.eye(g.q)
    return np.stack([word_derivative(g, x, np.zeros(g.q), basis[i]) for i in range(g.q)], axis=-1)


def assert_identical(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def points(rng, shape):
    """Uniform points with exact +0.0 and -0.0 entries mixed in."""
    p = rng.uniform(-1.0, 1.0, shape)
    flat = p.reshape(-1)
    flat[::5] = 0.0
    flat[2::7] = -0.0
    return p


A, B = 70, 65  # A * B rows span more than two blocks
assert A * B > 2 * BLOCK_ROWS
SHAPES = {
    "single": ((), ()),
    "batch": ((40,), (40,)),
    "single-batch": ((), (40,)),
    "outer": ((A, 1), (1, B)),
    "empty": ((0,), (0,)),
}


@pytest.mark.parametrize("shapes", SHAPES.values(), ids=SHAPES.keys())
@pytest.mark.parametrize("name", GROUPS)
def test_compiled_law_is_bit_identical_to_words(name, shapes):
    g = GROUPS[name]
    rng = np.random.default_rng(len(name))
    sx, sy = shapes
    x, y, v = points(rng, sx + (g.q,)), points(rng, sy + (g.q,)), points(rng, sy + (g.q,))
    assert_identical(g.bracket(x, y), dense_bracket(g, x, y))
    assert_identical(g.product(x, y), word_product(g, x, y))
    assert_identical(g.product_derivative_y(x, y, v), word_derivative(g, x, y, v))
    zero = np.zeros(g.q)
    assert_identical(g.product_derivative_y(x, zero, v), word_derivative(g, x, zero, v))
    assert_identical(g.frame(x), word_frame(g, x))
    assert_identical(g.frame(y), word_frame(g, y))


# ---------------------------------------------------------------------------
# identities on random graded groups
# ---------------------------------------------------------------------------

BASES = [GROUPS[name] for name in CATALOG] + [load_group(filiform(s)) for s in range(3, 7)]


@st.composite
def graded_groups(draw):
    """A catalog or filiform group in a random graded basis f = P e, with P
    block diagonal per layer, unit lower triangular and integer, so the new
    structure constants stay integer."""
    base = draw(st.sampled_from(BASES))
    q = base.q
    p = np.eye(q)
    for j in range(1, base.step + 1):
        sl = base.layer_slice(j)
        for a in range(sl.start, sl.stop):
            for b in range(sl.start, a):
                p[a, b] = draw(st.integers(-2, 2))
    c = np.zeros((q, q, q))
    for (i, j), vec in base.bracket_table().items():
        c[i, j], c[j, i] = vec, -vec
    # [f_a, f_b] = sum p_ai p_bj c_ij^k e_k and e_k = sum (P^-1)_kl f_l
    new = np.einsum("ai,bj,ijk,kl->abl", p, p, c, np.rint(np.linalg.inv(p)))
    brackets = [
        [a + 1, b + 1, l + 1, float(new[a, b, l])]
        for a in range(q)
        for b in range(a + 1, q)
        for l in range(q)
        if new[a, b, l] != 0
    ]
    return load_group({"name": f"{base.name}/P", "layers": list(base.layers), "brackets": brackets})


def sample(seed: int, g, count: int = 64) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-1.0, 1.0, (3, count, g.q))


def relative(a, b) -> float:
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))


SEEDS = st.integers(0, 2**32 - 1)
SCALES = st.floats(0.5, 2.0)


@settings(max_examples=40)
@given(graded_groups(), SEEDS)
def test_random_group_associative(g, seed):
    x, y, z = sample(seed, g)
    assert relative(g.product(g.product(x, y), z), g.product(x, g.product(y, z))) < 1e-9


@settings(max_examples=40)
@given(graded_groups(), SEEDS)
def test_random_group_inverse(g, seed):
    x, _, _ = sample(seed, g)
    assert np.all(g.product(x, -x) == 0.0)


@settings(max_examples=40)
@given(graded_groups(), SEEDS, SCALES)
def test_random_group_dilation_is_automorphism(g, seed, r):
    x, y, _ = sample(seed, g)
    assert relative(g.product(g.dilate(r, x), g.dilate(r, y)), g.dilate(r, g.product(x, y))) < 1e-9


@settings(max_examples=40)
@given(graded_groups(), SEEDS, SCALES)
def test_random_group_frame_homogeneous(g, seed, r):
    # A(delta_r x) = delta_r A(x) delta_{1/r}
    x, _, _ = sample(seed, g)
    deg = g.degrees
    conjugated = g.frame(x) * float(r) ** (deg[:, None] - deg[None, :])
    assert relative(g.frame(g.dilate(r, x)), conjugated) < 1e-9
