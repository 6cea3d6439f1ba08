"""The production tangent algebra against the Multivector oracle.

Degrees, homogeneous tangents and densities are computed from minors of the
frame-coefficient matrix; ``oracles.exterior`` computes the same n-vector by
wedging the lifted tangent vectors one at a time.  On random polynomial
charts at random interior points both must agree.
"""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nilgeom.algebra import Subspace, catalog_group, classify_subspace, load_group
from nilgeom.errors import NonSimpleProjection
from nilgeom.manifold import classify_point, parse_parametrization
from nilgeom.measure import intrinsic_density
from nilgeom.policy import DEFAULT_POLICY
from oracles.exterior import basis_vector, g_norm, lift_tangent, project_degree, wedge

FILIFORM6 = {
    "name": "filiform6",
    "layers": [2, 1, 1, 1, 1, 1],
    "brackets": [[1, k, k + 1, 1.0] for k in range(2, 7)],
}
GROUPS = [
    catalog_group(name)
    for name in ("abelian(3)", "heisenberg(1)", "heisenberg(2)", "h_type", "engel", "free2(3)")
] + [load_group(FILIFORM6)]


@st.composite
def polynomial_charts(draw):
    """A group, a chart of dimension n < q with polynomial coordinates of
    degree <= 3 in y1..yn, and an interior parameter point.  Parameter y_k
    enters one coordinate linearly, so most charts are immersions."""
    group = draw(st.sampled_from(GROUPS))
    n = draw(st.integers(1, min(group.q - 1, 3)))
    linear = draw(st.permutations(range(group.q)))[:n]
    coeff = st.integers(-4, 4).map(lambda k: k / 2.0)
    exprs = []
    for j in range(group.q):
        terms = [f"y{linear.index(j) + 1}" if j in linear else "0"]
        for _ in range(draw(st.integers(1, 3))):
            powers = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
            monomial = "".join(f"*y{i + 1}^{p}" for i, p in enumerate(powers) if p)
            terms.append(f"({draw(coeff)}){monomial}")
        exprs.append(" + ".join(terms))
    chart = parse_parametrization("; ".join(exprs), n, [[-1.0, 1.0]] * n, group)
    point = st.floats(-0.9, 0.9, allow_subnormal=False)
    y = np.array(draw(st.lists(point, min_size=n, max_size=n)))
    return chart, y


def oracle_htangent(group, top, n, rtol):
    """Kernel of X -> X ^ top by Multivector wedges, with its regularity."""
    images = [wedge(basis_vector(group, i), top) for i in range(group.q)]
    keys = sorted({key for w in images for key in w.terms})
    if not keys:
        raise NonSimpleProjection("top-degree projection is zero")
    mat = np.array([[w.terms.get(key, 0.0) for w in images] for key in keys])
    _, s, vt = np.linalg.svd(mat)
    kernel_dim = int(np.sum(s <= rtol * s[0])) + max(group.q - len(s), 0)
    if kernel_dim != n:
        raise NonSimpleProjection(f"wedge kernel has dimension {kernel_dim}")
    space = Subspace(group, vt[group.q - kernel_dim :].T)
    return space, classify_subspace(group, space, tol=rtol).subalgebra


def _htangent_or_none(compute):
    try:
        return compute()
    except NonSimpleProjection:
        return None


@settings(max_examples=300)
@given(polynomial_charts())
def test_minors_route_agrees_with_multivector_oracle(case):
    chart, y = case
    group, rtol = chart.group, DEFAULT_POLICY.rtol
    jac = chart.jacobian(y)
    # keep rank decisions away from the tolerance
    assume(np.linalg.cond(jac) < 1e6)
    xi = lift_tangent(group, chart.value(y), jac)

    analysis = classify_point(chart, y)
    degree = analysis.degree
    assert degree == xi.max_degree(rtol)

    # no h-tangent where the top-degree projection is not simple
    got = None if analysis.htangent is None else (analysis.htangent, analysis.regular)
    top = project_degree(xi, degree)
    want = _htangent_or_none(lambda: oracle_htangent(group, top, chart.n, rtol))
    assert (got is None) == (want is None)
    if got is not None:
        (space, regular), (ref_space, ref_regular) = got, want
        u, v = space.orthonormal_basis(), ref_space.orthonormal_basis()
        assert np.allclose(u @ u.T, v @ v.T, atol=1e-8)
        assert regular == ref_regular

    # the oracle prunes terms below 1e-9 of the largest at each wedge, so
    # its error is relative to the whole n-vector
    density = intrinsic_density(chart, y[None, :], degree)[0]
    assert density == pytest.approx(g_norm(top), rel=1e-8, abs=1e-8 * g_norm(xi))
