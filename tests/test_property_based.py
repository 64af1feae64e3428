"""Property-based tests (hypothesis) for the core invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import diameter
from repro.core import PolarStarConfig, build_polarstar, star_product
from repro.core.moore import moore_bound, starmax_bound
from repro.core.polarstar import design_space
from repro.fields import GF, prime_powers_up_to
from repro.graphs import Graph, er_polarity_graph, inductive_quad
from repro.routing import PolarStarRouter, TableRouter, route_path

PRIME_POWERS = prime_powers_up_to(16)


# -- strategies ---------------------------------------------------------------

@st.composite
def small_graphs(draw, min_n=2, max_n=12):
    n = draw(st.integers(min_n, max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), max_size=3 * n, unique=True))
    return Graph(n, edges)


@st.composite
def small_graphs_with_bijection(draw):
    g = draw(small_graphs())
    perm = draw(st.permutations(range(g.n)))
    return g, np.array(perm)


@st.composite
def seeded_random_graphs(draw, max_n=140):
    """Sparse random graphs from a drawn seed: up to a few words of
    vertices, with isolated vertices and several components."""
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    e = rng.integers(0, n, size=(int(draw(st.floats(0.0, 6.0)) * n / 2), 2))
    return Graph(n, e[e[:, 0] != e[:, 1]])


@st.composite
def connected_small_graphs(draw):
    n = draw(st.integers(2, 10))
    # spanning path + random extras guarantees connectivity
    edges = [(i, i + 1) for i in range(n - 1)]
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges += draw(st.lists(st.sampled_from(possible), max_size=2 * n, unique=True))
    return Graph(n, edges)


# -- star product invariants ---------------------------------------------------

@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_graphs_with_bijection(), small_graphs())
def test_star_product_order_and_degree(gf, structure):
    supernode, f = gf
    sp = star_product(structure, supernode, f)
    # Fact 1: order multiplies.
    assert sp.graph.n == structure.n * supernode.n
    # Fact 2: degree bounded by the degree sum (+1 if structure self-loops,
    # which small_graphs never produce).
    assert sp.graph.max_degree <= structure.max_degree + supernode.max_degree


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_graphs_with_bijection(), connected_small_graphs())
def test_star_product_edge_rule(gf, structure):
    """Every product edge is either a supernode edge or a bijection edge."""
    supernode, f = gf
    sp = star_product(structure, supernode, f)
    finv = np.empty_like(f)
    finv[f] = np.arange(len(f))
    for a, b in sp.graph.edges():
        (x, xp), (y, yp) = sp.split(a), sp.split(b)
        if x == y:
            assert supernode.has_edge(xp, yp)
        else:
            assert structure.has_edge(x, y)
            lo, lo_p = (x, xp) if x < y else (y, yp)
            hi_p = yp if x < y else xp
            assert hi_p == f[lo_p]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from([q for q in PRIME_POWERS if q >= 2]),
    st.sampled_from([0, 3, 4, 7]),
)
def test_polarstar_diameter_three(q, dprime):
    """Theorem 4: every ER_q * IQ_d' has diameter at most 3."""
    cfg = PolarStarConfig(q=q, dprime=dprime, supernode_kind="iq")
    sp = build_polarstar(cfg)
    assert diameter(sp.graph) <= 3


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([(2, 3), (3, 3), (3, 4), (4, 3), (5, 4), (4, 7)]), st.data())
def test_polarstar_routing_minimal_random_pairs(params, data):
    """The analytic router matches BFS distance on random pairs."""
    q, dp = params
    cfg = PolarStarConfig(q=q, dprime=dp, supernode_kind="iq")
    sp = build_polarstar(cfg)
    router = PolarStarRouter(sp)
    oracle = TableRouter(sp.graph)
    src = data.draw(st.integers(0, sp.graph.n - 1))
    dst = data.draw(st.integers(0, sp.graph.n - 1))
    path = route_path(router, src, dst, max_hops=6)
    assert len(path) - 1 == oracle.distance(src, dst)


# -- bound invariants ----------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(3, 200))
def test_moore_bound_monotone(d):
    assert moore_bound(d, 3) > moore_bound(d, 2) > moore_bound(d, 1)
    assert moore_bound(d + 1, 3) > moore_bound(d, 3)


@settings(max_examples=40, deadline=None)
@given(st.integers(8, 128))
def test_design_space_consistency(radix):
    for cfg in design_space(radix):
        assert cfg.radix == radix
        assert cfg.order == cfg.structure_order * cfg.supernode_order
        assert cfg.order <= starmax_bound(radix)
        assert cfg.order <= moore_bound(radix, 3)


# -- field/graph invariants -----------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.sampled_from(PRIME_POWERS), st.data())
def test_er_orthogonality_symmetric(q, data):
    """Orthogonality (hence ER adjacency) is symmetric."""
    from repro.graphs.er_polarity import projective_points

    F = GF(q)
    pts = projective_points(q)
    i = data.draw(st.integers(0, len(pts) - 1))
    j = data.draw(st.integers(0, len(pts) - 1))
    assert (int(F.dot3(pts[i], pts[j])) == 0) == (int(F.dot3(pts[j], pts[i])) == 0)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([0, 3, 4, 7, 8, 11, 12]))
def test_iq_rstar_coverage_exhaustive(d):
    """R* coverage, stated directly: for every pair, one of the four cases."""
    g, f = inductive_quad(d)
    for x in range(g.n):
        for y in range(g.n):
            if x == y or y == f[x]:
                continue
            assert g.has_edge(x, y) or g.has_edge(int(f[x]), int(f[y]))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(connected_small_graphs(), st.data())
def test_table_router_paths_are_shortest(g, data):
    router = TableRouter(g)
    import networkx as nx

    nxg = g.to_networkx()
    u = data.draw(st.integers(0, g.n - 1))
    v = data.draw(st.integers(0, g.n - 1))
    assert router.distance(u, v) == nx.shortest_path_length(nxg, u, v)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seeded_random_graphs(), st.data())
def test_hop_distances_match_scipy_bfs(g, data):
    """The bitset BFS kernel equals SciPy's BFS, sentinel for unreachable."""
    from scipy.sparse.csgraph import shortest_path

    from repro.analysis import hop_distances
    from repro.routing.table import build_distance_table

    sources = data.draw(st.lists(st.integers(0, g.n - 1), max_size=2 * g.n))
    d = shortest_path(g.csr(), unweighted=True, indices=sources)
    expected = np.where(np.isinf(d), np.iinfo(np.int16).max, d).astype(np.int16)
    got = hop_distances(g, sources)
    assert got.dtype == np.int16
    np.testing.assert_array_equal(got, expected.reshape(len(sources), g.n))
    table = build_distance_table(g)
    np.testing.assert_array_equal(table[sources], got)
    np.testing.assert_array_equal(table, table.T)


# -- flow conservation -----------------------------------------------------------

@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(connected_small_graphs(), st.data())
def test_flow_conservation(g, data):
    """Total link load equals sum over pairs of demand x hops: BFS distance
    in all mode, the length of the router's own path in single mode."""
    from repro.routing import route_path
    from repro.sim.flow import link_loads
    from repro.topologies.base import Topology, uniform_endpoints

    topo = Topology(g, uniform_endpoints(g.n, 1), name="t")
    router = TableRouter(g)
    n = g.n
    demand = np.zeros((n, n))
    for _ in range(data.draw(st.integers(1, 5))):
        s = data.draw(st.integers(0, n - 1))
        t = data.draw(st.integers(0, n - 1))
        if s != t:
            demand[s, t] += 1.0
    pairs = list(zip(*np.nonzero(demand)))
    hops = {
        "all": [router.dist[s, t] for s, t in pairs],
        "single": [len(route_path(router, int(s), int(t))) - 1 for s, t in pairs],
    }
    for mode, pair_hops in hops.items():
        loads = link_loads(topo, router, demand, mode=mode)
        expected = sum(demand[s, t] * h for (s, t), h in zip(pairs, pair_hops))
        assert loads.sum() == pytest.approx(expected)
