"""Graph() against the edge-set constructor it replaced.

EdgeSetGraph keeps the constructor Graph had while it stored its edges
three ways: it checks each pair, keeps the normalised pairs in a set, and
fills the ascending neighbor tuples and the masks from one walk over the
sorted set.  Graph() now only ORs each checked pair into the masks and
builds the tuples from them on their first read.  On every pair list,
repeats, both orientations and bad pairs included, the two must store the
same masks, give the same tuples, m, degrees, edges, equality and hash,
and refuse with the same message at the same pair.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from kegraphs.constructions import random_graph
from kegraphs.graph import Edge, Graph, GraphError, _ascending_edges


class EdgeSetGraph:
    """Graph's constructor, m, degree, edges, == and hash as they were when
    the neighbor tuples were built in the constructor from a sorted edge
    set."""

    __slots__ = ("n", "_adj", "_masks")

    def __init__(self, n, edges=()):
        if type(n) is not int or n < 0:
            raise GraphError(f"vertex count must be a nonnegative integer, got {n!r}")
        self.n = n
        edge_set: set[Edge] = set()
        for u, v in edges:
            if u == v or not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n):
                if u == v and type(u) is int and type(v) is int:
                    raise GraphError(f"self-loop at vertex {u}")
                raise GraphError(f"edge ({u!r}, {v!r}) out of range for n={n}")
            edge_set.add((u, v) if u < v else (v, u))
        adj: list[list[int]] = [[] for _ in range(n)]
        masks = [0] * n
        for u, v in sorted(edge_set):
            adj[u].append(v)
            adj[v].append(u)
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self._adj = tuple(map(tuple, adj))
        self._masks = tuple(masks)

    @property
    def edges(self):
        return frozenset(_ascending_edges(self._adj))

    @property
    def m(self):
        return sum(map(len, self._adj)) // 2

    def degree(self, v):
        return len(self._adj[v])

    def __eq__(self, other):
        return self.n == other.n and self._masks == other._masks

    def __hash__(self):
        return hash((self.n, self._masks))


def view_built(g: Graph, slot: str) -> bool:
    """Whether g's view slot ("_adj" or "_edges") holds a value, read
    through the slot itself so that the read builds nothing."""
    try:
        getattr(Graph, slot).__get__(g, Graph)
    except AttributeError:
        return False
    return True


# Besides in-range ids: ids just outside [0, n), and values that are no
# vertex id although they compare equal to one.
ENDPOINTS = st.one_of(st.integers(-2, 11), st.sampled_from([True, False, 1.0, "1", None]))


@st.composite
def pair_lists(draw, n):
    """Pairs on n vertices, some repeated and some reversed, and at times
    one that Graph must refuse."""
    ids = st.integers(0, max(n - 1, 0))
    pairs = [(u, v) for u, v in draw(st.lists(st.tuples(ids, ids), max_size=20)) if u != v]
    if pairs:
        pairs += [(v, u) for u, v in draw(st.lists(st.sampled_from(pairs), max_size=5))]
    pairs = draw(st.permutations(pairs))
    if draw(st.booleans()):
        bad = draw(st.tuples(ENDPOINTS, ENDPOINTS))
        pairs.insert(draw(st.integers(0, len(pairs))), bad)
    return pairs


ORDERS = st.one_of(st.integers(0, 10), st.sampled_from([-1, True, 2.0]))


def _build(cls, n, pairs):
    try:
        return cls(n, pairs), None
    except GraphError as exc:
        return None, str(exc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_both_constructors_give_the_same_graph_or_the_same_refusal(data):
    n = data.draw(ORDERS)
    pairs = data.draw(pair_lists(n if type(n) is int else 3))
    old, old_refusal = _build(EdgeSetGraph, n, pairs)
    new, new_refusal = _build(Graph, n, pairs)
    assert new_refusal == old_refusal
    if old is None:
        return
    assert new._masks == old._masks
    assert new.m == old.m
    assert [new.degree(v) for v in range(n)] == [old.degree(v) for v in range(n)]
    assert hash(new) == hash(old)
    # m, degree and hash read the masks alone
    assert not view_built(new, "_adj") and not view_built(new, "_edges")
    assert new._adj == old._adj
    assert sorted(new.edges) == sorted(old.edges)
    other_pairs = data.draw(st.one_of(st.just(pairs[::-1]), pair_lists(n)))
    other_old, _ = _build(EdgeSetGraph, n, other_pairs)
    other_new, _ = _build(Graph, n, other_pairs)
    if other_old is not None:
        assert (new == other_new) == (old == other_old)


def test_building_the_views_changes_neither_equality_nor_hash():
    for seed in range(30):
        read = random_graph(9, 0.4, seed)
        unread = random_graph(9, 0.4, seed)
        assert read._adj and read.edges is not None
        assert view_built(read, "_adj") and not view_built(unread, "_adj")
        assert read == unread and unread == read
        assert hash(read) == hash(unread)
        assert not view_built(unread, "_adj") and not view_built(unread, "_edges")


def test_an_unknown_attribute_is_still_an_attribute_error():
    g = Graph(2, [(0, 1)])
    for name in ("adj", "_edge_set", "__setstate_extra__"):
        try:
            getattr(g, name)
        except AttributeError as exc:
            assert name in str(exc)
        else:
            raise AssertionError(f"Graph has {name}")
    assert not hasattr(g, "__dict__")
