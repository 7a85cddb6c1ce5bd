"""The paper's two halves on one instance: extraction into extension balls.

extract_full runs on homomorphisms into ball_as_graph(ext_ball(gamma, r)),
an ordinary Graph, and each outcome is checked twice: by its own check(h),
and in A(gamma) through the natural map that sends each ball vertex to the
conjugate it names. That map is a homomorphism exactly when the ball's
edges are the commuting pairs, so
* the images of an embedding commute in A(gamma) exactly along the
  source's edges (distinct ball vertices commute iff they are adjacent,
  and so do nonzero powers of them), and
* the image of a kernel witness is trivial in A(gamma) as well.

The sample is seeded: random tables drawn by the harness's _random_hom
into four balls from four sources, plus planted tables for each pair
with a full embedding, whose images are nonzero powers of a
full_embedding_search result and of its conjugates. Ball vertex names
hold '@', '.' and '^-1', which parse_graph refuses, so the tables are
built in Python.
"""

import itertools
import random

import pytest

from raag.embedding import FullEmbedding, HomSpec, KernelWitness, extract_full
from raag.extension import ball_as_graph, ext_ball
from raag.graphs import full_embedding_search, graph_join, path_complement, path_graph
from raag.harness import _random_hom
from raag.words import Word, canonical_form, commutes, conjugate, is_trivial

from conftest import cycle_graph

DRAWS_PER_PAIR = 8
PLANTS_PER_PAIR = 6

TARGETS = {
    "C5 r1": (cycle_graph(5), 1),
    "C5 r2": (cycle_graph(5), 2),
    "P4 r2": (path_graph(4, prefix="a"), 2),
    "P5c r1": (path_complement(5, prefix="a"), 1),
}

SOURCES = {
    "P4c": path_complement(4, prefix="x"),
    "P5c": path_complement(5, prefix="x"),
    # the same join in both orders: factors are extracted in order, so an
    # obstruction in a first P2c factor is a witness that extract_full
    # re-homes on the join, and a first P3c factor yields the certificates
    "P3c+P2c": graph_join([path_complement(3, prefix="x"), path_complement(2, prefix="y")], name="J"),
    "P2c+P3c": graph_join([path_complement(2, prefix="y"), path_complement(3, prefix="x")], name="J"),
}


@pytest.fixture(scope="module")
def balls():
    return {name: ext_ball(g, r) for name, (g, r) in TARGETS.items()}


def natural_map(gamma, spelled, w):
    """The element of A(gamma) that the word w over a ball names: each
    letter becomes the conjugate its vertex spells, inverted for an inverse
    letter."""
    out = Word(gamma, ())
    for v, sign in w.letters:
        out = out * (spelled[v] if sign > 0 else spelled[v].inverse())
    return out


def planted(rng, ball, spelled, lam, bg):
    """Tables sending each source vertex to a nonzero power of its image
    under a full embedding into bg: the first one full_embedding_search
    finds, then that one conjugated by random elements of A(gamma) while
    it stays inside the ball. Conjugation is an automorphism of the
    extension graph, so each is a full embedding into the ball as well,
    and its vertices share last letters, whose edges ext_ball copies
    from shorter conjugators rather than scanning."""
    mapping = full_embedding_search(lam, bg)
    if mapping is None:
        return []
    gamma = ball.source
    vertex = {canonical_form(w): v for v, w in spelled.items()}
    found = [mapping]
    for _ in range(10 * PLANTS_PER_PAIR):
        if len(found) == PLANTS_PER_PAIR:
            break
        c = Word(gamma, [(rng.choice(gamma.vertices), rng.choice((1, -1))) for _ in range(rng.randint(1, ball.radius))])
        moved = {s: vertex.get(canonical_form(conjugate(spelled[t], c))) for s, t in mapping.items()}
        if None not in moved.values():
            found.append(moved)
    tables = []
    for mapping in found:
        images = {}
        for v in lam.vertices:
            k = rng.choice((-3, -2, -1, 1, 2, 3))
            images[v] = Word(bg, [(mapping[v], 1 if k > 0 else -1)] * abs(k))
        tables.append(HomSpec(lam, bg, images))
    return tables


def test_extraction_into_balls_agrees_with_the_ambient_group(balls):
    rng = random.Random(2017)
    tally = {"embedding": 0, "witness": 0, "lifted": 0, "certificate": 0}
    for tname, sname in itertools.product(TARGETS, SOURCES):
        ball, lam = balls[tname], SOURCES[sname]
        bg = ball_as_graph(ball)
        # the word over gamma that each ball vertex spells
        spelled = {v: x.element.word for v, x in zip(bg.vertices, ball.vertices)}
        plants = planted(rng, ball, spelled, lam, bg)
        for h in [_random_hom(rng, lam, bg) for _ in range(DRAWS_PER_PAIR)] + plants:
            out = extract_full(h)
            where = f"{sname} into {tname}: {out}"
            assert out.check(h) is None, where
            if h in plants:
                assert isinstance(out, FullEmbedding), where
            if isinstance(out, FullEmbedding):
                tally["embedding"] += 1
                image = {v: natural_map(ball.source, spelled, h.images[v]) for v in lam.vertices}
                for u, v in itertools.combinations(lam.vertices, 2):
                    assert commutes(image[u], image[v]) == lam.adjacent(u, v), (where, u, v)
            elif isinstance(out, KernelWitness):
                tally["witness"] += 1
                tally["lifted"] += 1 < len(out.component) < len(lam)
                assert is_trivial(natural_map(ball.source, spelled, h.apply(out.word))), where
            else:
                tally["certificate"] += 1
    # every kind of outcome is reached, a component witness re-homed on a
    # join among them, and the five pairs with an embedding planted theirs
    assert tally["embedding"] >= 5 * PLANTS_PER_PAIR and min(tally.values()) > 0, tally
