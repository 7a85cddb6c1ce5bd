"""Independent reference implementations that the tests check the library
against. oracle_is_trivial shares no code with the piling kernel;
enumerate_reduced_words reaches it only through is_reduced, and lists every
reduced spelling, not one word per element. ext_adjacent is the extension
graph's adjacency as defined (two distinct conjugates that commute), decided
by commutes on one pair of vertices; ext_ball derives the same adjacency
from conjugator supports instead. automorphisms_by_brute_force lists a
graph's automorphism group by trying every vertex permutation, and closure
lists the group that some permutations generate. marker_normalize and
marker_survivors are the piling kernel as first written: every push leaves
a zero marker on each pile of a non-commuting generator, and a letter
cancels only against a real letter on top of its own pile.
reach_sets_by_name and full_embedding_problem spell the reach sets of a
clique chain and the check of a full-embedding outcome with vertex names,
support name sets and join_decompose, where raag.embedding keeps vertex
sets as bitmasks. degree_prefilter is full_embedding_search's candidate
rule, target by target for each source vertex.
"""

import itertools
from collections import deque
from typing import Iterator, Optional

from raag.extension import ExtVertex
from raag.graphs import Graph, join_decompose, verify_full_embedding
from raag.words import Word, commutes, is_reduced, support

_DEFAULT_ORACLE_BUDGET = 2_000_000


def oracle_is_trivial(w: Word, budget: int = _DEFAULT_ORACLE_BUDGET) -> Optional[bool]:
    """Independent word-problem oracle.

    Breadth-first search over the moves {cancel an adjacent inverse pair,
    transpose adjacent letters on distinct adjacent vertices}; True iff the
    empty word is reached. Both moves are length-nonincreasing, so the
    reachable set is finite and is exhausted unless the visited-state
    budget is exceeded, in which case None (inconclusive) is returned.
    Deliberately shares no code with the piling kernel.
    """
    g = w.graph
    # compact state encoding: one char per letter
    chars = "".join(
        chr((abs(c) - 1) * 2 + (0 if c > 0 else 1)) for c in w.codes()
    )
    if not chars:
        return True
    n = len(g.vertices)
    cancel_pairs = set()
    swap_pairs = set()
    for i in range(n):
        cancel_pairs.add(chr(2 * i) + chr(2 * i + 1))
        cancel_pairs.add(chr(2 * i + 1) + chr(2 * i))
        for j in range(n):
            if g._nbr[i] >> j & 1:
                for si in (0, 1):
                    for sj in (0, 1):
                        swap_pairs.add(chr(2 * i + si) + chr(2 * j + sj))
    seen = {chars}
    queue = deque([chars])
    while queue:
        cur = queue.popleft()
        for k in range(len(cur) - 1):
            pair = cur[k:k + 2]
            if pair in cancel_pairs:
                nxt = cur[:k] + cur[k + 2:]
                if not nxt:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    if len(seen) > budget:
                        return None
                    queue.append(nxt)
            if pair in swap_pairs:
                nxt = cur[:k] + pair[1] + pair[0] + cur[k + 2:]
                if nxt not in seen:
                    seen.add(nxt)
                    if len(seen) > budget:
                        return None
                    queue.append(nxt)
    return False


def _marker_pile(codes, noncomm):
    """The marker push pass: per generator, the pile of 1-based positions
    of its surviving letters, with 0 marking a letter of a non-commuting
    generator; and the number of survivors."""
    piles = [[] for _ in noncomm]
    count = 0
    pos = 0
    for c in codes:
        pos += 1
        i = c - 1 if c > 0 else -c - 1
        p = piles[i]
        if p and p[-1] and codes[p[-1] - 1] == -c:
            p.pop()
            for j in noncomm[i]:
                piles[j].pop()
            count -= 1
        else:
            p.append(pos)
            for j in noncomm[i]:
                piles[j].append(0)
            count += 1
    return piles, count


def marker_normalize(codes, noncomm):
    """The canonical reduced codes, as raag._purekernel.normalize: depiling
    emits the smallest generator whose pile shows a real letter, and
    consumes one marker from each pile of its noncomm row."""
    piles, count = _marker_pile(codes, noncomm)
    n = len(noncomm)
    out = []
    ptr = [0] * n
    while count:
        for i in range(n):
            k = ptr[i]
            p = piles[i]
            if k < len(p) and p[k]:
                out.append(codes[p[k] - 1])
                ptr[i] = k + 1
                for j in noncomm[i]:
                    ptr[j] += 1
                count -= 1
                break
        else:
            # a consistent push pass always leaves some pile showing a letter
            raise ValueError("no letter can be emitted while letters remain; is noncomm symmetric?")
    return out


def marker_survivors(codes, noncomm):
    """The 0-based positions left by the marker push pass, ascending, as
    raag._purekernel.survivors."""
    piles, _ = _marker_pile(codes, noncomm)
    return sorted(pos - 1 for p in piles for pos in p if pos)


def enumerate_reduced_words(g: Graph, max_len: int) -> Iterator[Word]:
    """All reduced words of length <= max_len, in shortlex order (length
    ascending, then letter order)."""
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    empty = Word(g, ())
    yield empty
    letters = [(c,) for i in range(1, len(g.vertices) + 1) for c in (i, -i)]
    level = [empty]
    for _ in range(max_len):
        nxt = []
        for w in level:
            for letter in letters:
                cand = Word._from_codes(g, w.codes() + letter)
                if is_reduced(cand):
                    nxt.append(cand)
                    yield cand
        level = nxt


def ext_adjacent(x: ExtVertex, y: ExtVertex) -> bool:
    """Adjacency in the extension graph: distinct and commuting."""
    if x.element.word.graph != y.element.word.graph:
        raise ValueError("extension vertices come from different source graphs")
    if x.element == y.element:
        return False
    return commutes(x.element.word, y.element.word)


def automorphisms_by_brute_force(g: Graph) -> set[tuple[int, ...]]:
    """Every permutation of g's vertex indices that keeps its neighbour
    masks."""
    n = len(g)
    return {
        p for p in itertools.permutations(range(n))
        if all(g._nbr[p[i]] == sum(1 << p[j] for j in range(n) if g._nbr[i] >> j & 1) for i in range(n))
    }


def stabilizer_orbits_by_brute_force(g: Graph) -> list[int]:
    """Per vertex index i, the mask of the images of i under the
    automorphisms of g that fix 0, ..., i - 1."""
    aut = automorphisms_by_brute_force(g)
    return [sum({1 << p[i] for p in aut if p[:i] == tuple(range(i))}) for i in range(len(g))]


def degree_prefilter(lam: Graph, gamma: Graph) -> list[int]:
    """Per source vertex s, the mask of the targets t with enough neighbours
    and enough non-neighbours to host s in an induced image of len(lam)
    vertices."""
    n, m = len(lam), len(gamma)
    ldeg = [lam.degree(v) for v in lam.vertices]
    gdeg = [gamma.degree(x) for x in gamma.vertices]
    return [sum(1 << t for t in range(m) if gdeg[t] >= ldeg[s] and m - 1 - gdeg[t] >= n - 1 - ldeg[s])
            for s in range(n)]


def closure(perms, n: int) -> set[tuple[int, ...]]:
    """The group of permutations of range(n) that perms generate."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        p = frontier.pop()
        for q in perms:
            r = tuple(q[x] for x in p)
            if r not in group:
                group.add(r)
                frontier.append(r)
    return group


def reach_sets_by_name(g: Graph, cliques) -> tuple[tuple[str, ...], ...]:
    """The reach sets Y_1..Y_{n-1} of the vertex-name sets C_1..C_n of a
    chain over g, as first defined: Y_1 = C_1, and Y_i keeps the vertices
    of C_i with a distinct non-neighbour in Y_{i-1}, each set in the order
    of C_i."""
    sets = [tuple(cliques[0])]
    for clique in cliques[1:-1]:
        prev = sets[-1]
        sets.append(tuple(y for y in clique if any(x != y and not g.adjacent(x, y) for x in prev)))
    return tuple(sets)


def full_embedding_problem(h, mapping) -> Optional[str]:
    """The first problem of mapping as a full-embedding outcome of h, or
    None: verify_full_embedding, then every image inside the union of the
    image supports, then per join component of the source (join_decompose)
    a 3-vertex component inside its own support union and a larger one
    vertex by vertex inside the support of its image."""
    try:
        chk = verify_full_embedding(h.source, h.target, mapping)
    except ValueError as exc:
        return f"embedding check failed: {exc}"
    if not chk:
        return f"embedding check failed: {chk.violation}"
    supp = set().union(*(support(w) for w in h.images.values()))
    outside = [v for v, x in mapping.items() if x not in supp]
    if outside:
        return f"image of {outside[0]!r} lies outside the homomorphism support"
    for comp in join_decompose(h.source).components if len(h.source) else ():
        verts = comp.graph.vertices
        if len(verts) == 3:
            comp_supp = set().union(*(support(h.images[v]) for v in verts))
            for v in verts:
                if mapping[v] not in comp_supp:
                    return f"vertex {v!r} mapped outside its component support"
        elif len(verts) > 1:
            for v in verts:
                if mapping[v] not in support(h.images[v]):
                    return f"anti-path vertex {v!r} mapped outside the support of its image"
    return None
