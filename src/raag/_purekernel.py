"""Pure-Python word normalization via the piling construction.

The push pass keeps one pile per generator: the ascending 0-based
positions of its surviving letters. A letter cancels against the top of
its own pile when that top is its inverse and no pile of a generator in
its noncomm row has a later top, so that only commuting letters separate
the two. Otherwise it is pushed. The survivors, in their original order,
spell a reduced word for the same element.

Depiling emits, at every step, the smallest generator whose front (earliest
position left) comes before the front of every generator in its noncomm
row: this spells the lexicographically least reduced word of the
commutation class, the canonical form used for equality tests throughout
the package. The earliest of all fronts always qualifies, for any table,
so depiling never stalls. Fronts only move later, so each generator keeps
the generator that last blocked it and rechecks it with one comparison.

Memory is O(letters + generators). raag._speedups, when built, runs the
same algorithm on the same piles in C, exports normalize and survivors
with the same contracts and is preferred (see raag._kernel). Unlike it,
this module does not check letter codes against len(noncomm): the package
calls the kernel only on the codes of a Word, whose letters are checked
when the Word is built.
"""


def _pile(codes, noncomm):
    """The push pass: per generator, the ascending positions of its
    surviving letters."""
    piles = [[] for _ in noncomm]
    for pos, c in enumerate(codes):
        i = c - 1 if c > 0 else -c - 1
        p = piles[i]
        if p and codes[p[-1]] == -c:
            for j in noncomm[i]:
                q = piles[j]
                if q and q[-1] > p[-1]:
                    break
            else:
                p.pop()
                continue
        p.append(pos)
    return piles


def normalize(codes, noncomm):
    """Canonical reduced form of a word.

    codes: sequence of signed generator codes, +(i+1) for generator i,
        -(i+1) for its inverse.
    noncomm: per generator index, the indices of the *distinct*
        non-adjacent (non-commuting) generators; its length is the number
        of generators.

    Returns the canonical word as a list of signed codes: reduced, and
    smallest in letter order (generator index ascending) among all
    commutation-equivalent reduced words.
    """
    piles = _pile(codes, noncomm)
    end = len(codes)
    for p in piles:
        p.append(end)
        p.reverse()
    front = [p[-1] for p in piles]
    blocker = list(range(len(piles)))
    out = []
    while True:
        for i, f in enumerate(front):
            if f == end or front[blocker[i]] < f:
                continue
            for j in noncomm[i]:
                if front[j] < f:
                    blocker[i] = j
                    break
            else:
                out.append(codes[f])
                piles[i].pop()
                front[i] = piles[i][-1]
                break
        else:
            return out


def survivors(codes, noncomm):
    """The 0-based positions of the letters of codes that survive the
    piling pass, ascending. The letters at these positions, in this order,
    form a reduced word for the same element, as long as normalize's
    output. Arguments as for normalize."""
    return sorted(pos for p in _pile(codes, noncomm) for pos in p)
