"""Pure-Python word normalization via the piling construction.

A word over a partially commutative alphabet is pushed letter by letter
onto per-generator stacks ("piles"): pushing generator i appends the
letter's 1-based position in the word to pile i and a zero marker to every
pile of a generator that does not commute with i. When the incoming letter
finds its own inverse on top of its pile, only commuting letters separate
the two occurrences, so the pair cancels and its footprint is popped. The
letters left on the piles after this one pass are the survivors: in their
original order they spell a maximally cancelled (reduced) word.

Depiling then emits, at every step, the smallest available generator
(front of its pile holds a real letter, i.e. no earlier non-commuting
letter remains). This yields the lexicographically least reduced word of
the commutation class, which is the canonical form used for equality
tests throughout the package.

raag._speedups, when built, exports normalize and survivors with the same
contracts and is preferred (see raag._kernel). Unlike it, this module does
not check each letter code against n: the package calls the kernel only on
the codes of a Word, whose letters are checked when the Word is built, so a
per-letter check here would only slow the hot path.
"""


def _pile(codes, n, noncomm):
    """The push pass: per generator, the pile of 1-based positions of its
    surviving letters, with 0 marking a letter of a non-commuting
    generator; and the number of survivors."""
    piles = [[] for _ in range(n)]
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


def normalize(codes, n, noncomm):
    """Canonical reduced form of a word.

    codes: sequence of signed generator codes, +(i+1) for generator i,
        -(i+1) for its inverse.
    n: number of generators.
    noncomm: per generator index, the indices of the *distinct*
        non-adjacent (non-commuting) generators.

    Returns the canonical word as a list of signed codes: reduced, and
    smallest in letter order (generator index ascending) among all
    commutation-equivalent reduced words.
    """
    piles, count = _pile(codes, n, noncomm)
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


def survivors(codes, n, noncomm):
    """The 0-based positions of the letters of codes that survive the
    piling pass, ascending. The letters at these positions, in this order,
    form a reduced word for the same element, as long as normalize's
    output. Arguments as for normalize."""
    piles, _ = _pile(codes, n, noncomm)
    return sorted(pos - 1 for p in piles for pos in p if pos)
