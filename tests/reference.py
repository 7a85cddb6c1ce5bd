"""Independent reference implementations that the tests check the library
against. They share no code with the piling kernel.
"""

from collections import deque
from typing import Optional

from raag.words import Word

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
