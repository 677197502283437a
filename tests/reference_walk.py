"""The NB walk's per-top-edge broken-set test, kept as an oracle.

``_walk`` is the walk the library used before it filed each minimal broken
set under its second-highest edge: at every child A+{j} it tests all the
broken sets whose highest edge is j.  The tests require the library's walk
to yield the same preorder stream.  Here the groups hold every broken set,
not only the inclusion-minimal ones, which blocks the same children.
"""

from hyperchrom import enumerate_delta_cycles
from hyperchrom.hypercore import _add_block


def reference_nb_walk(H, eta=None, max_size=None, need=0):
    """The old walk's ``(mask, size, components, blocks)`` stream for H under eta."""
    groups = [[] for _ in range(H.m)]
    for broken in enumerate_delta_cycles(H).broken_family(eta):
        groups[broken.mask.bit_length() - 1].append(broken.mask)
    limit = H.m if max_size is None else max_size
    return _walk(H.n, H.edge_vertex_masks(), groups, limit, need)


def _walk(n: int, vmasks: list[int], groups: list[list[int]], limit: int, need: int):
    m = len(vmasks)
    stop = need.bit_length() if need else m  # past it, only subsets holding need extend
    stack: list[tuple[int, list[int], int]] = []  # (edge added, blocks, union) before it
    mask, size, blocks, union, j = 0, 0, [], 0, 0
    yield mask, size, n, blocks
    while True:
        if j < m and size < limit and (j < stop or mask & need):
            new_mask = mask | 1 << j
            for bmask in groups[j]:
                if bmask & ~new_mask == 0:
                    break
            else:
                stack.append((j, blocks, union))
                blocks = _add_block(blocks, vmasks[j])
                union |= vmasks[j]
                mask = new_mask
                size += 1
                yield mask, size, n + len(blocks) - union.bit_count(), blocks
            j += 1
        elif stack:
            j, blocks, union = stack.pop()
            mask ^= 1 << j
            size -= 1
            j += 1
        else:
            return
