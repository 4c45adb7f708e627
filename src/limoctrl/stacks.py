"""Evaluate per-plant work as stacks of same-size members.

numpy's fixed cost per call dominates the array work of one plant at small
n, so the stacked forms in riccati, evaluation and graphs evaluate the
members of one size n as (m, n, n) stacks, one call per step for the whole
stack. in_stacks is the one driver they share: it groups by n, caps each
stack, and hands the results back in input order.
"""
import numpy as np


# Entries in one (m, n, n) array of a stack. A stack saves numpy's per-call
# overhead, which dominates only at small n, while its working set grows as
# m n^2: eight n = 60 plants in one Riccati stack raised the peak RSS of a
# process by 6 MB. Larger same-size groups are evaluated in several stacks.
STACK_ENTRIES = 4096


def in_stacks(items, size, evaluate, lone):
    """Yield one result per item, in input order.

    size(item) is the item's n. Items of one n are evaluated together in
    stacks of at most STACK_ENTRIES // n^2 members: evaluate(stack) returns
    one result per member, or the exception that evaluating the member
    alone raises. A stack is evaluated when its first member's turn comes,
    and a stack of one goes through lone(item) instead. A member's exception
    is raised at its turn, so a caller that uses each result as it comes
    holds at most one stack's results per size, and no stack behind the
    first failure in input order is evaluated.
    """
    items = list(items)
    groups = {}
    for pos, item in enumerate(items):
        groups.setdefault(size(item), []).append(pos)
    ready = {}                   # position -> result of an evaluated stack
    for pos, item in enumerate(items):
        if pos not in ready:
            # pos heads the unevaluated rest of its size group
            n = size(item)
            group = groups[n]
            members = group[:max(1, STACK_ENTRIES // (n * n))]
            del group[:len(members)]
            if len(members) == 1:
                yield lone(item)
                continue
            ready.update(zip(members, evaluate([items[k] for k in members])))
        result = ready.pop(pos)
        if isinstance(result, Exception):
            raise result
        yield result


def stack(arrays):
    """The same-shape arrays as one (m, ...) stack. A single array is viewed,
    not copied: at n = 200 each n x n copy is a fresh 320 KB buffer whose
    pages are faulted in again on every lone call."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def split(items, error_of):
    """The results list of a stack, holding error_of(item) for each item it
    returns an exception for and None elsewhere, with the positions and the
    items of the rest, the members left to evaluate."""
    results = [error_of(item) for item in items]
    ok = [pos for pos, error in enumerate(results) if error is None]
    return results, ok, [items[pos] for pos in ok]


def only(results):
    """The result of a stack of one, raised if it is an exception."""
    (result,) = results
    if isinstance(result, Exception):
        raise result
    return result
