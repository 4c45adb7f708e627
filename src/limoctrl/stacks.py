"""Evaluate per-plant work as stacks of same-size members.

numpy's fixed cost per call dominates the array work of one plant at small
n, so the stacked forms in plant, synthesis, riccati, evaluation and graphs
evaluate the members of one size n as (m, n, n) stacks, one call per step
for the whole stack. in_stacks is the one driver they share: it groups by
n, caps each stack, and hands the results back in input order. It is also
the one member gate: every stacked form passes a check, error_of(item), and
a pure kernel, and only the members that pass their check reach the kernel.
alone is the same gate for the lone forms.
"""
import numpy as np


# Entries in one (m, n, n) array of a stack. A stack saves numpy's per-call
# overhead, which dominates only at small n, while its working set grows as
# m n^2: eight n = 60 plants in one Riccati stack raised the peak RSS of a
# process by 6 MB. Larger same-size groups are evaluated in several stacks.
STACK_ENTRIES = 4096


def in_stacks(items, size, error_of, evaluate, lone):
    """Yield one result per item, in input order.

    size(item) is the item's n. Items of one n are evaluated together in
    stacks of at most STACK_ENTRIES // n^2 members. error_of(item) returns
    the exception a member fails its precondition with, or None; the
    members that pass are handed to evaluate(members), which returns one
    result per member, or the exception that evaluating the member alone
    raises. A stack is evaluated when its first member's turn comes, and a
    stack of one goes through lone(item) instead. A member's exception is
    raised at its turn, so a caller that uses each result as it comes holds
    at most one stack's results per size, and no stack behind the first
    failure in input order is evaluated.
    """
    items = list(items)
    sizes = [size(item) for item in items]
    groups = {}
    for pos, n in enumerate(sizes):
        groups.setdefault(n, []).append(pos)
    ready = {}                   # position -> result of an evaluated stack
    for pos, (item, n) in enumerate(zip(items, sizes)):
        if pos not in ready:
            # pos heads the unevaluated rest of its size group
            group = groups[n]
            members = group[:max(1, STACK_ENTRIES // (n * n))]
            del group[:len(members)]
            if len(members) == 1:
                yield lone(item)
                continue
            passed = []
            for k in members:
                error = error_of(items[k])
                if error:
                    ready[k] = error
                else:
                    passed.append(k)
            if passed:
                ready.update(zip(passed, evaluate([items[k] for k in passed])))
        result = ready.pop(pos)
        if isinstance(result, Exception):
            raise result
        yield result


def alone(item, error_of, evaluate):
    """The result of evaluate([item]), the stacked kernel on a stack of
    one, once item passes error_of; an exception either returns is
    raised."""
    error = error_of(item)
    if error:
        raise error
    (result,) = evaluate([item])
    if isinstance(result, Exception):
        raise result
    return result


def stack(arrays):
    """The same-shape arrays as one (m, ...) stack. A single array is viewed,
    not copied: at n = 200 each n x n copy is a fresh 320 KB buffer whose
    pages are faulted in again on every lone call."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def handed_over(cls, **fields):
    """An instance of the frozen dataclass cls holding the given arrays as
    they are.

    cls's __post_init__, which copies, shape-checks and freezes each array
    a caller passes, is skipped: this is for stacked builders whose arrays
    are rows of stacks they made and froze, so nothing else writes them.
    A member's arrays then keep their stack's buffers alive, at most
    STACK_ENTRIES entries each.
    """
    instance = object.__new__(cls)
    instance.__dict__.update(fields)
    return instance


def diagonals(values):
    """The (m, n, n) stack of diagonal matrices whose diagonals are the rows
    of the (m, n) array values, filled by a stride of n + 1 as np.diag
    fills one."""
    m, n = values.shape
    out = np.zeros((m, n, n))
    out.reshape(m, -1)[:, ::n + 1] = values
    return out
