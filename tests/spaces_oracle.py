"""The reference gadget attachment, kept for tests only.

``oracle_attach_gadgets`` is how :func:`posetgroups.attach_gadgets` built a
gadget space before it wedged copies of one closed gadget onto the column
space: it lists the column space's covers plus every attachment's pairs,
apex by apex, and closes the whole order again with
:meth:`posetgroups.FinitePoset.from_relations`.  The property tests compare
the closed form with it, slot by slot.
"""

from __future__ import annotations

from posetgroups import Base, FinitePoset, SPoint
from posetgroups.spaces import _fence_label, fence_sequence


def oracle_attach_gadgets(base: FinitePoset, spec) -> FinitePoset:
    """The column space plus its attachments, closed as one relation list."""
    n, r = spec.group.order, spec.levels
    fence = spec.mode.fence
    labels = list(base.labels)
    pairs = list(base.hasse)

    def add(label) -> int:
        labels.append(label)
        return len(labels) - 1

    for g in range(n):
        for lv in range(r):
            apex = base.index_of(Base(g, lv))
            pt_a, pt_b, pt_c, pt_d = (add(SPoint(kind, g, lv)) for kind in "ABCD")
            pairs += [(pt_c, pt_a), (pt_d, pt_a), (pt_c, pt_b), (apex, pt_b), (pt_d, apex)]
            if spec.mode.kind != "sandt":
                continue
            maxima = {i: add(_fence_label("max", i, g, lv, fence)) for i in range(1, fence + 3)}
            minima = {i: add(_fence_label("min", i, g, lv, fence)) for i in range(1, fence + 3)}
            cycle = [apex] + [maxima[i] if role == "max" else minima[i]
                              for role, i in fence_sequence(fence)]
            # even steps go up into a maximum, odd steps down into a minimum
            for k, (here, there) in enumerate(zip(cycle, cycle[1:] + [apex])):
                pairs.append((here, there) if k % 2 == 0 else (there, here))
    return FinitePoset.from_relations(labels, pairs)
