"""Structure isomorphism.

Exhaustive searches (gadget (≤) verification, bounded containment checks)
enumerate every structure over a small domain, but many candidates differ
only by a relabeling of elements — and every query count is invariant
under isomorphism.  This module provides an exact isomorphism test and an
iso-pruning filter for candidate streams.

The test is backtracking over element bijections with an invariant-based
pre-filter (per-element "color" profiles: how often an element occurs at
each position of each relation, plus constant names it interprets).
Exponential in the worst case, linear-ish on the tiny structures the
search procedures enumerate.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator, Mapping, TypeVar

from repro.relational.structure import Structure

__all__ = [
    "are_isomorphic",
    "find_isomorphism",
    "distinct_up_to_isomorphism",
    "refine_colors",
]

Element = Hashable
Item = TypeVar("Item")


def _compress(colors: Mapping[Item, Hashable]) -> dict[Item, int]:
    """Replace color values by their rank among the sorted distinct values.

    Keeps every color a small integer, so signatures stay cheap to build
    and compare across refinement rounds (naive ``(old, sig)`` nesting
    grows exponentially).  Ranking by the sorted ``repr`` of the distinct
    values is deterministic and isomorphism-invariant: two inputs with
    equal color-value multisets compress to equal rank assignments.
    """
    ranks = {
        value: rank
        for rank, value in enumerate(sorted(set(colors.values()), key=repr))
    }
    return {item: ranks[value] for item, value in colors.items()}


def refine_colors(
    initial: Mapping[Item, Hashable],
    signature: Callable[[Item, Mapping[Item, int]], Hashable],
) -> dict[Item, int]:
    """Iterated partition refinement (1-WL) to a stable integer coloring.

    Starting from ``initial`` colors, each round recolors every item with
    ``(old_color, signature(item, colors))`` — compressed back to integer
    ranks — until the induced partition stops splitting.  ``signature``
    must be invariant under isomorphism of whatever incidence the caller
    encodes (it sees the current colors, not item identities), which makes
    the final colors isomorphism-invariant too: two isomorphic inputs
    produce equal color multisets, and corresponding items get equal
    integers.  Refinement never merges classes, so the loop terminates
    after at most ``len(initial)`` rounds.

    Shared by the structure-isomorphism pre-filter below and the query
    canonicalization of :mod:`repro.homomorphism.cache`.
    """
    colors = _compress(initial)
    classes = len(set(colors.values()))
    for _ in range(len(colors)):
        refined = _compress(
            {item: (colors[item], signature(item, colors)) for item in colors}
        )
        refined_classes = len(set(refined.values()))
        if refined_classes == classes:
            return refined  # same partition: a fixed point
        colors, classes = refined, refined_classes
    return colors


def _interpreted(structure: Structure, element: Element) -> tuple[str, ...]:
    """Names of the constants the element interprets, sorted."""
    return tuple(
        sorted(
            name
            for name, value in structure.constants.items()
            if value == element
        )
    )


def _color(structure: Structure, element: Element) -> tuple:
    """An isomorphism-invariant fingerprint of one element."""
    occurrence_profile = []
    for name in structure.schema.relation_names:
        arity = structure.schema.arity(name)
        counts = [0] * arity
        for values in structure.facts(name):
            for position, value in enumerate(values):
                if value == element:
                    counts[position] += 1
        occurrence_profile.append((name, tuple(counts)))
    return (tuple(occurrence_profile), _interpreted(structure, element))


def _refined_colors(structure: Structure) -> dict[Element, Hashable]:
    """Stable 1-WL colors of the structure's elements.

    The occurrence-profile colors of :func:`_color` seed the refinement;
    each round then folds in the colors of co-occurring elements, so e.g.
    the two endpoints of the only asymmetric edge of an otherwise regular
    graph end up distinguished.  Strictly sharper than one round, still an
    isomorphism invariant.
    """
    incident: dict[Element, list[tuple[str, int, tuple]]] = {
        element: [] for element in structure.domain
    }
    for name in structure.schema.relation_names:
        for values in structure.facts(name):
            for position, value in enumerate(values):
                incident[value].append((name, position, values))

    def signature(element: Element, colors: Mapping[Element, Hashable]) -> tuple:
        return tuple(
            sorted(
                (
                    (name, position, tuple(colors[v] for v in values))
                    for name, position, values in incident[element]
                ),
                key=repr,
            )
        )

    initial = {element: _color(structure, element) for element in structure.domain}
    return refine_colors(initial, signature)


def _profile(structure: Structure) -> tuple:
    """A whole-structure invariant: sorted multiset of element colors."""
    return (
        structure.schema,
        tuple(sorted(structure.fact_count(n) for n in structure.schema.relation_names)),
        tuple(sorted(map(repr, _refined_colors(structure).values()))),
    )


def find_isomorphism(
    left: Structure, right: Structure
) -> dict[Element, Element] | None:
    """An element bijection mapping ``left`` onto ``right`` exactly.

    Constants must map to constants of the same name.  Returns the witness
    mapping or ``None``.
    """
    if left.schema != right.schema:
        return None
    if len(left.domain) != len(right.domain):
        return None
    for name in left.schema.relation_names:
        if left.fact_count(name) != right.fact_count(name):
            return None

    left_elements = sorted(left.domain, key=repr)
    # Refined ranks align corresponding elements of isomorphic structures;
    # the interpreted-constant names ride along explicitly because rank
    # compression is only guaranteed to agree across the two structures
    # when they *are* isomorphic, and constant matching must hold always.
    left_ranks = _refined_colors(left)
    right_ranks = _refined_colors(right)
    left_colors = {
        element: (left_ranks[element], _interpreted(left, element))
        for element in left.domain
    }
    right_colors: dict[Hashable, list[Element]] = {}
    for element in right.domain:
        color = (right_ranks[element], _interpreted(right, element))
        right_colors.setdefault(color, []).append(element)
    for element in left_elements:
        if left_colors[element] not in right_colors:
            return None

    # Most-constrained-first: rare colors first.
    left_elements.sort(key=lambda e: (len(right_colors[left_colors[e]]), repr(e)))

    mapping: dict[Element, Element] = {}
    used: set[Element] = set()

    def consistent_so_far(element: Element, image: Element) -> bool:
        """Check all facts whose support is fully mapped after this pair."""
        trial = dict(mapping)
        trial[element] = image
        for name in left.schema.relation_names:
            for values in left.facts(name):
                if element not in values:
                    continue
                if any(value not in trial for value in values):
                    continue
                mapped = tuple(trial[value] for value in values)
                if not right.has_fact(name, mapped):
                    return False
        return True

    def backtrack(index: int) -> bool:
        if index == len(left_elements):
            return True
        element = left_elements[index]
        for image in right_colors[left_colors[element]]:
            if image in used:
                continue
            if not consistent_so_far(element, image):
                continue
            mapping[element] = image
            used.add(image)
            if backtrack(index + 1):
                return True
            del mapping[element]
            used.discard(image)
        return False

    try:
        found = backtrack(0)
    finally:
        # ``backtrack`` calls itself through its closure cell, a reference
        # cycle that holds both structures: unlink it.
        del backtrack
    if found:
        # Fact counts are equal and the mapping preserves facts injectively,
        # so the image fact sets coincide; constants were matched by color.
        return dict(mapping)
    return None


def are_isomorphic(left: Structure, right: Structure) -> bool:
    return find_isomorphism(left, right) is not None


def distinct_up_to_isomorphism(
    structures: Iterable[Structure],
) -> Iterator[Structure]:
    """Filter a stream, keeping one representative per isomorphism class.

    Intended for the small-domain exhaustive streams of
    :mod:`repro.decision.search`; memory grows with the number of classes.
    """
    kept: dict[tuple, list[Structure]] = {}
    for structure in structures:
        key = _profile(structure)
        bucket = kept.setdefault(key, [])
        if any(are_isomorphic(structure, seen) for seen in bucket):
            continue
        bucket.append(structure)
        yield structure
