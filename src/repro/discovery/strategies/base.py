"""Strategy interface and shared search helpers.

A *discovery strategy* turns a :class:`~repro.discovery.context.SearchContext`
into a set of bags forming an acyclic schema.  Strategies never talk to
entropy caches directly — candidate enumeration lives
here and all CMI evaluation goes through ``context.scorer`` — so a new
search mode is one subclass registered with
:func:`repro.discovery.strategies.register_strategy`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

from repro.discovery.candidates import (
    binary_partitions,
    candidate_separators,
    greedy_partition,
)
from repro.discovery.context import SearchContext
from repro.discovery.scoring import (
    MVDSplit,
    SplitCandidate,
    prefer_split,
    rank_key,
)

Bag = frozenset[str]


@dataclass(frozen=True)
class SearchOutcome:
    """What a strategy returns: bags (pre-maximality) plus accepted splits.

    ``bags`` may contain nested or duplicate sets; the miner's finalize
    step reduces them to a maximal, deduplicated schema in order.
    """

    bags: tuple[Bag, ...]
    splits: tuple[MVDSplit, ...]


class DiscoveryStrategy:
    """Base class for pluggable search strategies.

    Subclasses set :attr:`name` (the registry key and CLI value) and
    implement :meth:`search`.
    """

    #: Registry key; also the CLI ``--strategy`` value.
    name = "abstract"

    def search(self, context: SearchContext) -> SearchOutcome:
        """Run the search described by ``context`` and return its bags."""
        raise NotImplementedError


def enumerate_split_candidates(
    context: SearchContext, attributes: Bag
) -> Iterator[SplitCandidate]:
    """All candidate splits of ``attributes``, in the canonical order.

    Mirrors the pre-refactor miner loop exactly: separators ascending by
    size then lexicographically; for each, every bipartition of the
    remainder when small enough, otherwise the single greedy partition.
    (The greedy fallback issues its own CMI probes through the context's
    engine, as before.)
    """
    for separator in candidate_separators(
        sorted(attributes), context.max_separator_size
    ):
        rest = attributes - separator
        if len(rest) < 2:
            continue
        if len(rest) <= context.exact_partition_limit:
            for left, right in binary_partitions(sorted(rest)):
                yield separator, left, right
        else:
            left, right = greedy_partition(
                context.relation,
                sorted(rest),
                separator,
                engine=context.engine,
            )
            yield separator, left, right


def best_split_in_context(
    context: SearchContext, attributes: Bag
) -> MVDSplit | None:
    """Lowest-CMI split of ``attributes``, or ``None`` if unsplittable.

    Scores the whole candidate batch through ``context.scorer`` and folds
    with :func:`prefer_split` in enumeration order — bit-for-bit the same
    winner as the pre-refactor serial scan.
    """
    if len(attributes) < 2:
        return None
    candidates = list(enumerate_split_candidates(context, attributes))
    if not candidates:
        return None
    best: MVDSplit | None = None
    for scored in context.scorer.score_batch(
        context.relation, candidates, engine=context.engine
    ):
        if best is None or prefer_split(scored, best):
            best = scored
    return best


def topdown_decompose(
    context: SearchContext,
    pick: Callable[[list[MVDSplit]], MVDSplit | None],
) -> SearchOutcome:
    """The shared top-down splitting loop, parameterized by the pick rule.

    At each node the full candidate batch is scored and handed to
    ``pick`` sorted by :func:`~repro.discovery.scoring.rank_key`;
    ``pick`` returns the split to recurse on or ``None`` to keep the set
    as one bag.  Recursion structure, the deadline gate, and the
    glued-schema acyclicity guard live here once, so every top-down
    strategy (strict-best ``recursive``, rng-among-top-k ``anytime``
    rounds) shares them exactly.
    """
    from repro.jointrees.gyo import is_acyclic

    accepted: list[MVDSplit] = []

    def decompose(attrs: Bag) -> list[Bag]:
        split = None
        if len(attrs) > 2 and not context.expired():
            candidates = list(enumerate_split_candidates(context, attrs))
            if candidates:
                scored = context.scorer.score_batch(
                    context.relation, candidates, engine=context.engine
                )
                split = pick(sorted(scored, key=rank_key))
        if split is None:
            return [attrs]
        combined = decompose(split.separator | split.left) + decompose(
            split.separator | split.right
        )
        # Recursive splits are not automatically closed under union:
        # each side's schema is acyclic, but gluing them can create a
        # cycle when a separator ends up scattered across bags.  Reject
        # such splits (keep the set as one bag).
        if not is_acyclic(combined):
            return [attrs]
        accepted.append(split)
        return combined

    bags = decompose(context.relation.schema.name_set)
    return SearchOutcome(tuple(bags), tuple(accepted))


def maximal_bags(bags: list[Bag]) -> list[Bag]:
    """Drop bags strictly contained in others, then dedupe keeping order."""
    maximal = [bag for bag in bags if not any(bag < other for other in bags)]
    seen: set[Bag] = set()
    schema: list[Bag] = []
    for bag in maximal:
        if bag not in seen:
            seen.add(bag)
            schema.append(bag)
    return schema
