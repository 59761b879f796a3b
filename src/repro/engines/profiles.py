"""Engine capability profiles.

The paper benchmarks two open-source DBMSes and one commercial offering
whose spatial support differs along three axes it calls out explicitly:
available features (function set), predicate evaluation strategy, and
indexing. The three profiles below reproduce those axes mechanically —
no artificial delays, every timing difference comes from doing different
work:

``greenwood``
    PostGIS-like: R-tree index, exact geometry refinement that evaluates
    only the DE-9IM cells the predicate's mask leaves open and stops once
    the answer is decided, full function set.

``bluestem``
    MySQL-(5.x era)-like: R-tree index but **MBR-only** predicate
    semantics — ``ST_Contains`` et al. are answered on bounding boxes,
    which is fast and *wrong on purpose* (a superset/approximation), and
    a reduced analysis-function set. The answer-cardinality gap this
    creates is measured by ablation J-A1.

``ironbark``
    Commercial-like: quadtree tessellation index and exact refinement
    implemented by computing the **full DE-9IM matrix** and matching the
    predicate's pattern — the same kernel asked for every cell, so correct
    but heavier per candidate pair, mirroring the paper's "feature-rich
    but slower on refinement" commercial profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import is_
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence

from repro.algorithms import de9im
from repro.errors import TopologyError, UnsupportedFeatureError
from repro.faults import FAULTS
from repro.geometry.base import Envelope, Geometry
from repro.obs.waits import CPU_REFINE, WAITS


def _mbr_touches(a: Envelope, b: Envelope) -> bool:
    """Envelope touch: the boxes intersect but their interiors do not,
    that is, they meet where an edge of one lies on an edge of the other."""
    return (
        a.min_x <= b.max_x and b.min_x <= a.max_x
        and a.min_y <= b.max_y and b.min_y <= a.max_y
        and (
            a.min_x == b.max_x or b.min_x == a.max_x
            or a.min_y == b.max_y or b.min_y == a.max_y
        )
    )


def _mbr_overlaps(a: Envelope, b: Envelope) -> bool:
    """The boxes intersect and neither contains the other."""
    return (
        a.min_x <= b.max_x and b.min_x <= a.max_x
        and a.min_y <= b.max_y and b.min_y <= a.max_y
        and not (
            a.min_x <= b.min_x and b.max_x <= a.max_x
            and a.min_y <= b.min_y and b.max_y <= a.max_y
        )
        and not (
            b.min_x <= a.min_x and a.max_x <= b.max_x
            and b.min_y <= a.min_y and a.max_y <= b.max_y
        )
    )


def _mbr_within(a: Envelope, b: Envelope) -> bool:
    return b.contains(a)


def _mbr_disjoint(a: Envelope, b: Envelope) -> bool:
    return not a.intersects(b)


#: The one MBR table: every topological predicate answered on bounding
#: boxes alone. It is the whole verdict of the MBR-only profile, the
#: degraded verdict of the exact profiles when refinement fails, and the
#: test the spatial joins fuse into their candidate loops.
MBR_TESTS: Dict[str, Callable[[Envelope, Envelope], bool]] = {
    "st_equals": Envelope.__eq__,
    "st_disjoint": _mbr_disjoint,
    "st_intersects": Envelope.intersects,
    "st_touches": _mbr_touches,
    "st_within": _mbr_within,
    "st_coveredby": _mbr_within,
    "st_contains": Envelope.contains,
    "st_covers": Envelope.contains,
    "st_overlaps": _mbr_overlaps,
    "st_crosses": _mbr_overlaps,
}

#: ``p(a, b) == p'(b, a)`` for ``p' = CONVERSE[p]``; the predicates not
#: listed are symmetric
CONVERSE = {
    "st_within": "st_contains",
    "st_contains": "st_within",
    "st_coveredby": "st_covers",
    "st_covers": "st_coveredby",
}


def _mbr_predicate(name: str, ga: Geometry, gb: Geometry) -> bool:
    return EngineProfile.envelope_test(name)(ga.envelope, gb.envelope)


@dataclass(frozen=True)
class EngineProfile:
    """Immutable description of one benchmarked engine's spatial capability."""

    name: str
    description: str
    index_kind: str  # default CREATE SPATIAL INDEX structure
    predicate_mode: str  # 'fast' | 'matrix' | 'mbr'
    unsupported: FrozenSet[str] = frozenset()
    index_options: Dict[str, Any] = field(default_factory=dict)
    #: graceful degradation: answer with the MBR verdict when exact
    #: refinement raises :class:`TopologyError` (MBR-only profiles have
    #: nothing weaker to fall back to and keep failing loudly)
    mbr_fallback: bool = False

    @property
    def exact(self) -> bool:
        return self.predicate_mode != "mbr"

    def check_supported(self, func_name: str) -> None:
        if func_name in self.unsupported:
            raise UnsupportedFeatureError(
                f"engine {self.name!r} does not support {func_name}"
            )

    def evaluate_predicate(self, name: str, ga: Geometry, gb: Geometry) -> bool:
        first = self._shares_first(ga, gb)
        test = self.tester(name, ga if first else gb, first)
        if FAULTS.active:
            FAULTS.hit("geometry.refine")
        return test(gb if first else ga)

    def _shares_first(self, ga: Optional[Geometry], gb: Optional[Geometry]) -> bool:
        """The side a run of one pair is set up on: ``ga``, unless the
        profile can take the rectangle case (mask-directed refinement) and
        ``de9im.shares_first`` picks ``gb``."""
        return self.predicate_mode != "fast" or de9im.shares_first(ga, gb)

    def tester(
        self, name: str, fixed: Geometry, fixed_first: bool = True
    ) -> Callable[[Geometry], bool]:
        """Predicate ``name`` over a run of pairs that share the operand
        ``fixed``: the test answers ``name(fixed, g)`` for its argument
        ``g``, or ``name(g, fixed)`` when ``fixed`` is not first. What
        depends on ``fixed`` alone is set up once, here."""
        self.check_supported(name)
        if self.predicate_mode == "mbr":
            test, env = self.envelope_test(name, not fixed_first), fixed.envelope
            return lambda g: test(env, g.envelope)
        # ``st_touches`` -> ``touches``: the one table is de9im.PREDICATES
        return de9im.evaluator(
            name[3:], fixed, not fixed_first,
            every_cell=self.predicate_mode == "matrix",
        )

    @staticmethod
    def envelope_test(
        name: str, swapped: bool = False
    ) -> Callable[[Envelope, Envelope], bool]:
        """``name``'s entry in the one MBR table (:data:`MBR_TESTS`);
        ``swapped`` when the envelopes come in reverse argument order."""
        if swapped:
            name = CONVERSE.get(name, name)
        try:
            return MBR_TESTS[name]
        except KeyError:
            raise UnsupportedFeatureError(f"MBR semantics undefined for {name}")

    def join_filter(
        self, name: str, swapped: bool = False
    ) -> Optional[Callable[[Envelope, Envelope], bool]]:
        """The test a spatial join fuses into its candidate loop for
        predicate ``name``: the whole verdict on the MBR-only profile, so a
        rejected pair never becomes a row; ``None`` on exact profiles,
        where only the traversal's own envelope intersection is fused and
        :meth:`refine` decides the surviving pairs."""
        if self.exact:
            return None
        test = self.envelope_test(name, swapped)
        # every candidate pair already passed this one
        return None if test is Envelope.intersects else test

    def refine(
        self,
        name: str,
        firsts: Sequence[Optional[Geometry]],
        seconds: Sequence[Optional[Geometry]],
        stats=None,
    ) -> List[Optional[bool]]:
        """``name(firsts[i], seconds[i])`` for each pair of the parallel
        lists, NULL where either side is NULL: :meth:`evaluate_predicate`
        with graceful degradation, its test set up once per run of pairs
        that share an operand (:meth:`tester`).

        When exact refinement raises :class:`TopologyError` and the
        profile allows it, the pair is answered with the (superset) MBR
        verdict and a degraded result is counted on ``stats`` — mirroring
        how the paper's engines differ in what they do with numerically
        hostile input.
        """
        # refinement is attributed on-CPU time (CPU:Refine)
        return WAITS.timed(CPU_REFINE, self._refine_all)(
            name, firsts, seconds, stats
        )

    def _refine_all(self, name, firsts, seconds, stats):
        # Candidates arrive in runs that share one operand (a river and the
        # edges near it, a county and the lines inside it): the side that
        # repeats more often from one pair to the next is the shared one,
        # and each run sets up its test once. A batch of one pair is a run
        # of one, set up on the side ``de9im.shares_first`` picks.
        if len(firsts) > 1:
            fixed_first = (
                sum(map(is_, firsts, firsts[1:])) >= sum(map(is_, seconds, seconds[1:]))
            )
        else:
            fixed_first = not firsts or self._shares_first(firsts[0], seconds[0])
        answers: List[Optional[bool]] = []
        shared = test = None
        for a, b in zip(firsts, seconds):
            if a is None or b is None:
                answers.append(None)
                continue
            fixed, other = (a, b) if fixed_first else (b, a)
            try:
                if fixed is not shared:
                    test, shared = self.tester(name, fixed, fixed_first), fixed
                if FAULTS.active:
                    FAULTS.hit("geometry.refine")
                answers.append(test(other))
            except TopologyError:
                if not self.mbr_fallback:
                    raise
                answers.append(self._degraded(name, a, b, stats))
        return answers

    @staticmethod
    def _degraded(name, ga, gb, stats) -> bool:
        if stats is not None:
            stats.degraded_results += 1
        from repro.obs.metrics import GLOBAL

        GLOBAL.counter(
            "degraded_results_total",
            "exact refinements degraded to MBR verdicts",
        ).inc()
        return _mbr_predicate(name, ga, gb)


GREENWOOD = EngineProfile(
    name="greenwood",
    description="open-source, PostGIS-like: R-tree + exact mask-directed refinement",
    index_kind="rtree",
    predicate_mode="fast",
    mbr_fallback=True,
)

BLUESTEM = EngineProfile(
    name="bluestem",
    description="open-source, MySQL-5.x-like: R-tree + MBR-only predicates",
    index_kind="rtree",
    predicate_mode="mbr",
    unsupported=frozenset(
        {
            "st_convexhull",
            "st_pointonsurface",
            "st_simplify",
            "st_covers",
            "st_coveredby",
            "st_dwithin",
            "st_relate",
            "st_lineinterpolatepoint",
            "st_linelocatepoint",
            # no geodetic support (the paper's MySQL-era gap)
            "st_distancesphere",
            "st_lengthsphere",
            "st_areasphere",
        }
    ),
)

IRONBARK = EngineProfile(
    name="ironbark",
    description="commercial-like: quadtree tessellation + full-matrix refinement",
    index_kind="quadtree",
    predicate_mode="matrix",
    mbr_fallback=True,
)

PROFILES: Dict[str, EngineProfile] = {
    p.name: p for p in (GREENWOOD, BLUESTEM, IRONBARK)
}


def get_profile(name: str) -> EngineProfile:
    try:
        return PROFILES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown engine profile {name!r}; expected one of {sorted(PROFILES)}"
        )
