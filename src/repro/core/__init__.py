"""Core package-query machinery: the paper's primary contribution.

* :class:`~repro.core.package.Package` — the answer object (a multiset of
  tuples from the input relation),
* :mod:`~repro.core.translator` — the PaQL→ILP translation rules of
  Section 3.1,
* :class:`~repro.core.direct.DirectEvaluator` — the DIRECT strategy of
  Section 3.2,
* :class:`~repro.core.sketchrefine.SketchRefineEvaluator` — the scalable
  SKETCHREFINE strategy of Section 4, with the hybrid sketch of Section 4.4
  always on,
* :class:`~repro.core.naive.NaiveSelfJoinEvaluator` — the exhaustive
  self-join/enumeration baseline of Figure 1,
* :class:`~repro.core.engine.PackageQueryEngine` — the user-facing facade
  that ties catalog, parser, validator, partitionings and evaluators together;
  under AUTO it answers a possibly-false SKETCHREFINE infeasibility with
  DIRECT, the limit the paper's Section 4.4 mitigations all end in,
* :class:`~repro.core.cache.PackageCache` — delta-aware result caching keyed
  on canonical query fingerprints, with per-group revalidation for
  SKETCHREFINE answers.
"""

from repro.core.cache import CacheEntry, CacheLookup, CacheStats, PackageCache
from repro.core.package import Package
from repro.core.translator import IlpTranslation, translate_query
from repro.core.base_relations import compute_base_relation
from repro.core.direct import DirectEvaluator
from repro.core.naive import NaiveSelfJoinEvaluator
from repro.core.sketchrefine import SketchRefineEvaluator
from repro.core.engine import EvaluationResult, PackageQueryEngine
from repro.core.validation import check_package, objective_value

__all__ = [
    "Package",
    "PackageCache",
    "CacheEntry",
    "CacheLookup",
    "CacheStats",
    "IlpTranslation",
    "translate_query",
    "compute_base_relation",
    "DirectEvaluator",
    "NaiveSelfJoinEvaluator",
    "SketchRefineEvaluator",
    "PackageQueryEngine",
    "EvaluationResult",
    "check_package",
    "objective_value",
]
