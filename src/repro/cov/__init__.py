"""Structural coverage for fuzzing campaigns (`repro.cov`).

Pure-random fuzzing re-explores the same shallow DAG shapes while whole
regions of the flow go untested.  This package turns the fuzzer into a
search: every generated circuit and every ``(circuit, flow)`` verdict is
bucketed into deterministic structural *features*, accumulated in a
:class:`CoverageMap`, and fed back into generation so the campaign
biases itself toward uncovered buckets.

* :mod:`repro.cov.map` — :class:`CoverageMap`: feature id -> set of
  contributing unit digests.  ``add`` is monotone and ``merge`` is an
  exact set union (associative, commutative, idempotent), so per-worker
  and per-shard maps combine into precisely the map a single worker
  would have produced;
* :mod:`repro.cov.features` — deterministic feature extraction:
  gate-alphabet histogram x depth buckets, latch count/topology
  classes, family parameter-region quartiles, shrink-corpus
  neighborhoods, and flow-variant x mapped-cell-family hits;
* :mod:`repro.cov.steer` — coverage-steered spec generation
  (:func:`steered_specs`): a drop-in for
  :func:`repro.gen.spec.generate_specs` that replaces
  coverage-redundant uniform draws with draws biased toward uncovered
  parameter regions — a pure function of ``(budget, seed, families)``
  whose generation coverage is guaranteed a superset of the
  pure-random campaign's;
* :mod:`repro.cov.soak` — resumable soak campaigns: batches are
  checkpointed to schema-versioned JSON (corpus + coverage + cursor)
  after every batch, shards partition one deterministic unit stream,
  and shard checkpoints merge into the single-shard result exactly;
* :mod:`repro.cov.report` — the hit/miss matrix and new-feature-rate
  rendering behind ``repro fuzz --coverage-report``.

CLI: ``repro fuzz --soak --checkpoint DIR [--shards N]`` and
``repro fuzz --coverage-report``; see ``docs/fuzzing.md``.
"""

from .map import COV_SCHEMA, CoverageMap
from .features import (
    corpus_features,
    feature_universe,
    fold_fuzz_units,
    generation_features,
    load_corpus_specs,
    region_features,
    structural_features,
    unit_digest,
)
from .steer import steered_specs
from .soak import (
    SOAK_SCHEMA,
    SoakCampaign,
    SoakState,
    checkpoint_path,
    load_state,
    merge_states,
    run_soak,
)
from .report import render_coverage_report, render_new_feature_rate

__all__ = [
    "COV_SCHEMA",
    "CoverageMap",
    "SOAK_SCHEMA",
    "SoakCampaign",
    "SoakState",
    "checkpoint_path",
    "corpus_features",
    "feature_universe",
    "fold_fuzz_units",
    "generation_features",
    "load_corpus_specs",
    "load_state",
    "merge_states",
    "region_features",
    "render_coverage_report",
    "render_new_feature_rate",
    "run_soak",
    "steered_specs",
    "structural_features",
    "unit_digest",
]
