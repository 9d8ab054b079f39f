"""Coverage-steered generation: determinism and the superset guarantee.

The fast tests pin the structural properties at small budgets; the
``soak``-marked campaign is the issue's acceptance check — at
``--budget 200 --seed 0`` the steered campaign must cover a strict
superset of the pure-random campaign's feature buckets while every
verdict stays EQUIVALENT.
"""

import pytest

from repro.cov import CoverageMap, steered_specs
from repro.cov.features import generation_features, load_corpus_specs, unit_digest
from repro.gen import FuzzCampaign, generate_specs
from repro.gen.spec import parse_name


def _generation_coverage(specs) -> CoverageMap:
    corpus = load_corpus_specs()
    cov = CoverageMap()
    for spec in specs:
        cov.add(generation_features(spec, corpus=corpus), unit_digest(spec.name()))
    return cov


class TestDeterminism:
    def test_steered_stream_replays_identically(self):
        first = [spec.name() for spec in steered_specs(40, seed=3)]
        second = [spec.name() for spec in steered_specs(40, seed=3)]
        assert first == second

    def test_steered_names_replay_through_the_grammar(self):
        for spec in steered_specs(12, seed=5):
            assert parse_name(spec.name()) == spec

    def test_prefix_of_longer_run_matches_shorter_run(self):
        short = [spec.name() for spec in steered_specs(20, seed=9)]
        long = [spec.name() for spec in steered_specs(45, seed=9)]
        assert long[:20] == short

    def test_family_cycle_is_preserved(self):
        specs = steered_specs(30, seed=1)
        families = sorted({spec.family for spec in generate_specs(30, seed=1)})
        for index, spec in enumerate(specs):
            assert spec.family == families[index % len(families)]

    def test_campaign_steer_flag_switches_streams(self):
        random_campaign = FuzzCampaign(budget=30, seed=2)
        steered_campaign = FuzzCampaign(budget=30, seed=2, steer=True)
        assert [s.name() for s in steered_campaign.circuits()] == [
            s.name() for s in steered_specs(30, seed=2)
        ]
        assert [s.name() for s in random_campaign.circuits()] != [
            s.name() for s in steered_campaign.circuits()
        ]
        assert steered_campaign.to_dict()["steer"] is True


class TestSupersetGuarantee:
    @pytest.mark.parametrize("budget,seed", [(40, 0), (60, 1), (50, 7)])
    def test_generation_coverage_is_a_superset(self, budget, seed):
        random_buckets = set(
            _generation_coverage(generate_specs(budget, seed)).features()
        )
        steered = CoverageMap()
        steered_specs(budget, seed, coverage=steered)
        assert random_buckets <= set(steered.features())

    def test_accumulator_matches_recomputed_coverage(self):
        accumulated = CoverageMap()
        specs = steered_specs(30, seed=4, coverage=accumulated)
        assert accumulated == _generation_coverage(specs)


@pytest.mark.soak
class TestPinnedCampaign:
    """The issue's acceptance check: budget 200, seed 0."""

    def test_strict_superset_and_all_equivalent(self):
        from repro.eval import Runner

        random_cov = _generation_coverage(generate_specs(200, seed=0))
        steered_cov = CoverageMap()
        steered_specs(200, seed=0, coverage=steered_cov)
        random_buckets = set(random_cov.features())
        steered_buckets = set(steered_cov.features())
        assert random_buckets < steered_buckets  # strict superset

        campaign = FuzzCampaign(budget=200, seed=0, steer=True)
        report = Runner(jobs=1, cache=None).campaign(campaign.batch())
        assert report.all_equivalent, [
            record.get("circuit") for record in report.failures
        ]
        statuses = {record.get("status") for record in report.records}
        assert statuses == {"equivalent"}
