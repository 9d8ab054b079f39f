"""Soak runs: checkpoint/resume byte-identity and exact shard merging.

The fast tests run tiny campaigns (small budgets, few patterns) through
the real runner with the result cache disabled, so they exercise the
genuine batch loop; the ``soak``-marked test repeats the contract at the
CI smoke scale.
"""

import pytest

from repro.cov.soak import (
    SoakCampaign,
    SoakState,
    checkpoint_path,
    load_state,
    merge_states,
    run_soak,
    shard_paths,
)
from repro.eval import Runner
from repro.gen import FuzzCampaign


def _campaign(budget=4, batch_size=3, shards=1, shard_index=0, **kwargs):
    fuzz = FuzzCampaign(
        budget=budget,
        seed=0,
        patterns=kwargs.pop("patterns", 8),
        sequence_length=kwargs.pop("sequence_length", 4),
        **kwargs,
    )
    return SoakCampaign(
        fuzz=fuzz, batch_size=batch_size, shards=shards, shard_index=shard_index
    )


def _runner():
    return Runner(jobs=1, cache=None)


class TestCheckpointing:
    def test_run_checkpoints_and_completes(self, tmp_path):
        campaign = _campaign()
        state = run_soak(campaign, _runner(), tmp_path)
        assert state.complete
        assert state.units_done == state.units_total == len(campaign.shard_units())
        assert len(state.coverage) > 0
        assert state.batches and sum(b["units"] for b in state.batches) == state.units_done
        path = checkpoint_path(tmp_path, 1, 0)
        assert path.exists()
        assert load_state(path).corpus_json() == state.corpus_json()

    def test_records_carry_no_wall_clock_fields(self, tmp_path):
        state = run_soak(_campaign(), _runner(), tmp_path)
        for record in state.records:
            assert "seconds" not in record
            assert "synth_seconds" not in record
            assert "unit_index" in record

    def test_interrupted_resume_is_byte_identical(self, tmp_path):
        full_dir, resume_dir = tmp_path / "full", tmp_path / "resumed"
        run_soak(_campaign(budget=5, batch_size=2), _runner(), full_dir)

        partial = run_soak(
            _campaign(budget=5, batch_size=2), _runner(), resume_dir, max_batches=2
        )
        assert not partial.complete  # the simulated kill landed mid-campaign
        resumed = run_soak(_campaign(budget=5, batch_size=2), _runner(), resume_dir)
        assert resumed.complete

        full_bytes = checkpoint_path(full_dir, 1, 0).read_bytes()
        resumed_bytes = checkpoint_path(resume_dir, 1, 0).read_bytes()
        assert full_bytes == resumed_bytes

    def test_checkpoint_identity_mismatch_is_rejected(self, tmp_path):
        run_soak(_campaign(), _runner(), tmp_path, max_batches=1)
        with pytest.raises(ValueError, match="different campaign"):
            run_soak(
                SoakCampaign(
                    fuzz=FuzzCampaign(budget=4, seed=1, patterns=8, sequence_length=4),
                    batch_size=3,
                ),
                _runner(),
                tmp_path,
            )

    def test_schema_mismatch_is_rejected(self, tmp_path):
        state = run_soak(_campaign(), _runner(), tmp_path)
        data = state.to_dict()
        data["schema"] = "repro-soak/999"
        with pytest.raises(ValueError, match="schema"):
            SoakState.from_dict(data)


class TestSharding:
    def test_shards_partition_the_unit_stream(self):
        single = _campaign(budget=5)
        shard_a = _campaign(budget=5, shards=2, shard_index=0)
        shard_b = _campaign(budget=5, shards=2, shard_index=1)
        all_units = {index for index, _ in single.shard_units()}
        a_units = {index for index, _ in shard_a.shard_units()}
        b_units = {index for index, _ in shard_b.shard_units()}
        assert a_units | b_units == all_units
        assert not (a_units & b_units)

    def test_two_shard_merge_equals_single_shard_run(self, tmp_path):
        single_dir, shard_dir = tmp_path / "single", tmp_path / "sharded"
        single = run_soak(_campaign(budget=5, batch_size=2), _runner(), single_dir)
        states = [
            run_soak(
                _campaign(budget=5, batch_size=2, shards=2, shard_index=index),
                _runner(),
                shard_dir,
            )
            for index in range(2)
        ]
        assert len(shard_paths(shard_dir)) == 2
        merged = merge_states(states)
        assert merged.coverage == single.coverage
        assert merged.corpus_json() == single.corpus_json()
        assert merged.units_total == single.units_total
        assert merged.units_done == single.units_done

    def test_merge_round_trips_through_checkpoint_files(self, tmp_path):
        states = [
            run_soak(
                _campaign(shards=2, shard_index=index), _runner(), tmp_path
            )
            for index in range(2)
        ]
        reloaded = [load_state(path) for path in shard_paths(tmp_path)]
        assert merge_states(reloaded).corpus_json() == merge_states(states).corpus_json()

    def test_merge_rejects_incomplete_shard_sets(self, tmp_path):
        state = run_soak(_campaign(shards=2, shard_index=0), _runner(), tmp_path)
        with pytest.raises(ValueError, match="missing shard"):
            merge_states([state])

    def test_merge_rejects_mismatched_campaigns(self, tmp_path):
        a = run_soak(_campaign(shards=2, shard_index=0), _runner(), tmp_path / "a")
        b = run_soak(
            _campaign(budget=5, shards=2, shard_index=1), _runner(), tmp_path / "b"
        )
        with pytest.raises(ValueError, match="identity"):
            merge_states([a, b])

    def test_shard_parameters_are_validated(self):
        with pytest.raises(ValueError, match="shard index"):
            _campaign(shards=2, shard_index=2)
        with pytest.raises(ValueError, match="shards"):
            _campaign(shards=0)
        with pytest.raises(ValueError, match="batch size"):
            _campaign(batch_size=0)


class TestCLI:
    def test_soak_requires_checkpoint(self):
        from repro.eval.cli import main

        with pytest.raises(SystemExit, match="--checkpoint"):
            main(["fuzz", "--soak", "--budget", "2"])

    def test_shards_require_soak(self):
        from repro.eval.cli import main

        with pytest.raises(SystemExit, match="--soak"):
            main(["fuzz", "--shards", "2", "--budget", "2"])

    @pytest.mark.parametrize("mode", ["--soak", "--merge"])
    def test_save_conflicts_with_soak_and_merge(self, tmp_path, mode):
        from repro.eval.cli import main

        with pytest.raises(SystemExit, match="--save"):
            main(["fuzz", mode, "--checkpoint", str(tmp_path / "ckpt"),
                  "--save", str(tmp_path / "out"), "--budget", "1", "--no-cache", "-q"])
        assert not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize(
        "flags",
        [["--checkpoint", "ckpt"], ["--batch-size", "5"], ["--max-batches", "1"],
         ["--shard-index", "0"]],
    )
    def test_soak_flags_require_soak(self, flags):
        from repro.eval.cli import main

        with pytest.raises(SystemExit, match="require --soak"):
            main(["fuzz", "--budget", "1", *flags, "--no-cache", "-q"])

    def test_replay_conflicts_with_soak(self):
        from repro.eval.cli import main

        with pytest.raises(SystemExit, match="--replay"):
            main(
                ["fuzz", "--soak", "--checkpoint", "x", "--replay",
                 "gen:dag:gates=4,inputs=2,outputs=1:s0"]
            )

    def test_merge_with_empty_directory_fails(self, tmp_path):
        from repro.eval.cli import main

        with pytest.raises(SystemExit, match="no shard checkpoints"):
            main(["fuzz", "--merge", "--checkpoint", str(tmp_path)])


@pytest.mark.soak
class TestSoakSmokeScale:
    """CI smoke scale: shards + merge + coverage report through the CLI."""

    def test_sharded_cli_run_merges_and_reports(self, tmp_path, capsys):
        from repro.eval.cli import main

        code = main(
            ["fuzz", "--soak", "--budget", "20", "--batch-size", "10",
             "--shards", "2", "--checkpoint", str(tmp_path),
             "--coverage-report", "--no-cache", "-q"]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert (tmp_path / "soak-merged.json").exists()
        assert (tmp_path / "coverage-report.txt").exists()
        assert "flow x cell-family hits:" in captured
        merged = load_state(tmp_path / "soak-merged.json")
        assert merged.complete and merged.units_done == 20 * 3
