"""The message registry: envelopes, validation, versioning, migration."""

import pytest

from repro.schema import (
    MessageType,
    SchemaError,
    TAG_KEY,
    load_document,
    message_type,
    pack,
    parse_tag,
    register,
    registered_kinds,
    schema_tag,
)


class TestTags:
    def test_every_document_family_is_registered(self):
        assert set(registered_kinds()) >= {
            "record",
            "verify",
            "fault",
            "bench",
            "cov",
            "soak",
            "faults",
            "corpus",
        }

    def test_module_constants_agree_with_the_registry(self):
        """The per-module ``*_SCHEMA`` constants are views of the registry."""
        from repro.cov import COV_SCHEMA, SOAK_SCHEMA
        from repro.faults.campaign import FAULTS_SCHEMA
        from repro.perf import BENCH_SCHEMA

        assert FAULTS_SCHEMA == schema_tag("faults")
        assert BENCH_SCHEMA == schema_tag("bench")
        assert COV_SCHEMA == schema_tag("cov")
        assert SOAK_SCHEMA == schema_tag("soak")

    def test_parse_tag_round_trip(self):
        for kind in registered_kinds():
            tag = schema_tag(kind)
            assert parse_tag(tag) == (kind, message_type(kind).version)

    @pytest.mark.parametrize(
        "tag", ["bench/1", "repro-bench", "repro-bench/v1", "repro-Bench/1", 7, None]
    )
    def test_parse_tag_rejects_malformed(self, tag):
        with pytest.raises(SchemaError, match="schema"):
            parse_tag(tag)

    def test_unknown_kind_raises(self):
        with pytest.raises(SchemaError, match="unknown schema kind"):
            message_type("nope")

    def test_duplicate_registration_raises(self):
        with pytest.raises(SchemaError, match="already registered"):
            register(MessageType(kind="bench", version=9))


class TestPack:
    def test_pack_stamps_the_current_tag(self):
        doc = pack("cov", {"features": {}})
        assert doc[TAG_KEY] == "repro-cov/1"
        assert doc["features"] == {}

    def test_pack_rejects_payloads_carrying_a_tag(self):
        with pytest.raises(SchemaError, match="reserved"):
            pack("cov", {"features": {}, "schema": "repro-cov/1"})

    def test_pack_rejects_missing_required_fields(self):
        with pytest.raises(SchemaError, match="missing required field 'features'"):
            pack("cov", {})

    def test_pack_rejects_non_wire_safe_payloads(self):
        with pytest.raises(SchemaError):
            pack("cov", {"features": {}, "junk": object()})

    def test_pack_rejects_wrongly_typed_fields(self):
        with pytest.raises(SchemaError, match="expects"):
            pack("cov", {"features": ["not", "a", "mapping"]})

    def test_bool_does_not_satisfy_an_int_field(self):
        with pytest.raises(SchemaError, match="bool"):
            pack(
                "soak",
                {
                    "campaign": {},
                    "units_total": True,
                    "units_done": 0,
                    "batches": [],
                    "records": [],
                    "coverage": {},
                },
            )


class TestLoad:
    def test_load_strips_the_tag(self):
        payload = {"features": {"f": ["u"]}}
        assert load_document(pack("cov", payload), "cov") == payload

    def test_foreign_kind_is_rejected(self):
        with pytest.raises(SchemaError, match="schema"):
            load_document(pack("cov", {"features": {}}), "bench")

    def test_unknown_future_version_is_rejected(self):
        with pytest.raises(SchemaError, match="schema"):
            load_document({"schema": "repro-cov/999", "features": {}}, "cov")

    def test_untagged_document_without_legacy_version_is_rejected(self):
        with pytest.raises(SchemaError, match="no schema tag"):
            load_document({"suite": "smoke", "results": []}, "bench")

    def test_non_mapping_document_is_rejected(self):
        with pytest.raises(SchemaError, match="mapping"):
            load_document(["not", "a", "document"], "cov")

    def test_source_names_the_file_in_the_error(self):
        with pytest.raises(SchemaError, match="some/path.json"):
            load_document({"schema": "repro-cov/999"}, "cov", source="some/path.json")


class TestMigrationChain:
    """Non-trivial multi-hop migration, exercised on a test-local kind."""

    @pytest.fixture(scope="class")
    def chained(self):
        # v1 used "name"; v2 renamed it to "title"; v3 added "count".
        return register(
            MessageType(
                kind="testchain",
                version=3,
                required=(("title", (str,)), ("count", (int,))),
                legacy_version=1,
                migrations={
                    1: lambda p: {"title": p.pop("name", ""), **p},
                    2: lambda p: {"count": 0, **p},
                },
            )
        )

    def test_v1_migrates_through_every_hop(self, chained):
        loaded = load_document({"name": "old", "extra": 7}, "testchain")
        assert loaded == {"title": "old", "extra": 7, "count": 0}

    def test_v2_enters_the_chain_midway(self, chained):
        loaded = load_document({"schema": "repro-testchain/2", "title": "t"}, "testchain")
        assert loaded == {"title": "t", "count": 0}

    def test_current_version_skips_migration(self, chained):
        payload = {"title": "t", "count": 3}
        assert load_document(pack("testchain", payload), "testchain") == payload

    def test_migrated_payload_is_still_validated(self, chained):
        # v2 -> v3 adds "count" but nothing supplies "title": invalid.
        with pytest.raises(SchemaError, match="title"):
            load_document({"schema": "repro-testchain/2"}, "testchain")
