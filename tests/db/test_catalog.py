"""Tests for the database catalog."""

import json

import pytest

from repro.dataset.table import Table
from repro.db.catalog import Database
from repro.errors import CatalogError
from repro.partition.quadtree import QuadTreePartitioner


@pytest.fixture
def database(small_numeric_table) -> Database:
    db = Database("testdb")
    db.create_table(small_numeric_table, name="numbers")
    return db


class TestTables:
    def test_create_and_fetch(self, database, small_numeric_table):
        fetched = database.table("numbers")
        assert fetched.num_rows == small_numeric_table.num_rows

    def test_duplicate_rejected(self, database, small_numeric_table):
        with pytest.raises(CatalogError):
            database.create_table(small_numeric_table, name="numbers")

    def test_replace_allowed(self, database, small_numeric_table):
        database.create_table(small_numeric_table.head(2), name="numbers", replace=True)
        assert database.table("numbers").num_rows == 2

    def test_missing_table(self, database):
        with pytest.raises(CatalogError, match="not found"):
            database.table("nope")

    def test_drop(self, database):
        database.drop_table("numbers")
        assert "numbers" not in database
        with pytest.raises(CatalogError):
            database.drop_table("numbers")

    def test_rename_on_register(self, database, mixed_table):
        registered = database.create_table(mixed_table, name="other")
        assert registered.name == "other"
        assert database.table("other").name == "other"

    def test_iteration_and_len(self, database, mixed_table):
        database.create_table(mixed_table)
        assert len(database) == 2
        assert sorted(t.name for t in database) == ["mixed", "numbers"]
        assert database.table_names() == ["mixed", "numbers"]


class TestPartitionings:
    def test_register_and_fetch(self, database, small_numeric_table):
        partitioning = QuadTreePartitioner(size_threshold=2).partition(
            small_numeric_table, ["a", "b"]
        )
        database.register_partitioning("numbers", partitioning)
        assert database.has_partitioning("numbers")
        assert database.partitioning("numbers").num_groups == partitioning.num_groups

    def test_labels(self, database, small_numeric_table):
        partitioning = QuadTreePartitioner(size_threshold=2).partition(small_numeric_table, ["a"])
        database.register_partitioning("numbers", partitioning, label="coarse")
        assert database.partitioning_labels("numbers") == ["coarse"]
        with pytest.raises(CatalogError):
            database.partitioning("numbers", "missing")

    def test_register_for_missing_table(self, database, small_numeric_table):
        partitioning = QuadTreePartitioner(size_threshold=2).partition(small_numeric_table, ["a"])
        with pytest.raises(CatalogError):
            database.register_partitioning("ghost", partitioning)

    def test_drop_table_drops_partitionings(self, database, small_numeric_table):
        partitioning = QuadTreePartitioner(size_threshold=2).partition(small_numeric_table, ["a"])
        database.register_partitioning("numbers", partitioning)
        database.drop_table("numbers")
        assert not database.has_partitioning("numbers")

    def test_register_refuses_a_partitioning_of_an_older_version(self):
        from repro.workloads.galaxy import galaxy_table

        table = galaxy_table(300, seed=5)
        db = Database()
        db.create_table(table)
        old = QuadTreePartitioner(size_threshold=40).partition(table, ["petroMag_r"])
        db.update_table("galaxy", table.make_delta(delete=[0, 1, 2]))
        assert db.table("galaxy").version == 1
        with pytest.raises(CatalogError, match="version 0 .*version 1"):
            db.register_partitioning("galaxy", old)
        assert not db.has_partitioning("galaxy")

    def test_register_refuses_a_partitioning_of_other_rows(
        self, database, small_numeric_table
    ):
        # Same version, different row count: built over another table.
        partitioning = QuadTreePartitioner(size_threshold=2).partition(
            small_numeric_table.head(3), ["a"]
        )
        assert partitioning.version == database.table("numbers").version
        with pytest.raises(CatalogError, match="3 rows"):
            database.register_partitioning("numbers", partitioning)
        assert not database.has_partitioning("numbers")

    def test_refused_registration_is_not_logged(self, small_numeric_table):
        from repro.db.wal import MemoryLogStorage, WriteAheadLog

        db = Database(wal=WriteAheadLog(MemoryLogStorage()))
        db.create_table(small_numeric_table, name="numbers")
        partitioning = QuadTreePartitioner(size_threshold=2).partition(
            small_numeric_table.head(3), ["a"]
        )
        with pytest.raises(CatalogError):
            db.register_partitioning("numbers", partitioning)
        assert [record.kind for record in db.wal.records()] == ["create"]


class TestPersistence:
    def test_save_and_load(self, database, mixed_table, tmp_path):
        database.create_table(mixed_table)
        database.save(tmp_path / "db")
        loaded = Database.load(tmp_path / "db", name="loaded")
        assert sorted(loaded.table_names()) == ["mixed", "numbers"]
        assert loaded.table("mixed").num_rows == mixed_table.num_rows

    def test_load_missing_directory(self, tmp_path):
        with pytest.raises(CatalogError):
            Database.load(tmp_path / "does-not-exist")


class TestVersionedUpdates:
    @pytest.fixture
    def partitioned_db(self):
        from repro.workloads.galaxy import galaxy_table

        table = galaxy_table(400, seed=5)
        db = Database("dynamic")
        db.create_table(table)
        partitioning = QuadTreePartitioner(size_threshold=50).partition(
            table, ["petroMag_r", "redshift"]
        )
        db.register_partitioning("galaxy", partitioning)
        return db, table

    def test_maintain_policy_carries_partitionings(self, partitioned_db):
        db, table = partitioned_db
        delta = table.make_delta(insert=table.head(30))
        result = db.update_table("galaxy", delta)
        assert result.table.version == 1
        assert db.table("galaxy").num_rows == 430
        assert "default" in result.maintained
        maintained = db.partitioning("galaxy")
        assert maintained.version == 1
        assert maintained.table is db.table("galaxy")
        assert maintained.satisfies_size_threshold(50)

    def test_update_missing_table(self, partitioned_db):
        db, table = partitioned_db
        with pytest.raises(CatalogError):
            db.update_table("ghost", table.make_delta(delete=[0]))

    def test_every_label_followed(self, partitioned_db):
        db, table = partitioned_db
        coarse = QuadTreePartitioner(size_threshold=120).partition(
            table, ["petroMag_r"]
        )
        db.register_partitioning("galaxy", coarse, label="coarse")
        result = db.update_table("galaxy", table.make_delta(insert=table.head(10)))
        assert sorted(result.maintained) == ["coarse", "default"]
        assert db.partitioning("galaxy", "coarse").version == 1


class TestPartitioningPersistence:
    def test_save_load_round_trips_partitionings(self, database, small_numeric_table, tmp_path):
        import numpy as np

        fine = QuadTreePartitioner(size_threshold=2).partition(small_numeric_table, ["a", "b"])
        coarse = QuadTreePartitioner(size_threshold=5).partition(small_numeric_table, ["a"])
        database.register_partitioning("numbers", fine)
        database.register_partitioning("numbers", coarse, label="coarse")
        database.save(tmp_path / "db")
        loaded = Database.load(tmp_path / "db")
        assert loaded.partitioning_labels("numbers") == ["coarse", "default"]
        for label, original in (("default", fine), ("coarse", coarse)):
            restored = loaded.partitioning("numbers", label)
            assert np.array_equal(restored.group_ids, original.group_ids)
            assert restored.stats == original.stats
            assert restored.version == original.version
            assert restored.table is loaded.table("numbers")

    def test_round_trip_preserves_maintained_versions(self, tmp_path):
        from repro.workloads.galaxy import galaxy_table

        table = galaxy_table(200, seed=8)
        db = Database()
        db.create_table(table)
        db.register_partitioning(
            "galaxy",
            QuadTreePartitioner(size_threshold=40).partition(table, ["petroMag_r"]),
        )
        db.update_table("galaxy", db.table("galaxy").make_delta(insert=table.head(20)))
        db.update_table("galaxy", db.table("galaxy").make_delta(delete=[3]))
        assert db.table("galaxy").version == 2
        db.save(tmp_path / "db")
        loaded = Database.load(tmp_path / "db")
        assert loaded.table("galaxy").version == 2
        restored = loaded.partitioning("galaxy")
        assert restored.version == 2
        assert restored.maintenance.deltas_applied == 2
        assert restored.maintenance.rows_inserted == 20
        assert restored.maintenance.rows_deleted == 1

    def test_load_refuses_a_partitioning_of_another_version(self, tmp_path):
        from repro.workloads.galaxy import galaxy_table

        table = galaxy_table(200, seed=8)
        db = Database()
        db.create_table(table)
        db.register_partitioning(
            "galaxy",
            QuadTreePartitioner(size_threshold=40).partition(table, ["petroMag_r"]),
        )
        db.update_table("galaxy", db.table("galaxy").make_delta(delete=[3]))
        db.save(tmp_path / "db")
        # A hand-edited (or foreign) metadata file whose version disagrees
        # with the saved table's is refused, not registered out of step.
        metadata_path = tmp_path / "db" / "galaxy.partitionings" / "default" / "metadata.json"
        metadata = json.loads(metadata_path.read_text())
        assert metadata["version"] == 1
        metadata["version"] = 0
        metadata_path.write_text(json.dumps(metadata))
        with pytest.raises(CatalogError, match="version 0 .*version 1"):
            Database.load(tmp_path / "db")

    def test_tables_without_partitionings_still_load(self, database, tmp_path):
        database.save(tmp_path / "db")
        loaded = Database.load(tmp_path / "db")
        assert loaded.table_names() == ["numbers"]
        assert not loaded.has_partitioning("numbers")

    def test_replace_table_drops_partitionings(self, database, small_numeric_table, tmp_path):
        partitioning = QuadTreePartitioner(size_threshold=2).partition(
            small_numeric_table, ["a", "b"]
        )
        database.register_partitioning("numbers", partitioning)
        # Out-of-band replacement (same version, different rows) must not
        # leave a partitioning behind that no longer matches the table.
        database.create_table(small_numeric_table.head(3), name="numbers", replace=True)
        assert not database.has_partitioning("numbers")
        database.save(tmp_path / "db")
        loaded = Database.load(tmp_path / "db")
        assert loaded.table("numbers").num_rows == 3


class TestUpdateAtomicity:
    def test_failed_maintenance_leaves_catalog_unchanged(self):
        from repro.workloads.galaxy import galaxy_table

        class BoomMaintainer:
            def maintain(self, partitioning, new_table, delta):
                raise RuntimeError("maintenance exploded")

        table = galaxy_table(200, seed=5)
        db = Database(maintainer=BoomMaintainer())
        db.create_table(table)
        partitioning = QuadTreePartitioner(size_threshold=40).partition(table, ["petroMag_r"])
        db.register_partitioning("galaxy", partitioning)
        delta = table.make_delta(delete=[0])
        with pytest.raises(RuntimeError, match="exploded"):
            db.update_table("galaxy", delta)
        # Nothing committed: same table version, same partitioning, retryable.
        assert db.table("galaxy").version == 0
        assert db.table("galaxy").num_rows == 200
        assert db.partitioning("galaxy") is partitioning
        from repro.partition.maintenance import PartitionMaintainer

        db.maintainer = PartitionMaintainer()
        result = db.update_table("galaxy", delta)
        assert result.table.version == 1
        assert db.partitioning("galaxy").version == 1

    def test_resave_removes_dropped_table_artifacts(self, database, small_numeric_table, tmp_path):
        partitioning = QuadTreePartitioner(size_threshold=2).partition(
            small_numeric_table, ["a"]
        )
        database.register_partitioning("numbers", partitioning)
        database.save(tmp_path / "db")
        database.drop_table("numbers")
        database.save(tmp_path / "db")
        loaded = Database.load(tmp_path / "db")
        assert "numbers" not in loaded
        assert not loaded.has_partitioning("numbers")

    def test_save_leaves_unrelated_files_alone(self, database, tmp_path):
        directory = tmp_path / "db"
        directory.mkdir()
        foreign = directory / "my_embeddings.npz"
        foreign.write_bytes(b"not a table")
        database.save(directory)
        database.drop_table("numbers")
        database.save(directory)
        # Only this catalog's own artifacts are cleaned up.
        assert foreign.exists()
        assert not (directory / "numbers.npz").exists()

    def test_two_catalogs_sharing_a_directory_do_not_clobber(self, tmp_path):
        a = Database("alpha_cat")
        a.create_table(Table.from_dict({"x": [1.0, 2.0]}, name="alpha"))
        b = Database("beta_cat")
        b.create_table(Table.from_dict({"y": [3.0]}, name="beta"))
        directory = tmp_path / "shared"
        a.save(directory)
        b.save(directory)
        assert (directory / "alpha.npz").exists()
        assert (directory / "beta.npz").exists()
        # Each catalog's cleanup stays scoped to its own manifest entry.
        a.drop_table("alpha")
        a.save(directory)
        assert not (directory / "alpha.npz").exists()
        assert (directory / "beta.npz").exists()

    def test_load_ignores_an_older_manifests_maintenance_policy(self, tmp_path):
        db = Database("lazy")
        db.create_table(Table.from_dict({"x": [1.0, 2.0]}, name="t"))
        db.create_table(Table.from_dict({"y": [3.0]}, name="u"))
        assert db.save(tmp_path / "db") is None
        manifest_path = tmp_path / "db" / "_catalog_manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["catalogs"]["lazy"] == {"tables": ["t", "u"]}
        # Older saves also wrote the catalog's maintenance policy; the key
        # no longer means anything, but the table scoping still holds.
        manifest["catalogs"]["lazy"] = {"tables": ["t"], "maintenance_policy": "stale"}
        manifest_path.write_text(json.dumps(manifest))
        loaded = Database.load(tmp_path / "db", name="lazy")
        assert loaded.table_names() == ["t"]

    def test_load_scopes_to_manifest_entry(self, tmp_path):
        directory = tmp_path / "shared"
        a = Database("alpha_cat")
        a.create_table(Table.from_dict({"x": [1.0]}, name="alpha"))
        b = Database("beta_cat")
        b.create_table(Table.from_dict({"y": [2.0]}, name="beta"))
        a.save(directory)
        b.save(directory)
        loaded_a = Database.load(directory, name="alpha_cat")
        assert loaded_a.table_names() == ["alpha"]
        loaded_b = Database.load(directory, name="beta_cat")
        assert loaded_b.table_names() == ["beta"]
        # No manifest entry -> legacy behavior, everything loads.
        loaded_all = Database.load(directory, name="unlisted")
        assert loaded_all.table_names() == ["alpha", "beta"]

    def test_load_skips_orphaned_partitioning_directories(self, database, tmp_path):
        directory = tmp_path / "db"
        database.save(directory)
        orphan = directory / "ghost.partitionings" / "default"
        orphan.mkdir(parents=True)
        loaded = Database.load(directory)
        assert loaded.table_names() == ["numbers"]
