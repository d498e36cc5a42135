"""Integration tests across packages: the full pipeline the examples exercise."""

from repro.analysis import irredundant_cover, is_satisfiable, max_satisfiable_subset
from repro.core import ECFDSet, Relation, cust_ext_schema, format_ecfd, parse_ecfd
from repro.datagen import DatasetGenerator, UpdateGenerator, paper_workload
from repro.detection import BatchDetector, ECFDDatabase, IncrementalDetector, NaiveDetector
from repro.discovery import discover_ecfd
from repro.engine import DataQualityEngine


class TestCleaningPipeline:
    """generate -> validate Σ -> detect (SQL) -> repair -> re-detect."""

    def test_full_pipeline_on_generated_data(self):
        sigma = paper_workload()
        assert is_satisfiable(sigma)

        generator = DatasetGenerator(seed=21)
        relation = generator.generate(250, noise_percent=5.0)

        with ECFDDatabase(cust_ext_schema()) as db:
            db.load_relation(relation)
            detector = BatchDetector(db, sigma)
            violations = detector.detect()
            assert not violations.is_clean()
            # The SQL detector and the reference semantics agree.
            assert violations == NaiveDetector(sigma).detect(relation)

        with DataQualityEngine(cust_ext_schema(), sigma, backend="naive") as engine:
            engine.load(relation)
            repaired = engine.repair(strategy="greedy", max_rounds=12).relation
        assert NaiveDetector(sigma).detect(repaired).is_clean()

        with ECFDDatabase(cust_ext_schema()) as db:
            db.load_relation(repaired)
            assert BatchDetector(db, sigma).detect().is_clean()

    def test_monitoring_pipeline_with_updates(self):
        sigma = paper_workload()
        generator = DatasetGenerator(seed=22)
        rows = generator.generate_rows(200, 5.0)

        with ECFDDatabase(cust_ext_schema()) as db:
            db.insert_tuples(rows)
            monitor = IncrementalDetector(db, sigma)
            initial = monitor.initialize()

            updates = UpdateGenerator(DatasetGenerator(seed=23), seed=24)
            for _ in range(3):
                batch = updates.make_batch(db.all_tids(), insert_count=30, delete_count=20,
                                           noise_percent=5.0)
                monitor.delete_tuples(batch.delete_tids)
                current = monitor.insert_tuples(list(batch.insert_rows))

            # The maintained flags equal a from-scratch recomputation.
            final_relation = db.to_relation()
        with ECFDDatabase(cust_ext_schema()) as reference:
            reference.load_relation(final_relation)
            assert current == BatchDetector(reference, sigma).detect()
        assert initial is not None


class TestConstraintLifecycle:
    """discover -> serialize -> parse -> analyse -> deploy."""

    def test_discovered_constraint_round_trips_and_deploys(self):
        schema = cust_ext_schema()
        clean = DatasetGenerator(seed=25).generate(300, noise_percent=0.0)
        discovered = discover_ecfd(clean, ["CT"], "AC", min_support=3, min_confidence=1.0)
        assert discovered.ecfd is not None

        text = format_ecfd(discovered.ecfd)
        parsed = parse_ecfd(text, schema)
        assert parsed.tableau == discovered.ecfd.tableau

        sigma = ECFDSet(list(paper_workload()) + [parsed])
        assert is_satisfiable(sigma)
        cover = irredundant_cover([parsed, paper_workload()[0]])
        assert cover  # never empty

        dirty = DatasetGenerator(seed=26).generate(200, noise_percent=6.0)
        with ECFDDatabase(schema) as db:
            db.load_relation(dirty)
            violations = BatchDetector(db, sigma).detect()
        assert violations == NaiveDetector(sigma).detect(dirty)

    def test_maxss_salvages_a_broken_constraint_set(self):
        schema = cust_ext_schema()
        sigma = list(paper_workload())
        # Add a constraint that contradicts ψ2: NYC must avoid all NYC codes.
        from repro.core import ECFD
        from repro.core.patterns import ComplementSet

        saboteur = ECFD(
            schema, ["CT"], [], ["AC"],
            tableau=[({"CT": {"NYC"}}, {"AC": ComplementSet(["212", "718", "646", "347", "917"])})],
            name="saboteur",
        )
        force_nyc = ECFD(
            schema, ["AC"], [], ["CT"],
            tableau=[({"AC": "_"}, {"CT": {"NYC"}})],
            name="force_nyc",
        )
        broken = sigma + [saboteur, force_nyc]
        assert not is_satisfiable(broken)
        result = max_satisfiable_subset(broken)
        assert result.cardinality < len(broken)
        assert is_satisfiable(result.satisfiable_subset)
