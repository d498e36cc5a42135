"""Seeded benchmark inputs with a dirty density that does not drift with |D|.

The library's default catalogues are fixed (300 cities, 100 items per type),
so at 5% noise the dirty fraction climbs with |D| and every size change
confounds |D| with violation density.  The benchmark scales both catalogues
with the data instead: ``|D|/30`` cities and ``|D|/150`` items per type,
passed to the generator and to the paper Σ alike.  That holds the realised
dirty fraction near 0.65 from 16k to 32k tuples.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.ecfd import ECFDSet
from repro.core.schema import RelationSchema, cust_ext_schema
from repro.datagen.generator import DatasetGenerator
from repro.datagen.geography import CityRecord, city_catalog
from repro.datagen.items import ItemRecord, item_catalog
from repro.datagen.updates import UpdateBatch, UpdateEvent, UpdateGenerator
from repro.datagen.workload import paper_workload

#: Noise rate of the base data and of every inserted row, percent.
NOISE_PERCENT = 5.0


@dataclass
class Inputs:
    """One workload's base data, constraints and catalogues."""

    size: int
    seed: int
    schema: RelationSchema
    sigma: ECFDSet
    cities: list[CityRecord]
    items: list[ItemRecord]
    rows: list[dict[str, str]]

    def updates(self, stream: int) -> UpdateGenerator:
        """A seeded update generator over the same catalogues.

        ``stream`` separates independent update streams of one seed.
        """
        rows = DatasetGenerator(
            seed=self.seed * 1_000 + stream + 1,
            schema=self.schema,
            catalog=self.cities,
            items=self.items,
        )
        return UpdateGenerator(rows, seed=self.seed * 1_000 + stream + 2)

    def update_batches(self, count: int, inserts: int, deletes: int) -> list[UpdateBatch]:
        """``count`` closed-loop batches that track the live tids."""
        return self.updates(stream=0).make_workload(
            range(1, self.size + 1), count, inserts, deletes, NOISE_PERCENT
        )

    def poisson_events(self, rate: float, count: int) -> list[UpdateEvent]:
        """A Poisson stream of 2-operation events, 55% of operations inserts."""
        return list(
            self.updates(stream=1).poisson_stream(
                range(1, self.size + 1),
                rate=rate,
                events=count,
                ops_per_event=2,
                insert_fraction=0.55,
                noise_percent=NOISE_PERCENT,
            )
        )


def make_inputs(size: int, seed: int) -> Inputs:
    """The base data of ``size`` tuples at 5% noise, and the paper Σ, for ``seed``."""
    schema = cust_ext_schema()
    cities = city_catalog(max(5, size // 30))
    items = item_catalog(max(1, size // 150))
    generator = DatasetGenerator(seed=seed, schema=schema, catalog=cities, items=items)
    rows = generator.generate_rows(size, NOISE_PERCENT)
    sigma = paper_workload(schema, catalog=cities)
    return Inputs(size, seed, schema, sigma, cities, items, rows)
