"""Inputs of the benchmark: the training resources and the request tables.

The knowledge graph and the training corpus are those of the ``smoke``
experiment profile and do not depend on ``--seed``: they are the
deployment.  The request tables are a pure function of ``--seed`` (and the
round index), so the same seed gives the same requests in every process
that asks for them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.corpus import TableCorpus
from repro.data.semtab import SemTabConfig, SemTabGenerator
from repro.data.table import Table
from repro.data.viznet import VizNetConfig, VizNetGenerator
from repro.experiments.config import SharedResources, load_resources
from repro.kg.builder import KGWorld

PROFILE = "smoke"

#: Tables in one batch round.  Every round draws fresh tables under fresh
#: ids, so the service's prepared-table LRU (keyed on the id) never hits.
BATCH_ROUND_TABLES = 640
#: Tables of the batch job's unmeasured warm-up round (a stream of its own).
BATCH_WARMUP_TABLES = 160
#: Tables per ``annotate_batch`` call in the batch workload (the service's
#: own ``max_batch``).
BATCH_CALL_TABLES = 16

#: VizNet-style tables in one Zipf round's pool (far below the 1024-entry
#: LRU and the 4096-entry results cache).  The pool size and the requests
#: per round are assumptions, not measured traffic; the README shows how the
#: repeat share moves with them.
ZIPF_POOL_TABLES = 200
#: Requests in one Zipf round.
ZIPF_ROUND_REQUESTS = 400
#: Zipf exponent of the request sequence over the pool's ranks: the default
#: Zipfian constant of the YCSB request generator (Cooper et al., SoCC 2010).
ZIPF_EXPONENT = 0.99

DATASET_OF = {
    "batch_cold_semtab": "semtab",
    "fleet_zipf_viznet": "viznet",
}


def _stream_seed(seed: int, stream: int, index: int = 0) -> int:
    """One generator seed per (run seed, input stream, round) triple."""
    return int(np.random.SeedSequence([seed, stream, index]).generate_state(1)[0])


def training_resources() -> SharedResources:
    """The ``smoke`` profile's world, corpora and splits, exactly as Table I uses them.

    Training does not depend on ``--seed``: every run fits the same model on
    the same tables, so ``fit_s`` times identical work.  (On other corpus
    seeds the smoke-sized fit is fragile; see ``CHANGES.md``.)
    """
    return load_resources(PROFILE, use_cache=False)


def _generate(world: KGWorld, dataset: str, num_tables: int, seed: int) -> TableCorpus:
    if dataset == "semtab":
        return SemTabGenerator(world, SemTabConfig(num_tables=num_tables, seed=seed)).generate()
    return VizNetGenerator(world, VizNetConfig(num_tables=num_tables, seed=seed)).generate()


def _content(table: Table) -> tuple:
    return tuple((column.name, tuple(column.cells)) for column in table.columns)


def batch_round(world: KGWorld, seed: int, index: int,
                n_tables: int = BATCH_ROUND_TABLES, warmup: bool = False) -> list[Table]:
    """Round ``index`` of the batch workload: ``n_tables`` fresh SemTab-style tables.

    Tables are distinct in content within a round and carry ids unique to
    the round.  ``warmup`` draws from a separate stream, so warm-up tables
    never reappear in a measured round.
    """
    stream, prefix = (9, "warm") if warmup else (4, "batch")
    tables: list[Table] = []
    seen: set[tuple] = set()
    attempt = 0
    while len(tables) < n_tables:
        corpus = _generate(world, "semtab", n_tables + n_tables // 8,
                           _stream_seed(seed, stream, index * 1000 + attempt))
        for table in corpus.tables:
            key = _content(table)
            if key not in seen and len(tables) < n_tables:
                seen.add(key)
                tables.append(Table(table_id=f"{prefix}-{index}-{len(tables):05d}",
                                    columns=table.columns))
        attempt += 1
    return tables


@dataclass(frozen=True)
class ZipfRound:
    """One round of the fleet workload: a fresh pool and a Zipf sequence over it."""

    pool: list[Table]
    sequence: list[int]

    @property
    def repeat_share(self) -> float:
        """Share of requests whose table was already sent earlier in the round."""
        return 1.0 - len(set(self.sequence)) / len(self.sequence)


def zipf_round(world: KGWorld, seed: int, index: int,
               pool_tables: int = ZIPF_POOL_TABLES,
               requests: int = ZIPF_ROUND_REQUESTS, warmup: bool = False) -> ZipfRound:
    """Round ``index`` of the Zipf request sequence; every round has its own pool.

    ``warmup`` draws from separate streams, so warm-up tables never reappear
    in a measured round.
    """
    pool_stream, sequence_stream = (7, 8) if warmup else (5, 6)
    pool = _generate(world, "viznet", pool_tables, _stream_seed(seed, pool_stream, index)).tables
    rng = np.random.default_rng(_stream_seed(seed, sequence_stream, index))
    ranks = np.arange(1, len(pool) + 1, dtype=np.float64)
    weights = ranks ** -ZIPF_EXPONENT
    sequence = rng.choice(len(pool), size=requests, p=weights / weights.sum())
    return ZipfRound(pool=pool, sequence=[int(i) for i in sequence])


def table_payload(table: Table, with_id: bool) -> dict:
    """The JSON a client sends for ``table``: columns and cells, never labels."""
    payload: dict = {"columns": [{"name": column.name, "cells": list(column.cells)}
                                 for column in table.columns]}
    if with_id:
        payload["table_id"] = table.table_id
    return payload
