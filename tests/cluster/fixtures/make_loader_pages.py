"""Regenerate ``loader_pages.json``: the pages ``ClusterLoader`` ships.

Run against the commit whose loader bytes should be frozen::

    PYTHONPATH=<checkout>/src python tests/cluster/fixtures/make_loader_pages.py

The JSON holds, per load, the CRC32 and object count of every page the
loader handed to ``replication.land_page``, in shipping order (see
``test_write_path_property.py``).  Four fixed loads: TPC-H ``Customer``
trees through ``extend``, and a chunked matrix, k-means point chunks and
flat rows through keyword ``append``, each on pages small enough to roll
many times.  ``tpch_customers`` was regenerated when the loader began
planning pages of trees.  ``keyword_rows``, ``matrix_blocks`` and
``points_chunks`` were regenerated when ``append`` began writing through
the same planned window as ``extend``: a page's root vector is reserved
once for its count instead of growing a slot at a time, so the outgrown
root arrays are gone from their pages (``keyword_rows`` also moves its
page boundaries: the room they took holds more rows).  ``tpch_customers``
did not move.  Whatever the bytes, every page equals the per-object
build of its records with its root reserved for its count
(``test_every_loader_page_is_the_per_object_build_of_its_records``).
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib

import numpy as np

from repro.cluster import PCCluster
from repro.lillinalg.ops import DistributedMatrix
from repro.ml.points import load_points
from repro.memory import Float64, Int32, PCObject, String, VectorType
from repro.tpch.generator import TpchSpec, load_pc_customers

HERE = os.path.dirname(os.path.abspath(__file__))


class LoaderRow(PCObject):
    fields = [("row_id", Int32), ("label", String),
              ("features", VectorType(Float64))]


def _recording(cluster):
    """Make ``cluster`` note ``[crc32, count]`` of every page it stores."""
    shipped = []
    land_page = cluster.replication.land_page

    def recording_land(database, name, data, count, source="client",
                       allocations=0):
        shipped.append([zlib.crc32(bytes(data)), count])
        return land_page(database, name, data, count, source=source,
                         allocations=allocations)

    cluster.replication.land_page = recording_land
    return shipped


def _load_customers(cluster):
    load_pc_customers(cluster, TpchSpec(60, seed=7))


def _load_matrix(cluster):
    values = np.arange(96 * 40, dtype="f8").reshape(96, 40) / 8.0
    DistributedMatrix.from_numpy(cluster, "la", values, 8, 10,
                                 set_name="fixture_matrix")


def _load_points(cluster):
    points = np.arange(2000 * 4, dtype="f8").reshape(2000, 4) / 16.0
    load_points(cluster, "ml", "points", points, chunk_size=20)


def _load_rows(cluster):
    cluster.register_type(LoaderRow)
    cluster.create_database("db")
    cluster.create_set("db", "rows", LoaderRow)
    with cluster.loader("db", "rows") as load:
        for i in range(400):
            load.append(LoaderRow, row_id=i, label="row-%d" % i,
                        features=[i / 4.0] * (1 + i % 7))


LOADS = {
    "tpch_customers": (_load_customers, 1 << 14),
    "matrix_blocks": (_load_matrix, 1 << 13),
    "keyword_rows": (_load_rows, 1 << 12),
    "points_chunks": (_load_points, 1 << 12),
}


def run_load(name, watch):
    """Run the load called ``name`` on a fresh cluster, ``watch(cluster)``
    first; returns what ``watch`` returned."""
    load, page_size = LOADS[name]
    with tempfile.TemporaryDirectory() as spill_root:
        with PCCluster(n_workers=2, page_size=page_size,
                       spill_root=spill_root, transport="sim") as cluster:
            watched = watch(cluster)
            load(cluster)
    return watched


def shipped_pages(name):
    """``[[crc32, count], ...]`` for the load called ``name``."""
    return run_load(name, _recording)


if __name__ == "__main__":
    out = {name: shipped_pages(name) for name in LOADS}
    with open(os.path.join(HERE, "loader_pages.json"), "w") as f:
        json.dump(out, f, indent=1)
    print({name: len(pages) for name, pages in out.items()})
