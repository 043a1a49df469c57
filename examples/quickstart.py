"""Quickstart: the PC object model and a first declarative computation.

Covers the paper's introductory flow (Sections 3-4): define a PC object
type, load data into a simulated cluster with zero-cost page movement,
and run a selection + aggregation written with the lambda calculus.

Run:  python examples/quickstart.py
"""

from repro.cluster import PCCluster
from repro.core import (
    AggregateComp,
    ObjectReader,
    SelectionComp,
    Writer,
    lambda_from_method,
)
from repro.memory import Float64, Int32, Int64, PCObject, String, VectorType
from repro.obs import render_trace


# A complex PC object: nested container fields live on the same page.
class DataPoint(PCObject):
    fields = [
        ("point_id", Int32),
        ("label", String),
        ("features", VectorType(Float64)),
    ]

    def magnitude(self):
        return float((self.features.as_numpy() ** 2).sum()) ** 0.5

    def bucket(self):
        return self.point_id % 4


# Declarative in the large: a selection whose intent PC can see...
class BigPoints(SelectionComp):
    def get_selection(self, arg):
        return lambda_from_method(arg, "magnitude") > 1.0

    def get_projection(self, arg):
        from repro.core import lambda_from_self

        return lambda_from_self(arg)


# ...feeding an aggregation keyed by a method call.
class CountByBucket(AggregateComp):
    key_type = Int64
    value_type = Int64

    def get_key_projection(self, arg):
        return lambda_from_method(arg, "bucket")

    def get_value_projection(self, arg):
        from repro.core import lambda_from_native

        return lambda_from_native([arg], lambda p: 1)


def main():
    cluster = PCCluster(n_workers=3, page_size=1 << 14)
    cluster.register_type(DataPoint)
    cluster.create_database("demo")
    cluster.create_set("demo", "points", DataPoint)

    # Load: objects are allocated in place on client pages, and the page
    # *bytes* ship to workers — no serialization anywhere.
    with cluster.loader("demo", "points") as load:
        for i in range(500):
            load.append(
                DataPoint,
                point_id=i,
                label="p%d" % i,
                features=[(i % 7) / 3.0, (i % 5) / 3.0],
            )
    print("loaded:", cluster.storage_manager.total_objects("demo", "points"),
          "points;", cluster.metrics().value("pc_net_bytes_zero_copy_total"),
          "bytes moved zero-copy")

    reader = ObjectReader("demo", "points")
    selection = BigPoints().set_input(reader)
    aggregate = CountByBucket().set_input(selection)
    writer = Writer("demo", "counts").set_input(aggregate)
    job_log = cluster.execute_computations(writer, job_name="quickstart")

    print("\nscheduled job stages:")
    for stage in job_log:
        print("  ", stage)

    print("\nthe job trace (where the time and the bytes went):")
    print(render_trace(cluster.last_trace))

    print("\nthe optimized TCAP program:")
    print(cluster.last_program.to_text())

    counts = cluster.read("demo", "counts", as_pairs=True, comp=aggregate)
    print("\npoints with |x| > 1, by bucket:", dict(sorted(counts.items())))


if __name__ == "__main__":
    main()
