"""Fixture: PC010 — one-path APIs referenced off the architecture table."""

import functools


class DistributedScheduler:
    # Same class and method names as the table's callers, another module:
    # the table names callers by module too.
    def _wire(self, transport):
        return transport.ship_rows  # fires: returned, not called

    def _place(self, pool, job, spec):
        return pool.submit(functools.partial(run_task, job, spec))  # fires: handed over


def copy_page(transport, data):
    def ship():
        return transport.ship_page("a", "b", data)  # fires: counts as copy_page's

    return ship


class Stage:
    runner = run_stages  # fires: a class body is the module's


def swap_transport(transport, recording):
    transport.ship_page = recording  # a store is not a reference
    return transport


def fill(transport, data):
    return transport.ship_page(  # pcsan: disable=PC010
        "a", "b", data,
    )
