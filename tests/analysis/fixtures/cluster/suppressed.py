"""Fixture: one violation of each rule, each silenced by a suppression."""

from repro.memory import make_object, use_allocation_block
from repro.core.lambdas import lambda_from_native

GLOBAL_HANDLE = make_object(Employee)  # pcsan: disable=PC001


def read_buf(block):
    return block.buf[0]  # pcsan: disable=PC002


def noisy(arg):
    return lambda_from_native([arg], lambda v: print(v))  # pcsan: disable=PC003


def points_batch(rows):
    return [row.deref() for row in rows]  # pcsan: disable=PC006


def exchange(transport, rows):
    return transport.ship_rows("a", "b", rows)  # pcsan: disable=PC010


def probe(worker):
    try:
        worker.ping()
    except ConnectionError:  # pcsan: disable=PC005
        pass
