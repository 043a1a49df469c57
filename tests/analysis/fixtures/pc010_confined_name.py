"""Fixture: PC010 — a name confined to repro/memory used outside it."""

import numpy as np
from numpy import frombuffer


def page_words(data):
    return np.frombuffer(data, dtype="<u4")  # fires: page bytes as an array


def page_bytes(data):
    return frombuffer(data, dtype="u1")  # fires: the import does not, the load does


def tolerated(data):
    return np.frombuffer(data, dtype="u1")  # pcsan: disable=PC010
