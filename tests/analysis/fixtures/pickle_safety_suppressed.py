"""Fixture: pickle-safety violations silenced by line suppressions."""


class FixtureTask:
    def __init__(self, payload):
        self.payload = payload
        self._result_cache = {}  # repro-lint: disable=pickle-safety (never pickled)
        self._memo = None  # repro-lint: disable=pickle-safety (never pickled)
