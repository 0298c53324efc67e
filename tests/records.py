"""``replace``: a copy of a record with some fields changed, for the tests.

The package has no such function: its records (``gridgram.core.Record``)
are built only through their constructors. This module needs nothing but
the package, so ``byte_checks.py`` runs without the test packages. Not
collected by pytest.
"""

from __future__ import annotations


def replace(record, **changes):
    """``type(record)`` built from ``record``'s ``_fields``, with ``changes`` over them.

    The constructor runs, so every change is checked as a new record is,
    and any slot outside ``_fields`` (a cached fingerprint) starts afresh.
    """
    return type(record)(**{**{f: getattr(record, f) for f in record._fields}, **changes})
