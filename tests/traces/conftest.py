"""Shared fixtures for the trace tests."""

from __future__ import annotations

import pytest

from repro.traces import schema


@pytest.fixture
def renders(monkeypatch) -> list:
    """Every canonical line rendered from here on, by ``schema._canonical``."""
    calls: list = []
    render = schema._canonical

    def counted(payload):
        calls.append(payload)
        return render(payload)

    monkeypatch.setattr(schema, "_canonical", counted)
    return calls
